import math

import numpy as np
import pytest

from gainlab import (
    BangBangInput,
    Constant,
    PeriodicExtension,
    Sinusoid,
    Zero,
    evaluate,
    iter_segments,
    signal_dim,
    sup_norm,
)


class TestBasicSignals:
    def test_zero(self):
        z = Zero(dim=3)
        assert signal_dim(z) == 3
        assert sup_norm(z) == 0.0
        np.testing.assert_array_equal(evaluate(z, 1.7), np.zeros(3))

    def test_constant(self):
        u = Constant(u0=[3.0, 4.0])
        assert signal_dim(u) == 2
        assert sup_norm(u) == pytest.approx(5.0)
        np.testing.assert_array_equal(evaluate(u, 0.0), [3.0, 4.0])
        np.testing.assert_array_equal(evaluate(u, 9.9), [3.0, 4.0])

    def test_sinusoid(self):
        u = Sinusoid(direction=[1.0], omega=2.0, phase=0.5)
        assert signal_dim(u) == 1
        assert sup_norm(u) == pytest.approx(1.0)
        for t in (0.0, 0.3, 1.1):
            assert evaluate(u, t)[0] == pytest.approx(math.sin(2.0 * t + 0.5))

    def test_sinusoid_unit_direction_required(self):
        with pytest.raises(ValueError):
            Sinusoid(direction=[2.0], omega=1.0)

    @pytest.mark.parametrize(
        "omega, phase, field",
        [(math.inf, 0.0, "omega"), (math.nan, 0.0, "omega"), (0.0, 0.0, "omega"),
         (-1.0, 0.0, "omega"), (1.0, math.nan, "phase"), (1.0, math.inf, "phase"),
         (1.0, -math.inf, "phase")],
    )
    def test_sinusoid_rejects_non_finite_parameters(self, omega, phase, field):
        # An infinite omega reached simulate as an OverflowError, a NaN phase
        # as a state diverging at the first step.
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            Sinusoid([1.0], omega, phase)

    def test_sinusoid_direction_sets_vector(self):
        d = np.array([0.6, 0.8])
        u = Sinusoid(direction=d, omega=1.0)
        np.testing.assert_allclose(evaluate(u, math.pi / 2.0), d * math.sin(math.pi / 2.0))


class TestBangBang:
    def test_sign_walk(self):
        u = BangBangInput(horizon=4.0, switch_times=[1.0, 2.5], initial_sign=1)
        assert evaluate(u, 0.5)[0] == 1.0
        assert evaluate(u, 1.5)[0] == -1.0
        assert evaluate(u, 3.0)[0] == 1.0
        # zero after horizon
        assert evaluate(u, 4.5)[0] == 0.0
        assert sup_norm(u) == 1.0

    def test_switch_point_takes_next_sign(self):
        u = BangBangInput(horizon=2.0, switch_times=[1.0], initial_sign=1)
        assert evaluate(u, 1.0)[0] == -1.0

    def test_initial_sign_minus(self):
        u = BangBangInput(horizon=2.0, switch_times=[], initial_sign=-1)
        assert evaluate(u, 0.3)[0] == -1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            BangBangInput(horizon=-1.0, switch_times=[])
        with pytest.raises(ValueError):
            BangBangInput(horizon=1.0, switch_times=[0.5, 0.2])
        with pytest.raises(ValueError):
            BangBangInput(horizon=1.0, switch_times=[2.0])
        with pytest.raises(ValueError):
            BangBangInput(horizon=1.0, switch_times=[], initial_sign=2)

    def test_zero_kernel_flag_silences_input(self):
        u = BangBangInput(horizon=1.0, switch_times=[], zero_kernel=True)
        assert u.zero_kernel
        assert evaluate(u, 0.5)[0] == 0.0
        assert sup_norm(u) == 0.0


class TestPeriodicExtension:
    def test_folding(self):
        base = BangBangInput(horizon=1.0, switch_times=[0.5])
        u = PeriodicExtension(base=base, base_span=1.0, period=2.0)
        assert evaluate(u, 0.25)[0] == 1.0
        assert evaluate(u, 0.75)[0] == -1.0
        # rest part of the period
        assert evaluate(u, 1.5)[0] == 0.0
        # next period repeats
        assert evaluate(u, 2.25)[0] == 1.0
        assert sup_norm(u) == 1.0

    def test_validation(self):
        base = Constant(u0=[1.0])
        with pytest.raises(ValueError):
            PeriodicExtension(base=base, base_span=2.0, period=1.0)
        with pytest.raises(ValueError):
            PeriodicExtension(base=base, base_span=-1.0, period=1.0)
        with pytest.raises(ValueError):
            PeriodicExtension(base=base, base_span=0.0, period=0.0)

    @pytest.mark.parametrize("span", [0.0, 1.0, math.inf])
    @pytest.mark.parametrize("period", [math.inf, math.nan])
    def test_rejects_non_finite_period(self, span, period):
        # An infinite period made evaluate return NaN while simulate ran the
        # base once.
        with pytest.raises(ValueError, match="^period must be finite"):
            PeriodicExtension(base=Constant(u0=[1.0]), base_span=span, period=period)


class TestSegments:
    def _check_consistency(self, signal, t_end, dim):
        segs = list(iter_segments(signal, t_end))
        assert segs[0].start == 0.0
        assert segs[-1].end == t_end
        for prev, cur in zip(segs, segs[1:]):
            assert cur.start == pytest.approx(prev.end)
        # segment description must reproduce pointwise evaluation
        for seg in segs:
            mid = 0.5 * (seg.start + seg.end)
            direct = evaluate(signal, mid)
            if seg.kind == "const":
                np.testing.assert_allclose(seg.value, direct, atol=1e-12)
            else:
                local = mid - seg.start
                expected = seg.direction * math.sin(seg.omega * local + seg.theta0)
                np.testing.assert_allclose(expected, direct, atol=1e-12)
            assert len(evaluate(signal, mid)) == dim

    def test_constant_single_segment(self):
        segs = list(iter_segments(Constant(u0=[2.0]), 5.0))
        assert len(segs) == 1
        assert segs[0].kind == "const"

    def test_sinusoid_single_segment(self):
        segs = list(iter_segments(Sinusoid(direction=[1.0], omega=3.0), 4.0))
        assert len(segs) == 1
        assert segs[0].kind == "sin"
        self._check_consistency(Sinusoid(direction=[1.0], omega=3.0), 4.0, 1)

    def test_bang_bang_segments(self):
        # Three constant pieces (a vanishing kernel's none) and the zero
        # tail past the horizon.
        cases = (([0.7, 1.3], False, [1.0, -1.0, 1.0, 0.0]), ([], True, [0.0, 0.0]))
        for switches, zero_kernel, values in cases:
            u = BangBangInput(horizon=2.0, switch_times=switches, zero_kernel=zero_kernel)
            self._check_consistency(u, 3.0, 1)
            segs = list(iter_segments(u, 3.0))
            assert [seg.value[0] for seg in segs] == values
            assert segs[-2].end == 2.0

    def test_periodic_segments(self):
        # Cut off at the end of a base span, inside one, and inside the rest,
        # with a switching base and a vanishing one.
        for switches, zero_kernel in (([0.5], False), ([], True)):
            base = BangBangInput(horizon=1.0, switch_times=switches, zero_kernel=zero_kernel)
            u = PeriodicExtension(base=base, base_span=1.0, period=1.5)
            for t_end in (4.0, 3.7, 4.2):
                self._check_consistency(u, t_end, 1)

    def test_periodic_sinusoid_phase_tracking(self):
        base = Sinusoid(direction=[1.0], omega=2.0, phase=0.3)
        u = PeriodicExtension(base=base, base_span=1.0, period=1.0)
        self._check_consistency(u, 3.7, 1)

    def test_truncation_mid_segment(self):
        u = BangBangInput(horizon=2.0, switch_times=[0.7])
        segs = list(iter_segments(u, 0.5))
        assert len(segs) == 1
        assert segs[0].end == pytest.approx(0.5)


SWITCHING = BangBangInput(horizon=2.0, switch_times=[0.5, 1.25], initial_sign=-1)
ARRAY_CASES = [
    (Zero(dim=3), np.linspace(-1.0, 5.0, 13)),
    (Constant(u0=[3.0, -4.0]), np.linspace(-1.0, 5.0, 13)),
    (Sinusoid(direction=[1.0], omega=1.0), np.arange(2000) * (0.5 / 64)),
    (Sinusoid(direction=[0.6, 0.8], omega=0.1, phase=0.3), np.arange(2000) * 0.013),
    (Sinusoid(direction=[1.0], omega=10.0, phase=-2.0), np.arange(2000) * 0.0071),
    (Sinusoid(direction=[0.0, 1.0], omega=37.5, phase=math.pi / 3), np.linspace(0, 90, 997)),
    # on each switch time, before 0, on and after the horizon
    (SWITCHING, np.array([-1.0, -1e-300, 0.0, 0.3, 0.5, 0.9, 1.25, 1.9, 2.0, 2.0001, 7.0])),
    (
        BangBangInput(horizon=1.0, switch_times=[0.4], zero_kernel=True),
        np.array([-0.5, 0.0, 0.4, 0.7, 1.0, 3.0]),
    ),
    # on period multiples, on base_span and inside the zero pad
    (
        PeriodicExtension(base=SWITCHING, base_span=2.0, period=3.0),
        np.array([0.0, 0.5, 1.25, 2.0, 2.5, 3.0, 3.5, 5.0, 6.0, 9.0, 300.0, 301.25, 302.0]),
    ),
    (
        PeriodicExtension(Sinusoid(direction=[1.0], omega=2.0, phase=0.3), 1.0, 1.5),
        np.arange(400) * 0.0375,
    ),
]


class TestArrayEvaluate:
    @pytest.mark.parametrize(
        "signal, times",
        ARRAY_CASES,
        ids=[
            "zero",
            "constant",
            "sin-cli-grid",
            "sin-slow-phase",
            "sin-fast-phase",
            "sin-2d",
            "bang-bang",
            "bang-bang-zero-kernel",
            "periodic-bang-bang",
            "periodic-sinusoid",
        ],
    )
    def test_rows_match_scalar_calls(self, signal, times):
        rows = evaluate(signal, times)
        assert rows.shape == (times.size, signal_dim(signal))
        for t, row in zip(times, rows):
            scalar = evaluate(signal, float(t))
            assert scalar.shape == (signal_dim(signal),)
            np.testing.assert_array_equal(row, scalar)

    def test_agrees_with_math_sin(self):
        u = Sinusoid(direction=[0.6, 0.8], omega=2.5, phase=0.7)
        times = np.arange(1000) * 0.01
        expected = [u.direction * math.sin(2.5 * t + 0.7) for t in times.tolist()]
        np.testing.assert_allclose(evaluate(u, times), expected, rtol=0, atol=1e-15)

    def test_bang_bang_values(self):
        values = evaluate(SWITCHING, np.array([-0.1, 0.0, 0.5, 1.25, 2.0, 2.1]))
        np.testing.assert_array_equal(values[:, 0], [0.0, -1.0, 1.0, -1.0, -1.0, 0.0])

    def test_shapes(self):
        u = Constant(u0=[1.0, 2.0])
        assert evaluate(u, 0.5).shape == (2,)
        assert evaluate(u, np.float64(0.5)).shape == (2,)
        assert evaluate(u, np.array([0.5])).shape == (1, 2)
        assert evaluate(u, np.linspace(0.0, 1.0, 7)).shape == (7, 2)
        assert evaluate(u, np.array([])).shape == (0, 2)
        with pytest.raises(ValueError):
            evaluate(u, np.zeros((2, 2)))
