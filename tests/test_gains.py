import math

import numpy as np
import pytest

from gainlab import (
    CertificateBoundInput,
    ConsistencyError,
    DimensionError,
    GainEstimate,
    PositivityCertificate,
    StateSpaceSystem,
    bang_bang_switches,
    certificate_cell_value,
    certificate_gain_bound,
    dc_gain,
    gain_report,
    l1_impulse_gain,
    max_terminal_output,
    onb_upper_bound,
    periodic_upper_estimate,
    positivity_certificate,
    sinusoid_lower_bound,
    sinusoid_response,
    vcurve,
)
from gainlab import gains, linalg
from gainlab_testkit import OSCILLATOR_GAIN, oscillator_kernel, random_siso_system

SQRT5_HALF = math.sqrt(5.0) / 2.0

TOL_ENTRY_POINTS = {
    "l1_impulse_gain": lambda sys, tol: l1_impulse_gain(sys, tol=tol),
    "max_terminal_output": lambda sys, tol: max_terminal_output(sys, 5.0, tol=tol),
    "onb_upper_bound": lambda sys, tol: onb_upper_bound(sys, tol=tol),
    "periodic_upper_estimate": lambda sys, tol: periodic_upper_estimate(sys, tol=tol),
    "gain_report": lambda sys, tol: gain_report(sys, tol=tol),
}


@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
def test_rejects_bad_tol(entry, oscillator):
    # NaN fails the entry guard itself, not a later check deep inside.
    for tol in (0.0, -1e-8, float("nan")):
        with pytest.raises(ValueError, match="^tol must be positive$"):
            TOL_ENTRY_POINTS[entry](oscillator, tol)


def test_one_expm_call_per_refinement_level(oscillator, monkeypatch):
    # The quadrature hands each refinement level to the kernel in one stack,
    # and the 1e-6 width floor caps the levels at 21 after the first call.
    v_end, _ = max_terminal_output(oscillator, 20.0, tol=1e-10)
    calls = []

    def counting(m):
        calls.append(m.shape)
        return original(m)

    original = linalg._expm
    monkeypatch.setattr(linalg, "_expm", counting)
    monkeypatch.setattr(gains, "_expm", counting)
    est = l1_impulse_gain(oscillator)
    assert 0 < len(calls) <= 22
    assert est.value == pytest.approx(OSCILLATOR_GAIN, abs=1e-7)
    calls.clear()
    curve = vcurve(oscillator, np.linspace(0.5, 20.0, 40))
    assert 0 < len(calls) <= 22
    assert curve.values[-1] == pytest.approx(v_end, abs=1e-8)


def transfer_magnitude(sys, omega):
    """Reference |C (i omega I - A)^{-1} B| for SISO systems."""
    n = sys.n
    h = sys.c @ np.linalg.solve(1j * omega * np.eye(n) - sys.a, sys.b)
    return float(np.abs(h[0, 0]))


@pytest.fixture
def triangular_positive():
    # non-Metzler, asymmetric, sign-indefinite C, yet the kernel is e^{-s} > 0
    return StateSpaceSystem(
        a=[[-1.0, -1.0], [0.0, -2.0]], b=[[1.0], [0.0]], c=[[1.0, -1.0]]
    )


class TestGainEstimate:
    def test_kind_validated(self):
        with pytest.raises(ValueError):
            GainEstimate(value=1.0, kind="banana", method="x", tolerance=0.0)

    def test_value_validated(self):
        with pytest.raises(ValueError):
            GainEstimate(value=-1.0, kind="exact", method="x", tolerance=0.0)
        with pytest.raises(ValueError):
            GainEstimate(value=float("nan"), kind="exact", method="x", tolerance=0.0)


class TestL1ImpulseGain:
    def test_scalar_exact(self, scalar_system):
        est = l1_impulse_gain(scalar_system, tol=1e-10)
        assert est.kind == "exact"
        assert est.method == "l1-impulse"
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_oscillator_frozen_value(self, oscillator):
        est = l1_impulse_gain(oscillator, tol=1e-10)
        assert est.kind == "exact"
        assert est.value == pytest.approx(1.389582000246153, abs=1e-9)

    def test_oscillator_dense_trapezoid_oracle(self, oscillator):
        s = np.arange(0.0, 60.0, 1e-4)
        oracle = np.trapezoid(np.abs(oscillator_kernel(s)), dx=1e-4)
        est = l1_impulse_gain(oscillator, tol=1e-8)
        assert est.value == pytest.approx(float(oracle), abs=1e-5)

    def test_two_output_componentwise(self, diag_two_output):
        est = l1_impulse_gain(diag_two_output, tol=1e-10)
        assert est.kind == "upper"
        # kernels e^{-s} and e^{-2s}: integrals 1 and 1/2, combined in norm
        assert est.value == pytest.approx(SQRT5_HALF, abs=1e-9)
        np.testing.assert_allclose(
            est.details["component_integrals"], [1.0, 0.5], atol=1e-9
        )

    def test_tightens_with_tolerance(self, scalar_system):
        loose = l1_impulse_gain(scalar_system, tol=1e-4)
        tight = l1_impulse_gain(scalar_system, tol=1e-10)
        assert abs(loose.value - 1.0) <= 1e-4
        assert abs(tight.value - 1.0) < abs(loose.value - 1.0) + 1e-12

    def test_rejects_multi_input(self):
        sys = StateSpaceSystem(a=-np.eye(2), b=np.eye(2), c=[[1.0, 0.0]])
        with pytest.raises(DimensionError):
            l1_impulse_gain(sys)


class TestDcGain:
    def test_scalar(self, scalar_system):
        est = dc_gain(scalar_system)
        assert est.kind == "exact"
        assert est.details["positivity"] == "assumption-h"
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_metzler(self, metzler_system):
        est = dc_gain(metzler_system)
        assert est.kind == "exact"
        assert est.details["positivity"] == "metzler-nonneg"
        assert est.value == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_grid_verified(self, triangular_positive):
        est = dc_gain(triangular_positive)
        assert est.kind == "exact"
        assert est.details["positivity"] == "grid-verified"
        assert est.value == pytest.approx(1.0, abs=1e-12)

    def test_oscillator_lower_only(self, oscillator):
        est = dc_gain(oscillator)
        assert est.kind == "lower"
        assert est.details["positivity"] is None
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.value <= OSCILLATOR_GAIN

    def test_two_output(self, diag_two_output):
        est = dc_gain(diag_two_output)
        assert est.kind == "exact"
        assert est.value == pytest.approx(SQRT5_HALF, abs=1e-12)

    def test_multi_input_lower(self):
        sys = StateSpaceSystem(a=-np.eye(2), b=np.eye(2), c=[[1.0, 0.0]])
        est = dc_gain(sys)
        assert est.kind == "lower"
        assert est.value == pytest.approx(1.0, abs=1e-12)


class TestPositivityCertificate:
    def test_precedence_assumption_h(self, scalar_system):
        assert positivity_certificate(scalar_system) is PositivityCertificate.ASSUMPTION_H

    def test_symmetric_identity_output(self, diag_two_output):
        assert (
            positivity_certificate(diag_two_output)
            is PositivityCertificate.ASSUMPTION_H
        )

    def test_metzler(self, metzler_system):
        assert (
            positivity_certificate(metzler_system)
            is PositivityCertificate.METZLER_NONNEG
        )

    def test_grid_verified(self, triangular_positive):
        assert (
            positivity_certificate(triangular_positive)
            is PositivityCertificate.GRID_VERIFIED
        )

    def test_oscillator_none(self, oscillator):
        assert positivity_certificate(oscillator) is None

    def test_rejects_multi_input(self):
        sys = StateSpaceSystem(a=-np.eye(2), b=np.eye(2), c=[[1.0, 0.0]])
        with pytest.raises(DimensionError):
            positivity_certificate(sys)


class TestMaxTerminalOutput:
    def test_scalar_closed_form(self, scalar_system):
        # V(T) = integral of e^{-s} over [0, T]
        for t in (0.5, 1.0, 3.0):
            val, d = max_terminal_output(scalar_system, t)
            assert val == pytest.approx(1.0 - math.exp(-t), abs=1e-8)
            assert d == pytest.approx([1.0])

    def test_oscillator_approaches_gain(self, oscillator):
        val, _ = max_terminal_output(oscillator, 15.0)
        assert val <= OSCILLATOR_GAIN + 1e-9
        assert OSCILLATOR_GAIN - val < 2e-3

    def test_two_output_is_lower_bound(self, diag_two_output):
        val, d = max_terminal_output(diag_two_output, 20.0, tol=1e-10)
        assert d.shape == (2,)
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-9)
        # the exact gain is sqrt(5)/2 (positivity certified dc value)
        assert val <= SQRT5_HALF + 1e-8
        assert val >= SQRT5_HALF - 1e-3

    def test_rejects_bad_horizon(self, scalar_system):
        with pytest.raises(ValueError):
            max_terminal_output(scalar_system, 0.0)


class TestVCurve:
    def test_matches_pointwise(self, oscillator):
        hs = [1.0, 2.0, 4.0, 8.0]
        curve = vcurve(oscillator, hs, tol=1e-9)
        assert curve.exact
        for t, v in zip(hs, curve.values):
            ref, _ = max_terminal_output(oscillator, t, tol=1e-10)
            assert v == pytest.approx(ref, abs=1e-7)

    def test_monotone_nondecreasing(self, oscillator):
        curve = vcurve(oscillator, np.linspace(0.5, 20.0, 40), tol=1e-9)
        assert np.all(np.diff(curve.values) >= -1e-9)

    def test_two_output_not_exact(self, diag_two_output):
        curve = vcurve(diag_two_output, [1.0, 5.0], tol=1e-8)
        assert not curve.exact
        assert len(curve.directions) == 2

    def test_rejects_bad_grid(self, scalar_system):
        with pytest.raises(ValueError):
            vcurve(scalar_system, [2.0, 1.0])
        with pytest.raises(ValueError):
            vcurve(scalar_system, [])


class TestBangBangSwitches:
    def test_scalar_no_switches(self, scalar_system):
        u = bang_bang_switches(scalar_system, 5.0)
        assert u.switch_times.size == 0
        assert u.initial_sign == 1
        assert not u.zero_kernel

    def test_oscillator_switch_oracle(self, oscillator):
        # kernel zeros at s = T - 2 pi k / sqrt(3)
        t_end = 15.0
        u = bang_bang_switches(oscillator, t_end)
        period = 2.0 * math.pi / math.sqrt(3.0)
        expected = sorted(
            t_end - period * k
            for k in range(1, int(t_end / period) + 1)
            if t_end - period * k > 0
        )
        np.testing.assert_allclose(u.switch_times, expected, atol=1e-9)
        # sign on each segment matches the sign of the closed-form kernel
        bounds = [0.0, *u.switch_times, t_end]
        for lo, hi in zip(bounds, bounds[1:]):
            mid = 0.5 * (lo + hi)
            assert u.sign_at(mid) == (1 if oscillator_kernel(t_end - mid) >= 0 else -1)

    def test_zero_kernel_detected(self):
        # C B and C A B vanish identically in the observable direction
        sys = StateSpaceSystem(
            a=[[-1.0, 0.0], [0.0, -2.0]], b=[[0.0], [1.0]], c=[[1.0, 0.0]]
        )
        u = bang_bang_switches(sys, 4.0)
        assert u.zero_kernel

    def test_rejects_multi_output(self, diag_two_output):
        with pytest.raises(DimensionError):
            bang_bang_switches(diag_two_output, 1.0)


class TestSinusoidResponse:
    def test_scalar_closed_form(self, scalar_system):
        for omega in (0.1, 1.0, 10.0):
            val = sinusoid_response(scalar_system, omega)
            assert val == pytest.approx(1.0 / math.sqrt(1.0 + omega**2), abs=1e-12)

    def test_matches_transfer_function_siso(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            sys = random_siso_system(rng, n_max=4)
            omega = float(rng.uniform(0.05, 20.0))
            assert sinusoid_response(sys, omega) == pytest.approx(
                transfer_magnitude(sys, omega), rel=1e-9, abs=1e-12
            )

    def test_rejects_bad_omega(self, scalar_system):
        with pytest.raises(ValueError):
            sinusoid_response(scalar_system, 0.0)


class TestSinusoidLowerBound:
    def test_scalar_near_unity(self, scalar_system):
        est = sinusoid_lower_bound(scalar_system)
        assert est.kind == "lower"
        assert est.value <= 1.0 + 1e-12
        assert est.value >= 1.0 - 1e-5

    def test_oscillator_resonance(self, oscillator):
        est = sinusoid_lower_bound(oscillator)
        # peak of |H(i w)| for the damped oscillator: w^2 = 1/2 gives 2/sqrt(3)
        assert est.value == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-6)
        assert est.details["omega"] == pytest.approx(math.sqrt(0.5), rel=1e-2)
        assert est.value <= OSCILLATOR_GAIN

    def test_refinement_improves(self, oscillator):
        coarse = sinusoid_lower_bound(oscillator, omegas=[0.3, 1.0, 3.0], refine=False)
        fine = sinusoid_lower_bound(oscillator, omegas=[0.3, 1.0, 3.0], refine=True)
        assert fine.value >= coarse.value - 1e-15

    def test_rejects_bad_grid(self, scalar_system):
        with pytest.raises(ValueError):
            sinusoid_lower_bound(scalar_system, omegas=[-1.0, 1.0])


class TestOnbUpperBound:
    def test_scalar(self, scalar_system):
        est = onb_upper_bound(scalar_system, tol=1e-10)
        assert est.kind == "upper"
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_two_output_standard_basis_optimal(self, diag_two_output):
        est = onb_upper_bound(diag_two_output, random_bases=6, tol=1e-9)
        # rotating the output basis only mixes the kernels, never improves here,
        # so every basis value ties with or exceeds the true gain sqrt(5)/2
        assert est.value == pytest.approx(SQRT5_HALF, abs=1e-7)
        assert len(est.details["basis_values"]) == 7
        assert all(v >= SQRT5_HALF - 1e-7 for v in est.details["basis_values"])

    def test_seed_deterministic(self, diag_two_output):
        a = onb_upper_bound(diag_two_output, random_bases=3, seed=5)
        b = onb_upper_bound(diag_two_output, random_bases=3, seed=5)
        assert a.value == b.value


class TestPeriodicUpperEstimate:
    def test_scalar_identically_one(self, scalar_system):
        est = periodic_upper_estimate(scalar_system, tol=1e-10)
        assert est.kind == "estimate"
        np.testing.assert_allclose(est.details["values"], 1.0, atol=1e-9)
        assert est.value == pytest.approx(1.0, abs=1e-9)

    def test_siso_large_period_converges_to_gain(self):
        # kernel e^{-s} + e^{-2s} is positive: gain = 1.5 exactly
        sys = StateSpaceSystem(
            a=[[-1.0, 0.0], [0.0, -2.0]], b=[[1.0], [1.0]], c=[[1.0, 1.0]]
        )
        est = periodic_upper_estimate(sys, t_grid=[40.0], tol=1e-11)
        assert est.value == pytest.approx(1.5, abs=1e-10)

    def test_siso_bounds_gain_above(self, oscillator):
        est = periodic_upper_estimate(oscillator, tol=1e-9)
        assert est.value >= OSCILLATOR_GAIN - 1e-6
        vals = est.details["values"]
        assert max(vals) == est.value

    def test_two_output_euclidean_limit(self, diag_two_output):
        # large-T limit integrates the pointwise Euclidean kernel norm:
        # int_0^inf sqrt(e^{-2s} + e^{-4s}) ds = (sqrt(2) + asinh(1)) / 2
        expected = (math.sqrt(2.0) + math.asinh(1.0)) / 2.0
        est = periodic_upper_estimate(diag_two_output, t_grid=[40.0], tol=1e-10)
        assert est.value == pytest.approx(expected, abs=1e-8)

    def test_rejects_bad_grid(self, scalar_system):
        with pytest.raises(ValueError):
            periodic_upper_estimate(scalar_system, t_grid=[0.0])


class TestCertificateBound:
    def closed_form(self, m_const, sigma, horizon, level):
        decay = m_const * math.exp(-sigma * horizon)
        return (1.0 + m_const * (1.0 - math.exp(-sigma * horizon))) / (1.0 - decay) * level

    def test_constant_envelope_cells(self):
        data = CertificateBoundInput(
            certificates=[(2.0, 1.0)],
            b_samples=[[0.0, 1.0]],
            t_grid=[2.0, 4.0, 8.0, 16.0],
        )
        est = certificate_gain_bound(data)
        cells = est.details["cells"]
        assert len(cells) == 4
        for cell in cells:
            ref = self.closed_form(2.0, 1.0, cell["horizon"], 1.0)
            assert cell["value"] == pytest.approx(ref, abs=1e-12)
        # every cell exceeds the envelope supremum, so the bound falls back
        assert est.details["used_fallback"]
        assert est.value == pytest.approx(1.0)
        assert est.kind == "upper"
        assert est.method == "theorem41"

    def test_cells_approach_limit(self):
        # closed form tends to level * (M + 1) as the horizon grows
        data = CertificateBoundInput(
            certificates=[(2.0, 1.0)], b_samples=[[0.0, 1.0]], t_grid=[30.0]
        )
        est = certificate_gain_bound(data)
        assert est.details["cells"][0]["value"] == pytest.approx(3.0, abs=1e-3)

    def test_short_horizon_skipped(self):
        # M exp(-sigma T) >= 1: the split certifies nothing
        assert certificate_cell_value(2.0, 1.0, np.array([[0.0, 1.0]]), 0.5) is None
        data = CertificateBoundInput(
            certificates=[(2.0, 1.0)], b_samples=[[0.0, 1.0]], t_grid=[0.5]
        )
        est = certificate_gain_bound(data)
        assert est.details["cells"] == []
        assert est.value == pytest.approx(1.0)

    def test_step_envelope_lookup(self):
        samples = np.array([[0.0, 1.0], [1.0, 2.0]])
        val = certificate_cell_value(2.0, 1.0, samples, 3.0)
        decay = 2.0 * math.exp(-3.0)
        denom = 1.0 - decay
        cand0 = 2.0 * 1.0 * 2.0 / denom + 1.0
        cand1 = 2.0 * math.exp(-1.0) * 2.0 / denom + 2.0
        assert val == pytest.approx(max(cand0, cand1), abs=1e-12)

    def test_multiple_certificates_take_min(self):
        data = CertificateBoundInput(
            certificates=[(2.0, 1.0), (1.5, 2.0)],
            b_samples=[[0.0, 1.0]],
            t_grid=[8.0],
        )
        est = certificate_gain_bound(data)
        ref = min(
            self.closed_form(2.0, 1.0, 8.0, 1.0),
            self.closed_form(1.5, 2.0, 8.0, 1.0),
            1.0,
        )
        assert est.value == pytest.approx(ref, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            CertificateBoundInput(certificates=[], b_samples=[[0.0, 1.0]], t_grid=[1.0])
        with pytest.raises(ValueError):
            CertificateBoundInput(
                certificates=[(0.5, 1.0)], b_samples=[[0.0, 1.0]], t_grid=[1.0]
            )
        with pytest.raises(ValueError):
            CertificateBoundInput(
                certificates=[(2.0, -1.0)], b_samples=[[0.0, 1.0]], t_grid=[1.0]
            )
        with pytest.raises(ValueError):
            CertificateBoundInput(
                certificates=[(2.0, 1.0)], b_samples=[[0.5, 1.0]], t_grid=[1.0]
            )
        with pytest.raises(ValueError):
            CertificateBoundInput(
                certificates=[(2.0, 1.0)],
                b_samples=[[0.0, 2.0], [1.0, 1.0]],
                t_grid=[1.0],
            )
        with pytest.raises(ValueError):
            CertificateBoundInput(
                certificates=[(2.0, 1.0)], b_samples=[[0.0, 1.0]], t_grid=[]
            )


class TestGainReport:
    def test_scalar(self, scalar_system):
        rep = gain_report(scalar_system, tol=1e-10)
        assert rep.exact is not None
        assert rep.exact.value == pytest.approx(1.0, abs=1e-9)
        assert rep.positivity is PositivityCertificate.ASSUMPTION_H
        assert rep.dims == (1, 1, 1)
        assert {e.method for e in rep.lowers} == {"dc", "sinusoid"}
        assert {e.method for e in rep.uppers} == {"onb", "periodic"}
        for low in rep.lowers:
            assert low.value <= rep.exact.value + 1e-9

    def test_two_output_exact_from_positivity(self, diag_two_output):
        rep = gain_report(diag_two_output, tol=1e-9)
        assert rep.exact is not None
        assert rep.exact.method == "dc"
        assert rep.exact.value == pytest.approx(SQRT5_HALF, abs=1e-9)
        assert {e.method for e in rep.uppers} == {"l1-impulse", "onb", "periodic"}

    def test_oscillator_brackets_gain(self, oscillator):
        rep = gain_report(oscillator, tol=1e-9)
        assert rep.exact is not None
        assert rep.exact.value == pytest.approx(OSCILLATOR_GAIN, abs=1e-7)
        for low in rep.lowers:
            assert low.value <= OSCILLATOR_GAIN + 1e-9
        for high in rep.uppers:
            if high.kind == "upper":
                assert high.value >= OSCILLATOR_GAIN - 1e-7

    def test_multi_input_reduced(self):
        sys = StateSpaceSystem(a=-np.eye(2), b=np.eye(2), c=[[1.0, 0.0]])
        rep = gain_report(sys)
        assert rep.exact is None
        assert rep.uppers == ()
        assert len(rep.lowers) == 1
        assert any("multi-input" in note for note in rep.notes)

    def test_grid_positivity_notes(self, triangular_positive):
        rep = gain_report(triangular_positive, tol=1e-9)
        assert rep.positivity is PositivityCertificate.GRID_VERIFIED
        assert any("grid" in note for note in rep.notes)

    def test_random_systems_self_consistent(self):
        rng = np.random.default_rng(99)
        for _ in range(10):
            sys = random_siso_system(rng, n_max=4)
            rep = gain_report(sys, tol=1e-8)  # must not raise ConsistencyError
            assert rep.exact is not None
            for low in rep.lowers:
                assert low.value <= rep.exact.value + 1e-6 * max(1.0, rep.exact.value)

    def test_inconsistency_detected(self, monkeypatch):
        import gainlab.gains as gains_mod

        def fake_dc(sys, grid_n=64):
            return GainEstimate(
                value=100.0,
                kind="lower",
                method="dc",
                tolerance=0.0,
                details={"positivity": None},
            )

        monkeypatch.setattr(gains_mod, "dc_gain", fake_dc)
        with pytest.raises(ConsistencyError):
            gain_report(StateSpaceSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0]]))

    def test_one_positivity_certificate(self, oscillator, monkeypatch):
        calls = []
        original = gains.positivity_certificate

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(gains, "positivity_certificate", counting)
        rep = gain_report(oscillator, tol=1e-8)
        assert len(calls) == 1
        assert rep.positivity is None
