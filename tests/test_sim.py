import functools
import math
import re

import numpy as np
import pytest
import scipy.linalg

from gainlab import (
    BangBangInput,
    Constant,
    DelayPredictorSystem,
    DimensionError,
    PeriodicExtension,
    SimulationError,
    Sinusoid,
    StateSpaceSystem,
    Zero,
    bang_bang_switches,
    evaluate,
    gain_report,
    l1_impulse_gain,
    mat_exp,
    max_terminal_output,
    simulate,
    simulate_predictor,
    verify_gain_equality,
    worst_case_periodic_input,
)
from gainlab import gains, linalg, sim
from gainlab.signals import iter_segments as signal_segments
from gainlab_testkit import (
    decoupled_pairs,
    full_recording_gains,
    halving_input_scale,
    kernel_zeros,
    quad_kernel_integrals,
    random_hurwitz_matrix,
    random_siso_system,
    reference_simulate,
    segmentwise_simulate,
)


class TestSimulateExactness:
    def test_scalar_step_response(self, scalar_system):
        traj = simulate(scalar_system, Constant(u0=[1.0]), [0.0], 5.0, 0.1)
        expected = 1.0 - np.exp(-traj.times)
        np.testing.assert_allclose(traj.states[:, 0], expected, atol=1e-13)
        np.testing.assert_allclose(traj.outputs[:, 0], expected, atol=1e-13)

    def test_scalar_sinusoid_response(self, scalar_system):
        omega = 2.0
        traj = simulate(
            scalar_system, Sinusoid(direction=[1.0], omega=omega), [0.5], 4.0, 0.05
        )
        t = traj.times
        forced = (np.sin(omega * t) - omega * np.cos(omega * t) + omega * np.exp(-t)) / (
            1.0 + omega**2
        )
        expected = 0.5 * np.exp(-t) + forced
        np.testing.assert_allclose(traj.states[:, 0], expected, atol=1e-12)

    def test_matrix_constant_input(self, oscillator):
        a = oscillator.a
        b = oscillator.b.reshape(-1)
        traj = simulate(oscillator, Constant(u0=[1.0]), np.zeros(2), 6.0, 0.25)
        for t, x in zip(traj.times, traj.states):
            expected = (mat_exp(a, t) - np.eye(2)) @ np.linalg.solve(a, b)
            np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_grid_independence(self, oscillator):
        u = Sinusoid(direction=[1.0], omega=1.3, phase=0.4)
        fine = simulate(oscillator, u, [0.1, -0.2], 5.0, 0.1)
        coarse = simulate(oscillator, u, [0.1, -0.2], 5.0, 0.5)
        # states at shared grid times must agree to rounding, h is bookkeeping
        np.testing.assert_allclose(fine.states[::5], coarse.states, atol=1e-12)

    def test_bang_bang_segments_exact(self, scalar_system):
        u = BangBangInput(horizon=2.0, switch_times=[1.0])
        traj = simulate(scalar_system, u, [0.0], 3.0, 0.125)
        # closed form: rises to 1-e^{-1}, then flips drive to -1, then decays
        x1 = 1.0 - math.exp(-1.0)
        for t, x in zip(traj.times, traj.states[:, 0]):
            if t <= 1.0:
                expected = 1.0 - math.exp(-t)
            elif t <= 2.0:
                s = t - 1.0
                expected = x1 * math.exp(-s) - (1.0 - math.exp(-s))
            else:
                x2 = x1 * math.exp(-1.0) - (1.0 - math.exp(-1.0))
                expected = x2 * math.exp(-(t - 2.0))
            assert x == pytest.approx(expected, abs=1e-13)

    def test_validation(self, scalar_system):
        with pytest.raises(DimensionError):
            simulate(scalar_system, Zero(dim=2), [0.0], 1.0, 0.1)
        with pytest.raises(DimensionError):
            simulate(scalar_system, Zero(dim=1), [0.0, 0.0], 1.0, 0.1)
        with pytest.raises(ValueError):
            simulate(scalar_system, Zero(dim=1), [0.0], 1.0, 0.0)

    @pytest.mark.parametrize("k", [6, 10, 15, 300])
    def test_stiff_scalar_family(self, k):
        # A = -a, B = a, C = 1, a = 10^k: under u = 1, x = 1 - e^{-a t}; under
        # u = sin t, x = (sin t - r cos t + r e^{-a t}) / (1 + r^2), r = 1 / a.
        # Each squaring doubled the rounding of the input's own state: y(20)
        # was 0.61 at k = 15 and x was 0 from k = 20 on.
        a = 10.0**k
        system = StateSpaceSystem(a=[[-a]], b=[[a]], c=[[1.0]])
        traj = simulate(system, Constant([1.0]), [0.0], 20.0, 0.01)
        t = traj.times
        np.testing.assert_allclose(traj.outputs[:, 0], 1.0 - np.exp(-a * t), rtol=0.0, atol=1e-12)
        traj = simulate(system, Sinusoid(direction=[1.0], omega=1.0), [0.0], 20.0, 0.01)
        exact = (np.sin(t) - np.cos(t) / a + np.exp(-a * t) / a) / (1.0 + a**-2)
        np.testing.assert_allclose(traj.outputs[:, 0], exact, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("x0", [[math.nan, 0.0], [0.0, math.inf]])
    def test_rejects_non_finite_x0(self, oscillator, x0):
        with pytest.raises(ValueError, match="x0"):
            simulate(oscillator, Constant([1.0]), x0, 1.0, 0.1)

    def test_divergence_names_the_first_non_finite_row(self):
        # x_1 = 1e3 t e^-t x_2(0) passes the largest double between the grid
        # rows at t = 0.25 and t = 0.5, inside one orbit block.
        system = StateSpaceSystem(a=[[-1.0, 1e3], [0.0, -1.0]], b=[[0.0], [1.0]], c=[[1.0, 0.0]])
        with pytest.raises(SimulationError, match=r"diverged at t=0\.5$"):
            simulate(system, Zero(dim=1), [0.0, 8e305], 5.0, 0.25)


def _two_input_system():
    rng = np.random.default_rng(41)
    a = random_hurwitz_matrix(rng, n=3)
    return StateSpaceSystem(a=a, b=rng.standard_normal((3, 2)), c=rng.standard_normal((2, 3)))


_BANG = dict(horizon=4.0, initial_sign=-1)
# (signal, t_end, h) on the oscillator unless the signal has two channels.
_REFERENCE_CASES = {
    "zero": (Zero(dim=1), 5.0, 0.1),
    "constant-one-step": (Constant([0.7]), 7.0, 7.0),
    "constant-m2": (Constant([0.6, -0.8]), 20.0, 0.001),
    "sinusoid": (Sinusoid([1.0], 2.3, 0.4), 10.0, 0.01),
    # 20,000 rows of a 4-entry flow: more than one block of 65536 // 4 rows
    "sinusoid-two-blocks": (Sinusoid([1.0], 0.7, -1.0), 200.0, 0.01),
    # ||G||_1 h = 21 * 0.25 = 5.25: the cell is h / 16, four ladder powers
    # below exp(G h).
    "sinusoid-coarse-step": (Sinusoid([1.0], 20.0, 0.3), 6.0, 0.25),
    "bang-switch-on-grid": (BangBangInput(switch_times=[1.0, 2.5], **_BANG), 6.0, 0.25),
    "bang-switch-near-grid": (
        BangBangInput(switch_times=[1.0 + 1e-13, 2.5 - 5e-14], **_BANG), 6.0, 0.25
    ),
    "bang-switch-in-cell": (BangBangInput(switch_times=[1.1, 2.37], **_BANG), 6.0, 0.25),
    "periodic-bang-multiple": (
        PeriodicExtension(BangBangInput(2.0, [0.5, 1.25]), 2.0, 3.0), 30.0, 0.125
    ),
    "periodic-bang-non-multiple": (
        PeriodicExtension(BangBangInput(2.0, [0.5, 1.25]), 2.0, 3.3), 33.0, 0.125
    ),
    "periodic-sinusoid-multiple": (
        PeriodicExtension(Sinusoid([1.0], 3.0), 1.5, 2.5), 25.0, 0.0625
    ),
    "periodic-sinusoid-non-multiple": (
        PeriodicExtension(Sinusoid([1.0], 3.0), 1.5, 2.45), 25.0, 0.0625
    ),
}


def _assert_matches_reference(traj, ref):
    np.testing.assert_array_equal(traj.times, ref.times)
    scale = np.max(np.abs(ref.states), axis=0)
    assert np.all(np.abs(traj.states - ref.states) <= 1e-12 * scale)


def _gain_figures(system):
    """worstcase's figures (the input's switches and period, the outputs
    over three periods) and verify's record, which must pass."""
    signal, spec = worst_case_periodic_input(system, 4.0, 1e-6)
    outputs = simulate(system, signal, np.zeros(system.n), 3.0 * spec.period, spec.period / 4096).outputs
    record = verify_gain_equality(system, 0.01)
    assert record.passed
    return {
        "worstcase": np.append(signal.base.switch_times, spec.period),
        "worstcase-outputs": outputs,
        "verify": np.array([getattr(record, name) for name in vars(record) if name != "passed"]),
    }


def _scaled_figures(k):
    """simulate's, worstcase's and verify's figures for A = -1, B = 10^k,
    C = 10^-k, whose kernel is e^{-s} for every k."""
    system = StateSpaceSystem(a=[[-1.0]], b=[[10.0**k]], c=[[10.0**-k]])
    return {
        "constant": simulate(system, Constant([1.0]), np.zeros(1), 5.0, 0.01).outputs,
        "sinusoid": simulate(system, Sinusoid([1.0], 2.0), np.zeros(1), 5.0, 0.01).outputs,
        **_gain_figures(system),
    }


@functools.cache
def _scaled_kernel_figures(k, c):
    """gain_report's, worstcase's and verify's figures for A = diag(-1, -2),
    B = 10^k (1, 1)', C = 10^-k c, whose kernel c_1 e^{-s} + c_2 e^{-2s}
    changes sign once for every k."""
    b, c = np.full((2, 1), 10.0**k), [np.multiply(c, 10.0**-k)]
    system = StateSpaceSystem(a=np.diag([-1.0, -2.0]), b=b, c=c)
    report = gain_report(system)
    assert report.positivity is None and report.exact.method == "l1-impulse"
    details = report.exact.details
    summary = [details["horizon"], *details["component_integrals"], *details["roots"]]
    lowers = [low.value for low in report.lowers]
    return {
        "report": np.array([report.exact.value, *summary, details["unresolved_bound"], *lowers]),
        **_gain_figures(system),
    }


def _assert_figures_match(figures, reference):
    for name, values in figures.items():
        gap = np.max(np.abs(values - reference[name])) / np.max(np.abs(reference[name]))
        assert gap <= 1e-12, (name, gap)


class TestScaledInputMatrix:
    """A large input matrix no longer sets the simulator's cells: the input
    block is scaled by a power of two.  At k = 20 the walk used to record
    y = 0 exactly; worstcase and verify read the same walk."""

    @pytest.mark.parametrize("k", [10, 20, 40, 200])
    def test_figures_match_unit_scaling(self, k):
        # At k = 200 the squares of b's and c's entries leave double range:
        # worstcase's and verify's gain partition scales both by powers of two.
        _assert_figures_match(_scaled_figures(k), _scaled_figures(0))

    def test_input_scale_matches_halving(self):
        # sim._input_scale against the halving loop it replaced, bit for bit:
        # seeded A up to 1e300 and blocks from 1e-300 to 1e308 whose entries
        # span up to 600 decades (some 1-norms overflow), and single entries
        # one rounding from bound * 2^k.
        rng = np.random.default_rng(52)
        cases = []
        for _ in range(400):
            n, m = rng.integers(1, 5), rng.integers(1, 4)
            a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-5, 300)
            spread = rng.choice([0, 20, 300, 600])
            decades = np.clip(rng.uniform(-300, 308) - rng.uniform(0, spread, (n, m)), -320, 308)
            block = rng.choice([-1.0, 1.0], (n, m)) * rng.uniform(1.0, 1.79, (n, m)) * 10.0**decades
            cases.append((a, block))
        for k in range(-1, 1025, 7):
            a = np.array([[-rng.uniform(0.5, 4.0)]])
            edge = max(1.0, -a[0, 0]) * 2.0**k
            for entry in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)):
                cases.append((a, np.array([[entry]])))
        # bound / ||block||_1 below 2^-1022 rounds on a coarser grid, here up
        # to the next power of two, which the one halving takes back.
        top = 2.0**1023
        cases.append((np.array([[-0.5]]), np.array([[np.nextafter(top, np.inf)]])))
        cases.append((-0.5 * np.eye(4), np.array([[top * (1.0 + 2.0**-50)], [top], [top], [top]])))
        with np.errstate(over="ignore"):
            for a, block in cases:
                assert sim._input_scale(a, block) == halving_input_scale(a, block), (a, block)

    def test_input_scale_of_an_overflowing_drive(self, monkeypatch):
        # The predictor loop of TestPredictorDynamics::test_divergence_raises_simulation_error
        # drives F2 with a block whose 1-norm, 2.46e308, is inf in double.
        seen, scale = [], sim._input_scale

        def recording(a, block):
            seen.append((a, block))
            return scale(a, block)

        monkeypatch.setattr(sim, "_input_scale", recording)
        sys = DelayPredictorSystem(a=[[1.0]], b=[[1.0]], g=[[1.0]], k=[[-2.0]], tau=709.0, mu=1.0)
        with pytest.raises(SimulationError, match="diverged at t="):
            simulate_predictor(sys, Constant(u0=[1.0]), [0.0], 7090.0, sys.tau / 64)
        with np.errstate(over="ignore"):
            assert np.isinf([np.linalg.norm(block, 1) for _, block in seen]).any()
            for a, block in seen:
                assert scale(a, block) == halving_input_scale(a, block)


class TestScaledKernelPartition:
    """The sign partition divides b and each row by the power of two at
    its largest entry, and the tail rule and verify take scaled norms, so
    B -> 10^k B, C -> 10^-k C moves no figure.  At k = 200 the partition
    squared entries past double range: it found no zero, certified
    positivity and reported the dc value 0.5 for the gain 0.8333."""

    @pytest.mark.parametrize("c", [(1.0, -3.0), (2.0, -3.0)], ids=["c13", "c23"])
    @pytest.mark.parametrize("k", [100, 160, 170, 200, 250])
    def test_figures_match_unit_scaling(self, k, c):
        _assert_figures_match(_scaled_kernel_figures(k, c), _scaled_kernel_figures(0, c))


class TestReferenceSimulator:
    @pytest.mark.parametrize("case", sorted(_REFERENCE_CASES))
    def test_matches_grid_stepper(self, oscillator, case):
        signal, t_end, h = _REFERENCE_CASES[case]
        system = _two_input_system() if case == "constant-m2" else oscillator
        x0 = np.linspace(0.5, -0.3, system.n)
        traj = simulate(system, signal, x0, t_end, h)
        _assert_matches_reference(traj, reference_simulate(system, signal, x0, t_end, h))

    def test_many_blocks_per_segment(self, oscillator, monkeypatch):
        # Blocks of 16 rows, each anchored to its segment start: the same
        # rows as one block and as the grid stepper.
        signal = PeriodicExtension(Sinusoid([1.0], 1.9, 0.2), 7.0, 9.0)
        x0 = [0.4, -1.0]
        whole = simulate(oscillator, signal, x0, 30.0, 0.01)
        monkeypatch.setattr(sim, "_STACK_ENTRIES", 64)
        blocked = simulate(oscillator, signal, x0, 30.0, 0.01)
        np.testing.assert_allclose(blocked.states, whole.states, rtol=0, atol=1e-13)
        _assert_matches_reference(
            blocked, reference_simulate(oscillator, signal, x0, 30.0, 0.01)
        )

    def test_long_constant_run_matches_scipy(self):
        # Over 2x10^5 steps no row is more than log2(2x10^5) products from
        # the segment start; the grid stepper drifted to 7e-13 here.
        rng = np.random.default_rng(5)
        a = random_hurwitz_matrix(rng, n=6)
        system = StateSpaceSystem(a=a, b=rng.standard_normal((6, 1)), c=np.ones((1, 6)))
        x0 = np.ones(6)
        traj = simulate(system, Constant([1.0]), x0, 200.0, 0.001)
        assert traj.times.size == 200_001
        gen = np.zeros((7, 7))
        gen[:6, :6] = system.a
        gen[:6, 6:] = system.b
        z0 = np.append(x0, 1.0)
        for k in range(0, traj.times.size, 5000):
            ref = (scipy.linalg.expm(gen * traj.times[k]) @ z0)[:6]
            assert np.linalg.norm(traj.states[k] - ref) <= 2e-13 * np.linalg.norm(ref)

    def test_expm_calls_do_not_grow_with_the_grid(self, oscillator, monkeypatch):
        # Neither longer grids nor more periods (each two more segments of
        # one generator) add a matrix exponential.
        calls = []

        def counting(m):
            calls.append(m.shape)
            return original(m)

        original = linalg._pade13
        monkeypatch.setattr(linalg, "_pade13", counting)
        monkeypatch.setattr(sim, "_pade13", counting, raising=False)
        periodic = PeriodicExtension(BangBangInput(2.0, [0.5, 1.25]), 2.0, 3.0)
        for signal, t_ends in (Constant([1.0]), (1.25, 125.0, 1250.0)), (periodic, (6.0, 60.0, 600.0)):
            counts = []
            for t_end in t_ends:
                calls.clear()
                simulate(oscillator, signal, np.zeros(2), t_end, 0.125)
                counts.append(len(calls))
            assert counts[0] == counts[1] == counts[2]

    def test_periodic_input_reaches_expm_only_through_one_stack_per_generator(self, monkeypatch):
        # verify's run: 10 periods of a worst-case input at 4096 steps each,
        # 20 segments or more.  Each generator's one linalg._Flow, whose
        # power stack is one _pade13 call, is the only matrix exponential; no
        # segment's lead or end state forms one.
        system = random_siso_system(np.random.default_rng(11), 3)
        signal, spec = worst_case_periodic_input(system, 3.0, 1e-6)
        t_end, h = 10.0 * spec.period, spec.period / 4096
        stacks, calls = [], []
        original_flow, original_pade = linalg._Flow, linalg._pade13

        def counting_flow(matrix, cell, end):
            stacks.append(matrix.tobytes())
            return original_flow(matrix, cell, end)

        def counting_pade(m):
            calls.append(m.shape)
            return original_pade(m)

        monkeypatch.setattr(linalg, "_Flow", counting_flow)
        monkeypatch.setattr(linalg, "_pade13", counting_pade)
        # Also counted: a _pade13 that sim called directly.
        monkeypatch.setattr(sim, "_pade13", counting_pade, raising=False)
        simulate(system, signal, np.zeros(system.n), t_end, h)
        assert sum(1 for _ in signal_segments(signal, t_end)) >= 20
        assert len(set(stacks)) == len(stacks) == len(calls)

    @pytest.mark.parametrize("case", ["worst-case-periodic", "sinusoid-every-other-interval"])
    def test_orbit_powers_once_per_generator(self, case, monkeypatch):
        if case == "worst-case-periodic":
            system = random_siso_system(np.random.default_rng(11), 3)
            signal, spec = worst_case_periodic_input(system, 3.0, 1e-6)
            t_end, h = 10.0 * spec.period, spec.period / 512
        else:
            # Two generators, every segment 1.0 long: a reused flow must be
            # told apart by its generator as well as its length.
            system = random_siso_system(np.random.default_rng(12), 3)
            signal = PeriodicExtension(Sinusoid([1.0], 2.1, 0.3), 1.0, 2.0)
            t_end, h = 12.0, 1.0 / 64
        stacks, generators = [], set()
        original_flow, original_generator = linalg._Flow, sim._generator

        def counting_flow(matrix, cell, end):
            stacks.append(matrix.tobytes())
            return original_flow(matrix, cell, end)

        def recording_generator(*args):
            g, scale = original_generator(*args)
            generators.add(g.tobytes())
            return g, scale

        args = (system, signal, np.zeros(system.n), t_end, h)
        monkeypatch.setattr(linalg, "_Flow", counting_flow)
        monkeypatch.setattr(sim, "_generator", recording_generator)
        traj = simulate(*args)
        monkeypatch.undo()
        assert sum(1 for _ in signal_segments(signal, t_end)) >= 12
        assert sorted(stacks) == sorted(generators)
        # Longer shared power stacks and reused flows change no bit.
        np.testing.assert_array_equal(traj.states, segmentwise_simulate(*args).states)


class TestDecayInvariant:
    def test_zero_input_decay_respects_certificate(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            a = random_hurwitz_matrix(rng, n_max=4, abscissa=-0.3)
            n = a.shape[0]
            sys = StateSpaceSystem(a=a, b=np.ones((n, 1)), c=np.ones((1, n)))
            cert = sys.certificate
            x0 = rng.standard_normal(n)
            scale = float(np.linalg.norm(x0))
            traj = simulate(sys, Zero(dim=1), x0, 5.0 / cert.sigma, 0.05 / cert.sigma)
            for t, x in zip(traj.times, traj.states):
                bound = cert.m * math.exp(-cert.sigma * t) * scale * (1.0 + 1e-8)
                assert np.linalg.norm(x) <= bound


class TestLinearity:
    def test_superposition(self, oscillator):
        x0 = np.zeros(2)
        t_end, h = 4.0, 0.2
        y1 = simulate(oscillator, Constant(u0=[0.7]), x0, t_end, h).states
        u2 = Sinusoid(direction=[1.0], omega=2.0)
        y2 = simulate(oscillator, u2, x0, t_end, h).states
        # combined run: constant plus sinusoid is not a library signal, so
        # check scaling and initial-condition additivity instead
        y_scaled = simulate(oscillator, Constant(u0=[1.4]), x0, t_end, h).states
        np.testing.assert_allclose(y_scaled, 2.0 * y1, atol=1e-12)
        free = simulate(oscillator, Zero(dim=1), [1.0, -2.0], t_end, h).states
        combined = simulate(oscillator, u2, [1.0, -2.0], t_end, h).states
        np.testing.assert_allclose(combined, free + y2, atol=1e-12)


class TestBangBangRealization:
    def test_oscillator_reaches_claimed_value(self, oscillator):
        t_end = 10.0
        value, _ = max_terminal_output(oscillator, t_end, tol=1e-10)
        u = bang_bang_switches(oscillator, t_end)
        traj = simulate(oscillator, u, np.zeros(2), t_end, t_end / 4096.0)
        terminal = abs(traj.outputs[-1, 0])
        assert terminal == pytest.approx(value, rel=1e-4)

    def test_scalar_monotone_drive(self, scalar_system):
        t_end = 8.0
        value, _ = max_terminal_output(scalar_system, t_end, tol=1e-10)
        u = bang_bang_switches(scalar_system, t_end)
        traj = simulate(scalar_system, u, np.zeros(1), t_end, 0.01)
        assert abs(traj.outputs[-1, 0]) == pytest.approx(value, rel=1e-6)


class TestWorstCasePeriodicInput:
    def test_scalar_example(self, scalar_system):
        signal, spec = worst_case_periodic_input(scalar_system, 10.0, 1e-6)
        # M = 1, sigma = 1: rest = ceil(ln(1e6)) = 14
        assert spec.rest == 14.0
        assert spec.period == pytest.approx(24.0)
        cert = scalar_system.certificate
        assert cert.m * math.exp(-cert.sigma * spec.rest) <= 1e-6
        assert signal.base_span == pytest.approx(10.0)
        # rest phase is silent
        assert evaluate(signal, 10.0 + 2.0)[0] == 0.0
        assert evaluate(signal, spec.period + 1.0)[0] == evaluate(signal, 1.0)[0]

    def test_validation(self, scalar_system, diag_two_output):
        with pytest.raises(ValueError):
            worst_case_periodic_input(scalar_system, 10.0, 2.0)
        with pytest.raises(DimensionError):
            worst_case_periodic_input(diag_two_output, 10.0, 1e-6)


# A = diag(-1e10, -1): cells of 1 / ||A||_1 keep the slow mode's decay only
# to about 2.4e-6 relative, and simulate's y(5) under u = 1 was that far off.
STIFF = {"a": [[-1e10, 0.0], [0.0, -1.0]], "b": [[1.0], [1.0]], "c": [[0.0, 1.0]]}


class TestStiffness:
    MESSAGE = "the system is too stiff to simulate: ||G||_1 / sigma = 1e+10 exceeds 1e+09"

    def test_every_walk_refuses(self):
        sys = StateSpaceSystem(**STIFF)
        with pytest.raises(ValueError, match=re.escape(self.MESSAGE)):
            simulate(sys, Constant(u0=[1.0]), np.zeros(2), 5.0, 0.01)

    def test_verify_refuses_before_partitioning(self, monkeypatch):
        # verify's L1 partition held 3.2 GB after 2.5 min on this system,
        # only for its walk to refuse the system afterwards.
        def no_partition(*args, **kwargs):
            raise AssertionError("verify partitioned a system its walk refuses")

        monkeypatch.setattr(gains, "_partition", no_partition)
        with pytest.raises(ValueError, match=re.escape(self.MESSAGE)):
            verify_gain_equality(StateSpaceSystem(**STIFF), 0.02)

    def test_below_the_limit_runs(self):
        # The slow rate sets sigma: at -1e8 the ratio is 1e8 and y(5) is
        # within 1e-7 of 1 - e^-5.
        sys = StateSpaceSystem(**{**STIFF, "a": [[-1e8, 0.0], [0.0, -1.0]]})
        traj = simulate(sys, Constant(u0=[1.0]), np.zeros(2), 5.0, 0.01)
        assert traj.outputs[-1, 0] == pytest.approx(1.0 - math.exp(-5.0), rel=1e-7)


# verify_gain_equality's record of a vanishing kernel at tol 1e-9.
VANISHING_RECORD = {
    "gamma": 0.0,
    "horizon": 0.0,
    "rest": 0.0,
    "period": 0.0,
    "sup_gain": 0.0,
    "asymptotic_gain": 0.0,
    "lower_target": 0.0,
    "upper_limit": 2e-9,
    "accuracy": 0.02,
    "passed": True,
}


def steady_bang_bang_peak(sys, record, steps_per_period=4096):
    """SciPy reference for verify_gain_equality's asymptotic output.  Over one
    period the bang-bang part u(s) = sgn g(H - s), g(r) = c exp(Ar) b, leaves
    the state W_H = integral of sgn(g(r)) exp(Ar) b over [0, H] (quad_vec
    split at brentq's zeros), and the rest carries it to exp(AR) W_H.  The
    steady state at phase 0 is (I - exp(AT))^-1 exp(AR) W_H; it is propagated
    over the period's recording grid in closed form, the input constant
    between switches, and the largest |y| on the grid is returned."""
    a, b, row = sys.a, sys.b, sys.c[0]
    horizon, period = record.horizon, record.period

    def flow(t):
        return scipy.linalg.expm(a * t)

    def sign(r):
        return np.sign(row @ flow(r) @ b[:, 0])

    samples = max(2001, math.ceil(8.0 * np.linalg.norm(a, 1) * horizon))
    zeros = kernel_zeros(a, b, row, horizon, samples)
    w_h = quad_kernel_integrals(a, b, row, horizon, samples)[1:]
    x = np.linalg.solve(np.eye(sys.n) - flow(period), flow(period - horizon) @ w_h)
    h = period / steps_per_period
    a_inv_b = np.linalg.solve(a, b[:, 0])
    cuts = np.append(horizon - np.asarray(zeros), horizon)
    outputs = [row @ x]
    for i in range(steps_per_period):
        t0, t1 = i * h, (i + 1) * h
        pieces = np.concatenate(([t0], np.sort(cuts[(cuts > t0) & (cuts < t1)]), [t1]))
        # Over a piece [s0, s1] with constant u the state gains
        # u (exp(A (t1 - s0)) - exp(A (t1 - s1))) A^-1 b by time t1.
        x = flow(h) @ x
        for s0, s1 in zip(pieces, pieces[1:]):
            if s0 + s1 < 2.0 * horizon:
                x += sign(horizon - 0.5 * (s0 + s1)) * ((flow(t1 - s0) - flow(t1 - s1)) @ a_inv_b)
        outputs.append(row @ x)
    return float(np.max(np.abs(outputs)))


# The random draws' kernels change sign 35, 3 and 28 times before their
# horizons.
VERIFY_MODELS = ["scalar_system", "oscillator", "random-0", "random-7", "random-9"]


def verify_model(model, request):
    if model.startswith("random-"):
        return random_siso_system(np.random.default_rng(int(model.split("-")[1])))
    return request.getfixturevalue(model)


class TestVerifyGainEquality:
    def test_scalar_passes(self, scalar_system):
        record = verify_gain_equality(scalar_system, accuracy=0.02)
        assert record.passed
        assert record.gamma == pytest.approx(1.0, abs=1e-8)
        assert record.lower_target <= record.asymptotic_gain <= record.upper_limit
        assert record.asymptotic_gain >= 0.98
        assert record.sup_gain <= record.gamma * (1.0 + 1e-6) + 1e-9

    def test_validation(self, scalar_system, diag_two_output):
        with pytest.raises(ValueError):
            verify_gain_equality(scalar_system, accuracy=0.0)
        with pytest.raises(DimensionError):
            verify_gain_equality(diag_two_output, accuracy=0.1)

    def test_record_refuses_non_finite_fields(self, scalar_system):
        # A record is a claim: each numeric field, set to NaN or infinity in
        # turn, is refused with its name.
        fields = vars(verify_gain_equality(scalar_system, accuracy=0.02))
        for name in set(fields) - {"passed"}:
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"field {name} must be finite"):
                    sim.GainEqualityRecord(**{**fields, name: bad})

    def test_vanishing_kernel_record(self):
        # C exp(As) B = 0: nothing to drive, so every measured figure is 0,
        # the upper limit is the quadrature allowance 2 tol and the check passes.
        sys = StateSpaceSystem(a=np.diag([-1.0, -2.0]), b=[[1.0], [0.0]], c=[[0.0, 1.0]])
        record = verify_gain_equality(sys, accuracy=0.02, tol=1e-9)
        assert vars(record) == VANISHING_RECORD

    def test_decoupled_pairs(self):
        # Every kernel is rounding.  gains._vanishes takes 39 of the 40 for
        # vanishing.  Draw 20's orthogonal basis lies within 2e-3 of -I, so
        # its c b = 1e-16 is 120 eps of |c| |b| = 0.0038: a real kernel of the
        # data as given, which verify demonstrates.  verify runs on the
        # orthogonal draws only: the conditioned ones' sigma, down to 1e-4,
        # makes their L1 horizons long.
        family = decoupled_pairs(0)
        vanishing = [gains._vanishes(sys) for sys in family]
        assert [i for i, v in enumerate(vanishing) if not v] == [20]
        for sys, vanishes in zip(family[::2], vanishing[::2]):
            record = verify_gain_equality(sys, accuracy=0.02, tol=1e-9)
            assert record.passed
            assert (vars(record) == VANISHING_RECORD) is vanishes

    def test_recording_grid_holds_the_peak(self):
        # A base system of the acceptance generator (n = 6) whose kernel turns
        # 3.2 rad/s while the period / 4096 recording step is 0.77: on a grid
        # missing t = horizon the recorded peak was 8.798 against gamma 9.2061.
        a = [
            [-1.86342345497911, 0.5619239642157292, 1.3067361248523501,
             -1.759276479846307, -0.6536811038884678, 1.8874922140825285],
            [0.8495857389873507, -1.4916062151305978, -1.9707171103083239,
             -1.9238393762866566, -0.4510268831139781, 1.3719059130472107],
            [-1.307918888998222, 0.367119832998164, -0.36088190132698417,
             0.8090937198170485, 0.3895288320100003, -0.2820739355761104],
            [-0.735762438973333, 1.8846477261327195, -1.8308140377471323,
             -0.47982499683712065, -1.8734125516217448, -1.1447465835923292],
            [0.41407703181591593, 0.022774488480753252, -1.3598247222792406,
             0.7012552311873241, 1.0252254054532948, 0.007169281115787296],
            [-1.7360824694248662, -1.7409461551897838, -1.3984430545939919,
             1.553502759504648, -1.878247584195786, -2.085445175058518],
        ]
        b = [[0.2889100532097215], [0.10444598464800015], [-0.8969201141355443],
             [-0.6004720262612651], [-0.7232279211369055], [1.1793327264543207]]
        c = [[1.5679277899453936, 0.4155976347790187, -0.5652500609530646,
              1.0397568390428318, 1.1366757107368017, -1.9614455075560877]]
        record = verify_gain_equality(StateSpaceSystem(a=a, b=b, c=c), accuracy=0.02)
        step = record.period / 4096
        assert record.horizon / step == pytest.approx(round(record.horizon / step), abs=1e-6)
        assert record.passed
        assert record.asymptotic_gain == pytest.approx(record.gamma, rel=1e-12)

    @pytest.mark.parametrize("model", VERIFY_MODELS)
    def test_matches_closed_form_steady_output(self, model, request):
        sys = verify_model(model, request)
        record = verify_gain_equality(sys, accuracy=0.02)
        peak = steady_bang_bang_peak(sys, record)
        assert abs(record.asymptotic_gain - peak) <= 1e-9 * peak

    @pytest.mark.parametrize("model", VERIFY_MODELS)
    def test_matches_full_recording(self, model, request):
        # verify reads periods 1..9 off period 0's walk; simulating all ten
        # records the same outputs up to rounding.
        sys = verify_model(model, request)
        record = verify_gain_equality(sys, accuracy=0.02)
        sup, asymptotic = full_recording_gains(sys, record)
        assert record.sup_gain == pytest.approx(sup, rel=1e-13, abs=0.0)
        assert record.asymptotic_gain == pytest.approx(asymptotic, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("scale", [1e-9, 1e-10])
    def test_horizon_past_the_l1_horizon(self, scale, monkeypatch):
        # C scaled down takes gamma below about tol / accuracy, so verify's
        # horizon passes the L1 horizon and verify partitions [0, horizon]
        # anew, as bang_bang_switches does, within the same cell budget,
        # which names no flag: the horizon is derived, not given.
        base = verify_model("random-0", None)
        sys = StateSpaceSystem(a=base.a, b=base.b, c=base.c * scale)
        checked, check = [], linalg._check_partition_cells

        def recording(a, horizon, flag):
            checked.append((horizon, flag))
            return check(a, horizon, flag)

        monkeypatch.setattr(linalg, "_check_partition_cells", recording)
        record = verify_gain_equality(sys, accuracy=0.02)
        monkeypatch.undo()
        assert checked == [(record.horizon, "derived from the system, with no flag")]
        assert record.horizon > l1_impulse_gain(sys, 1e-9).details["horizon"]
        assert record.passed
        sup, asymptotic = full_recording_gains(sys, record)
        assert record.sup_gain == pytest.approx(sup, rel=1e-13, abs=0.0)
        assert record.asymptotic_gain == pytest.approx(asymptotic, rel=1e-13, abs=0.0)

    def test_one_kernel_flow_and_one_output_row_orbit(self, monkeypatch):
        # The gain and the bang-bang switches come off one kernel flow (one
        # Pade stack, its powers, which also give its end), the period's
        # generator flow is the second, and the ten periods' free outputs are
        # one orbit of the output row, not an orbit of ten columns of states.
        sys = verify_model("random-0", None)
        flows, calls, orbits, rows = [], [], [], []
        original_pade, original_orbit = linalg._pade13, linalg._Flow.orbit
        original_row_orbit = linalg._Flow.row_orbit

        class CountingFlow(gains._KernelFlow):
            def __init__(self, *args):
                flows.append(args[1])
                super().__init__(*args)

        def counting_pade(m):
            calls.append(m.shape)
            return original_pade(m)

        def recording_orbit(flow, z, count, level=0):
            orbits.append(z.shape)
            return original_orbit(flow, z, count, level)

        def recording_row_orbit(flow, r, count, level=0):
            out = original_row_orbit(flow, r, count, level)
            rows.append(out.shape)
            return out

        monkeypatch.setattr(gains, "_KernelFlow", CountingFlow)
        monkeypatch.setattr(linalg, "_pade13", counting_pade)
        monkeypatch.setattr(linalg._Flow, "orbit", recording_orbit)
        monkeypatch.setattr(linalg._Flow, "row_orbit", recording_row_orbit)
        record = verify_gain_equality(sys, accuracy=0.02)
        monkeypatch.undo()
        assert record.passed
        assert len(flows) == 1 and len(calls) == 2
        assert rows == [(4096, sys.n + 1)]
        assert orbits and all(len(shape) == 1 for shape in orbits)

    def test_walks_the_segments_of_one_period(self, monkeypatch):
        # Ten periods of random-0's input are 375 segments; verify walks the
        # first period's 37 and no more.
        sys = verify_model("random-0", None)
        walked = []

        def counting(signal, t_end):
            segments = original(signal, t_end)
            walked.append((t_end, len(segments)))
            return segments

        original = sim.iter_segments
        monkeypatch.setattr(sim, "iter_segments", counting)
        record = verify_gain_equality(sys, accuracy=0.02)
        monkeypatch.undo()
        base = bang_bang_switches(sys, record.horizon)
        signal = PeriodicExtension(base, record.horizon, record.period)
        assert walked == [(record.period, len(signal_segments(signal, record.period)))]
