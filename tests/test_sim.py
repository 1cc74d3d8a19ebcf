import math

import numpy as np
import pytest

from gainlab import (
    Constant,
    DimensionError,
    Sinusoid,
    StateSpaceSystem,
    Zero,
    bang_bang_switches,
    empirical_gains,
    mat_exp,
    max_terminal_output,
    simulate,
    steady_periodic_state,
    verify_gain_equality,
    worst_case_periodic_input,
)
from gainlab_testkit import random_hurwitz_matrix


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
        from gainlab import BangBangInput

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

    def test_output_norms(self, diag_two_output):
        traj = simulate(diag_two_output, Constant(u0=[1.0]), np.zeros(2), 2.0, 0.5)
        norms = traj.output_norms()
        assert norms.shape == traj.times.shape
        np.testing.assert_allclose(norms, np.linalg.norm(traj.outputs, axis=1))


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


class TestSteadyPeriodicState:
    def test_fixed_point(self, oscillator):
        period = 3.0
        u = Sinusoid(direction=[1.0], omega=2.0 * math.pi / period)
        x_star = steady_periodic_state(oscillator, u, period)
        traj = simulate(oscillator, u, x_star, period, period / 512.0)
        np.testing.assert_allclose(traj.states[-1], x_star, atol=1e-10)

    def test_convergence_from_rest(self, scalar_system):
        period = 2.0
        u = Sinusoid(direction=[1.0], omega=2.0 * math.pi / period)
        x_star = steady_periodic_state(scalar_system, u, period)
        traj = simulate(scalar_system, u, np.zeros(1), 10.0 * period, period / 256.0)
        idx = np.nonzero(np.isclose(traj.times % period, 0.0, atol=1e-9))[0]
        boundary_states = traj.states[idx, 0]
        errors = np.abs(boundary_states - x_star[0])
        assert errors[-1] < 1e-8
        assert errors[-1] < errors[1]

    def test_scalar_constant_steady(self, scalar_system):
        x_star = steady_periodic_state(scalar_system, Constant(u0=[-0.5]), 1.0)
        assert x_star[0] == pytest.approx(-0.5, abs=1e-12)


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
        assert spec.achieved_decay <= 1e-6
        assert signal.base_span == pytest.approx(10.0)
        # rest phase is silent
        from gainlab import evaluate

        assert evaluate(signal, 10.0 + 2.0)[0] == 0.0
        assert evaluate(signal, spec.period + 1.0)[0] == evaluate(signal, 1.0)[0]

    def test_validation(self, scalar_system, diag_two_output):
        with pytest.raises(ValueError):
            worst_case_periodic_input(scalar_system, 10.0, 2.0)
        with pytest.raises(DimensionError):
            worst_case_periodic_input(diag_two_output, 10.0, 1e-6)


class TestEmpiricalGains:
    def test_scalar_constant(self, scalar_system):
        emp = empirical_gains(scalar_system, Constant(u0=[1.0]), 20.0, 5.0, 0.05)
        assert emp.sup_gain == pytest.approx(1.0, abs=1e-8)
        assert emp.asymptotic_gain == pytest.approx(1.0, abs=1e-8)
        assert emp.asymptotic_gain <= emp.sup_gain + 1e-15

    def test_rejects_oversized_input(self, scalar_system):
        with pytest.raises(ValueError):
            empirical_gains(scalar_system, Constant(u0=[2.0]), 10.0, 2.0, 0.1)

    def test_rejects_bad_window(self, scalar_system):
        with pytest.raises(ValueError):
            empirical_gains(scalar_system, Constant(u0=[1.0]), 10.0, 20.0, 0.1)


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
