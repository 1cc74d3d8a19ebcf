import math

import numpy as np
import pytest

from gainlab import (
    BangBangInput,
    Constant,
    DelayPredictorSystem,
    DelayState,
    DimensionError,
    NotHurwitzError,
    PeriodicExtension,
    Sinusoid,
    Zero,
    delay_bounds,
    delay_empirical_check,
    predictor_error_residual,
    predictor_error_series,
    simulate_predictor,
)
from gainlab_testkit import reference_error_grid, reference_predictor

E_HALF = math.exp(-0.5)


class TestConstructor:
    def test_scalar_fixture(self, scalar_delay):
        assert scalar_delay.n == 1 and scalar_delay.m == 1 and scalar_delay.p == 1
        np.testing.assert_allclose(scalar_delay.closed_loop, [[-1.5]])
        cert = scalar_delay.certificate
        assert cert.m == pytest.approx(1.0)
        assert cert.sigma == pytest.approx(1.5)

    def test_unstable_open_loop_accepted(self):
        # only A + B K needs to be Hurwitz, the plant itself may be unstable
        sys = DelayPredictorSystem(
            a=[[0.5]], b=[[1.0]], g=[[1.0]], k=[[-2.0]], tau=0.3, mu=1.0
        )
        np.testing.assert_allclose(sys.closed_loop, [[-1.5]])

    def test_rejects_unstable_closed_loop(self):
        with pytest.raises(NotHurwitzError):
            DelayPredictorSystem(
                a=[[1.0]], b=[[1.0]], g=[[1.0]], k=[[-0.5]], tau=0.3, mu=1.0
            )

    def test_rejects_bad_tau_mu(self):
        inf = float("inf")
        for tau, mu in ((0.0, 1.0), (-1.0, 1.0), (inf, 1.0), (0.5, 0.0), (0.5, -2.0), (0.5, inf)):
            with pytest.raises(ValueError):
                DelayPredictorSystem(
                    a=[[-1.0]], b=[[1.0]], g=[[1.0]], k=[[-0.5]], tau=tau, mu=mu
                )

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            DelayPredictorSystem(
                a=[[-1.0]], b=[[1.0, 0.0]], g=[[1.0]], k=[[-0.5]], tau=0.5, mu=1.0
            )
        with pytest.raises(DimensionError):
            DelayPredictorSystem(
                a=[[-1.0]], b=[[1.0]], g=[[1.0], [1.0]], k=[[-0.5]], tau=0.5, mu=1.0
            )


class TestDelayState:
    def test_resting(self, scalar_delay):
        state = DelayState.resting(scalar_delay, 8)
        assert state.y.shape == (1,)
        assert state.z_history.shape == (9, 1)
        assert not state.y.any()
        assert not state.z_history.any()

    def test_shape_checked_in_simulation(self, scalar_delay):
        state = DelayState.resting(scalar_delay, 8)
        with pytest.raises(DimensionError):
            # history sized for 8 steps but h implies 16
            simulate_predictor(scalar_delay, Zero(dim=1), state, 2.0, 0.5 / 16)

    def test_step_must_divide_tau(self, scalar_delay):
        state = DelayState.resting(scalar_delay, 1)
        with pytest.raises(ValueError):
            simulate_predictor(scalar_delay, Zero(dim=1), state, 2.0, 0.3)


class TestPredictorDynamics:
    def test_decoupled_observer_when_k_zero(self):
        sys = DelayPredictorSystem(
            a=[[-1.0]], b=[[1.0]], g=[[1.0]], k=[[0.0]], tau=0.5, mu=2.0
        )
        steps = 64
        h = sys.tau / steps
        state = DelayState(y=np.zeros(1), z_history=np.ones((steps + 1, 1)))
        traj = simulate_predictor(sys, Zero(dim=1), state, 1.0, h)
        # with K = 0 the z equation is z' = -mu z, solved by RK4
        expected = np.exp(-sys.mu * traj.times)
        np.testing.assert_allclose(traj.zs[:, 0], expected, atol=1e-8)

    def test_zero_input_decays(self, scalar_delay):
        steps = 32
        h = scalar_delay.tau / steps
        state = DelayState(y=np.array([2.0]), z_history=np.full((steps + 1, 1), -1.0))
        sigma = scalar_delay.certificate.sigma
        t_end = 20.0 / sigma
        traj = simulate_predictor(scalar_delay, Zero(dim=1), state, t_end, h)
        assert abs(traj.ys[-1, 0]) < 1e-6
        assert abs(traj.zs[-1, 0]) < 1e-6

    def test_linearity_in_disturbance(self, scalar_delay):
        steps = 16
        h = scalar_delay.tau / steps
        state = DelayState.resting(scalar_delay, steps)
        full = simulate_predictor(scalar_delay, Constant(u0=[1.0]), state, 4.0, h)
        half = simulate_predictor(scalar_delay, Constant(u0=[0.5]), state, 4.0, h)
        np.testing.assert_allclose(half.ys, 0.5 * full.ys, atol=1e-13)
        np.testing.assert_allclose(half.zs, 0.5 * full.zs, atol=1e-13)

    def test_trajectory_record_layout(self, scalar_delay):
        steps = 8
        h = scalar_delay.tau / steps
        state = DelayState.resting(scalar_delay, steps)
        traj = simulate_predictor(scalar_delay, Constant(u0=[1.0]), state, 1.0, h)
        n_steps = int(round(1.0 / h))
        assert traj.times.shape == (n_steps + 1,)
        assert traj.ys.shape == (n_steps + 1, 1)
        assert traj.zs.shape == (n_steps + 1, 1)
        assert traj.z_record.shape == (steps + n_steps + 1, 1)
        assert traj.history_steps == steps
        np.testing.assert_array_equal(traj.z_record[steps:], traj.zs)


UNSTABLE_PLANT = DelayPredictorSystem(
    a=[[0.5]], b=[[1.0]], g=[[1.0]], k=[[-2.0]], tau=0.3, mu=1.0
)
TWO_INPUT_PLANT = DelayPredictorSystem(
    a=[[-0.5, 1.0], [-1.0, -0.2]],
    b=[[1.0, 0.0], [0.5, 1.0]],
    g=[[1.0], [0.3]],
    k=[[-0.4, 0.1], [0.2, -0.6]],
    tau=0.4,
    mu=3.0,
)
BANG_BANG = PeriodicExtension(
    BangBangInput(horizon=1.0, switch_times=[0.37, 0.71]), base_span=1.0, period=1.5
)


def _relative_gap(value, reference):
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


class TestReferenceIntegrator:
    """The carried history sum against the three-window loop it replaced."""

    @pytest.mark.parametrize(
        "plant, signal",
        [
            (UNSTABLE_PLANT, Constant(u0=[1.0])),
            (UNSTABLE_PLANT, Sinusoid(direction=[1.0], omega=2.0)),
            (UNSTABLE_PLANT, BANG_BANG),
            (TWO_INPUT_PLANT, Constant(u0=[1.0])),
            (TWO_INPUT_PLANT, Sinusoid(direction=[1.0], omega=3.0)),
            (TWO_INPUT_PLANT, Zero(dim=1)),
            (None, Sinusoid(direction=[1.0], omega=1.0)),
        ],
        ids=[
            "unstable-constant",
            "unstable-sinusoid",
            "unstable-bang-bang",
            "two-input-constant",
            "two-input-sinusoid",
            "two-input-zero",
            "scalar-sinusoid",
        ],
    )
    def test_matches_reference(self, scalar_delay, plant, signal):
        plant = scalar_delay if plant is None else plant
        steps = 16
        h = plant.tau / steps
        rng = np.random.default_rng(7)
        state = DelayState(
            y=rng.standard_normal(plant.n),
            z_history=rng.standard_normal((steps + 1, plant.m)),
        )
        traj = simulate_predictor(plant, signal, state, 5.0, h)
        ys, z_record = reference_predictor(plant, signal, state, traj.times.size - 1, h)
        assert _relative_gap(traj.ys, ys) <= 1e-13
        assert _relative_gap(traj.z_record, z_record) <= 1e-13
        xi, xi_ref = predictor_error_series(traj, plant)
        assert _relative_gap(xi, reference_error_grid(traj, plant)) <= 1e-13
        # the closed form starts from the reconstructed xi(0)
        np.testing.assert_array_equal(xi_ref[0], xi[0])


class TestPredictorError:
    def test_zero_input_error_identically_zero(self, scalar_delay):
        steps = 32
        state = DelayState.resting(scalar_delay, steps)
        traj = simulate_predictor(
            scalar_delay, Zero(dim=1), state, 4.0, scalar_delay.tau / steps
        )
        assert predictor_error_residual(traj, scalar_delay) <= 1e-8

    def test_series_shapes(self, scalar_delay):
        steps = 16
        state = DelayState.resting(scalar_delay, steps)
        traj = simulate_predictor(
            scalar_delay, Constant(u0=[1.0]), state, 2.0, scalar_delay.tau / steps
        )
        xi, xi_ref = predictor_error_series(traj, scalar_delay)
        assert xi.shape == xi_ref.shape == (traj.times.size, 1)

    @pytest.mark.parametrize(
        "signal",
        [Constant(u0=[1.0]), Sinusoid(direction=[1.0], omega=2.0)],
        ids=["constant", "sinusoid"],
    )
    def test_residual_second_order(self, scalar_delay, signal):
        residuals = []
        for steps in (50, 100, 200):
            state = DelayState.resting(scalar_delay, steps)
            traj = simulate_predictor(
                scalar_delay, signal, state, 6.0, scalar_delay.tau / steps
            )
            residuals.append(predictor_error_residual(traj, scalar_delay))
        assert residuals[0] < 1e-4
        # halving the step shrinks the defect by about four (order two)
        assert residuals[0] / residuals[1] >= 3.5
        assert residuals[1] / residuals[2] >= 3.5


class TestDelayBounds:
    def test_scalar_closed_form(self, scalar_delay):
        rep = delay_bounds(scalar_delay)
        # phi(s) = 0.5 e^{-s}, r(s) = e^{-s} on [0, 1/2]; M = 1, sigma = 3/2
        assert rep.m_const == pytest.approx(1.0)
        assert rep.sigma == pytest.approx(1.5)
        assert rep.g_norm == pytest.approx(1.0)
        assert rep.phi_integral == pytest.approx(0.5 * (1.0 - E_HALF), abs=1e-9)
        assert rep.phi_tau == pytest.approx(0.5 * E_HALF, abs=1e-12)
        assert rep.r_integral == pytest.approx(1.0 - E_HALF, abs=1e-9)
        assert rep.oag_bound == pytest.approx(1.0 - E_HALF / 6.0, abs=1e-9)
        assert rep.ios_bound == pytest.approx(2.0 - 7.0 * E_HALF / 6.0, abs=1e-9)
        assert rep.oag_bound < rep.ios_bound

    def test_zero_feedthrough_matrix(self):
        # B = 0 kills phi, leaving oag = M |G| / sigma
        sys = DelayPredictorSystem(
            a=[[-1.0]], b=[[0.0]], g=[[1.0]], k=[[0.3]], tau=0.5, mu=2.0
        )
        rep = delay_bounds(sys)
        assert rep.phi_integral == pytest.approx(0.0, abs=1e-12)
        assert rep.phi_tau == pytest.approx(0.0, abs=1e-15)
        assert rep.oag_bound == pytest.approx(1.0, abs=1e-9)
        assert rep.ios_bound == pytest.approx(1.0 + (1.0 - E_HALF), abs=1e-9)

    def test_rejects_bad_tol(self, scalar_delay):
        for tol in (0.0, float("nan")):
            with pytest.raises(ValueError, match="^quad_tol must be positive$"):
                delay_bounds(scalar_delay, quad_tol=tol)


class TestEmpiricalCheck:
    def test_scalar_battery(self, scalar_delay):
        sigma = scalar_delay.certificate.sigma
        t_end = 20.0 / sigma
        check = delay_empirical_check(
            scalar_delay,
            inputs=[
                Constant(u0=[1.0]),
                Sinusoid(direction=[1.0], omega=1.0),
            ],
            t_end=t_end,
            window=t_end / 4.0,
            h=scalar_delay.tau / 64.0,
        )
        assert check.all_within_oag
        assert len(check.entries) == 2
        oag = check.bounds.oag_bound
        for entry in check.entries:
            assert entry.sup_gain <= oag + check.tolerance
            assert entry.asymptotic_gain <= entry.sup_gain + 1e-12
        # the constant disturbance settles exactly on the asymptotic bound
        assert abs(check.entries[0].gap_to_oag) <= 2e-3

    def test_rejects_oversized_input(self, scalar_delay):
        with pytest.raises(ValueError):
            delay_empirical_check(
                scalar_delay,
                inputs=[Constant(u0=[2.0])],
                t_end=5.0,
                window=1.0,
                h=scalar_delay.tau / 16.0,
            )

    def test_rejects_bad_window(self, scalar_delay):
        with pytest.raises(ValueError):
            delay_empirical_check(
                scalar_delay,
                inputs=[Constant(u0=[1.0])],
                t_end=5.0,
                window=6.0,
                h=scalar_delay.tau / 16.0,
            )
