import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import gainlab.delay as delaymod
from gainlab import linalg, sim
from gainlab import (
    BangBangInput,
    Constant,
    DelayBoundReport,
    DelayPredictorSystem,
    DimensionError,
    NotHurwitzError,
    PeriodicExtension,
    SimulationError,
    Sinusoid,
    Zero,
    delay_bounds,
    delay_empirical_check,
    predictor_error_residual,
    predictor_error_series,
    simulate_predictor,
)
from gainlab_testkit import method_of_steps, random_hurwitz_matrix, reference_error_grid

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
    """The simulation's initial state y0 and the grid it is recorded on."""

    def test_shape_checked_in_simulation(self, scalar_delay, monkeypatch):
        # y0 is refused, by length and then by finiteness, before any walk.
        monkeypatch.setattr(delaymod, "_walk", None)
        for y0 in ([0.0, 0.0], np.zeros((1, 2))):
            with pytest.raises(DimensionError, match="^y0 must have length 1$"):
                simulate_predictor(scalar_delay, Zero(dim=1), y0, 2.0, 0.5 / 8)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="^y0 contains non-finite entries$"):
                simulate_predictor(scalar_delay, Zero(dim=1), [bad], 2.0, 0.5 / 8)

    def test_step_must_divide_tau(self, scalar_delay):
        with pytest.raises(ValueError):
            simulate_predictor(scalar_delay, Zero(dim=1), [0.0], 2.0, 0.3)

    def test_grid_work_bounded(self, scalar_delay):
        # Every grid of at most _MAX_GRID_STEPS steps at the default step
        # tau / 64 stays legal; one more history row is over the bound.
        limit = delaymod._MAX_GRID_STEPS
        h = scalar_delay.tau / 64
        assert delaymod._predictor_grid(scalar_delay, h, limit * h) == (64, limit)
        h = scalar_delay.tau / 65
        with pytest.raises(ValueError, match="stored rows.*--step.*--t-max"):
            delaymod._predictor_grid(scalar_delay, h, limit * h)

    @pytest.mark.parametrize(
        "h, message",
        [
            (0.0, "finite and positive"),
            (-0.5, "finite and positive"),
            (float("nan"), "finite and positive"),
            (float("inf"), "finite and positive"),
            (0.3, "must divide tau"),
            (0.5e-9, "history steps exceeds the limit"),
        ],
    )
    def test_bad_step_rejected_before_allocation(self, scalar_delay, h, message):
        with pytest.raises(ValueError, match=message) as info:
            simulate_predictor(scalar_delay, Zero(dim=1), [0.0], 2.0, h)
        assert "--step" in str(info.value)
        with pytest.raises(ValueError, match=message):
            delay_empirical_check(scalar_delay, [Zero(dim=1)], 2.0, 1.0, h)


class TestPredictorDynamics:
    def test_decoupled_observer_when_k_zero(self):
        # With K = 0 the prediction error and z stay at rest, and y is the open
        # plant's response y' = -y + u from y(0) = 2: y = 1 + e^{-t}.
        sys = DelayPredictorSystem(
            a=[[-1.0]], b=[[1.0]], g=[[1.0]], k=[[0.0]], tau=0.5, mu=2.0
        )
        steps = 64
        h = sys.tau / steps
        traj = simulate_predictor(sys, Constant([1.0]), [2.0], 3.0, h)
        assert not traj.zs.any()
        np.testing.assert_allclose(traj.ys[:, 0], 1.0 + np.exp(-traj.times), rtol=1e-13)

    def test_zero_input_decays(self, scalar_delay):
        steps = 32
        h = scalar_delay.tau / steps
        sigma = scalar_delay.certificate.sigma
        t_end = 20.0 / sigma
        traj = simulate_predictor(scalar_delay, Zero(dim=1), [2.0], t_end, h)
        assert abs(traj.ys[-1, 0]) < 1e-6
        assert abs(traj.zs[-1, 0]) < 1e-6

    def test_linearity_in_disturbance(self, scalar_delay):
        steps = 16
        h = scalar_delay.tau / steps
        full = simulate_predictor(scalar_delay, Constant(u0=[1.0]), [0.0], 4.0, h)
        half = simulate_predictor(scalar_delay, Constant(u0=[0.5]), [0.0], 4.0, h)
        np.testing.assert_allclose(half.ys, 0.5 * full.ys, atol=1e-13)
        np.testing.assert_allclose(half.zs, 0.5 * full.zs, atol=1e-13)

    def test_trajectory_record_layout(self, scalar_delay):
        steps = 8
        h = scalar_delay.tau / steps
        traj = simulate_predictor(scalar_delay, Constant(u0=[1.0]), [0.0], 1.0, h)
        n_steps = int(round(1.0 / h))
        assert traj.times.shape == (n_steps + 1,)
        assert traj.ys.shape == (n_steps + 1, 1)
        assert traj.zs.shape == (n_steps + 1, 1)
        assert traj.xis.shape == (n_steps + 1, 1)
        assert traj.kernels.shape == (steps + 1, 1, 1)
        assert traj.history_steps == steps

    def test_divergence_raises_simulation_error(self):
        # A = 1, tau = 709: exp(A tau) = 8.2e307 is a double, but the
        # predicted state P approaches 3 e^709, past double range.
        sys = DelayPredictorSystem(
            a=[[1.0]], b=[[1.0]], g=[[1.0]], k=[[-2.0]], tau=709.0, mu=1.0
        )
        with pytest.raises(SimulationError, match="diverged at t="):
            simulate_predictor(sys, Constant(u0=[1.0]), [0.0], 7090.0, sys.tau / 64)

    @pytest.mark.parametrize("mu", [1e4, 1e6, 1e9])
    def test_zero_input_from_rest_with_unstable_step_map(self, mu):
        # mu h >= 1e4 made the former RK4 step map unstable.  The exact walks
        # of a zero input from rest keep every recorded state exactly at rest.
        sys = DelayPredictorSystem(
            a=[[-1.0]], b=[[1.0]], g=[[1.0]], k=[[-1.0]], tau=1.0, mu=mu
        )
        traj = simulate_predictor(sys, Zero(dim=1), np.zeros(sys.n), 50.0, 1.0)
        assert not traj.ys.any() and not traj.zs.any()

    def test_too_stiff_loop_refused(self):
        # mu = 1e100: the walk's cells, 1 / ||F2||_1, are too fine for
        # exp(-sigma cell) to keep the loop's decay; it returned P = 0.
        sys = DelayPredictorSystem(
            a=[[-1.0]], b=[[1.0]], g=[[1.0]], k=[[-0.5]], tau=1.0, mu=1e100
        )
        with pytest.raises(ValueError, match="too stiff to simulate"):
            simulate_predictor(sys, Constant([1.0]), np.zeros(sys.n), 20.0, 0.25)

    def test_one_step_map_per_simulation(self, scalar_delay, monkeypatch):
        # Two linalg._Flow per simulation, whatever its length: one for the
        # walk of (A, G) over [0, tau], which also gives exp(A tau), R's block
        # and the kernels, and one for the walk of (P, xi).
        calls = []
        original = linalg._Flow

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(linalg, "_Flow", counting)
        steps = 16
        for t_end in (1.0, 10.0):
            calls.clear()
            simulate_predictor(
                scalar_delay, Sinusoid([1.0], 1.0), [0.0], t_end, scalar_delay.tau / steps
            )
            assert len(calls) == 2

    @pytest.mark.parametrize(
        "signal",
        [
            BangBangInput(horizon=1.0, switch_times=[0.37, 0.71]),
            PeriodicExtension(Constant([1.0]), base_span=1.0, period=1.5),
        ],
        ids=["bang-bang", "periodic"],
    )
    def test_switching_input_refused(self, scalar_delay, signal, monkeypatch):
        # Only Zero, Constant and Sinusoid inputs are one segment long; the
        # rest are refused before any walk.
        monkeypatch.setattr(delaymod, "_walk", None)
        with pytest.raises(ValueError, match="^delay inputs are Zero, Constant or Sinusoid, got "):
            simulate_predictor(scalar_delay, signal, np.zeros(scalar_delay.n), 2.0, 0.5 / 8)

    def test_long_delay_unstable_plant_steady_state(self):
        # A = 1, K = -2, tau = 600: y settles at 4 e^600 - 1 and z at -4 e^600.
        # The former RK4 map diverged at t = 56.25; R(t) is one block of
        # exp(Gamma tau), not a difference of two numbers near e^600 t.
        sys = DelayPredictorSystem(
            a=[[1.0]], b=[[1.0]], g=[[1.0]], k=[[-2.0]], tau=600.0, mu=1.0
        )
        traj = simulate_predictor(sys, Constant([1.0]), np.zeros(sys.n), 6000.0, 600.0 / 64)
        assert traj.ys[-1, 0] == pytest.approx(4.0 * math.exp(600.0) - 1.0, rel=1e-12)
        assert traj.zs[-1, 0] == pytest.approx(-4.0 * math.exp(600.0), rel=1e-12)


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
# The double integrator and a stronger unstable plant of the realization's oracle tests.
DOUBLE_INTEGRATOR = DelayPredictorSystem(
    a=[[0.0, 1.0], [0.0, 0.0]], b=[[0.0], [1.0]], g=[[0.0], [1.0]], k=[[-1.0, -1.5]],
    tau=0.3, mu=3.0,
)
UNIT_UNSTABLE_PLANT = DelayPredictorSystem(
    a=[[1.0]], b=[[1.0]], g=[[1.0]], k=[[-3.0]], tau=0.2, mu=2.0
)

# The system and battery of TestEmpiricalCheck.
BATTERY_PLANT = DelayPredictorSystem(
    a=[[0.2, 1.0], [-1.0, -0.3]], b=[[0.0], [1.0]], g=[[0.5], [-0.2]], k=[[-0.6, -1.4]],
    tau=0.4, mu=3.0,
)
BATTERY = [
    Constant([1.0]),
    Sinusoid([1.0], 0.1),
    Sinusoid([1.0], 1.0),
    Sinusoid([1.0], 10.0),
]


def _relative_gap(value, reference):
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


class TestReferenceIntegrator:
    """The exact realization against a method-of-steps solve_ivp oracle:
    y and z within 1e-10 relative."""

    @pytest.mark.parametrize(
        "plant, signal, y0",
        [
            (UNSTABLE_PLANT, Constant(u0=[1.0]), None),
            (UNSTABLE_PLANT, Sinusoid(direction=[1.0], omega=2.0), None),
            (TWO_INPUT_PLANT, Constant(u0=[1.0]), None),
            (TWO_INPUT_PLANT, Sinusoid(direction=[1.0], omega=3.0), None),
            (TWO_INPUT_PLANT, Zero(dim=1), [0.7, -1.2]),
            (None, Sinusoid(direction=[1.0], omega=1.0), None),
            (None, Constant(u0=[1.0]), None),
            (DOUBLE_INTEGRATOR, Constant(u0=[1.0]), None),
            (DOUBLE_INTEGRATOR, Sinusoid(direction=[1.0], omega=2.0), [1.0, -0.5]),
            (UNIT_UNSTABLE_PLANT, Constant(u0=[1.0]), [0.5]),
            (UNIT_UNSTABLE_PLANT, Sinusoid(direction=[1.0], omega=2.0), None),
        ],
        ids=[
            "unstable-constant",
            "unstable-sinusoid",
            "two-input-constant",
            "two-input-sinusoid",
            "two-input-zero",
            "scalar-sinusoid",
            "scalar-constant",
            "double-integrator-constant",
            "double-integrator-sinusoid-y0",
            "unit-unstable-constant-y0",
            "unit-unstable-sinusoid",
        ],
    )
    def test_matches_reference(self, scalar_delay, plant, signal, y0):
        plant = scalar_delay if plant is None else plant
        steps = 16
        h = plant.tau / steps
        y0 = np.zeros(plant.n) if y0 is None else np.asarray(y0)
        traj = simulate_predictor(plant, signal, y0, 5.0, h)
        ys, zs = method_of_steps(plant, signal, y0, traj.times.size - 1, h)
        assert _relative_gap(traj.ys, ys) <= 1e-10
        assert _relative_gap(traj.zs, zs) <= 1e-10
        xi, xi_ref = predictor_error_series(traj, plant)
        assert _relative_gap(xi, reference_error_grid(traj, plant)) <= 1e-13
        # the walk's xi(0) = -K exp(A tau) y(0) is the reconstructed one (J(0) = 0)
        np.testing.assert_array_equal(xi_ref[0], xi[0])

    def test_matches_reference_on_cli_grid(self, scalar_delay):
        # the CLI's default step tau/64 over a long run
        steps = 64
        h = scalar_delay.tau / steps
        y0 = np.random.default_rng(11).standard_normal(1)
        signal = Sinusoid(direction=[1.0], omega=1.0)
        traj = simulate_predictor(scalar_delay, signal, y0, 40.0, h)
        assert traj.times.size == 5121
        ys, zs = method_of_steps(scalar_delay, signal, y0, traj.times.size - 1, h)
        assert _relative_gap(traj.ys, ys) <= 1e-10
        assert _relative_gap(traj.zs, zs) <= 1e-10

    @pytest.mark.parametrize("hist_steps", [1, 4, 64])
    @pytest.mark.parametrize("delays", [0.5, 1.0, 3.25], ids=["inside-tau", "at-tau", "past-tau"])
    def test_matches_reference_around_the_delay(self, hist_steps, delays):
        # y is the walk of (A, G) up to tau and P(t - tau) + R(t) after it:
        # grids that end inside [0, tau], at tau, and between multiples of it.
        n_steps = max(1, int(delays * hist_steps)) + (delays > 1)
        h = UNIT_UNSTABLE_PLANT.tau / hist_steps
        signal = Sinusoid(direction=[1.0], omega=3.0)
        traj = simulate_predictor(UNIT_UNSTABLE_PLANT, signal, [0.3], n_steps * h, h)
        assert traj.times.size == n_steps + 1
        ys, zs = method_of_steps(UNIT_UNSTABLE_PLANT, signal, np.array([0.3]), n_steps, h)
        assert _relative_gap(traj.ys, ys) <= 1e-10
        assert _relative_gap(traj.zs, zs) <= 1e-10


class TestPredictorError:
    def test_zero_input_error_identically_zero(self, scalar_delay):
        steps = 32
        traj = simulate_predictor(
            scalar_delay, Zero(dim=1), [0.0], 4.0, scalar_delay.tau / steps
        )
        assert predictor_error_residual(traj, scalar_delay) <= 1e-8

    def test_series_shapes(self, scalar_delay):
        steps = 16
        traj = simulate_predictor(
            scalar_delay, Constant(u0=[1.0]), [0.0], 2.0, scalar_delay.tau / steps
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
            traj = simulate_predictor(
                scalar_delay, signal, [0.0], 6.0, scalar_delay.tau / steps
            )
            residuals.append(predictor_error_residual(traj, scalar_delay))
        assert residuals[0] < 1e-4
        # halving the step shrinks the defect by about four (order two)
        assert residuals[0] / residuals[1] >= 3.5
        assert residuals[1] / residuals[2] >= 3.5

    def test_reference_is_the_walks_own_xi(self, scalar_delay, monkeypatch):
        # Criterion 8's residuals with no simulation past the delay walk: the
        # reference is the xi that the walk giving z carries, which for a
        # constant u from rest is (-K exp(A tau) G u / mu)(1 - exp(-mu t)).
        def refuse(*args, **kwargs):
            raise AssertionError("the reference simulated xi again")

        monkeypatch.setattr(delaymod, "simulate", refuse)
        monkeypatch.setattr(sim, "simulate", refuse)
        residuals = []
        for steps in (50, 100, 200):
            h = scalar_delay.tau / steps
            traj = simulate_predictor(scalar_delay, Constant(u0=[1.0]), [0.0], 10.0, h)
            xi, xi_ref = predictor_error_series(traj, scalar_delay)
            assert xi_ref is traj.xis
            closed = 0.25 * math.exp(-0.5) * (1.0 - np.exp(-2.0 * traj.times))
            assert _relative_gap(xi_ref[:, 0], closed) <= 1e-13
            residuals.append(float(np.max(np.linalg.norm(xi - xi_ref, axis=1))))
        assert residuals[0] <= 1e-4
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

    def test_report_refuses_non_finite_fields(self, scalar_delay):
        # A NaN passed the oag <= ios check, and an integral past double
        # range gave an infinite bound: each field is refused by name.
        rep = delay_bounds(scalar_delay)
        for name in vars(rep):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"^delay bound field {name} must be finite"):
                    DelayBoundReport(**{**vars(rep), name: bad})

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

    @pytest.mark.parametrize("tau", [1.0, 3.0])
    def test_two_column_g_against_scipy(self, tau):
        # G with two columns: phi and r are largest singular values, with
        # kinks where the two cross.  Each integral holds quad_tol.
        rng = np.random.default_rng(90)
        for _ in range(3):
            n = int(rng.integers(2, 4))
            a, b = rng.uniform(-1.0, 1.0, (n, n)), rng.uniform(-2.0, 2.0, (n, n)) + 3.0 * np.eye(n)
            closed = random_hurwitz_matrix(rng, n=n)
            sys = DelayPredictorSystem(
                a=a, b=b, g=rng.uniform(-2.0, 2.0, (n, 2)), k=np.linalg.solve(b, closed - a), tau=tau, mu=1.0
            )
            rep = delay_bounds(sys, quad_tol=1e-8)
            bk = sys.b @ sys.k

            def f(s):
                eg = scipy.linalg.expm(sys.a * s) @ sys.g
                return np.array([np.linalg.norm(bk @ eg, 2), np.linalg.norm(eg, 2)])

            ref = scipy.integrate.quad_vec(f, 0.0, tau, epsabs=1e-13, epsrel=0.0)[0]
            assert abs(rep.phi_integral - ref[0]) <= 1e-8
            assert abs(rep.r_integral - ref[1]) <= 1e-8

    def test_rejects_bad_tol(self, scalar_delay, monkeypatch):
        # quad_tol=inf returned a "certified" bound from one quadrature panel;
        # True passed as 1.0.  Both now fail before any quadrature.
        def refuse(*args, **kwargs):
            raise AssertionError("computation reached")

        monkeypatch.setattr(delaymod, "gauss_legendre", refuse)
        monkeypatch.setattr(linalg, "_pade13", refuse)
        for tol in (math.inf, math.nan, True, 0, 0.0, -1e-6, "1e-6"):
            with pytest.raises(ValueError, match="^quad_tol must be finite and positive, got "):
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

    def test_one_step_map_serves_every_input(self):
        # Each entry is what a one-input simulation of the same input reads.
        h, t_end, window = BATTERY_PLANT.tau / 32.0, 12.0, 3.0
        check = delay_empirical_check(BATTERY_PLANT, BATTERY, t_end, window, h)
        for signal, entry in zip(BATTERY, check.entries):
            traj = simulate_predictor(BATTERY_PLANT, signal, np.zeros(2), t_end, h)
            norms = np.linalg.norm(traj.ys, axis=1)
            tail = traj.times >= traj.times[-1] - window - 1e-12
            assert entry.sup_gain == float(np.max(norms))
            assert entry.asymptotic_gain == float(np.max(norms[tail]))

    @pytest.mark.parametrize(
        "battery",
        [
            [Constant([1.0]), Sinusoid([1.0], 1.0), Constant([2.0])],
            [Constant([1.0]), Sinusoid([1.0], 1.0), Constant([0.5, 0.5])],
            [Constant([1.0]), Sinusoid([1.0], 1.0), PeriodicExtension(BangBangInput(1.5, [0.7]), 1.5, 2.5)],
        ],
        ids=["last-sup-norm-2", "last-wrong-dimension", "last-bang-bang"],
    )
    def test_checks_every_input_before_solving(self, scalar_delay, battery, monkeypatch):
        solves = []
        monkeypatch.setattr(delaymod, "_loop_states", lambda *args: solves.append(args))
        with pytest.raises(ValueError):
            delay_empirical_check(scalar_delay, battery, 5.0, 1.0, scalar_delay.tau / 16.0)
        assert solves == []

    def test_battery_memory_does_not_grow_with_inputs(self):
        # 320,000 steps: each input's states are freed before the next is walked.
        h, peaks = BATTERY_PLANT.tau / 64.0, []
        for battery in (BATTERY[:1], BATTERY):
            tracemalloc.start()
            delay_empirical_check(BATTERY_PLANT, battery, 2000.0, 3.0, h)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] <= 1.3 * peaks[0]

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
