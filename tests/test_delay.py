import math
import tracemalloc

import numpy as np
import pytest

import gainlab.delay as delaymod
from gainlab import (
    BangBangInput,
    Constant,
    DelayPredictorSystem,
    DelayState,
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

    def test_grid_work_bounded(self):
        # Every grid of at most _MAX_GRID_STEPS steps at the default step
        # tau / 64 stays legal; one more history row is over the bound.
        limit = delaymod._MAX_GRID_STEPS
        tau = 0.5
        h = tau / 64
        assert delaymod._delay_grid(tau, h, limit * h) == (64, limit)
        h = tau / 65
        with pytest.raises(ValueError, match="stored rows.*--step.*--t-max"):
            delaymod._delay_grid(tau, h, limit * h)

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
        state = DelayState.resting(scalar_delay, 1)
        with pytest.raises(ValueError, match=message) as info:
            simulate_predictor(scalar_delay, Zero(dim=1), state, 2.0, h)
        assert "--step" in str(info.value)
        with pytest.raises(ValueError, match=message):
            delay_empirical_check(scalar_delay, [Zero(dim=1)], 2.0, 1.0, h)


# (mu, h, t_end, t): the step by step recurrence of a unit constant input
# first overflows at t.
DIVERGENCE_CASES = [
    (1e4, 1.0, 50.0, 21.0),
    (300.0, 0.25, 200.0, 12.5),
    (60.0, 1.0 / 16, 400.0, 29.5),
]


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

    def test_divergence_raises_simulation_error(self):
        # RK4 is unstable at mu h = 1e4; the state overflows to inf and nan
        sys = DelayPredictorSystem(
            a=[[-1.0]], b=[[1.0]], g=[[1.0]], k=[[-1.0]], tau=1.0, mu=1e4
        )
        state = DelayState.resting(sys, 1)
        with pytest.raises(SimulationError, match="diverged at t="):
            simulate_predictor(sys, Constant(u0=[1.0]), state, 50.0, 1.0)

    @pytest.mark.parametrize("mu", [1e4, 1e6, 1e9])
    def test_zero_input_from_rest_with_unstable_step_map(self, mu):
        # mu h >= 1e4 makes RK4 unstable, so the impulse responses overflow
        # within a few steps; the block must stop short of them, or inf * 0
        # turns this all-zero run into a spurious divergence.
        sys = DelayPredictorSystem(
            a=[[-1.0]], b=[[1.0]], g=[[1.0]], k=[[-1.0]], tau=1.0, mu=mu
        )
        traj = simulate_predictor(sys, Zero(dim=1), DelayState.resting(sys, 1), 50.0, 1.0)
        assert not traj.ys.any() and not traj.z_record.any()

    @pytest.mark.parametrize("mu, h, t_end, t_bad", DIVERGENCE_CASES)
    def test_divergence_reported_at_first_nonfinite_row(self, mu, h, t_end, t_bad):
        # The rows where the step by step recurrence first overflows.
        sys = DelayPredictorSystem(
            a=[[-1.0]], b=[[1.0]], g=[[1.0]], k=[[-1.0]], tau=1.0, mu=mu
        )
        state = DelayState.resting(sys, int(round(1.0 / h)))
        with pytest.raises(SimulationError, match="diverged at t=") as info:
            simulate_predictor(sys, Constant(u0=[1.0]), state, t_end, h)
        assert float(str(info.value).rpartition("=")[2]) == t_bad

    def test_overflowing_forcing_does_not_poison_earlier_rows(self):
        # With N = 1, x_1 = W_1 z(0) is finite, but the forcing of x_2 holds
        # W_0 z(0), which overflows; x_1 is solved without it.
        sys = DelayPredictorSystem(
            a=[[2.0]], b=[[1.0]], g=[[1.0]], k=[[-3.0]], tau=1.0, mu=1.0
        )
        state = DelayState(y=np.zeros(1), z_history=[[0.0], [1e306]])
        with pytest.raises(SimulationError, match=r"diverged at t=2\.0$"):
            simulate_predictor(sys, Zero(dim=1), state, 4.0, 1.0)

    @pytest.mark.parametrize("mu, h, t_end, t_bad", DIVERGENCE_CASES)
    def test_divergence_reported_across_drive_blocks(self, monkeypatch, mu, h, t_end, t_bad):
        # 40-step drive blocks, not a multiple of _SOLVE_BLOCK, put the first
        # bad row in the first, second and twelfth drive block, at the end of
        # a solve block in the last case; the check after each drive block
        # finds the same row as a check after every solve block.
        monkeypatch.setattr(delaymod, "_DRIVE_BLOCK", 40)
        self.test_divergence_reported_at_first_nonfinite_row(mu, h, t_end, t_bad)
        self.test_overflowing_forcing_does_not_poison_earlier_rows()

    def test_one_step_map_per_simulation(self, scalar_delay, monkeypatch):
        calls = {"evaluate": 0, "_expm_times": 0}

        def counted(name):
            original = getattr(delaymod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(delaymod, name, counted(name))
        steps = 16
        state = DelayState.resting(scalar_delay, steps)
        for t_end in (1.0, 10.0):
            calls.update(evaluate=0, _expm_times=0)
            simulate_predictor(
                scalar_delay, Sinusoid([1.0], 1.0), state, t_end, scalar_delay.tau / steps
            )
            assert calls == {"evaluate": 3, "_expm_times": 1}


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

# The system and battery of test_one_step_map_serves_every_input.
BATTERY_PLANT = DelayPredictorSystem(
    a=[[0.2, 1.0], [-1.0, -0.3]], b=[[0.0], [1.0]], g=[[0.5], [-0.2]], k=[[-0.6, -1.4]],
    tau=0.4, mu=3.0,
)
BATTERY = [
    Constant([1.0]),
    Sinusoid([1.0], 0.1),
    Sinusoid([1.0], 1.0),
    PeriodicExtension(BangBangInput(1.5, [0.7]), 1.5, 2.5),
]


def _two_input_run(steps):
    h = TWO_INPUT_PLANT.tau / 4
    state = DelayState.resting(TWO_INPUT_PLANT, 4)
    signal = Sinusoid(direction=[1.0], omega=3.0)
    return simulate_predictor(TWO_INPUT_PLANT, signal, state, steps * h, h)


def test_input_drive_built_in_blocks(monkeypatch):
    # 2 x 10^5 steps are four drive blocks of 2^16 steps, three evaluate calls
    # each; a one-block drive gives the same trajectory.
    calls = []
    evaluate = delaymod.evaluate

    def counting(*args, **kwargs):
        calls.append(1)
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(delaymod, "evaluate", counting)
    blocked = _two_input_run(200_000)
    assert blocked.times.size == 200_001 and len(calls) == 12
    monkeypatch.setattr(delaymod, "_DRIVE_BLOCK", 10**6)
    calls.clear()
    whole = _two_input_run(200_000)
    assert len(calls) == 3
    for ours, reference in ((blocked.ys, whole.ys), (blocked.zs, whole.zs)):
        assert np.all(np.abs(ours - reference) <= 1e-15 * np.max(np.abs(reference), axis=0))


def test_drive_blocks_bound_memory(monkeypatch):
    # Tracing slows the blocked solve about 15x, so the four-block layout above
    # is traced at an eighth of its size: 25,000 steps in blocks of 2^13.
    peaks = []
    for block in (1 << 13, 10**6):
        monkeypatch.setattr(delaymod, "_DRIVE_BLOCK", block)
        tracemalloc.start()
        _two_input_run(25_000)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[0] <= (2.0 / 3.0) * peaks[1]


def _relative_gap(value, reference):
    return float(np.max(np.abs(value - reference)) / np.max(np.abs(reference)))


class TestReferenceIntegrator:
    """The precomputed RK4 step map against the three-window loop."""

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

    def test_matches_reference_on_cli_grid(self, scalar_delay):
        # the CLI's default step tau/64 over a long run
        steps = 64
        h = scalar_delay.tau / steps
        rng = np.random.default_rng(11)
        state = DelayState(
            y=rng.standard_normal(1), z_history=rng.standard_normal((steps + 1, 1))
        )
        signal = Sinusoid(direction=[1.0], omega=1.0)
        traj = simulate_predictor(scalar_delay, signal, state, 40.0, h)
        assert traj.times.size == 5121
        ys, z_record = reference_predictor(
            scalar_delay, signal, state, traj.times.size - 1, h
        )
        assert _relative_gap(traj.ys, ys) <= 1e-13
        assert _relative_gap(traj.z_record, z_record) <= 1e-13


    @pytest.mark.parametrize("hist_steps", [1, 4, 64, 200])
    @pytest.mark.parametrize(
        "blocks", [0.5, 3.25], ids=["shorter-than-a-block", "not-a-block-multiple"]
    )
    def test_matches_reference_across_block_boundaries(self, hist_steps, blocks):
        # N = tau / h on both sides of the block length L
        n_steps = int(blocks * delaymod._SOLVE_BLOCK) + 1
        h = TWO_INPUT_PLANT.tau / hist_steps
        rng = np.random.default_rng(hist_steps)
        state = DelayState(
            y=rng.standard_normal(TWO_INPUT_PLANT.n),
            z_history=rng.standard_normal((hist_steps + 1, TWO_INPUT_PLANT.m)),
        )
        signal = Sinusoid(direction=[1.0], omega=3.0)
        traj = simulate_predictor(TWO_INPUT_PLANT, signal, state, n_steps * h, h)
        assert traj.times.size == n_steps + 1
        ys, z_record = reference_predictor(TWO_INPUT_PLANT, signal, state, n_steps, h)
        assert _relative_gap(traj.ys, ys) <= 1e-13
        assert _relative_gap(traj.z_record, z_record) <= 1e-13

    @pytest.mark.parametrize("hist_steps", [1, 4, 64])
    @pytest.mark.parametrize("block", [1, 5, 32, 96])
    def test_matches_reference_at_any_block_length(self, monkeypatch, hist_steps, block):
        # N < L, N = L - 1 and N > L: a block reads its history and y only
        # from rows solved before it, whatever its length.  The grid holds
        # two blocks of the longest L and part of a third.
        monkeypatch.setattr(delaymod, "_SOLVE_BLOCK", block)
        n_steps = 2 * 96 + 11
        h = TWO_INPUT_PLANT.tau / hist_steps
        rng = np.random.default_rng(100 + hist_steps)
        state = DelayState(
            y=rng.standard_normal(TWO_INPUT_PLANT.n),
            z_history=rng.standard_normal((hist_steps + 1, TWO_INPUT_PLANT.m)),
        )
        signal = Sinusoid(direction=[1.0], omega=3.0)
        traj = simulate_predictor(TWO_INPUT_PLANT, signal, state, n_steps * h, h)
        assert delaymod._rk4_step_map(TWO_INPUT_PLANT, h, hist_steps).toeplitz.shape[0] == 4 * block
        ys, z_record = reference_predictor(TWO_INPUT_PLANT, signal, state, n_steps, h)
        assert _relative_gap(traj.ys, ys) <= 1e-13
        assert _relative_gap(traj.z_record, z_record) <= 1e-13


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

    def test_rejects_bad_tol(self, scalar_delay, monkeypatch):
        # quad_tol=inf returned a "certified" bound from one Simpson panel;
        # True passed as 1.0.  Both now fail before any quadrature.
        def refuse(*args, **kwargs):
            raise AssertionError("computation reached")

        monkeypatch.setattr(delaymod, "simpson_panels", refuse)
        monkeypatch.setattr(delaymod, "_expm", refuse)
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

    def test_one_step_map_serves_every_input(self, monkeypatch):
        system = DelayPredictorSystem(
            a=[[0.2, 1.0], [-1.0, -0.3]],
            b=[[0.0], [1.0]],
            g=[[0.5], [-0.2]],
            k=[[-0.6, -1.4]],
            tau=0.4,
            mu=3.0,
        )
        h, t_end, window = system.tau / 32.0, 12.0, 3.0
        inputs = [
            Constant([1.0]),
            Sinusoid([1.0], 0.1),
            Sinusoid([1.0], 1.0),
            PeriodicExtension(BangBangInput(1.5, [0.7]), 1.5, 2.5),
        ]
        builds = []
        original = delaymod._rk4_step_map

        def counting(*args):
            builds.append(args[1:])
            return original(*args)

        monkeypatch.setattr(delaymod, "_rk4_step_map", counting)
        check = delay_empirical_check(system, inputs, t_end, window, h)
        assert builds == [(h, 32)]
        monkeypatch.setattr(delaymod, "_rk4_step_map", original)
        for signal, entry in zip(inputs, check.entries):
            traj = simulate_predictor(system, signal, DelayState.resting(system, 32), t_end, h)
            norms = np.linalg.norm(traj.ys, axis=1)
            tail = traj.times >= traj.times[-1] - window - 1e-12
            assert entry.sup_gain == float(np.max(norms))
            assert entry.asymptotic_gain == float(np.max(norms[tail]))

    @pytest.mark.parametrize("mu, h, t_end, t_bad", DIVERGENCE_CASES)
    @pytest.mark.parametrize("first", [True, False], ids=["zero-first", "zero-last"])
    def test_battery_diverges_where_its_input_does(self, mu, h, t_end, t_bad, first):
        # The zero input stays at rest on the unstable step map; the battery
        # reports the constant's divergence, at the time a one-input run does.
        sys = DelayPredictorSystem(
            a=[[-1.0]], b=[[1.0]], g=[[1.0]], k=[[-1.0]], tau=1.0, mu=mu
        )
        state = DelayState.resting(sys, int(round(1.0 / h)))
        with pytest.raises(SimulationError) as alone:
            simulate_predictor(sys, Constant(u0=[1.0]), state, t_end, h)
        battery = [Zero(dim=1), Constant(u0=[1.0])][:: 1 if first else -1]
        with pytest.raises(SimulationError) as together:
            delay_empirical_check(sys, battery, t_end, 1.0, h)
        assert str(together.value) == str(alone.value) == f"delay state diverged at t={t_bad}"

    @pytest.mark.parametrize(
        "battery",
        [
            [Constant([1.0]), Sinusoid([1.0], 1.0), Constant([2.0])],
            [Constant([1.0]), Sinusoid([1.0], 1.0), Constant([0.5, 0.5])],
        ],
        ids=["last-sup-norm-2", "last-wrong-dimension"],
    )
    def test_checks_every_input_before_solving(self, scalar_delay, battery, monkeypatch):
        solves = []
        monkeypatch.setattr(delaymod, "_solve_predictor", lambda *args: solves.append(args))
        with pytest.raises(ValueError):
            delay_empirical_check(scalar_delay, battery, 5.0, 1.0, scalar_delay.tau / 16.0)
        assert solves == []

    def test_battery_solved_in_one_call(self, monkeypatch):
        # 960 steps in 256-step drive blocks: four blocks, three evaluate
        # calls per input in each, and one solve for the whole battery.
        solves, evaluations = [], []
        solve, evaluate = delaymod._solve_predictor, delaymod.evaluate
        monkeypatch.setattr(delaymod, "_solve_predictor", lambda *a: solves.append(1) or solve(*a))
        monkeypatch.setattr(delaymod, "evaluate", lambda *a: evaluations.append(1) or evaluate(*a))
        monkeypatch.setattr(delaymod, "_DRIVE_BLOCK", 256)
        h = BATTERY_PLANT.tau / 32.0
        check = delay_empirical_check(BATTERY_PLANT, BATTERY, 12.0, 3.0, h)
        assert len(check.entries) == 4
        assert len(solves) == 1 and len(evaluations) == 3 * 4 * 4

    def test_groups_match_one_pass(self, monkeypatch):
        # Each input's arithmetic is the same whatever group it is solved in.
        h = BATTERY_PLANT.tau / 32.0
        together = delay_empirical_check(BATTERY_PLANT, BATTERY, 12.0, 3.0, h)
        monkeypatch.setattr(delaymod, "_GROUP_ENTRIES", 1)
        alone = delay_empirical_check(BATTERY_PLANT, BATTERY, 12.0, 3.0, h)
        assert alone.entries == together.entries

    def test_battery_memory_does_not_grow_with_inputs(self):
        # 320,000 steps: an input's record, 960,195 entries, is over
        # _GROUP_ENTRIES, so the inputs are solved one at a time.
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
