"""Predictor-feedback interconnection with input delay.

The plant state y is driven by a delayed signal z(t - tau) and a disturbance
u; z is generated by a reduction-based predictor so that the closed loop
behaves like y' = (A + BK) y after a transient:

    y' = A y + B z(t - tau) + G u
    z' = (K B - mu I) z + K (A + mu I) [exp(A tau) y + J(t)]
    J(t) = integral over [t - tau, t] of exp(A (t - s)) B z(s) ds

The predicted plant state P = exp(A tau) y + J and the prediction error
xi = z - K P follow one finite-dimensional LTI system driven by u alone
(the reduction behind predictor feedback: Artstein, IEEE TAC 1982; Krstic,
Delay Compensation for Nonlinear, Adaptive, and PDE Systems, 2009):

    P'  = (A + B K) P + B xi + exp(A tau) G u
    xi' = -mu xi - K exp(A tau) G u

The decoupled xi law gives both an a-priori gain bound and a consistency
check.  From a resting z history, P(0) = exp(A tau) y(0), and

    y(t) = exp(A t) y(0) + integral over [0, t] of exp(A (t - s)) G u(s) ds,  t <= tau
    y(t) = P(t - tau) + R(t),  R(t) = integral over [t - tau, t] of exp(A (t - s)) G u(s) ds
    z(t) = xi(t) + K P(t)

So a simulation is two exact walks of sim's segment simulator, with no ODE
discretization error: one of F2 = [[A + B K, B], [0, -mu I]] for (P, xi), and
one of (A, G) over [0, tau], whose flow also gives exp(A tau) and R.  A
constant or sinusoidal input is one segment, so R(t) is the state block of
exp(Gamma tau), Gamma that walk's generator, applied to the input's own state
at t - tau; R is never formed as a difference of two long walks, which for an
unstable plant would subtract numbers growing like exp(alpha t).  The step
must divide the delay exactly so that t - tau stays on the grid.
DelayPredictorSystem is a plain class, equal only to itself; the
trajectories, bounds and checks are immutable records (_record.Record, not
dataclasses: a changed copy is type(r)(**{**vars(r), name: value})).
"""

from __future__ import annotations

import math

import numpy as np

from ._record import Record
from .exceptions import DimensionError, NotHurwitzError, SimulationError
from .gains import _checked_tol
from .linalg import (
    _MAX_DELAY_WORK,
    _MAX_GRID_STEPS,
    _check_budget,
    _grid_flow,
    _spectral_norms,
    as_matrix,
    spectral_norm,
    stability_certificate,
)
from .quadrature import gauss_legendre
from .signals import Constant, InputSignal, Sinusoid, Zero, evaluate, signal_dim, sup_norm
from .sim import _grid_steps, _measured_gains, _start_state, _walk
from .sim import simulate  # noqa: F401  (perfbench's tracing wraps delay.simulate)

__all__ = [
    "DelayPredictorSystem",
    "DelayTrajectory",
    "simulate_predictor",
    "predictor_error_series",
    "predictor_error_residual",
    "DelayBoundReport",
    "delay_bounds",
    "DelayEmpiricalEntry",
    "DelayEmpiricalCheck",
    "delay_empirical_check",
]


class DelayPredictorSystem:
    """Plant (A, B, G), predictor gain K, delay tau, filter rate mu.

    A is n x n, B is n x m, G is n x p, K is m x n; A + B K must be Hurwitz
    (the design premise), tau and mu positive and finite.  The decay
    certificate of A + B K, built once to decide that, is kept as
    ``certificate``.  Two systems are equal only if they are the same
    object.
    """

    def __init__(self, a, b, g, k, tau: float, mu: float) -> None:
        self.a = as_matrix(a, "a")
        self.b = as_matrix(b, "b")
        self.g = as_matrix(g, "g")
        self.k = as_matrix(k, "k")
        self.tau, self.mu = tau, mu
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise DimensionError("a must be square")
        if self.b.shape[0] != n:
            raise DimensionError("b must have as many rows as a")
        if self.g.shape[0] != n:
            raise DimensionError("g must have as many rows as a")
        if self.k.shape != (self.b.shape[1], n):
            raise DimensionError("k must be m x n for b of shape n x m")
        if not (0 < self.tau < np.inf):
            raise ValueError("tau must be positive and finite")
        if not (0 < self.mu < np.inf):
            raise ValueError("mu must be positive and finite")
        try:
            self.certificate = stability_certificate(self.closed_loop)
        except NotHurwitzError as exc:
            raise NotHurwitzError("a + b k must be Hurwitz") from exc
        for arr in (self.a, self.b, self.g, self.k):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.g.shape[1]

    @property
    def closed_loop(self) -> np.ndarray:
        return self.a + self.b @ self.k


class DelayTrajectory(Record):
    """Grid record of a predictor simulation.

    ys[k], zs[k] and xis[k] are y, z and xi at times[k], xi off the walk
    that gives z; z rests over the history_steps steps before 0, where no
    row is kept.  kernels are the trapezoid-weighted
    kernels h w_j exp(A j h) B, j = 0..history_steps (w_j 1/2 at both ends
    and 1 inside), and exp_a_tau is exp(A tau), both read off the flow of
    the simulation's walk over [0, tau]; predictor_error_series reuses them.
    """

    times: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    xis: np.ndarray
    step: float
    history_steps: int
    kernels: np.ndarray
    exp_a_tau: np.ndarray


def _predictor_grid(sys: DelayPredictorSystem, h: float, t_end: float) -> tuple[int, int]:
    """(N, n_steps): the history steps tau / h and the grid steps t_end / h of
    a simulation of ``sys``.  Raises ValueError unless h is finite and
    positive, N is at most _MAX_GRID_STEPS, h divides tau, the grid passes
    _grid_steps and the stored rows n_steps (N + 1) that
    predictor_error_series's windowed trapezoid sum reads are at most
    _MAX_DELAY_WORK: checked in that order where the grid is derived, before
    anything of N rows (the kernels, the trapezoid windows) is allocated."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and positive (--step), got {h!r}")
    _check_budget(sys.tau / h, _MAX_GRID_STEPS, "history steps", "--step")
    hist_steps = int(round(sys.tau / h))
    if hist_steps < 1 or abs(hist_steps * h - sys.tau) > 1e-9 * sys.tau:
        raise ValueError(f"step h={h!r} must divide tau={sys.tau!r} (--step)")
    n_steps = _grid_steps(t_end, h)
    rows = n_steps * (hist_steps + 1)
    _check_budget(rows, _MAX_DELAY_WORK, "stored rows", "--step or --t-max")
    return hist_steps, n_steps


def simulate_predictor(
    sys: DelayPredictorSystem,
    signal: InputSignal,
    y0: np.ndarray,
    t_end: float,
    h: float,
) -> DelayTrajectory:
    """Simulate the delayed interconnection exactly on a uniform grid, from
    the plant state ``y0`` and a resting z history.

    The input must be Zero, Constant or Sinusoid and ``y0`` a finite vector
    of length n, each refused before any work.  ``h`` must divide tau
    (relative tolerance 1e-9), and the grid must pass _predictor_grid's size
    budget: its history steps and stored rows, each refused by
    linalg._check_budget.  y and z are read off two exact walks (see the
    module docstring), so ``h`` sets only the recording density.  A loop too
    stiff for the walk's cells is refused with ValueError (see
    linalg._MAX_STIFFNESS), and a state that leaves double range raises
    SimulationError.
    """
    _check_input(sys, signal)
    hist_steps, n_steps = _predictor_grid(sys, h, t_end)
    y0 = _start_state(y0, sys.n, "y0")
    ys, zs, xis, flow, level, exp_a_tau = _loop_states(sys, signal, y0, hist_steps, n_steps, h)
    # The orbit of (B, 0): a zero input state leaves exp(A j h) B in the first n rows.
    columns = np.zeros((flow.matrix.shape[0], sys.m))
    columns[: sys.n] = sys.b
    kernels = h * flow.orbit(columns, hist_steps + 1, level)[:, : sys.n]
    kernels[[0, -1]] *= 0.5
    return DelayTrajectory(np.arange(n_steps + 1) * h, ys, zs, xis, h, hist_steps, kernels, exp_a_tau)


def _check_input(sys: DelayPredictorSystem, signal: InputSignal) -> None:
    if not isinstance(signal, (Zero, Constant, Sinusoid)):
        raise ValueError(f"delay inputs are Zero, Constant or Sinusoid, got {type(signal).__name__}")
    if signal_dim(signal) != sys.p:
        raise DimensionError(
            f"input dimension {signal_dim(signal)} does not match system p={sys.p}"
        )


def _input_states(signal: InputSignal, t: np.ndarray) -> np.ndarray:
    """Rows of the input's own state at the times t, as sim._generator
    carries it: u for Zero and Constant, (sin, cos) of a Sinusoid's phase."""
    if isinstance(signal, Sinusoid):
        phase = signal.omega * t + signal.phase
        return np.column_stack((np.sin(phase), np.cos(phase)))
    return evaluate(signal, t)


def _loop_states(sys, signal, y0, hist_steps, n_steps, h):
    """(ys, zs, xis, flow, level, exp(A tau)) of a checked input from a
    resting z history: the grid states of y, z and xi, and the flow of the
    walk of (A, G) over [0, tau] at its orbit level.  That flow's ladder
    over tau is exp(Gamma tau) = [[exp(A tau), E], [0, exp(Omega tau)]] on
    the walk's scaled input state w / s, so R(t) = E w(t - tau) / s."""
    n, m, flows = sys.n, sys.m, {}
    f2 = np.block([[sys.closed_loop, sys.b], [np.zeros((m, n)), -sys.mu * np.eye(m)]])
    ys = np.empty((n_steps + 1, n))
    # The plant's walk over [0, tau] has no certificate to check; the F2 walk has the loop's.
    plant = _walk(sys.a, sys.g, signal, y0, hist_steps * h, h, flows, None)
    ys[: hist_steps + 1] = plant[: n_steps + 1]
    flow, level, scale = next(iter(flows.values()))
    # A diverging state overflows to inf or nan; the checks below report it.
    with np.errstate(over="ignore", invalid="ignore"):
        flow_tau = flow.ladder(hist_steps << level, np.eye(flow.matrix.shape[0]))
        exp_a_tau = flow_tau[:n, :n]
        gain, start = exp_a_tau @ sys.g, exp_a_tau @ y0
        drive, start = np.vstack((gain, -sys.k @ gain)), np.concatenate((start, -sys.k @ start))
        if not (np.isfinite(drive).all() and np.isfinite(start).all()):
            raise OverflowError("the predictor's input gain exp(A tau) G overflowed double precision")
        stiff = sys.certificate.sigma, "loop", "F2", f" (mu = {sys.mu:g})"
        p_xi = _walk(f2, drive, signal, start, n_steps * h, h, {}, stiff)
        zs = p_xi[:, n:] + p_xi[:, :n] @ sys.k.T
        tail = n_steps - hist_steps
        if tail > 0:
            inputs = _input_states(signal, np.arange(1, tail + 1) * h) / scale
            ys[hist_steps + 1 :] = p_xi[1 : tail + 1, :n] + inputs @ flow_tau[:n, n:].T
    if not (np.isfinite(ys).all() and np.isfinite(zs).all()):
        raise SimulationError("delay state left double range")
    return ys, zs, p_xi[:, n:], flow, level, exp_a_tau


def predictor_error_series(
    traj: DelayTrajectory, sys: DelayPredictorSystem
) -> tuple[np.ndarray, np.ndarray]:
    """Prediction error on the grid and its exact reference.

    xi = z - K exp(A tau) y - K J is reconstructed from the grid record,
    J by the composite trapezoid rule over the stored z window (the
    trajectory's kernels); the reference is the trajectory's own xis, the
    solution of xi' = -mu xi - K exp(A tau) G u that the exact walk giving z
    reads without discretization error.  So the gap between the two
    measures that quadrature: it is O(h^2).
    """
    # Reversed weighting: window row j' holds z(t - (N - j') h), N = tau / h,
    # over the resting history's N zero rows and then the recorded z.
    rwk = traj.kernels[::-1].transpose(0, 2, 1).reshape(-1, sys.n)
    record = np.concatenate((np.zeros((traj.history_steps, sys.m)), traj.zs))
    windows = np.lib.stride_tricks.sliding_window_view(record.reshape(-1), len(rwk))
    k_etau = sys.k @ traj.exp_a_tau
    # exp(A tau) y and J can each leave double range where P = their sum does not.
    with np.errstate(over="ignore", invalid="ignore"):
        dist = windows[:: sys.m] @ rwk
        xi_grid = traj.zs - traj.ys @ k_etau.T - dist @ sys.k.T
    if not np.isfinite(xi_grid).all():
        raise OverflowError("the prediction error's terms exp(A tau) y and J overflowed double precision")
    return xi_grid, traj.xis


def predictor_error_residual(traj: DelayTrajectory, sys: DelayPredictorSystem) -> float:
    """Largest Euclidean gap between the reconstructed prediction error and
    its closed form; a direct measure of the trapezoid reconstruction's error."""
    xi_grid, xi_ref = predictor_error_series(traj, sys)
    return float(np.max(_spectral_norms((xi_grid - xi_ref)[:, None])))


class DelayBoundReport(Record):
    """Certified disturbance-to-state bounds for the closed delay loop.

    oag_bound limits the asymptotic plant-state norm under unit disturbances,
    ios_bound the sup over all time; oag_bound <= ios_bound always.
    """

    m_const: float
    sigma: float
    g_norm: float
    phi_integral: float
    phi_tau: float
    r_integral: float
    oag_bound: float
    ios_bound: float
    quad_tol: float

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"delay bound field {name} must be finite, got {value}")
        if self.oag_bound > self.ios_bound + 1e-12 * max(1.0, self.ios_bound):
            raise ValueError("asymptotic bound cannot exceed the sup bound")


def delay_bounds(sys: DelayPredictorSystem, quad_tol: float = 1e-8) -> DelayBoundReport:
    """Closed-form gain bounds from the closed-loop decay certificate.

    With phi(s) = |B K exp(A s) G| and r(s) = |exp(A s) G| (spectral norms),
    the asymptotic bound is (M / sigma) (|G| + int_0^tau phi + phi(tau) / mu)
    and the sup bound adds M int_0^tau r for the initial transient.  The
    two integrals share one adaptive Gauss–Legendre refinement on [0, tau]
    (quadrature.gauss_legendre), and its nodes and exp(A tau) come off one
    linalg._Flow of A.
    """
    _checked_tol(quad_tol, "quad_tol")
    cert = sys.certificate
    bk = sys.b @ sys.k
    flow = _grid_flow(sys.a, sys.tau, sys.tau)[0]  # tau is 2^level cells

    def integrand(s: np.ndarray) -> np.ndarray:
        eg = flow.advance(sys.g, s)
        return np.stack((_spectral_norms(bk @ eg), _spectral_norms(eg)), axis=1)

    # A kernel past double range overflows to inf; DelayBoundReport refuses it.
    with np.errstate(over="ignore", invalid="ignore"):
        ints = gauss_legendre(integrand, 0.0, sys.tau, quad_tol)
        phi_tau = spectral_norm(bk @ flow.powers[-1] @ sys.g)
    phi_int, r_int = float(ints[0]), float(ints[1])
    g_norm = spectral_norm(sys.g)
    oag = (cert.m / cert.sigma) * (g_norm + phi_int + phi_tau / sys.mu)
    ios = oag + cert.m * r_int
    return DelayBoundReport(
        m_const=cert.m,
        sigma=cert.sigma,
        g_norm=g_norm,
        phi_integral=phi_int,
        phi_tau=phi_tau,
        r_integral=r_int,
        oag_bound=oag,
        ios_bound=ios,
        quad_tol=quad_tol,
    )


class DelayEmpiricalEntry(Record):
    """Measured plant-state norms for one disturbance input."""

    sup_gain: float
    asymptotic_gain: float
    gap_to_oag: float
    within: bool


class DelayEmpiricalCheck(Record):
    """Bounds plus per-input empirical measurements."""

    bounds: DelayBoundReport
    entries: tuple
    all_within_oag: bool
    tolerance: float


def delay_empirical_check(
    sys: DelayPredictorSystem,
    inputs,
    t_end: float,
    window: float,
    h: float,
    tolerance: float = 1e-3,
) -> DelayEmpiricalCheck:
    """Run unit disturbances from rest and compare against the bounds.

    Each input must be bounded by one in sup norm.  An entry is within the
    bound when its sup norm does not exceed oag_bound + tolerance (the small
    slack absorbs rounding on instances where the bound is tight).  Every
    input is checked (sup norm, dimension, and kind as simulate_predictor
    takes it) before any is simulated, each from rest as _loop_states reads
    y off its two walks.
    """
    if not (0.0 < window < t_end):
        raise ValueError("window must lie strictly inside the duration")
    inputs = tuple(inputs)
    for signal in inputs:
        if sup_norm(signal) > 1.0 + 1e-9:
            raise ValueError("empirical checks require inputs bounded by one")
        _check_input(sys, signal)
    hist_steps, n_steps = _predictor_grid(sys, h, t_end)
    bounds = delay_bounds(sys)
    times, rest = np.arange(n_steps + 1) * h, np.zeros(sys.n)

    def entry(signal: InputSignal) -> DelayEmpiricalEntry:
        ys = _loop_states(sys, signal, rest, hist_steps, n_steps, h)[0]
        sup, asymptotic = _measured_gains(times, _spectral_norms(ys[:, None]), window)
        oag = bounds.oag_bound
        return DelayEmpiricalEntry(sup, asymptotic, oag - sup, sup <= oag + tolerance)

    entries = tuple(map(entry, inputs))
    return DelayEmpiricalCheck(
        bounds=bounds,
        entries=entries,
        all_within_oag=all(e.within for e in entries),
        tolerance=tolerance,
    )
