"""Predictor-feedback interconnection with input delay.

The plant state y is driven by a delayed signal z(t - tau) and a disturbance
u; z is generated by a reduction-based predictor so that the closed loop
behaves like y' = (A + BK) y after a transient:

    y' = A y + B z(t - tau) + G u
    z' = (K B - mu I) z + K (A + mu I) [exp(A tau) y + J(t)]
    J(t) = integral over [t - tau, t] of exp(A (t - s)) B z(s) ds

The prediction error xi = z - K exp(A tau) y - K J obeys the decoupled law
xi' = -mu xi - K exp(A tau) G u, which gives both an a-priori gain bound and
a strong consistency check for the integrator.

Simulation is classical RK4 with the distributed term J handled by a
composite trapezoid rule over the stored z history (linear interpolation at
half steps), its weighted kernels h w_j exp(A j h) B taken once from
linalg._expm_times.  Everything a step reads is stored before it starts, so
one linear RK4 step map serves every input on one grid: the history window
folds into one matrix on the stored z rows and the input drive is evaluated
in blocks of the grid.  The resulting recurrence has constant coefficients,
so a block of steps is one precomputed block map times the solved rows it
reads plus the block-Toeplitz matrix of the recurrence's impulse responses
times its drive, the latter formed for a whole drive block at once;
delay_empirical_check solves all its inputs in one pass, block by block.
The step must divide the delay exactly so history lookups stay on the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .exceptions import DimensionError, NotHurwitzError, SimulationError
from .gains import _checked_tol
from .linalg import (
    StabilityCertificate,
    StateSpaceSystem,
    _expm,
    _expm_times,
    _spectral_norms,
    as_matrix,
    spectral_norm,
    stability_certificate,
)
from .quadrature import simpson_panels
from .signals import InputSignal, evaluate, signal_dim, sup_norm
from .sim import _MAX_GRID_STEPS, _grid_steps, _measured_gains, simulate

__all__ = [
    "DelayPredictorSystem",
    "DelayState",
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


@dataclass(eq=False)
class DelayPredictorSystem:
    """Plant (A, B, G), predictor gain K, delay tau, filter rate mu.

    A is n x n, B is n x m, G is n x p, K is m x n; A + B K must be Hurwitz
    (the design premise), tau and mu positive and finite.  The decay
    certificate of A + B K, built once to decide that, is kept as
    ``certificate``.
    """

    a: np.ndarray
    b: np.ndarray
    g: np.ndarray
    k: np.ndarray
    tau: float
    mu: float
    certificate: StabilityCertificate = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.a = as_matrix(self.a, "a")
        self.b = as_matrix(self.b, "b")
        self.g = as_matrix(self.g, "g")
        self.k = as_matrix(self.k, "k")
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


@dataclass(frozen=True)
class DelayState:
    """Plant state plus the z history over [-tau, 0] on a uniform grid.

    z_history rows run from z(-tau) to z(0) inclusive; the row count fixes
    the simulation step via h = tau / (rows - 1).
    """

    y: np.ndarray
    z_history: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float).reshape(-1)
        hist = np.asarray(self.z_history, dtype=float)
        if hist.ndim != 2 or hist.shape[0] < 2:
            raise ValueError("z_history must be a 2-d array with at least two rows")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(hist))):
            raise ValueError("delay state entries must be finite")
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z_history", hist)

    @classmethod
    def resting(cls, sys: DelayPredictorSystem, steps: int) -> "DelayState":
        if steps < 1:
            raise ValueError("steps must be at least 1")
        return cls(y=np.zeros(sys.n), z_history=np.zeros((steps + 1, sys.m)))


@dataclass(frozen=True)
class DelayTrajectory:
    """Grid record of a predictor simulation.

    z_record holds the full z sample sequence including the initial history,
    so z_record[history_steps + k] is z at times[k].
    """

    times: np.ndarray
    ys: np.ndarray
    zs: np.ndarray
    z_record: np.ndarray
    step: float
    history_steps: int
    signal: InputSignal


def _weighted_kernels(sys: DelayPredictorSystem, h: float, steps: int) -> np.ndarray:
    """Trapezoid-weighted kernels h w_j exp(A j h) B for j = 0..steps, where
    w_j is 1/2 at both ends and 1 inside."""
    kernels = _expm_times(sys.a, h * np.arange(steps + 1), sys.b)
    kernels *= h
    kernels[[0, -1]] *= 0.5
    return kernels


def _history_steps(tau: float, h: float) -> int:
    """Grid steps tau / h of the z history; raises ValueError unless h is
    finite and positive, divides tau and gives at most _MAX_GRID_STEPS."""
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step h must be finite and positive (--step), got {h!r}")
    ratio = tau / h
    if ratio >= _MAX_GRID_STEPS + 0.5:
        raise ValueError(
            f"tau / h = {ratio:.4g} history steps exceeds the limit of "
            f"{_MAX_GRID_STEPS}; use a larger step (--step)"
        )
    steps = int(round(ratio))
    if steps < 1 or abs(steps * h - tau) > 1e-9 * tau:
        raise ValueError(f"step h={h!r} must divide tau={tau!r} (--step)")
    return steps


# Largest n_steps * (N + 1), the stored rows a simulation of n_steps steps
# over an N-step history reads: every grid of at most _MAX_GRID_STEPS steps
# at the default step tau / 64 fits.
_MAX_DELAY_WORK = 65 * _MAX_GRID_STEPS


def _delay_grid(tau: float, h: float, t_end: float) -> tuple[int, int]:
    """(N, n_steps): the history steps tau / h and the grid steps t_end / h;
    raises ValueError unless both are legal and n_steps (N + 1) is at most
    _MAX_DELAY_WORK, so a simulation's work has a bound."""
    hist_steps = _history_steps(tau, h)
    n_steps = _grid_steps(t_end, h)
    work = n_steps * (hist_steps + 1)
    if work > _MAX_DELAY_WORK:
        raise ValueError(
            f"{n_steps} grid steps over {hist_steps + 1} history rows read "
            f"{work:.4g} stored rows, over the limit of {_MAX_DELAY_WORK:.4g}; "
            "use a larger step (--step) or a shorter duration (--t-max)"
        )
    return hist_steps, n_steps


def _predictor_grid(sys: DelayPredictorSystem, h: float, t_end: float) -> tuple[int, int]:
    """_delay_grid's (N, n_steps) for ``sys``; raises ValueError also when the
    RK4 step map's window, (N + 1)(n + m)^2 entries, would hold more than
    _MAX_GRID_STEPS: checked where the grid is derived, before a caller
    allocates anything of N rows (a resting history, the kernels)."""
    hist_steps, n_steps = _delay_grid(sys.tau, h, t_end)
    entries = (hist_steps + 1) * (sys.n + sys.m) ** 2
    if entries > _MAX_GRID_STEPS:
        raise ValueError(
            f"a {hist_steps}-step history needs {entries} window entries, "
            f"over the limit of {_MAX_GRID_STEPS}; use a larger step (--step)"
        )
    return hist_steps, n_steps


# Grid steps whose input drive simulate_predictor builds at once.
_DRIVE_BLOCK = 1 << 16
# Grid steps L that simulate_predictor solves at once, fewer only where the
# block map would be too large or its rows overflow.  Of 8, 16, 24, 32, 48
# and 64, 32 ran the benchmark's delay loops fastest (2-CPU x86-64).
_SOLVE_BLOCK = 32
# Record entries, (N + n_steps + 1)(n + m) per input, of the inputs that
# _solve_predictor solves together.
_GROUP_ENTRIES = 1 << 20


def simulate_predictor(
    sys: DelayPredictorSystem,
    signal: InputSignal,
    state0: DelayState,
    t_end: float,
    h: float,
) -> DelayTrajectory:
    """Integrate the delayed interconnection with RK4 on a uniform grid.

    ``h`` must divide tau (relative tolerance 1e-9) and match the history
    grid in ``state0``; the grid must pass _predictor_grid: _delay_grid's
    work bound, and a step map window, (N + 1)(n + m)^2 entries for
    N = tau / h, of at most _MAX_GRID_STEPS.  Error order: the distributed
    term is trapezoid (order 2), so the global error is O(h^2) despite the
    RK4 shell.  One _StepMap is built per call (see _rk4_step_map) and
    solved by _solve_predictor.
    """
    _check_input(sys, signal)
    hist_steps, n_steps = _predictor_grid(sys, h, t_end)
    if state0.z_history.shape != (hist_steps + 1, sys.m):
        raise DimensionError(
            f"z_history must have shape ({hist_steps + 1}, {sys.m}) for h={h}"
        )
    if state0.y.shape != (sys.n,):
        raise DimensionError(f"y must have length {sys.n}")
    step_map = _rk4_step_map(sys, h, hist_steps)
    (traj,) = _solve_predictor(sys, step_map, [signal], state0, n_steps, h)
    return traj


def _check_input(sys: DelayPredictorSystem, signal: InputSignal) -> None:
    if signal_dim(signal) != sys.p:
        raise DimensionError(
            f"input dimension {signal_dim(signal)} does not match system p={sys.p}"
        )


class _StepMap(NamedTuple):
    """The RK4 step map of one system on one grid, whatever the input.

    With x = (y, z), a step is x_{k+1} = x_k + (Phi - I) x_k + Q0 e0 +
    Qh eh + Q1 e1, the drives e taken at t_k, t_k + h/2 and t_k + h.  Their
    history terms are linear in the stored window z_record[k : k + N + 1]
    (N = tau / h), which is folded with Phi - I into one (n + m) x
    (N + 1)(n + m) matrix W acting on the last N + 1 rows of x:
    x_{k+1} = x_k + W window_k + drive_k.  W reads y in row N only: it is
    kept as ``win_z`` on the window's z columns and ``win_y`` on y_k.  That
    recurrence has constant coefficients, so the L steps after a known row
    x_k (L at most _SOLVE_BLOCK) are X = H S_k + T drive, with S_k = (z rows
    k..k+N, y_k) the only solved data they read, T the block lower-triangular
    Toeplitz matrix of the recurrence's first L impulse responses and H =
    T F, F the forcing of the L steps by S_k; ``toeplitz`` and ``block``
    keep T and H transposed.  ``drives`` stacks Q0, Qh and Q1 restricted to
    the input, (Q[:, :n] G)', so drive_k is u at the three times, side by
    side, times it.
    """

    win_z: np.ndarray
    win_y: np.ndarray
    toeplitz: np.ndarray
    block: np.ndarray
    drives: np.ndarray


def _shifted_rows(strip: np.ndarray, step: int, count: int) -> np.ndarray:
    """Rows j = 0..count-1 of a block Toeplitz matrix, stacked: block row j
    is ``strip`` shifted right by j step columns, zeros shifted in."""
    padded = np.concatenate((np.zeros((len(strip), (count - 1) * step)), strip), axis=1)
    windows = np.lib.stride_tricks.sliding_window_view(padded, strip.shape[1], axis=1)
    return windows[:, (count - 1) * step :: -step].transpose(1, 0, 2).reshape(-1, strip.shape[1])


def _rk4_step_map(sys: DelayPredictorSystem, h: float, hist_steps: int) -> _StepMap:
    """The _StepMap of ``sys`` at step h over a history of hist_steps steps."""
    n, m, d = sys.n, sys.m, sys.n + sys.m

    # x' = lin x + e with e = (B z(t - tau) + G u, K (A + mu I) S), where S
    # sums the weighted samples z(t - j h), j >= 1; the j = 0 term is in lin.
    kernels = _weighted_kernels(sys, h, hist_steps)
    k_amu = sys.k @ (sys.a + sys.mu * np.eye(n))
    a_zz = sys.k @ sys.b - sys.mu * np.eye(m) + k_amu @ kernels[0]
    lin = np.block([[sys.a, np.zeros((n, m))], [k_amu @ _expm(sys.a * sys.tau), a_zz]])
    x, e0, eh, e1 = (np.eye(d, 4 * d, j * d) for j in range(4))
    k1 = lin @ x + e0
    k2 = lin @ (x + 0.5 * h * k1) + eh
    k3 = lin @ (x + 0.5 * h * k2) + eh
    k4 = lin @ (x + h * k3) + e1
    # The increment x_{k+1} - x_k, so that x_k is added exactly as in RK4.
    step = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    grow, q0, qh, q1 = np.split(step, 4, axis=1)

    # Window row r holds x(t_k - (N - r) h): S_k reads the z of rows 0..N-1
    # and S_{k+1} of rows 1..N with the kernels j = N..1, z(t - tau) is row
    # 0 at t_k and row 1 at t_{k+1}, the half step takes the mean of both
    # ends, and row N is x_k itself.
    past = kernels[:0:-1]
    win = np.zeros((hist_steps + 1, d, d))
    win[:-1, :, n:] += (q0[:, n:] + 0.5 * qh[:, n:]) @ k_amu @ past
    win[1:, :, n:] += (q1[:, n:] + 0.5 * qh[:, n:]) @ k_amu @ past
    win[0, :, n:] += (q0[:, :n] + 0.5 * qh[:, :n]) @ sys.b
    win[1, :, n:] += (q1[:, :n] + 0.5 * qh[:, :n]) @ sys.b
    win[-1] += grow
    win = win.transpose(1, 0, 2)
    win_z, win_y, win = win[:, :, n:].reshape(d, -1), win[:, -1, :n].copy(), win.reshape(d, -1)

    # Block row j of [R, H] maps a unit drive g_k and S_k to x_{k+1+j}.  Both
    # obey the recurrence, from R_0 = I and H_0 = F_0, and H_j also takes
    # F_j: step k + j reads W_{i-j} z_{k+i}, i = j..N, off S_k, and step k
    # also x_k and W_y y_k.  An unstable step map overflows within a few
    # steps.  H has L (n + m) rows, one column per entry of S_k and at most
    # _MAX_GRID_STEPS entries, whatever N is.
    cols = win_z.shape[1] + n
    size = min(_SOLVE_BLOCK, max(1, _MAX_GRID_STEPS // (d * cols)))
    rows = np.zeros((size, d, d + cols))  # [R_j, H_j]
    rows[:, :, d:-n] = _shifted_rows(win_z, m, size).reshape(size, d, -1)
    rows[0, :, :d], rows[0, :, -n:] = np.eye(d), win_y + np.eye(d, n)
    rows[0, n:, -n - m : -n] += np.eye(m)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, size):
            lo = max(0, j - hist_steps - 1)
            earlier = rows[lo:j].reshape(-1, d + cols)
            rows[j] += rows[j - 1] + win[:, (lo + hist_steps + 1 - j) * d :] @ earlier
    # Cut before the first block row that is not finite, keeping row 0.
    finite = np.isfinite(rows).all(axis=(1, 2))
    cut = size if finite.all() else max(1, int(np.argmin(finite)))
    toeplitz = _shifted_rows(rows[:cut, :, :d].transpose(2, 0, 1).reshape(d, -1), d, cut)
    block = rows[:cut, :, d:].reshape(cut * d, cols).T.copy()
    drives = np.concatenate([(q[:, :n] @ sys.g).T for q in (q0, qh, q1)])
    return _StepMap(win_z, win_y, toeplitz, block, drives)


def _solve_predictor(sys, step_map, signals, state0, n_steps, h):
    """simulate_predictor's grid record of each checked input from one start,
    yielded in order.  Inputs are solved in groups whose records fit in
    _GROUP_ENTRIES (or one at a time); a group's records are freed with its
    trajectories, before the next group's are made."""
    entries = (state0.z_history.shape[0] + n_steps) * (sys.n + sys.m)
    group = max(1, _GROUP_ENTRIES // entries)
    for first in range(0, len(signals), group):
        yield from _solve_group(sys, step_map, signals[first : first + group], state0, n_steps, h)


def _drive(step_map: _StepMap, signal: InputSignal, t: np.ndarray, h: float, out) -> None:
    """Write drive_k of ``signal`` at the grid times t into ``out``."""
    inputs = [evaluate(signal, t + c * h) for c in (0.0, 0.5, 1.0)]
    np.matmul(np.concatenate(inputs, axis=1), step_map.drives, out=out)


def _solve_group(sys, step_map, signals, state0, n_steps, h) -> list[DelayTrajectory]:
    """_solve_predictor's trajectories of one group, L steps at a time, in one
    record per input whose row N + k is x_k = (y_k, z_k).  Per drive block
    of at most _DRIVE_BLOCK steps, drive_k is written into row N + k + 1 and
    T drive over it, one product per input; per solve block, one stacked
    product of H with each input's S_k is added to its rows, so that each
    input's arithmetic is that of a group of one.  Divergence is checked
    after each drive block."""
    n, d, count = sys.n, sys.n + sys.m, len(signals)
    hist_steps, block_map = state0.z_history.shape[0] - 1, step_map.block
    size = block_map.shape[1] // d
    # A block runs up to size - 1 rows past its drive block; the next drive
    # block overwrites them, and the record keeps them past the grid's end.
    rec = np.zeros((count, hist_steps + n_steps + size, d))
    rec[:, : hist_steps + 1, n:], rec[:, hist_steps, :n] = state0.z_history, state0.y
    xs = rec[:, hist_steps:]
    state = np.empty((count, 1, block_map.shape[0]))
    state_z = state[:, 0, :-n].reshape(count, hist_steps + 1, -1)

    def diverged_at(i: int, finite: np.ndarray) -> float:
        # finite flags input i's rows from first + 1 on.  Stepping the
        # recurrence through the solve block after row k0 that holds the first
        # bad one names the row where it fails, else the block's own.
        j = int(np.argmin(finite))
        k0 = first + j // size * size
        drive = np.empty((min(size, last - k0), d))
        _drive(step_map, signals[i], np.arange(k0, k0 + len(drive)) * h, h, drive)
        for k, drive_k in enumerate(drive, start=k0):
            x = xs[i, k] + drive_k + step_map.win_y @ xs[i, k, :n]
            x += step_map.win_z @ rec[i, k : k + hist_steps + 1, n:].reshape(-1)
            if not np.isfinite(x).all():
                return (k + 1) * h
            xs[i, k + 1] = x
        return (first + j + 1) * h

    for first in range(0, n_steps, _DRIVE_BLOCK):
        last = min(first + _DRIVE_BLOCK, n_steps)
        t_now = np.arange(first, first + -(-(last - first) // size) * size) * h
        # A diverging state overflows to inf or nan; the check below reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            for i, signal in enumerate(signals):
                drive = xs[i, first + 1 : first + 1 + len(t_now)]
                _drive(step_map, signal, t_now, h, drive)
                drive = drive.reshape(-1, size * d)
                np.matmul(drive, step_map.toeplitz, out=drive)
            for k in range(first, last, size):
                state_z[...] = rec[:, k : k + hist_steps + 1, n:]
                state[:, 0, -n:] = xs[:, k, :n]
                xs[:, k + 1 : k + size + 1] += (state @ block_map).reshape(count, size, d)
            if not np.isfinite(xs[:, first + 1 : last + 1]).all():
                finite = np.isfinite(xs[:, first + 1 : last + 1]).all(axis=2)
                t_bad = min(diverged_at(i, row) for i, row in enumerate(finite) if not row.all())
                raise SimulationError(f"delay state diverged at t={t_bad}")

    times, rec = np.arange(n_steps + 1) * h, rec[:, : hist_steps + n_steps + 1]
    return [
        DelayTrajectory(times, x[hist_steps:, :n], x[hist_steps:, n:], x[:, n:], h, hist_steps, u)
        for x, u in zip(rec, signals)
    ]


def predictor_error_series(
    traj: DelayTrajectory, sys: DelayPredictorSystem
) -> tuple[np.ndarray, np.ndarray]:
    """Prediction error on the grid and its exact closed-form reference.

    xi = z - K exp(A tau) y - K J is reconstructed with the same trapezoid
    rule the integrator uses; the reference is the trajectory of
    xi' = -mu xi - K exp(A tau) G u from the reconstructed xi(0), which the
    exact LTI simulator integrates without discretization error.
    """
    hist_steps = traj.history_steps
    h = traj.step
    # Reversed weighting: window row j' holds z(t - (hist_steps - j') h).
    rwk = _weighted_kernels(sys, h, hist_steps)[::-1].transpose(0, 2, 1).reshape(-1, sys.n)
    windows = np.lib.stride_tricks.sliding_window_view(traj.z_record.reshape(-1), len(rwk))
    dist = windows[:: sys.m] @ rwk
    e_tau = _expm(sys.a * sys.tau)
    k_etau = sys.k @ e_tau
    xi_grid = traj.zs - traj.ys @ k_etau.T - dist @ sys.k.T
    xi0 = xi_grid[0]
    closed = StateSpaceSystem(
        a=-sys.mu * np.eye(sys.m),
        b=-(k_etau @ sys.g),
        c=np.eye(sys.m),
    )
    ref = simulate(closed, traj.signal, xi0, float(traj.times[-1]), h)
    return xi_grid, ref.states


def predictor_error_residual(traj: DelayTrajectory, sys: DelayPredictorSystem) -> float:
    """Largest Euclidean gap between the reconstructed prediction error and
    its closed form; a direct measure of the integrator's error."""
    xi_grid, xi_ref = predictor_error_series(traj, sys)
    return float(np.max(np.linalg.norm(xi_grid - xi_ref, axis=1)))


@dataclass(frozen=True)
class DelayBoundReport:
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
        if self.oag_bound > self.ios_bound + 1e-12 * max(1.0, self.ios_bound):
            raise ValueError("asymptotic bound cannot exceed the sup bound")


def delay_bounds(sys: DelayPredictorSystem, quad_tol: float = 1e-8) -> DelayBoundReport:
    """Closed-form gain bounds from the closed-loop decay certificate.

    With phi(s) = |B K exp(A s) G| and r(s) = |exp(A s) G| (spectral norms),
    the asymptotic bound is (M / sigma) (|G| + int_0^tau phi + phi(tau) / mu)
    and the sup bound adds M int_0^tau r for the initial transient.
    """
    _checked_tol(quad_tol, "quad_tol")
    cert = sys.certificate
    bk = sys.b @ sys.k
    a_mat, g_mat = sys.a, sys.g

    def integrand(s: np.ndarray) -> np.ndarray:
        eg = _expm_times(a_mat, s, g_mat)
        return np.stack((_spectral_norms(bk @ eg), _spectral_norms(eg)), axis=1)

    ints = simpson_panels(integrand, [0.0, sys.tau], quad_tol)[0]
    phi_int, r_int = float(ints[0]), float(ints[1])
    phi_tau = spectral_norm(bk @ _expm(a_mat * sys.tau) @ g_mat)
    g_norm = spectral_norm(g_mat)
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


@dataclass(frozen=True)
class DelayEmpiricalEntry:
    """Measured plant-state norms for one disturbance input."""

    sup_gain: float
    asymptotic_gain: float
    gap_to_oag: float
    within: bool


@dataclass(frozen=True)
class DelayEmpiricalCheck:
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
    slack absorbs integrator error on instances where the bound is tight).
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
    state0 = DelayState.resting(sys, hist_steps)
    step_map = _rk4_step_map(sys, h, hist_steps)

    def entry(traj: DelayTrajectory) -> DelayEmpiricalEntry:
        measured = _measured_gains(traj.times, np.linalg.norm(traj.ys, axis=1), window)
        sup, oag = measured.sup_gain, bounds.oag_bound
        return DelayEmpiricalEntry(sup, measured.asymptotic_gain, oag - sup, sup <= oag + tolerance)

    # map keeps no trajectory while the next group is solved.
    entries = tuple(map(entry, _solve_predictor(sys, step_map, inputs, state0, n_steps, h)))
    return DelayEmpiricalCheck(
        bounds=bounds,
        entries=entries,
        all_within_oag=all(e.within for e in entries),
        tolerance=tolerance,
    )
