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
linalg._expm_times.  Each step sums the stored samples z(t - j h), j >= 1,
once and carries that sum to the next step; a stage adds the (h/2) B z term
of its own z, and the half step uses the mean of the sums at both ends.  The
step must divide the delay exactly so history lookups stay on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DimensionError, NotHurwitzError, SimulationError
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
from .sim import _grid_steps, simulate

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


def simulate_predictor(
    sys: DelayPredictorSystem,
    signal: InputSignal,
    state0: DelayState,
    t_end: float,
    h: float,
) -> DelayTrajectory:
    """Integrate the delayed interconnection with RK4 on a uniform grid.

    ``h`` must divide tau (relative tolerance 1e-9) and match the history
    grid in ``state0``.  Error order: the distributed term is trapezoid
    (order 2), so the global error is O(h^2) despite the RK4 shell.
    """
    if signal_dim(signal) != sys.p:
        raise DimensionError(
            f"input dimension {signal_dim(signal)} does not match system p={sys.p}"
        )
    if h <= 0:
        raise ValueError("step h must be positive")
    ratio = sys.tau / h
    hist_steps = int(round(ratio))
    if hist_steps < 1 or abs(hist_steps * h - sys.tau) > 1e-9 * sys.tau:
        raise ValueError("h must divide tau")
    if state0.z_history.shape != (hist_steps + 1, sys.m):
        raise DimensionError(
            f"z_history must have shape ({hist_steps + 1}, {sys.m}) for h={h}"
        )
    if state0.y.shape != (sys.n,):
        raise DimensionError(f"y must have length {sys.n}")
    n_steps = _grid_steps(t_end, h)

    kernels = _weighted_kernels(sys, h, hist_steps)
    # J at time t is past + half_b @ z(t), where past sums the samples
    # z(t - j h), j >= 1; past_kernels runs j = hist_steps..1 to match the
    # ascending rows of z_record.
    half_b = kernels[0]
    past_kernels = kernels[:0:-1]

    a_mat, b_mat, g_mat, k_mat = sys.a, sys.b, sys.g, sys.k
    e_tau = _expm(a_mat * sys.tau)
    k_amu = k_mat @ (a_mat + sys.mu * np.eye(sys.n))
    a_zz = k_mat @ b_mat - sys.mu * np.eye(sys.m)

    z_record = np.zeros((hist_steps + n_steps + 1, sys.m))
    z_record[: hist_steps + 1] = state0.z_history
    ys = np.empty((n_steps + 1, sys.n))
    ys[0] = state0.y
    times = np.arange(n_steps + 1) * h

    def rhs(y_s, z_s, z_delay, past, u_val):
        dy = a_mat @ y_s + b_mat @ z_delay + g_mat @ u_val
        dz = a_zz @ z_s + k_amu @ (e_tau @ y_s + past + half_b @ z_s)
        return dy, dz

    past_now = np.einsum("jnm,jm->n", past_kernels, z_record[:hist_steps])
    for k in range(n_steps):
        base = hist_steps + k
        t_now = k * h
        # The history sum at t_{k+1} uses stored samples only; at the half
        # step the interpolated history gives the mean of the two sums.
        past_next = np.einsum("jnm,jm->n", past_kernels, z_record[k + 1 : base + 1])
        past_half = 0.5 * (past_now + past_next)
        z_del_0 = z_record[k]
        z_del_1 = z_record[k + 1]
        z_del_half = 0.5 * (z_del_0 + z_del_1)
        u0 = np.atleast_1d(evaluate(signal, t_now))
        u_half = np.atleast_1d(evaluate(signal, t_now + 0.5 * h))
        u1 = np.atleast_1d(evaluate(signal, t_now + h))

        y0 = ys[k]
        z0 = z_record[base]
        k1y, k1z = rhs(y0, z0, z_del_0, past_now, u0)
        k2y, k2z = rhs(
            y0 + 0.5 * h * k1y, z0 + 0.5 * h * k1z, z_del_half, past_half, u_half
        )
        k3y, k3z = rhs(
            y0 + 0.5 * h * k2y, z0 + 0.5 * h * k2z, z_del_half, past_half, u_half
        )
        k4y, k4z = rhs(y0 + h * k3y, z0 + h * k3z, z_del_1, past_next, u1)
        y_next = y0 + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        z_next = z0 + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
        if not (np.all(np.isfinite(y_next)) and np.all(np.isfinite(z_next))):
            raise SimulationError(f"delay state diverged at t={(k + 1) * h}")
        ys[k + 1] = y_next
        z_record[base + 1] = z_next
        past_now = past_next

    return DelayTrajectory(
        times=times,
        ys=ys,
        zs=z_record[hist_steps:],
        z_record=z_record,
        step=h,
        history_steps=hist_steps,
        signal=signal,
    )


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
    rwk = _weighted_kernels(sys, h, hist_steps)[::-1]
    windows = np.lib.stride_tricks.sliding_window_view(
        traj.z_record, hist_steps + 1, axis=0
    )
    dist = np.einsum("jnm,kmj->kn", rwk, windows)
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
    if not (quad_tol > 0):
        raise ValueError("quad_tol must be positive")
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
    bounds = delay_bounds(sys)
    hist_steps = int(round(sys.tau / h))
    entries = []
    for signal in inputs:
        if sup_norm(signal) > 1.0 + 1e-9:
            raise ValueError("empirical checks require inputs bounded by one")
        state0 = DelayState.resting(sys, hist_steps)
        traj = simulate_predictor(sys, signal, state0, t_end, h)
        norms = np.linalg.norm(traj.ys, axis=1)
        sup_gain = float(np.max(norms))
        tail = traj.times >= traj.times[-1] - window - 1e-12
        asym = float(np.max(norms[tail]))
        within = sup_gain <= bounds.oag_bound + tolerance
        entries.append(
            DelayEmpiricalEntry(
                sup_gain=sup_gain,
                asymptotic_gain=asym,
                gap_to_oag=bounds.oag_bound - sup_gain,
                within=within,
            )
        )
    return DelayEmpiricalCheck(
        bounds=bounds,
        entries=tuple(entries),
        all_within_oag=all(e.within for e in entries),
        tolerance=tolerance,
    )
