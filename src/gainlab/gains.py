"""Peak-gain estimates for stable LTI systems.

For a strictly causal system x' = Ax + Bu, y = Cx with Hurwitz A, the minimum
peak gain (the smallest constant relating the sup norm of the input to the
sup norm of the output, equivalently to the limsup of the output norm) is
approached here from both sides:

* exact values where available: the L1 norm of the impulse response for
  single-output systems, and the magnitude of the DC gain whenever the
  response kernel is sign-definite (positivity certificates);
* lower bounds from steady sinusoid responses;
* upper bounds from orthonormal output decompositions, from periodic
  worst-case steady states, and from decay-certificate arithmetic.

All estimates carry their kind (exact / lower / upper / estimate), the method
label, and the tolerance they were computed to, so reports stay auditable.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConsistencyError, DimensionError
from .linalg import (
    StabilityCertificate,
    StateSpaceSystem,
    StructureFlags,
    _expm,
    _expm_times,
    spectral_norm,
    structure_flags,
)
from .quadrature import simpson_panels, tail_horizon
from .signals import BangBangInput

__all__ = [
    "GainEstimate",
    "GainReport",
    "VCurve",
    "PositivityCertificate",
    "CertificateBoundInput",
    "l1_impulse_gain",
    "dc_gain",
    "positivity_certificate",
    "max_terminal_output",
    "vcurve",
    "bang_bang_switches",
    "sinusoid_response",
    "sinusoid_lower_bound",
    "onb_upper_bound",
    "periodic_upper_estimate",
    "certificate_cell_value",
    "certificate_gain_bound",
    "gain_report",
]


@dataclass(frozen=True)
class GainEstimate:
    """One gain figure with its provenance.

    kind is one of "exact", "lower", "upper", "estimate"; method is the
    label of the producing routine; tolerance is the absolute accuracy the
    number was computed to (0 for closed-form arithmetic).
    """

    value: float
    kind: str
    method: str
    tolerance: float
    details: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "lower", "upper", "estimate"):
            raise ValueError(f"unknown estimate kind {self.kind!r}")
        if not np.isfinite(self.value) or self.value < 0:
            raise ValueError(f"estimate value must be finite and nonnegative, got {self.value}")


class PositivityCertificate(enum.Enum):
    """Why the response kernel is known (or believed) sign-definite."""

    METZLER_NONNEG = "metzler-nonneg"
    ASSUMPTION_H = "assumption-h"
    GRID_VERIFIED = "grid-verified"


def _impulse_rows(sys: StateSpaceSystem, rows: np.ndarray, tol: float):
    """Componentwise L1 norms of s -> rows @ exp(As) @ B for a single-input
    system: the vector (integral of |row_i exp(As) B| ds)_i plus the horizon
    used.

    Half the budget goes to quadrature, half to the certified tail, the tail
    share split evenly across components.
    """
    if sys.m != 1:
        raise DimensionError("impulse-response integrals require a single input")
    cert = sys.certificate
    a = sys.a
    b = sys.b
    q = rows.shape[0]
    row_norms = np.linalg.norm(rows, axis=1)
    coef = float(np.max(row_norms)) * cert.m * spectral_norm(b)
    horizon = tail_horizon(cert.sigma, coef, (tol / 2.0) / q)
    if horizon == 0.0:
        return np.zeros(q), 0.0

    def integrand(s: np.ndarray) -> np.ndarray:
        return np.abs(rows @ _expm_times(a, s, b))[:, :, 0]

    return simpson_panels(integrand, [0.0, horizon], tol / 2.0)[0], horizon


def l1_impulse_gain(sys: StateSpaceSystem, tol: float = 1e-8) -> GainEstimate:
    """Gain from the componentwise L1 norms of the impulse response.

    Single-input systems only.  Each output component's kernel is integrated
    over [0, infinity) (adaptive quadrature plus a certified exponential
    tail) and the component integrals are combined in Euclidean norm.  For a
    single output this is the exact minimum peak gain, realized in the limit
    by bang-bang inputs; for several outputs it is an upper bound (the best
    one over the standard output basis; see onb_upper_bound for refinement).
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    ints, horizon = _impulse_rows(sys, sys.c, tol)
    value = float(np.linalg.norm(ints))
    kind = "exact" if sys.p == 1 else "upper"
    return GainEstimate(
        value=value,
        kind=kind,
        method="l1-impulse",
        tolerance=tol,
        details={
            "component_integrals": [float(v) for v in ints],
            "horizon": horizon,
        },
    )


def dc_gain(sys: StateSpaceSystem, grid_n: int = 64) -> GainEstimate:
    """Norm of the steady output under the worst constant unit input.

    Always a valid lower bound on the peak gain.  For single-input systems
    whose response kernel carries a positivity certificate the constant
    input is worst-case overall and the value is exact.
    """
    xdc = np.linalg.solve(sys.a, sys.b)
    mdc = sys.c @ xdc
    value = float(spectral_norm(mdc))
    kind = "lower"
    pos = None
    if sys.m == 1:
        pos = positivity_certificate(sys, grid_n=grid_n)
        if pos is not None:
            kind = "exact"
    return GainEstimate(
        value=value,
        kind=kind,
        method="dc",
        tolerance=1e-12 * max(1.0, value),
        details={"positivity": None if pos is None else pos.value},
    )


def positivity_certificate(
    sys: StateSpaceSystem, grid_n: int = 64, horizon_tol: float = 1e-8
) -> PositivityCertificate | None:
    """Certify that the response kernel never changes sign.

    Checked in order: symmetric negative definite A with identity output
    (exact, via the orthogonal diagonalization), Metzler A with nonnegative
    B and C (exact), and a pairwise sign check of the impulse response on a
    grid (non-rigorous; grid_n samples on the certified horizon).  Returns
    None when nothing applies.
    """
    if sys.m != 1:
        raise DimensionError("positivity certificates require a single input")
    if grid_n < 2:
        raise ValueError("grid_n must be at least 2")
    flags = structure_flags(sys)
    if flags.assumption_h is not None and sys.c.shape == (sys.n, sys.n) and np.array_equal(
        sys.c, np.eye(sys.n)
    ):
        return PositivityCertificate.ASSUMPTION_H
    if flags.metzler and flags.nonnegative_b and flags.nonnegative_c:
        return PositivityCertificate.METZLER_NONNEG
    cert = sys.certificate
    coef = spectral_norm(sys.c) * cert.m * spectral_norm(sys.b)
    horizon = tail_horizon(cert.sigma, coef, horizon_tol)
    if horizon == 0.0:
        return PositivityCertificate.GRID_VERIFIED
    samples = np.linspace(0.0, horizon, grid_n)
    kernels = (sys.c @ _expm_times(sys.a, samples, sys.b))[:, :, 0]
    gram = kernels @ kernels.T
    if float(np.min(gram)) >= -1e-12:
        return PositivityCertificate.GRID_VERIFIED
    return None


def max_terminal_output(
    sys: StateSpaceSystem,
    horizon: float,
    restarts: int = 8,
    tol: float = 1e-9,
    seed: int = 0,
) -> tuple[float, np.ndarray]:
    """Largest terminal output norm reachable at time ``horizon`` from rest
    with inputs bounded by one in Euclidean norm.

    Returns (value, direction) where direction is the unit output direction
    achieving the value.  Single-output systems are exact (the optimizer is
    bang-bang against the kernel sign); with several outputs the value comes
    from an iterated direction-alignment ascent and is a lower estimate.
    """
    if not (horizon > 0):
        raise ValueError("horizon must be positive")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if sys.p == 1:
        value = simpson_panels(_output_norms(sys), [0.0, horizon], tol)[0]
        return float(value), np.array([1.0])
    return _iterative_terminal_output(sys, horizon, restarts, tol, seed)


def _output_norms(sys: StateSpaceSystem):
    """Vectorized s -> |C exp(As) B| for a single-output system."""
    a, b, c = sys.a, sys.b, sys.c

    def integrand(s: np.ndarray) -> np.ndarray:
        return np.linalg.norm((c @ _expm_times(a, s, b))[:, 0, :], axis=1)

    return integrand


def _iterative_terminal_output(sys, horizon, restarts, tol, seed):
    # Alternate between the optimal input for a fixed output direction and
    # realigning the direction with the terminal output that input produces.
    # Each iterate is feasible, so the best value seen is a valid lower
    # estimate whatever the iteration does.
    rng = np.random.default_rng(seed)
    a, b, c = sys.a, sys.b, sys.c
    n, p = sys.n, sys.p
    starts = [np.eye(p)[i] for i in range(p)]
    for _ in range(max(0, restarts)):
        vec = rng.standard_normal(p)
        starts.append(vec / np.linalg.norm(vec))
    best_value = 0.0
    best_dir = starts[0]
    for d0 in starts:
        d = d0
        last = -np.inf
        for _ in range(40):
            out = _aligned_terminal(sys, horizon, d, tol)
            j_val = out[0]
            x_t = out[1:]
            y_t = c @ x_t
            value = float(np.linalg.norm(y_t))
            if value > best_value:
                best_value = value
                best_dir = y_t / value if value > 0 else d
            if value <= 0 or value - last <= tol * max(1.0, value):
                break
            last = value
            d = y_t / value
    return best_value, best_dir


def _aligned_terminal(sys, horizon, d, tol):
    # Integrates [|v(s)|, exp(A (horizon - s)) B v(s) / |v(s)|] with
    # v(s) = B' exp(A' (horizon - s)) C' d, the input aligned with d.
    a, b, c = sys.a, sys.b, sys.c
    ctd = c.T @ d

    def integrand(s: np.ndarray) -> np.ndarray:
        eb = _expm_times(a, horizon - s, b)
        v = np.swapaxes(eb, 1, 2) @ ctd
        nv = np.linalg.norm(v, axis=1)
        out = np.zeros((s.size, 1 + sys.n))
        live = nv != 0.0
        out[live, 0] = nv[live]
        out[live, 1:] = (eb[live] @ (v[live] / nv[live, None])[:, :, None])[:, :, 0]
        return out

    return simpson_panels(integrand, [0.0, horizon], tol)[0]


@dataclass(frozen=True)
class VCurve:
    """Largest reachable terminal output norm as a function of the horizon."""

    horizons: np.ndarray
    values: np.ndarray
    directions: list
    exact: bool

    def __post_init__(self) -> None:
        h = np.asarray(self.horizons, dtype=float)
        if h.size == 0 or np.any(h <= 0) or np.any(np.diff(h) <= 0):
            raise ValueError("horizons must be strictly increasing and positive")


def vcurve(
    sys: StateSpaceSystem,
    horizons,
    restarts: int = 8,
    tol: float = 1e-9,
    seed: int = 0,
) -> VCurve:
    """Evaluate max_terminal_output on an increasing horizon grid.

    Single-output systems accumulate the curve incrementally (the grid
    cells are the panels of one quadrature), so a dense grid costs no more
    than its largest horizon.
    """
    hs = np.asarray(list(horizons), dtype=float)
    if hs.size == 0 or np.any(hs <= 0) or np.any(np.diff(hs) <= 0):
        raise ValueError("horizons must be strictly increasing and positive")
    if sys.p == 1:
        cells = simpson_panels(_output_norms(sys), np.concatenate(([0.0], hs)), tol / hs.size)
        dirs = [np.array([1.0])] * hs.size
        return VCurve(horizons=hs, values=np.cumsum(cells), directions=dirs, exact=True)
    values = []
    dirs = []
    for t in hs:
        val, d = max_terminal_output(sys, t, restarts=restarts, tol=tol, seed=seed)
        values.append(val)
        dirs.append(d)
    return VCurve(horizons=hs, values=np.array(values), directions=dirs, exact=False)


def bang_bang_switches(
    sys: StateSpaceSystem, horizon: float, samples: int = 4096
) -> BangBangInput:
    """Optimal switching input for the terminal-output problem on [0, horizon].

    For a SISO system the optimizer of |y(horizon)| is u(s) = sgn of the
    kernel C exp(A (horizon - s)) B, with sgn(0) taken as +1.  The kernel's
    sign changes are located on a dense sample grid and polished by bisection
    to 1e-12; pairs of sign changes falling inside one grid cell can be
    missed, which the dense default sampling makes unlikely.

    An identically vanishing kernel yields the zero-input marker.
    """
    if sys.m != 1 or sys.p != 1:
        raise DimensionError("bang-bang construction requires a SISO system")
    if not (horizon > 0):
        raise ValueError("horizon must be positive")
    if samples < 2:
        raise ValueError("samples must be at least 2")
    a, b, c = sys.a, sys.b, sys.c
    step = horizon / (samples - 1)
    # Propagate x_j = exp(A j step) B forward; the kernel at s is g(horizon-s).
    e_step = _expm(a * step)
    g = np.empty(samples)
    x = b.reshape(-1).copy()
    for j in range(samples):
        g[j] = (c @ x).item()
        x = e_step @ x
    kernel = g[::-1]  # kernel[i] = g(horizon - s_i) on the s grid
    scale = spectral_norm(c) * spectral_norm(b)
    if np.max(np.abs(kernel)) <= 1e-14 * max(scale, 1e-300):
        return BangBangInput(
            horizon=horizon, switch_times=np.empty(0), initial_sign=1, zero_kernel=True
        )

    signs = np.where(kernel >= 0.0, 1, -1)
    s_grid = np.linspace(0.0, horizon, samples)
    # Bisect every bracketing cell in lockstep, each until it is 1e-12 wide
    # or has taken 80 steps.
    cells = np.nonzero(signs[:-1] != signs[1:])[0]
    lo, hi, flo = s_grid[cells], s_grid[cells + 1], kernel[cells]
    for _ in range(80):
        live = np.nonzero(~(hi - lo <= 1e-12))[0]
        if live.size == 0:
            break
        mid = 0.5 * (lo[live] + hi[live])
        fmid = (c @ _expm_times(a, horizon - mid, b)).reshape(-1)
        same = (fmid >= 0.0) == (flo[live] >= 0.0)
        lo[live[same]] = mid[same]
        flo[live[same]] = fmid[same]
        hi[live[~same]] = mid[~same]
    roots = sorted(r for r in 0.5 * (lo + hi) if 1e-12 < r < horizon - 1e-12)
    cleaned = []
    for r in roots:
        if not cleaned or r - cleaned[-1] > 1e-11:
            cleaned.append(r)
    nonzero = np.nonzero(np.abs(kernel) > 1e-14 * max(scale, 1e-300))[0]
    initial = int(signs[nonzero[0]]) if nonzero.size else 1
    return BangBangInput(
        horizon=horizon,
        switch_times=np.array(cleaned),
        initial_sign=initial,
        zero_kernel=False,
    )


def sinusoid_response(sys: StateSpaceSystem, omega: float) -> float:
    """Asymptotic peak output norm under the worst unit sinusoid at ``omega``.

    Single-input systems.  The steady response to sin(omega t + phase) is a
    two-term trigonometric state; maximizing its output norm over the period
    and phase gives a closed form in the resolvent-like vector
    (A^2 + omega^2 I)^{-1} B.
    """
    if sys.m != 1:
        raise DimensionError("sinusoid response requires a single input")
    if not (omega > 0):
        raise ValueError("omega must be positive")
    n = sys.n
    xi = np.linalg.solve(sys.a @ sys.a + omega**2 * np.eye(n), sys.b).reshape(-1)
    c_xi = (sys.c @ xi).reshape(-1)
    c_a_xi = (sys.c @ (sys.a @ xi)).reshape(-1)
    term_q = omega**2 * float(c_xi @ c_xi)
    term_p = float(c_a_xi @ c_a_xi)
    cross = float(c_a_xi @ c_xi)
    inner = math.sqrt((term_q - term_p) ** 2 + 4.0 * omega**2 * cross**2)
    return math.sqrt(max(0.0, 0.5 * (term_q + term_p + inner)))


def sinusoid_lower_bound(
    sys: StateSpaceSystem, omegas=None, refine: bool = True
) -> GainEstimate:
    """Best sinusoid response over a frequency grid, optionally polished.

    A valid lower bound on the peak gain for every frequency; the returned
    value is the grid maximum, improved by a golden-section pass (in log
    frequency) around the winning grid point when ``refine`` is set.
    """
    if omegas is None:
        omegas = np.logspace(-3.0, 3.0, 200)
    omegas = np.asarray(list(omegas), dtype=float)
    if omegas.size == 0 or np.any(omegas <= 0):
        raise ValueError("omegas must be positive")
    vals = np.array([sinusoid_response(sys, w) for w in omegas])
    i_best = int(np.argmax(vals))
    best_omega = float(omegas[i_best])
    best = float(vals[i_best])
    if refine and omegas.size > 1:
        lo = math.log(omegas[max(0, i_best - 1)])
        hi = math.log(omegas[min(omegas.size - 1, i_best + 1)])
        if hi > lo:
            phi = (math.sqrt(5.0) - 1.0) / 2.0
            x1 = hi - phi * (hi - lo)
            x2 = lo + phi * (hi - lo)
            f1 = sinusoid_response(sys, math.exp(x1))
            f2 = sinusoid_response(sys, math.exp(x2))
            for _ in range(20):
                if f1 < f2:
                    lo = x1
                    x1, f1 = x2, f2
                    x2 = lo + phi * (hi - lo)
                    f2 = sinusoid_response(sys, math.exp(x2))
                else:
                    hi = x2
                    x2, f2 = x1, f1
                    x1 = hi - phi * (hi - lo)
                    f1 = sinusoid_response(sys, math.exp(x1))
            for x, f in ((x1, f1), (x2, f2)):
                if f > best:
                    best = f
                    best_omega = math.exp(x)
    return GainEstimate(
        value=best,
        kind="lower",
        method="sinusoid",
        tolerance=1e-12 * max(1.0, best),
        details={"omega": best_omega, "grid_points": int(omegas.size)},
    )


def onb_upper_bound(
    sys: StateSpaceSystem, random_bases: int = 4, tol: float = 1e-8, seed: int = 0
) -> GainEstimate:
    """Upper bound from orthonormal decompositions of the output space.

    For any orthonormal basis (e_i) of the output space, the Euclidean
    combination of the componentwise impulse-response L1 norms along e_i' C
    bounds the gain.  The standard basis is always tried; ``random_bases``
    additional orthonormal bases (seeded) are tried for multi-output systems
    and the minimum is returned.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if random_bases < 0:
        raise ValueError("random_bases must be nonnegative")
    ints, _ = _impulse_rows(sys, sys.c, tol)
    values = [float(np.linalg.norm(ints))]
    if sys.p > 1 and random_bases > 0:
        rng = np.random.default_rng(seed)
        for _ in range(random_bases):
            qmat, _ = np.linalg.qr(rng.standard_normal((sys.p, sys.p)))
            ints, _ = _impulse_rows(sys, qmat.T @ sys.c, tol)
            values.append(float(np.linalg.norm(ints)))
    best = int(np.argmin(values))
    return GainEstimate(
        value=values[best],
        kind="upper",
        method="onb",
        tolerance=tol,
        details={"basis_values": values, "selected": best},
    )


def periodic_upper_estimate(
    sys: StateSpaceSystem, t_grid=None, tol: float = 1e-8
) -> GainEstimate:
    """Grid estimate of the limiting periodic steady-state bound.

    For each period T the integral of the norm of
    C (exp(AT) - I)^{-1} exp(As) B over [0, T] bounds the asymptotic output
    of every T-periodic unit input, and its supremum over T bounds the gain.
    The supremum over the default dyadic grid {2^k / sigma, k = -2..6} is an
    estimate (kind "estimate"): a finite grid cannot certify the supremum,
    but the value converges to the impulse-response integral as T grows.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if sys.m != 1:
        raise DimensionError("periodic estimate requires a single input")
    cert = sys.certificate
    if t_grid is None:
        t_grid = [2.0**k / cert.sigma for k in range(-2, 7)]
    horizons = np.asarray(list(t_grid), dtype=float)
    if horizons.size == 0 or np.any(horizons <= 0):
        raise ValueError("t_grid must contain positive periods")
    a, b, c = sys.a, sys.b, sys.c
    values = []
    for t_per, e_t in zip(horizons, _expm_times(a, horizons, np.eye(sys.n))):
        cmod = np.linalg.solve((e_t - np.eye(sys.n)).T, c.T).T

        def integrand(s: np.ndarray, cmod=cmod) -> np.ndarray:
            return np.linalg.norm((cmod @ _expm_times(a, s, b))[:, :, 0], axis=1)

        values.append(float(simpson_panels(integrand, [0.0, float(t_per)], tol)[0]))
    i_best = int(np.argmax(values))
    return GainEstimate(
        value=values[i_best],
        kind="estimate",
        method="periodic",
        tolerance=tol,
        details={
            "horizons": [float(t) for t in horizons],
            "values": [float(v) for v in values],
        },
    )


@dataclass(frozen=True)
class CertificateBoundInput:
    """Inputs for the decay-certificate gain bound.

    certificates: (M, sigma) pairs, each M >= 1, sigma > 0.
    b_samples: nondecreasing envelope samples (t_k, b_k), t_0 = 0, as a
        right-open step function.
    t_grid: candidate horizons.
    """

    certificates: tuple
    b_samples: np.ndarray
    t_grid: np.ndarray

    def __post_init__(self) -> None:
        certs = tuple((float(m), float(s)) for m, s in self.certificates)
        if not certs:
            raise ValueError("at least one (M, sigma) certificate is required")
        for m_const, sigma in certs:
            if m_const < 1.0:
                raise ValueError(f"certificate constant M={m_const} must be >= 1")
            if sigma <= 0.0:
                raise ValueError(f"certificate rate sigma={sigma} must be > 0")
        samples = np.atleast_2d(np.asarray(self.b_samples, dtype=float))
        if samples.shape[1] != 2:
            raise ValueError("b_samples must be (t, b) pairs")
        if samples[0, 0] != 0.0:
            raise ValueError("b_samples must start at t = 0")
        if np.any(np.diff(samples[:, 0]) <= 0):
            raise ValueError("b_samples times must be strictly increasing")
        if np.any(np.diff(samples[:, 1]) < 0) or np.any(samples[:, 1] < 0):
            raise ValueError("b_samples values must be nonnegative and nondecreasing")
        grid = np.atleast_1d(np.asarray(self.t_grid, dtype=float))
        if grid.size == 0 or np.any(grid <= 0):
            raise ValueError("t_grid must contain positive horizons")
        object.__setattr__(self, "certificates", certs)
        object.__setattr__(self, "b_samples", samples)
        object.__setattr__(self, "t_grid", grid)


def _step_value(samples: np.ndarray, t: float) -> float:
    idx = int(np.searchsorted(samples[:, 0], t, side="right")) - 1
    return float(samples[max(idx, 0), 1])


def certificate_cell_value(
    m_const: float, sigma: float, b_samples: np.ndarray, horizon: float
) -> float | None:
    """Bound contributed by one (M, sigma, T) cell, or None when T is too
    short for the decay factor to contract (M exp(-sigma T) >= 1)."""
    decay_t = m_const * math.exp(-sigma * horizon)
    if decay_t >= 1.0:
        return None
    b_t = _step_value(b_samples, horizon)
    denom = 1.0 - decay_t
    best = -math.inf
    for t_k, b_k in b_samples:
        if t_k >= horizon:
            break
        cand = m_const * math.exp(-sigma * t_k) * b_t / denom + b_k
        if cand > best:
            best = cand
    return best


def certificate_gain_bound(data: CertificateBoundInput) -> GainEstimate:
    """Gain upper bound from decay certificates and a robustness envelope.

    Minimizes over certificate/horizon cells the closed-form bound obtained
    by splitting a trajectory at the horizon, falling back to the envelope
    supremum (itself always a valid bound) when that is smaller.  Cell values
    are reported in the details for audit.
    """
    sup_b = float(data.b_samples[-1, 1])
    cells = []
    best_cell = math.inf
    for m_const, sigma in data.certificates:
        for horizon in data.t_grid:
            value = certificate_cell_value(m_const, sigma, data.b_samples, float(horizon))
            if value is None:
                continue
            cells.append(
                {"m": m_const, "sigma": sigma, "horizon": float(horizon), "value": value}
            )
            best_cell = min(best_cell, value)
    value = min(best_cell, sup_b)
    return GainEstimate(
        value=float(value),
        kind="upper",
        method="theorem41",
        tolerance=0.0,
        details={"cells": cells, "sup_b": sup_b, "used_fallback": sup_b <= best_cell},
    )


@dataclass(frozen=True)
class GainReport:
    """All gain figures for one system, cross-checked for consistency."""

    exact: GainEstimate | None
    lowers: tuple
    uppers: tuple
    dims: tuple
    structure: StructureFlags
    positivity: PositivityCertificate | None
    certificate: StabilityCertificate
    tolerance: float
    seed: int
    notes: tuple


def _pair_slack(low: GainEstimate, high: GainEstimate) -> float:
    scale = max(1.0, low.value, high.value)
    slack = low.tolerance + high.tolerance + 1e-9 * scale
    if high.kind == "estimate":
        slack += 1e-4 * scale
    return slack


def gain_report(sys: StateSpaceSystem, tol: float = 1e-8, seed: int = 0) -> GainReport:
    """Assemble every applicable estimate into one audited report.

    Multi-input systems get a reduced report (constant-input lower bound
    only) with an explanatory note.  Single-input reports carry the exact
    value when one is available, all lower and upper figures, and raise
    ConsistencyError if any lower exceeds any upper beyond the combined
    tolerances (with extra slack against grid estimates).
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    notes: list[str] = []
    cert = sys.certificate
    flags = structure_flags(sys)
    if sys.m > 1:
        dc = dc_gain(sys)
        notes.append(
            "multi-input system: only the constant-input lower bound is computed"
        )
        return GainReport(
            exact=None,
            lowers=(dc,),
            uppers=(),
            dims=(sys.n, sys.m, sys.p),
            structure=flags,
            positivity=None,
            certificate=cert,
            tolerance=tol,
            seed=seed,
            notes=tuple(notes),
        )
    l1 = l1_impulse_gain(sys, tol)
    dc = dc_gain(sys)
    pos = dc.details["positivity"]
    pos = None if pos is None else PositivityCertificate(pos)
    psi = sinusoid_lower_bound(sys)
    onb = onb_upper_bound(sys, tol=tol, seed=seed)
    periodic = periodic_upper_estimate(sys, tol=tol)
    if sys.p == 1:
        exact = l1
        uppers = [onb, periodic]
    else:
        exact = dc if dc.kind == "exact" else None
        uppers = [l1, onb, periodic]
        if exact is None:
            notes.append("no exactness certificate: value bracketed only")
    lowers = [dc, psi]
    if pos is PositivityCertificate.GRID_VERIFIED:
        notes.append("positivity verified on a sample grid only (non-rigorous)")
    for low in lowers:
        for high in uppers:
            if low.value > high.value + _pair_slack(low, high):
                raise ConsistencyError(
                    f"lower bound {low.method}={low.value} exceeds "
                    f"upper bound {high.method}={high.value}"
                )
    if exact is not None:
        for low in lowers:
            if low.value > exact.value + _pair_slack(low, exact):
                raise ConsistencyError(
                    f"lower bound {low.method}={low.value} exceeds exact {exact.value}"
                )
        for high in uppers:
            if high.value < exact.value - _pair_slack(exact, high):
                raise ConsistencyError(
                    f"upper bound {high.method}={high.value} below exact {exact.value}"
                )
    return GainReport(
        exact=exact,
        lowers=tuple(lowers),
        uppers=tuple(uppers),
        dims=(sys.n, sys.m, sys.p),
        structure=flags,
        positivity=pos,
        certificate=cert,
        tolerance=tol,
        seed=seed,
        notes=tuple(notes),
    )
