"""Random system generators and closed-form fixtures shared by the tests.

Kept out of conftest.py: ``from conftest import ...`` can pick up another
test tree's conftest.py (perfbench/tests has one) when both run in one session.
"""

import math

import numpy as np
import scipy.integrate
import scipy.linalg
import scipy.optimize

from gainlab import (
    DimensionError,
    PeriodicExtension,
    SimulationError,
    StateSpaceSystem,
    bang_bang_switches,
    empirical_gains,
    evaluate,
    gains,
    mat_exp,
)
from gainlab.linalg import (
    _cell_flow,
    _cell_stack,
    _grid_flow,
    _orbit,
    spectral_norm,
)
from gainlab.modelio import _fmt
from gainlab.quadrature import tail_horizon
from gainlab.signals import BangBangInput, Segment, iter_segments, signal_dim
from gainlab.sim import (
    _STACK_ENTRIES,
    _VERIFY_PERIODS,
    _VERIFY_STEPS,
    Trajectory,
    _generator,
    _grid_steps,
)


def expm_stack(a, s):
    """exp(s_k a) for every entry s_k of ``s``, as one (k, n, n) batched
    scipy.linalg.expm: the reference exponentials of the kernel integrals
    below, independent of gainlab's own."""
    return scipy.linalg.expm(a * np.asarray(s, dtype=float).reshape(-1)[:, None, None])


def expm_times(a, s, b):
    """exp(s_k a) @ b for every entry s_k of ``s``, as a (k, n, m) array, in
    expm_stack stacks of at most _STACK_ENTRIES // n^2 matrices."""
    s = np.asarray(s, dtype=float).reshape(-1)
    chunk, out = max(1, _STACK_ENTRIES // a.size), np.empty((s.size, a.shape[0], b.shape[1]))
    for i in range(0, s.size, chunk):
        out[i : i + chunk] = expm_stack(a, s[i : i + chunk]) @ b
    return out


def random_hurwitz_matrix(rng, n_max=5, abscissa=-0.2, scale=2.0, n=None):
    """Random matrix with entries in [-scale, scale], shifted so the largest
    eigenvalue real part is at most ``abscissa``; n-by-n, or of a random size
    up to ``n_max`` when ``n`` is None."""
    if n is None:
        n = int(rng.integers(1, n_max + 1))
    a = rng.uniform(-scale, scale, (n, n))
    top = float(np.max(np.linalg.eigvals(a).real))
    if top > abscissa:
        a = a - (top - abscissa) * np.eye(n)
    return a


def random_siso_system(rng, n_max=5):
    a = random_hurwitz_matrix(rng, n_max)
    n = a.shape[0]
    b = rng.uniform(-2.0, 2.0, (n, 1))
    c = rng.uniform(-2.0, 2.0, (1, n))
    return StateSpaceSystem(a=a, b=b, c=c)


def random_metzler_system(rng, n_max=5):
    """Random SISO system with a Hurwitz Metzler A and nonnegative b and c,
    so its kernel is positive."""
    n = int(rng.integers(1, n_max + 1))
    a = rng.uniform(0.0, 2.0, (n, n))
    a -= (float(np.max(np.linalg.eigvals(a).real)) + 0.2) * np.eye(n)
    return StateSpaceSystem(a=a, b=rng.uniform(0.0, 2.0, (n, 1)), c=rng.uniform(0.0, 2.0, (1, n)))


def oscillator_kernel(s):
    """Closed-form impulse response of the damped oscillator fixture."""
    s = np.asarray(s, dtype=float)
    return (2.0 / math.sqrt(3.0)) * np.exp(-s / 2.0) * np.sin(math.sqrt(3.0) * s / 2.0)


OSCILLATOR_GAIN = 1.0 / math.tanh(math.pi / (2.0 * math.sqrt(3.0)))


def damped_oscillator(w, d):
    """x'' + d x' + w^2 x = u, y = x: kernel exp(-d s / 2) sin(w_d s) / w_d
    with w_d = sqrt(w^2 - d^2 / 4), zero at s = k pi / w_d."""
    return StateSpaceSystem(a=[[0.0, 1.0], [-w * w, -d]], b=[[0.0], [1.0]], c=[[1.0, 0.0]])


def damped_oscillator_l1(w, d, t=math.inf):
    """Closed-form integral of the damped oscillator's |kernel| over [0, t].

    Each half period [k pi / w_d, (k + 1) pi / w_d] carries q^k (1 + q) / w^2,
    q = exp(-d pi / (2 w_d)); over [0, tau] the kernel integrates to
    (w_d - exp(-d tau / 2) (d / 2 sin(w_d tau) + w_d cos(w_d tau))) / (w^2 w_d).
    """
    w_d = math.sqrt(w * w - d * d / 4.0)
    q = math.exp(-d * math.pi / (2.0 * w_d))
    if t == math.inf:
        return (1.0 + q) / ((1.0 - q) * w * w)
    k = math.floor(t * w_d / math.pi)
    tau = t - k * math.pi / w_d
    swing = d / 2.0 * math.sin(w_d * tau) + w_d * math.cos(w_d * tau)
    part = w_d - math.exp(-d * tau / 2.0) * swing
    return (1.0 + q) * (1.0 - q**k) / ((1.0 - q) * w * w) + q**k * part / (w * w * w_d)


# Small kernels on A = diag(-1, -2) (name -> model file): C = (1e-20, 1) with
# B = e_1 reads the real kernel 1e-20 e^{-s}, B = e_1 with C = e_2 reads an
# exactly zero one, and B = 1e-10 or 1e-300 times (1, 1) with C = (1, -3)
# scales a kernel that changes sign at s = ln 3.
SMALL_KERNEL_MODELS = {
    "tiny": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [0.0]], "C": [[1e-20, 1.0]]},
    "exact-zero": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1.0], [0.0]], "C": [[0.0, 1.0]]},
    "b-1e-10": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1e-10], [1e-10]], "C": [[1.0, -3.0]]},
    "b-1e-300": {"A": [[-1.0, 0.0], [0.0, -2.0]], "B": [[1e-300], [1e-300]], "C": [[1.0, -3.0]]},
}


def decoupled_pair(t, ti, lam, j, k):
    """A = T diag(lam) T^-1 (``ti`` the computed T^-1) with B the j-th column
    of T and C the k-th row of T^-1, k != j: B drives one mode and C reads
    another, so the kernel vanishes up to the rounding of T and T^-1."""
    return StateSpaceSystem(a=t @ np.diag(lam) @ ti, b=t[:, j : j + 1], c=ti[k : k + 1])


def near_zero_kernel_system():
    """The decoupled pair of diag(-1, -2) in the orthogonal basis Q of a
    seeded 2 x 2 draw: its kernel is 2.5e-15 wide, all rounding."""
    q = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))[0]
    return decoupled_pair(q, q.T, [-1.0, -2.0], 0, 1)


def decoupled_pairs(seed, count=40):
    """``count`` seeded decoupled pairs, n = 2..6 in turn, eigenvalues drawn
    from [-3, -0.5]: even draws in an orthogonal basis Q, odd ones in
    T = Q diag(1 .. kappa) Q2 with kappa up to 1e3."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = 2 + i % 5
        q, q2 = (np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(2))
        if i % 2:
            t = q @ np.diag(np.geomspace(1.0, 10.0 ** rng.uniform(0.0, 3.0), n)) @ q2
            ti = np.linalg.inv(t)
        else:
            t, ti = q, q.T
        lam = -rng.uniform(0.5, 3.0, n)
        j, k = rng.choice(n, 2, replace=False)
        out.append(decoupled_pair(t, ti, lam, j, k))
    return out


def kernel_zeros(a, b, row, t_end, samples=2001):
    """SciPy reference for the zeros of g(r) = row exp(Ar) b on [0, t_end]:
    brentq between the sign changes of ``samples`` equally spaced samples."""

    def g(r):
        return float(row @ scipy.linalg.expm(a * r) @ b[:, 0])

    grid = np.linspace(0.0, t_end, samples)
    vals = [g(r) for r in grid]
    return [
        scipy.optimize.brentq(g, lo, hi, xtol=1e-15)
        for lo, hi, v0, v1 in zip(grid, grid[1:], vals, vals[1:])
        if (v0 >= 0.0) != (v1 >= 0.0)
    ]


def quad_kernel_integrals(a, b, row, t_end, samples=2001):
    """SciPy reference for g(r) = row exp(Ar) b on [0, t_end]: the integral of
    |g| followed by the integral of sgn(g(r)) exp(Ar) b, by quad_vec split at
    the zeros of kernel_zeros."""

    def f(r):
        x = scipy.linalg.expm(a * r) @ b[:, 0]
        return np.sign(row @ x) * np.concatenate(([row @ x], x))

    zeros = kernel_zeros(a, b, row, t_end, samples)
    return scipy.integrate.quad_vec(f, 0.0, t_end, epsabs=1e-13, epsrel=1e-13, points=zeros)[0]


def simpson(f, a, b, tol):
    """adaptive_simpson's rule on [a, b] for a vectorized ``f`` (nodes in, one
    row of values per node out), run level by level so that each level's new
    nodes go to ``f`` in one call: the same nodes and decisions, the accepted
    intervals summed in another order."""
    lo, hi = np.array([a]), np.array([b])
    f_lo, f_mid, f_hi = np.split(np.asarray(f(np.array([a, 0.5 * (a + b), b]))), 3)
    whole = (b - a) / 6.0 * (f_lo + 4.0 * f_mid + f_hi)
    total = 0.0
    while lo.size:
        mid = 0.5 * (lo + hi)
        f_l, f_r = np.split(np.asarray(f(np.concatenate((0.5 * (lo + mid), 0.5 * (mid + hi))))), 2)
        column = (1,) * (whole.ndim - 1)
        left = ((mid - lo) / 6.0).reshape(-1, *column) * (f_lo + 4.0 * f_l + f_mid)
        right = ((hi - mid) / 6.0).reshape(-1, *column) * (f_mid + 4.0 * f_r + f_hi)
        delta = left + right - whole
        err = np.abs(delta).reshape(lo.size, -1).sum(axis=1)
        done = (err <= 15.0 * tol) | (hi - lo <= 1e-6 * (b - a))
        total = total + (left + right + delta / 15.0)[done].sum(axis=0)
        split = ~done
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
        f_lo, f_mid, f_hi = (
            np.concatenate((f_lo[split], f_mid[split])),
            np.concatenate((f_l[split], f_r[split])),
            np.concatenate((f_mid[split], f_hi[split])),
        )
        whole, tol = np.concatenate((left[split], right[split])), 0.5 * tol
    return total


def reference_impulse_rows(sys: StateSpaceSystem, rows: np.ndarray, tol: float):
    """The adaptive Simpson integral, kept as the reference for gainlab's
    kernel sign partition.  Componentwise L1 norms of s -> rows @ exp(As) @ B
    for a single-input system: the vector (integral of |row_i exp(As) B| ds)_i
    plus the horizon used.

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
        return np.abs(rows @ expm_times(a, s, b))[:, :, 0]

    return simpson(integrand, 0.0, horizon, tol / 2.0), horizon


def reference_bang_bang_switches(
    sys: StateSpaceSystem, horizon: float, samples: int = 4096
) -> BangBangInput:
    """The sampled switch finder, kept as the reference for gainlab's kernel
    sign partition.  Optimal switching input for the terminal-output problem
    on [0, horizon].

    For a SISO system the optimizer of |y(horizon)| is u(s) = sgn of the
    kernel C exp(A (horizon - s)) B, with sgn(0) taken as +1.  The kernel's
    sign changes are located on a dense sample grid and polished by bisection
    to 1e-12; pairs of sign changes falling inside one grid cell can be
    missed, which the dense default sampling makes unlikely.

    An identically vanishing kernel yields the zero-input marker.
    """
    if sys.m != 1 or sys.p != 1:
        raise DimensionError("bang-bang construction requires a SISO system")
    if not (0 < horizon < math.inf):
        raise ValueError("horizon must be finite and positive")
    if samples < 2:
        raise ValueError("samples must be at least 2")
    a, b, c = sys.a, sys.b, sys.c
    step = horizon / (samples - 1)
    # g_j = C exp(A j step) B on the lag grid; the kernel at s is g(horizon-s).
    powers = expm_stack(a, step * 2.0 ** np.arange((samples - 1).bit_length()))
    g = _orbit(powers, b[:, 0], samples) @ c[0]
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
        fmid = (c @ expm_times(a, horizon - mid, b)).reshape(-1)
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


def reference_aligned_terminal(sys, horizon, d, tol):
    """The adaptive Simpson integral, kept as the reference for gainlab's
    kernel sign partition on single-input systems.

    Integrates [|v(s)|, exp(A (horizon - s)) B v(s) / |v(s)|] with
    v(s) = B' exp(A' (horizon - s)) C' d, the input aligned with d.
    """
    a, b, c = sys.a, sys.b, sys.c
    ctd = c.T @ d

    def integrand(s: np.ndarray) -> np.ndarray:
        eb = expm_times(a, horizon - s, b)
        v = np.swapaxes(eb, 1, 2) @ ctd
        nv = np.linalg.norm(v, axis=1)
        out = np.zeros((s.size, 1 + sys.n))
        live = nv != 0.0
        out[live, 0] = nv[live]
        out[live, 1:] = (eb[live] @ (v[live] / nv[live, None])[:, :, None])[:, :, 0]
        return out

    return simpson(integrand, 0.0, horizon, tol)


def aligned_terminal(sys, horizon, d, tol):
    """[d'C x, x] for x the terminal state at ``horizon`` under the input
    aligned with d: with one input v(horizon - r) = d'C exp(Ar) b is a scalar
    kernel, and x its signed state integral over one sign partition;
    several inputs take ``gains._aligned_states`` for the one direction and
    the one horizon, on a flow of A to ``horizon``."""
    ctd = sys.c.T @ d
    if sys.m != 1:
        flow = _grid_flow(sys.a, horizon, horizon)[0]
        x = gains._aligned_states(sys, flow, np.array([horizon]), np.asarray(d)[None], tol)[0, 0]
    else:
        x = gains._sign_partition(gains._KernelFlow(sys, [horizon]), ctd[None], tol)[1][0, 0]
    return np.concatenate(([ctd @ x], x))


def signed_states_loop(rows, row, t, y_roots, flow):
    """``gains._signed_states`` one row at a time, the loop its padded
    cumulative sum replaced: the reference it must match bit for bit."""
    q, ends = rows.shape[0], flow.ends
    order = np.lexsort((t, row))
    parts = np.split(order, np.searchsorted(row[order], np.arange(1, q)))
    roots, signed = [], np.empty((ends.size, q, flow.y_start.shape[1]))
    for i, part in enumerate(parts):
        y = np.vstack((flow.y_start, y_roots[part]))
        k = np.searchsorted(t[part], ends)
        steps = np.vstack((np.diff(y, axis=0), flow.y_ends - y[k]))
        steps *= np.sign(steps @ rows[i])[:, None]
        total = np.vstack((np.zeros_like(flow.y_start), np.cumsum(steps[: -ends.size], axis=0)))
        signed[:, i] = total[k] + steps[-ends.size :]
        roots.append(t[part])
    return roots, signed


def reference_terminal_ascent(sys, horizons, restarts=8, tol=1e-9, seed=0):
    """The start-by-start direction-alignment ascent, one horizon after
    another, kept as the reference for gainlab's lockstep one: the value at
    each horizon, each ascent step one call of ``aligned_terminal`` for one
    start and one horizon."""
    values = []
    for horizon in horizons:
        rng = np.random.default_rng(seed)
        starts = list(np.eye(sys.p))
        for _ in range(max(0, restarts)):
            vec = rng.standard_normal(sys.p)
            starts.append(vec / np.linalg.norm(vec))
        best_value = 0.0
        for d in starts:
            last = -np.inf
            for _ in range(40):
                y_t = sys.c @ aligned_terminal(sys, horizon, d, tol)[1:]
                value = float(np.linalg.norm(y_t))
                best_value = max(best_value, value)
                if value <= 0 or value - last <= tol * max(1.0, value):
                    break
                last = value
                d = y_t / value
        values.append(best_value)
    return np.array(values)


def reference_periodic_values(sys, t_grid, tol):
    """The adaptive Simpson integrals, kept as the reference for gainlab's
    kernel sign partition on single-output systems: for each period T the
    integral of the norm of C (exp(AT) - I)^{-1} exp(As) B over [0, T]."""
    horizons = np.asarray(list(t_grid), dtype=float)
    a, b, c = sys.a, sys.b, sys.c
    values = []
    for t_per, e_t in zip(horizons, expm_times(a, horizons, np.eye(sys.n))):
        cmod = np.linalg.solve((e_t - np.eye(sys.n)).T, c.T).T

        def integrand(s: np.ndarray, cmod=cmod) -> np.ndarray:
            return np.linalg.norm((cmod @ expm_times(a, s, b))[:, :, 0], axis=1)

        values.append(float(simpson(integrand, 0.0, float(t_per), tol)))
    return values


def reference_certificate_cell_value(m_const, sigma, b_samples, horizon):
    """gains.certificate_cell_value one sample at a time with math.exp: the
    step envelope's level b(T) by bisection, then the largest candidate
    M exp(-sigma t_k) b(T) / (1 - M exp(-sigma T)) + b_k over the samples
    before the first t_k >= T (-inf if there is none; None, as there, when
    M exp(-sigma T) >= 1)."""
    decay_t = m_const * math.exp(-sigma * horizon)
    if decay_t >= 1.0:
        return None
    idx = int(np.searchsorted(b_samples[:, 0], horizon, side="right")) - 1
    b_t = float(b_samples[max(idx, 0), 1])
    denom = 1.0 - decay_t
    best = -math.inf
    for t_k, b_k in b_samples:
        if t_k >= horizon:
            break
        cand = m_const * math.exp(-sigma * t_k) * b_t / denom + b_k
        if cand > best:
            best = cand
    return best


def recursive_simpson(f, a, b, tol, min_width=None):
    """The classical depth-first adaptive Simpson rule, kept as the reference
    for gainlab's adaptive_simpson: same start (a, midpoint, b), same
    acceptance test sum|delta| <= 15 tol or width <= min_width (default
    1e-6 (b - a)), tol halved per level, and the same left + right sums."""
    if min_width is None:
        min_width = 1e-6 * (b - a)
    fa = np.asarray(f(a), dtype=float)
    mid = 0.5 * (a + b)
    fm = np.asarray(f(mid), dtype=float)
    fb = np.asarray(f(b), dtype=float)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    result = _refine(f, a, b, fa, fm, fb, whole, tol, min_width)
    return float(result) if result.ndim == 0 else result


def _refine(f, a, b, fa, fm, fb, whole, tol, min_width):
    mid = 0.5 * (a + b)
    lm = 0.5 * (a + mid)
    rm = 0.5 * (mid + b)
    flm = np.asarray(f(lm), dtype=float)
    frm = np.asarray(f(rm), dtype=float)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if float(np.sum(np.abs(delta))) <= 15.0 * tol or (b - a) <= min_width:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _refine(f, a, mid, fa, flm, fm, left, half, min_width) + _refine(
        f, mid, b, fm, frm, fb, right, half, min_width
    )


def _weighted_history_kernels(sys, h, steps):
    """h w_j exp(A j h) B for j = 0..steps (trapezoid weights w_j), the
    exponentials by repeated multiplication with exp(A h)."""
    e_h = mat_exp(sys.a, h)
    kernels = np.empty((steps + 1, sys.n, sys.m))
    block = sys.b.copy()
    for j in range(steps + 1):
        kernels[j] = block
        block = e_h @ block
    weights = np.ones(steps + 1)
    weights[[0, -1]] = 0.5
    return kernels * (h * weights)[:, None, None]


def method_of_steps(sys, signal, y0, n_steps, h):
    """(ys, zs) of the delay loop on the grid k h, k = 0..n_steps, from y0 and
    a resting z history, by the method of steps: solve_ivp (DOP853, rtol
    1e-13, atol 1e-15) over the states (y, z, J) one tau-interval at a time,
    z(t - tau) read off the previous interval's dense output.  An ODE for J
    carries a spurious mode exp(A t), unstable for an unstable plant, so each
    interval restarts J from its definition: the integral Q of
    exp(A (t - s)) B z(s) over the interval, solved alongside from Q = 0."""
    n, m, tau = sys.n, sys.m, sys.tau
    a, b, g, k = sys.a, sys.b, sys.g, sys.k
    e_tau = scipy.linalg.expm(a * tau)
    k_amu = k @ (a + sys.mu * np.eye(n))
    a_zz = k @ b - sys.mu * np.eye(m)
    times = np.arange(n_steps + 1) * h
    out = np.empty((times.size, n + m))
    state = np.concatenate((y0, np.zeros(m + 2 * n)))
    past, t0 = None, 0.0
    while t0 < times[-1]:
        t1 = min(t0 + tau, times[-1])

        def rhs(t, x, past=past):
            y, z, j, q = np.split(x, [n, n + m, 2 * n + m])
            z_del = np.zeros(m) if past is None else past(t - tau)[n : n + m]
            u = evaluate(signal, t)
            return np.concatenate((
                a @ y + b @ z_del + g @ u,
                a_zz @ z + k_amu @ (e_tau @ y + j),
                a @ j + b @ z - e_tau @ b @ z_del,
                a @ q + b @ z,
            ))

        sol = scipy.integrate.solve_ivp(
            rhs, (t0, t1), state, method="DOP853", rtol=1e-13, atol=1e-15, dense_output=True
        )
        inside = (times >= t0 - 1e-12 * tau) & (times <= t1 + 1e-12 * tau)
        out[inside] = sol.sol(times[inside])[: n + m].T
        end = sol.y[:, -1]
        state = np.concatenate((end[: n + m], end[2 * n + m :], np.zeros(n)))
        past, t0 = sol.sol, t1
    return out[:, :n], out[:, n:]


def reference_error_grid(traj, sys):
    """Prediction error xi = z - K exp(A tau) y - K J on the grid of ``traj``,
    with J summed window by window from the propagated kernels."""
    steps = traj.history_steps
    wk = _weighted_history_kernels(sys, traj.step, steps)
    k_etau = sys.k @ mat_exp(sys.a, sys.tau)
    record = np.concatenate((np.zeros((steps, sys.m)), traj.zs))  # the resting history, then z
    xi = np.empty_like(traj.zs)
    for k in range(traj.times.size):
        window = record[k : k + steps + 1][::-1]
        dist = np.einsum("jnm,jm->n", wk, window)
        xi[k] = traj.zs[k] - k_etau @ traj.ys[k] - sys.k @ dist
    return xi


class _Propagators:
    """Per-simulation cache of segment propagators keyed by duration."""

    def __init__(self, sys: StateSpaceSystem):
        self.sys = sys
        self.const: dict = {}
        self.sin: dict = {}

    def advance_const(self, x: np.ndarray, value: np.ndarray, dt: float) -> np.ndarray:
        pair = self.const.get(dt)
        if pair is None:
            n, m = self.sys.n, self.sys.m
            aug = np.zeros((n + m, n + m))
            aug[:n, :n] = self.sys.a
            aug[:n, n:] = self.sys.b
            full = mat_exp(aug, dt)
            pair = (full[:n, :n], full[:n, n:])
            self.const[dt] = pair
        phi, gamma = pair
        return phi @ x + gamma @ value

    def advance_sin(
        self, x: np.ndarray, seg: Segment, t_local: float, dt: float
    ) -> np.ndarray:
        key = (dt, seg.omega, seg.direction.tobytes())
        full = self.sin.get(key)
        if full is None:
            n = self.sys.n
            aug = np.zeros((n + 2, n + 2))
            aug[:n, :n] = self.sys.a
            aug[:n, n] = self.sys.b @ seg.direction
            aug[n, n + 1] = seg.omega
            aug[n + 1, n] = -seg.omega
            full = mat_exp(aug, dt)
            self.sin[key] = full
        theta = seg.omega * t_local + seg.theta0
        z = np.concatenate((x, [math.sin(theta), math.cos(theta)]))
        return (full @ z)[: self.sys.n]


def reference_simulate(sys, signal, x0, t_end, h):
    """The grid-step simulator, kept as the reference for gainlab's
    segment orbits: each grid step composes the exact segment flows it
    crosses, one cached propagator product per piece."""
    if signal_dim(signal) != sys.m:
        raise DimensionError(
            f"input dimension {signal_dim(signal)} does not match system m={sys.m}"
        )
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (sys.n,):
        raise DimensionError(f"x0 must have length {sys.n}")
    n_steps = _grid_steps(t_end, h)
    t_final = n_steps * h
    segments = iter_segments(signal, t_final)
    times = np.arange(n_steps + 1) * h
    states = np.empty((n_steps + 1, sys.n))
    states[0] = x
    cache = _Propagators(sys)
    eps = 1e-12 * max(1.0, t_final)
    seg_i = 0
    cursor = 0.0
    for k in range(1, n_steps + 1):
        t_next = k * h
        while t_next - cursor > eps:
            while seg_i < len(segments) - 1 and segments[seg_i].end <= cursor + eps:
                seg_i += 1
            seg = segments[seg_i]
            if seg.end <= cursor + eps:
                break  # coverage exhausted within floating-point noise
            stop = min(seg.end, t_next)
            dt = stop - cursor
            if dt > eps:
                if seg.kind == "const":
                    x = cache.advance_const(x, seg.value, dt)
                else:
                    x = cache.advance_sin(x, seg, cursor - seg.start, dt)
            cursor = stop
        cursor = t_next
        if not np.all(np.isfinite(x)):
            raise SimulationError(f"state diverged at t={t_next}")
        states[k] = x
    outputs = states @ sys.c.T
    return Trajectory(times=times, states=states, outputs=outputs, step=h)


def full_recording_gains(sys, record):
    """verify_gain_equality's sup and asymptotic gains the long way: the
    record's worst-case input simulated over all _VERIFY_PERIODS periods
    from rest by empirical_gains, on verify's grid of period /
    _VERIFY_STEPS and its window of the last half of the periods."""
    signal = PeriodicExtension(
        bang_bang_switches(sys, record.horizon), record.horizon, record.period
    )
    periods, period = _VERIFY_PERIODS, record.period
    return empirical_gains(
        sys, signal, periods * period, periods // 2 * period, period / _VERIFY_STEPS
    )


def segmentwise_simulate(sys, signal, x0, t_end, h):
    """gainlab's segment-orbit simulator with nothing shared between
    segments: each forms its own _grid_flow of G to its longest flow (its
    cell c = h / 2^j and ladder of powers exp(2^i c G)) and its own Taylor
    stack of the cell.  Each flow from the segment start (a
    block's lead, the end state) is the powers named by the binary digits
    of t // c, lowest first, then one Taylor product over the remainder.
    Kept as the bit-for-bit reference for the flows a call shares between
    segments."""
    x = np.asarray(x0, dtype=float).reshape(-1)
    n_steps = _grid_steps(t_end, h)
    t_final = n_steps * h
    times = np.arange(n_steps + 1) * h
    states = np.empty((n_steps + 1, sys.n))
    states[0] = x
    eps = 1e-12 * max(1.0, t_final)
    k = 1
    for seg in iter_segments(signal, t_final):
        w = seg.value if seg.kind == "const" else [math.sin(seg.theta0), math.cos(seg.theta0)]
        g, scale = _generator(sys.a, sys.b, seg)
        z = np.concatenate((x, np.divide(w, scale)))
        stop = int(np.searchsorted(times, seg.end + eps, side="right"))
        block = _STACK_ENTRIES // z.size
        grid, j = _grid_flow(g, h, max(seg.end, times[stop - 1]) - seg.start)
        ladder, cell = grid.powers, grid.cell
        stack = _cell_stack(g * cell)

        def flow(t):
            cells, rest = divmod(t, cell)
            v, cells = z, int(cells)
            for i in range(cells.bit_length()):
                if cells >> i & 1:
                    v = ladder[i] @ v
            return _cell_flow(stack, rest / cell, v)

        for lo in range(k, stop, block):
            hi = min(lo + block, stop)
            states[lo:hi] = _orbit(ladder[j:], flow(times[lo] - seg.start), hi - lo)[:, : sys.n]
        x = flow(seg.end - seg.start)[: sys.n]
        k = stop
    return Trajectory(times=times, states=states, outputs=states @ sys.c.T, step=h)


def reference_csv_lines(header, rows):
    """The value-by-value CSV writer, kept as the reference for gainlab's
    block formatter: one _fmt call per value, rows joined one at a time."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def assert_same_text(ours, reference):
    """Equal texts, or an error naming the first differing line (pytest's own
    diff of two long CSV texts takes minutes)."""
    if ours != reference:
        a, b = ours.split("\n"), reference.split("\n")
        i = next((i for i, pair in enumerate(zip(a, b)) if pair[0] != pair[1]), min(len(a), len(b)))
        raise AssertionError(
            f"line {i}: {a[i : i + 1]} != {b[i : i + 1]} ({len(a)} against {len(b)} lines)"
        )


def reference_trajectory_csv(traj):
    n = traj.states.shape[1]
    p = traj.outputs.shape[1]
    header = ["t"] + [f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(p)]
    rows = (
        [traj.times[k], *traj.states[k], *traj.outputs[k]]
        for k in range(traj.times.size)
    )
    return reference_csv_lines(header, rows)


def reference_delay_trajectory_csv(traj, xi, xi_ref):
    n = traj.ys.shape[1]
    m = traj.zs.shape[1]
    header = (
        ["t"]
        + [f"y_{i + 1}" for i in range(n)]
        + [f"z_{i + 1}" for i in range(m)]
        + [f"pred_err_{i + 1}" for i in range(m)]
        + [f"pred_err_ref_{i + 1}" for i in range(m)]
    )
    rows = (
        [traj.times[k], *traj.ys[k], *traj.zs[k], *xi[k], *xi_ref[k]]
        for k in range(traj.times.size)
    )
    return reference_csv_lines(header, rows)


def reference_vcurve_csv(curve):
    return reference_csv_lines(["T", "V"], zip(curve.horizons, curve.values))


def reference_sweep_csv(omegas, values):
    return reference_csv_lines(["omega", "Psi"], zip(omegas, values))


def heat_system(n):
    """u_t = u_xx on (0, 1), u(0) = v, u(1) = 0, y = u(x_k) with
    k = 3 (n + 1) // 10, by finite differences on n interior nodes: A is
    symmetric, with condition number about 0.4 (n + 1)^2."""
    h2, k = (n + 1.0) ** 2, 3 * (n + 1) // 10
    a = h2 * (np.eye(n, k=1) + np.eye(n, k=-1) - 2.0 * np.eye(n))
    b, c = np.zeros((n, 1)), np.zeros((1, n))
    b[0, 0], c[0, k - 1] = h2, 1.0
    return StateSpaceSystem(a=a, b=b, c=c)


def eigenbasis_sinusoid_response(c, q, lam, b, omega):
    """Peak steady output under the worst unit sinusoid at ``omega`` for
    A = Q diag(lam) Q' with Q orthogonal: G = C Q (Q' b / (i omega - lam)),
    with no solve, and the peak is the larger singular value of
    [Re G, Im G]."""
    g = (c @ q) @ ((q.T @ np.reshape(b, -1)) / (1j * omega - lam))
    return float(np.linalg.svd(np.column_stack((g.real, g.imag)), compute_uv=False)[0])


def reference_sinusoid_refine(sys, omegas=None):
    """The golden-section refinement gainlab's sinusoid_lower_bound used before
    its batched zoom: the grid maximum, then 20 golden-section steps in log
    frequency between the winning grid point's neighbours, one
    sinusoid_response per step.  Returns (value, omega)."""
    if omegas is None:
        omegas = np.logspace(-3.0, 3.0, 200)
    omegas = np.asarray(list(omegas), dtype=float)
    vals = gains.sinusoid_sweep(sys, omegas)
    i_best = int(np.argmax(vals))
    best_omega, best = float(omegas[i_best]), float(vals[i_best])
    lo = math.log(omegas[max(0, i_best - 1)])
    hi = math.log(omegas[min(omegas.size - 1, i_best + 1)])
    if hi > lo:
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        x1 = hi - phi * (hi - lo)
        x2 = lo + phi * (hi - lo)
        f1 = gains.sinusoid_response(sys, math.exp(x1))
        f2 = gains.sinusoid_response(sys, math.exp(x2))
        for _ in range(20):
            if f1 < f2:
                lo = x1
                x1, f1 = x2, f2
                x2 = lo + phi * (hi - lo)
                f2 = gains.sinusoid_response(sys, math.exp(x2))
            else:
                hi = x2
                x2, f2 = x1, f1
                x1 = hi - phi * (hi - lo)
                f1 = gains.sinusoid_response(sys, math.exp(x1))
        for x, f in ((x1, f1), (x2, f2)):
            if f > best:
                best, best_omega = f, math.exp(x)
    return best, best_omega


def reference_sinusoid_zoom(sys, omegas=None):
    """The batched zoom gainlab's sinusoid_lower_bound used before its Newton
    polish: the grid maximum, then 4 rounds of 65 log-spaced frequencies
    across the best point's neighbours, ends included, each round keeping
    the best value seen and narrowing to its best point's neighbours.
    Returns (value, omega)."""
    if omegas is None:
        omegas = np.logspace(-3.0, 3.0, 200)
    omegas = np.asarray(list(omegas), dtype=float)
    vals = gains.sinusoid_sweep(sys, omegas)
    i_best = int(np.argmax(vals))
    best, best_omega = float(vals[i_best]), float(omegas[i_best])
    bracket = omegas[[max(0, i_best - 1), min(omegas.size - 1, i_best + 1)]]
    if bracket[1] > bracket[0]:
        for _ in range(4):
            points = np.geomspace(bracket[0], bracket[1], 65)
            vals = gains.sinusoid_sweep(sys, points)
            j = int(np.argmax(vals))
            if vals[j] > best:
                best, best_omega = float(vals[j]), float(points[j])
            bracket = points[[max(0, j - 1), min(64, j + 1)]]
    return best, best_omega


def kron_lyapunov_operator(a):
    """I kron A' + A' kron I by np.kron, as gainlab's Lyapunov solve
    assembled it before its index assignment."""
    ident = np.eye(a.shape[0])
    return np.kron(ident, a.T) + np.kron(a.T, ident)
