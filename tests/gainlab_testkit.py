"""Random system generators and closed-form fixtures shared by the tests.

Kept out of conftest.py: ``from conftest import ...`` can pick up another
test tree's conftest.py (perfbench/tests has one) when both run in one session.
"""

import math

import numpy as np

from gainlab import StateSpaceSystem, evaluate, mat_exp


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


def oscillator_kernel(s):
    """Closed-form impulse response of the damped oscillator fixture."""
    s = np.asarray(s, dtype=float)
    return (2.0 / math.sqrt(3.0)) * np.exp(-s / 2.0) * np.sin(math.sqrt(3.0) * s / 2.0)


OSCILLATOR_GAIN = 1.0 / math.tanh(math.pi / (2.0 * math.sqrt(3.0)))


def recursive_simpson(f, a, b, tol, min_width=None):
    """The classical depth-first adaptive Simpson rule, kept as the reference
    for gainlab's level-synchronous one: same start (a, midpoint, b), same
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


def reference_predictor(sys, signal, state0, n_steps, h):
    """The three-window RK4 predictor loop, kept as the reference for
    gainlab's carried history sum: each step forms the trapezoid sums at
    t_k, t_k + h/2 and t_k + h from their own history windows.  Returns
    (ys, z_record) over ``n_steps`` steps, laid out as in a DelayTrajectory."""
    hist_steps = int(round(sys.tau / h))
    wk_full = _weighted_history_kernels(sys, h, hist_steps)
    wk_inner = wk_full[1:]
    half_b = 0.5 * h * sys.b
    a_mat, b_mat, g_mat, k_mat = sys.a, sys.b, sys.g, sys.k
    e_tau = mat_exp(a_mat, sys.tau)
    k_amu = k_mat @ (a_mat + sys.mu * np.eye(sys.n))
    a_zz = k_mat @ b_mat - sys.mu * np.eye(sys.m)

    z_record = np.zeros((hist_steps + n_steps + 1, sys.m))
    z_record[: hist_steps + 1] = state0.z_history
    ys = np.empty((n_steps + 1, sys.n))
    ys[0] = state0.y

    def rhs(y_s, z_s, z_delay, dist, u_val):
        dy = a_mat @ y_s + b_mat @ z_delay + g_mat @ u_val
        dz = a_zz @ z_s + k_amu @ (e_tau @ y_s + dist)
        return dy, dz

    for k in range(n_steps):
        base = hist_steps + k
        t_now = k * h
        window = z_record[base - hist_steps : base + 1][::-1]
        dist_full = np.einsum("jnm,jm->n", wk_full, window)
        win_one = z_record[base + 1 - hist_steps : base + 1][::-1]
        dist_one = np.einsum("jnm,jm->n", wk_inner, win_one)
        win_half = 0.5 * (
            z_record[base + 1 - hist_steps : base + 1]
            + z_record[base - hist_steps : base]
        )[::-1]
        dist_half = np.einsum("jnm,jm->n", wk_inner, win_half)
        z_del_0 = z_record[base - hist_steps]
        z_del_1 = z_record[base + 1 - hist_steps]
        z_del_half = 0.5 * (z_del_0 + z_del_1)
        u0 = np.atleast_1d(evaluate(signal, t_now))
        u_half = np.atleast_1d(evaluate(signal, t_now + 0.5 * h))
        u1 = np.atleast_1d(evaluate(signal, t_now + h))

        y0 = ys[k]
        z0 = z_record[base]
        k1y, k1z = rhs(y0, z0, z_del_0, dist_full, u0)
        zs2 = z0 + 0.5 * h * k1z
        k2y, k2z = rhs(
            y0 + 0.5 * h * k1y, zs2, z_del_half, dist_half + half_b @ zs2, u_half
        )
        zs3 = z0 + 0.5 * h * k2z
        k3y, k3z = rhs(
            y0 + 0.5 * h * k2y, zs3, z_del_half, dist_half + half_b @ zs3, u_half
        )
        zs4 = z0 + h * k3z
        k4y, k4z = rhs(y0 + h * k3y, zs4, z_del_1, dist_one + half_b @ zs4, u1)
        ys[k + 1] = y0 + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        z_record[base + 1] = z0 + (h / 6.0) * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)
    return ys, z_record


def reference_error_grid(traj, sys):
    """Prediction error xi = z - K exp(A tau) y - K J on the grid of ``traj``,
    with J summed window by window from the propagated kernels."""
    steps = traj.history_steps
    wk = _weighted_history_kernels(sys, traj.step, steps)
    k_etau = sys.k @ mat_exp(sys.a, sys.tau)
    xi = np.empty_like(traj.zs)
    for k in range(traj.times.size):
        window = traj.z_record[k : k + steps + 1][::-1]
        dist = np.einsum("jnm,jm->n", wk, window)
        xi[k] = traj.zs[k] - k_etau @ traj.ys[k] - sys.k @ dist
    return xi
