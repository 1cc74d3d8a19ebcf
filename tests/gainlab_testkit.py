"""Random system generators and closed-form fixtures shared by the tests.

Kept out of conftest.py: ``from conftest import ...`` can pick up another
test tree's conftest.py (perfbench/tests has one) when both run in one session.
"""

import math

import numpy as np

from gainlab import StateSpaceSystem


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
