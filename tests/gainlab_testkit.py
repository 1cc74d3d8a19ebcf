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
