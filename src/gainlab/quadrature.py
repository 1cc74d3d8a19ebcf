"""Adaptive Simpson quadrature with an absolute error budget.

The integrands in this package are norms of matrix exponentials: smooth
almost everywhere but with isolated kinks where a component crosses zero.
Plain adaptive Simpson handles those provided subdivision is allowed to
continue below the kink scale; a width floor (default 1e-6 of the original
interval) stops pathological recursion on a kink sitting exactly at a node.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["adaptive_simpson", "tail_horizon"]


def adaptive_simpson(
    f: Callable[[float], "float | np.ndarray"],
    a: float,
    b: float,
    tol: float,
    min_width: float | None = None,
):
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    ``f`` may return a scalar or a 1-d array; arrays are integrated
    componentwise under a shared refinement (the acceptance test sums
    absolute component errors, so each component meets ``tol``).
    """
    if not (b >= a):
        raise ValueError(f"invalid interval [{a}, {b}]")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if b == a:
        return 0.0 * np.asarray(f(a), dtype=float) if np.ndim(f(a)) else 0.0
    if min_width is None:
        min_width = 1e-6 * (b - a)
    fa = np.asarray(f(a), dtype=float)
    mid = 0.5 * (a + b)
    fm = np.asarray(f(mid), dtype=float)
    fb = np.asarray(f(b), dtype=float)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    result = _refine(f, a, b, fa, fm, fb, whole, tol, min_width)
    if result.ndim == 0:
        return float(result)
    return result


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


def tail_horizon(sigma: float, coefficient: float, tail_tol: float) -> float:
    """Smallest T with coefficient * exp(-sigma T) / sigma <= tail_tol.

    Bounds the discarded tail of integral_0^inf of any kernel dominated by
    coefficient * exp(-sigma s).  Returns 0 when the whole integral already
    fits inside the budget.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not (tail_tol > 0):
        raise ValueError("tail_tol must be positive")
    if coefficient <= 0:
        return 0.0
    t = math.log(coefficient / (sigma * tail_tol)) / sigma
    return max(0.0, t)
