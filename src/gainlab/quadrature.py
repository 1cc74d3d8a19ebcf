"""Adaptive quadrature with an absolute error budget.

The integrands in this package are norms of matrix exponentials: smooth
almost everywhere but with isolated kinks where a component crosses zero.
gauss_legendre gives each panel an 8-point Gauss–Legendre value (exact for
polynomials of degree 15) and splits a panel while that value differs from
the sum of its halves' by more than the panel's share of the tolerance and
by more than the rounding of the halves' values; a width floor of 1e-6 of
the interval stops refinement on a kink sitting exactly at a node.  The
integrand is vectorized: the open panels go to it in groups of at most
_GROUP panels, deepest first, so an integrand built on a stacked matrix
exponential pays one call per group, and memory stays bounded however many
panels the floor lets the rule open.

adaptive_simpson is the classical recursive Simpson rule on a scalar
integrand, one call per node.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["adaptive_simpson", "gauss_legendre", "tail_horizon"]

# The 8-point Gauss–Legendre rule on [-1, 1]: its positive nodes and their
# weights (the rule is symmetric), then the whole rule moved to [0, 1].
_HALF_NODES = np.array(
    [0.18343464249564980494, 0.52553240991632898582, 0.79666647741362673959, 0.96028985649753623168]
)
_HALF_WEIGHTS = np.array(
    [0.36268378337836198297, 0.31370664587788728734, 0.22238103445337447054, 0.10122853629037625915]
)
_NODES = 0.5 + 0.5 * np.concatenate((-_HALF_NODES[::-1], _HALF_NODES))
_WEIGHTS = 0.5 * np.concatenate((_HALF_WEIGHTS[::-1], _HALF_WEIGHTS))

# Panels handed to the integrand in one call: 16 nodes each.
_GROUP = 256
# A panel whose halves differ from it by at most this many ulps of their
# summed magnitudes is accepted: a difference that small is rounding, which
# splitting does not shrink.
_NOISE = 64.0 * np.finfo(float).eps


def gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float, tol: float
) -> "float | np.ndarray":
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol``.

    ``f`` is vectorized: given a 1-d array of k nodes it returns an array of
    shape (k,) or (k, q); q components are integrated under a shared
    refinement.  A panel of width w is accepted, as the sum of its halves'
    values, when that sum is within tol w / (b - a) of the panel's own value
    (absolute component differences summed), when it is within 64 ulps of
    the halves' summed magnitudes (so a tolerance below the values' rounding
    does not split a smooth panel further) or when w is at most 1e-6 (b - a).
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"invalid interval [{a}, {b}]")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    floor, rate = 1e-6 * (b - a), tol / (b - a)
    lo, width = np.array([a]), np.array([b - a])
    total = 0.0
    stack = [(lo, width, _panels(f, lo, width))]
    while stack:
        lo, width, whole = stack.pop()
        half, count = 0.5 * width, lo.size
        parts = _panels(f, np.concatenate((lo, lo + half)), np.tile(half, 2))
        both = parts[:count] + parts[count:]
        err = np.abs(both - whole).reshape(count, -1).sum(axis=1)
        noise = (_NOISE * np.abs(parts)).reshape(2, count, -1).sum(axis=(0, 2))
        done = (err <= np.maximum(rate * width, noise)) | (width <= floor)
        total = total + both[done].sum(axis=0)
        split = np.flatnonzero(~done)
        lo = np.concatenate((lo[split], lo[split] + half[split]))
        width, whole = np.tile(half[split], 2), parts[np.concatenate((split, split + count))]
        stack.extend(
            (lo[i : i + _GROUP], width[i : i + _GROUP], whole[i : i + _GROUP])
            for i in range(0, lo.size, _GROUP)
        )
    return float(total) if np.ndim(total) == 0 else total


def _panels(f, lo: np.ndarray, width: np.ndarray) -> np.ndarray:
    """The Gauss–Legendre values of the panels [lo_i, lo_i + width_i]."""
    values = np.asarray(f((lo[:, None] + width[:, None] * _NODES).reshape(-1)), dtype=float)
    values = np.moveaxis(values.reshape((lo.size, _NODES.size) + values.shape[1:]), 1, -1)
    return width.reshape((-1,) + (1,) * (values.ndim - 2)) * (values @ _WEIGHTS)


def adaptive_simpson(
    f: Callable[[float], "float | np.ndarray"],
    a: float,
    b: float,
    tol: float,
    min_width: float | None = None,
):
    """Integrate ``f`` over [a, b] to absolute tolerance ``tol`` by the
    classical recursive Simpson rule.

    ``f`` may return a scalar or a 1-d array; arrays are integrated
    componentwise under a shared refinement (the acceptance test sums
    absolute component errors, so each component meets ``tol``).  An
    interval is accepted when its two halves' Simpson values differ from its
    own by at most 15 tol, or when it is at most ``min_width`` wide (default
    1e-6 (b - a)); tol halves at each level.  ``f`` is called once per node.
    """
    if not (b >= a):
        raise ValueError(f"invalid interval [{a}, {b}]")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if b == a:
        return 0.0 * np.asarray(f(a), dtype=float) if np.ndim(f(a)) else 0.0
    if min_width is None:
        min_width = 1e-6 * (b - a)
    mid = 0.5 * (a + b)
    fa, fm, fb = (np.asarray(f(x), dtype=float) for x in (a, mid, b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    result = _simpson(f, a, b, fa, fm, fb, whole, tol, min_width)
    return float(result) if result.ndim == 0 else result


def _simpson(f, a, b, fa, fm, fb, whole, tol, min_width):
    """The value of [a, b], given f at its ends and midpoint and its Simpson
    value ``whole``: the halves' sum plus its Richardson correction, or the
    halves' values, each refined at tol / 2."""
    mid = 0.5 * (a + b)
    flm = np.asarray(f(0.5 * (a + mid)), dtype=float)
    frm = np.asarray(f(0.5 * (mid + b)), dtype=float)
    left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if float(np.sum(np.abs(delta))) <= 15.0 * tol or (b - a) <= min_width:
        return left + right + delta / 15.0
    half = 0.5 * tol
    return _simpson(f, a, mid, fa, flm, fm, left, half, min_width) + _simpson(
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
    # A difference of logs: the ratio itself may overflow or underflow.
    t = math.log(coefficient) - math.log(sigma) - math.log(tail_tol)
    return max(0.0, t / sigma)
