"""Adaptive Simpson quadrature with an absolute error budget.

The integrands in this package are norms of matrix exponentials: smooth
almost everywhere but with isolated kinks where a component crosses zero.
Plain adaptive Simpson handles those provided subdivision is allowed to
continue below the kink scale; a width floor (default 1e-6 of the original
interval) stops pathological refinement on a kink sitting exactly at a node.

The rule runs level-synchronously: all intervals still open at one depth
are refined together, and their new midpoints go to the integrand in one
vectorized call, so an integrand built on a stacked matrix exponential
pays one call per level instead of one per node.  Every interval keeps the
acceptance test of the classical recursion, so the nodes visited, the
decisions taken and the sums formed are exactly those of the recursive
rule.  A level with too many open intervals is refined in contiguous
groups, so memory stays bounded (see _refine).
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = ["adaptive_simpson", "simpson_panels", "tail_horizon"]

# Node values held per level: at most _LIVE_ENTRIES // q open intervals of an
# integrand with q components are refined together (see _refine).
_LIVE_ENTRIES = 1 << 16


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
    absolute component errors, so each component meets ``tol``).  ``f`` is
    called once per node; simpson_panels takes a vectorized integrand.
    """
    if not (b >= a):
        raise ValueError(f"invalid interval [{a}, {b}]")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    if b == a:
        return 0.0 * np.asarray(f(a), dtype=float) if np.ndim(f(a)) else 0.0

    def stacked(s: np.ndarray) -> np.ndarray:
        return np.array([np.asarray(f(x), dtype=float) for x in s])

    result = simpson_panels(stacked, [a, b], tol, min_width)[0]
    if result.ndim == 0:
        return float(result)
    return result


def simpson_panels(
    f: Callable[[np.ndarray], np.ndarray],
    edges,
    tol: float,
    min_width: float | None = None,
) -> np.ndarray:
    """Integrate ``f`` over each panel [edges[i], edges[i+1]].

    ``f`` is vectorized: given a 1-d array of k nodes it returns an array of
    shape (k,) or (k, q).  Each panel is refined as a separate
    adaptive_simpson call would refine it, with tolerance ``tol`` and a
    width floor of ``min_width`` (default 1e-6 of the panel's width); the
    result has shape (panels,) or (panels, q).  Panels share their edge
    nodes.
    """
    edges = np.asarray(edges, dtype=float).reshape(-1)
    if edges.size < 2 or not np.all(np.isfinite(edges)) or np.any(np.diff(edges) <= 0):
        raise ValueError("edges must be finite and strictly increasing")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    lo, hi = edges[:-1], edges[1:]
    if min_width is None:
        floor = 1e-6 * (hi - lo)
    else:
        floor = np.full(lo.size, float(min_width))
    count = lo.size
    mid = 0.5 * (lo + hi)
    values = np.asarray(f(np.concatenate((edges, mid))), dtype=float)
    f_lo, f_hi, f_mid = values[:count], values[1 : count + 1], values[count + 1 :]
    whole = _weight(lo, hi, values) * (f_lo + 4.0 * f_mid + f_hi)
    live = max(2, _LIVE_ENTRIES // max(1, values[0].size))
    return _refine(f, live, tol, lo, hi, floor, f_lo, f_mid, f_hi, whole)


def _refine(f, live, tol, lo, hi, floor, f_lo, f_mid, f_hi, whole):
    """Values of the intervals [lo_i, hi_i], refined level by level.

    ``f_lo``, ``f_mid``, ``f_hi`` are the integrand at each interval's ends
    and midpoint, ``whole`` its Simpson value, ``floor`` its width floor and
    ``tol`` the tolerance of the current level.  When more than ``live``
    intervals are open, they are handed on in contiguous groups of
    live // 2, each refined to the end by its own call, so that memory stays
    bounded when roundoff drives every interval down to its width floor.
    """
    # One entry per depth: which of its intervals were accepted, and their
    # values (split intervals are filled in from their children below).
    levels = []
    below = None
    while lo.size:
        if lo.size > live:
            step = live // 2
            state = (lo, hi, floor, f_lo, f_mid, f_hi, whole)
            below = np.concatenate(
                [
                    _refine(f, live, tol, *(x[i : i + step] for x in state))
                    for i in range(0, lo.size, step)
                ]
            )
            break
        mid = 0.5 * (lo + hi)
        l_mid = 0.5 * (lo + mid)
        r_mid = 0.5 * (mid + hi)
        fresh = np.asarray(f(np.concatenate((l_mid, r_mid))), dtype=float)
        f_lm, f_rm = fresh[: lo.size], fresh[lo.size :]
        left = _weight(lo, mid, fresh) * (f_lo + 4.0 * f_lm + f_mid)
        right = _weight(mid, hi, fresh) * (f_mid + 4.0 * f_rm + f_hi)
        delta = left + right - whole
        err = np.abs(delta).reshape(lo.size, -1).sum(axis=1)
        done = (err <= 15.0 * tol) | (hi - lo <= floor)
        value = np.empty_like(left)
        value[done] = left[done] + right[done] + delta[done] / 15.0
        levels.append((done, value))
        split = ~done
        lo, mid, hi = lo[split], mid[split], hi[split]
        lo, hi = _interleave(lo, mid), _interleave(mid, hi)
        f_lo, f_mid, f_hi = (
            _interleave(f_lo[split], f_mid[split]),
            _interleave(f_lm[split], f_rm[split]),
            _interleave(f_mid[split], f_hi[split]),
        )
        whole = _interleave(left[split], right[split])
        floor = np.repeat(floor[split], 2)
        tol = 0.5 * tol
    # Sum children into parents from the deepest level up, left + right, in
    # the order the recursive rule adds them.
    for done, value in reversed(levels):
        if below is not None:
            value[~done] = below[0::2] + below[1::2]
        below = value
    return below


def _weight(a: np.ndarray, b: np.ndarray, like: np.ndarray) -> np.ndarray:
    """Interval widths / 6 as a column that broadcasts against ``like``."""
    return ((b - a) / 6.0).reshape((-1,) + (1,) * (like.ndim - 1))


def _interleave(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x0, y0, x1, y1, ...] along the first axis."""
    out = np.empty((2 * x.shape[0],) + x.shape[1:], dtype=x.dtype)
    out[0::2] = x
    out[1::2] = y
    return out


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
