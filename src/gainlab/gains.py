"""Peak-gain estimates for stable LTI systems.

For a strictly causal system x' = Ax + Bu, y = Cx with Hurwitz A, the minimum
peak gain (the smallest constant relating the sup norm of the input to the
sup norm of the output, equivalently to the limsup of the output norm) is
approached here from both sides:

* exact values where available: the magnitude of the DC gain whenever the
  response kernel is sign-definite (positivity certificates, from structure
  or from the kernel's sign partition), else for single-output systems the
  L1 norm of the impulse response, read as the steady output of the
  periodic bang-bang input that realises it;
* lower bounds from sinusoid sweeps, from periodic bang-bang inputs (whose
  steady outputs tend to the gain) and from terminal outputs;
* upper bounds from orthonormal output decompositions and from
  decay-certificate arithmetic.

Every integral of a single-input scalar kernel |row exp(As) b| (the L1 norm
and the ONB bases, the terminal-output curve and its ascent, the SISO periodic
values, the bang-bang switches and the positivity proof) comes from a certified
partition of the kernel at its zeros, C's rows and the ONB bases' in one;
adaptive Simpson is left for the multi-input ascent's vector-norm integrand.
Each caller builds one kernel flow (_KernelFlow, a linalg._Flow of A) on its
grid and partitions its rows on it: the flow alone holds what the partition
takes from the system (A, b, n, the certificate's M), its exponentials at
the ends (the SISO periodic figures' exp(AT)) and its orbit powers, and the
Taylor stack of its base cell, formed on first use.

All estimates carry their kind (exact / lower / upper / estimate), the method
label, and the tolerance they were computed to, so reports stay auditable;
callers' tolerances, seeds, counts and horizons are checked before any
computation.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .exceptions import ConsistencyError, DimensionError
from .linalg import (
    _MAX_GRID_STEPS,
    _STACK_ENTRIES,
    StabilityCertificate,
    StateSpaceSystem,
    StructureFlags,
    _expm_stack,
    _expm_times,
    _Flow,
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
    "sinusoid_sweep",
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
    SIGN_PARTITION = "sign-partition"


def _checked_seed(seed, source: str = "seed") -> int:
    """``seed`` itself; raises ValueError unless a non-negative, non-bool integer."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"{source} must be a non-negative integer, got {seed!r}")
    return seed


def _checked_tol(tol, source: str = "tol") -> None:
    """Raises ValueError unless ``tol`` is a finite, positive, real, non-bool number."""
    if isinstance(tol, bool) or not isinstance(tol, numbers.Real) or not 0 < tol < math.inf:
        raise ValueError(f"{source} must be finite and positive, got {tol!r}")


class _KernelFlow(_Flow):
    """Everything of a sign partition but its rows: the flow x(s) = exp(As) b
    of one single-input system on the base cells of one increasing grid
    ``ends``, with the matrix exponentials the partition needs formed once,
    whatever rows are partitioned on it (the lockstep ascent partitions new
    rows on one flow at each of its steps).  It keeps A (the _Flow's
    matrix), b, n and the certificate's M, not the system, so it is the one
    object that holds the partition's state coordinates.

    It is the _Flow of A on ``count`` cells up to ends[-1]; of its own it
    holds A^0..A^5, the logarithmic norm mu of A, exp(A ends[-1]) and the
    states y = A^-1 exp(As) b at s = 0 and at each end.  A block's lead is a
    row of the orbit at the block's stride, a product of at most
    log2(blocks) powers (one carried from the last block by one fixed
    exponential drifts into rounding noise, and false zeros, where the
    kernel underflows).  A halving or a zero steps inside a cell by the
    Taylor stack, so a partition whose cells all clear their tests never
    forms it.
    """

    def __init__(self, sys: StateSpaceSystem, ends):
        a, b = sys.a, sys.b
        self.b, self.n, self.m_const = b, sys.n, sys.certificate.m
        self.ends = np.asarray(ends, dtype=float)
        t_end = float(self.ends[-1])
        self.a_powers = [np.linalg.matrix_power(a, k) for k in range(6)]
        self.mu = max(0.0, float(np.linalg.eigvalsh(a + a.T)[-1]) / 2.0)
        self.count = max(1, math.ceil(2.0 * np.linalg.norm(a, 1) * t_end))
        super().__init__(a, t_end / self.count, t_end)
        # exp(A e) b in _expm_times's stacks, keeping the last exp(A e) whole.
        chunk, x_ends = max(1, _STACK_ENTRIES // a.size), np.empty((self.ends.size, self.n))
        for start in range(0, self.ends.size, chunk):
            exps = _expm_stack(a, self.ends[start : start + chunk])
            x_ends[start : start + chunk] = (exps @ b)[:, :, 0]
        self.exp_end = exps[-1]
        self.y_ends = np.linalg.solve(a, x_ends.T).T
        self.y_start = np.linalg.solve(a, b).T


def _sign_partition(flow: _KernelFlow, rows: np.ndarray, budget: float):
    """(roots, signed, unresolved) for the kernels g_i(s) = rows_i exp(As) b
    of the single-input system that ``flow`` was built from: roots[i] the
    increasing zeros of g_i, signed[j, i] the state integral of
    sgn(g_i(s)) exp(As) b over [0, flow.ends[j]], and unresolved[i] the
    certified worst-case loss left in row i.  The integral of |g_i| over
    [0, ends[j]] is rows_i @ signed[j, i].  The partition reads A, b, n and M
    from the flow alone, and callers partitioning several row sets on one
    grid share one flow.  It walks blocks of 2^k cells, the most that fill a
    quarter stack, each from its lead exp(first w A) b, an orbit row.

    On a cell of width h, ||exp(At)|| <= G = min(M, exp(mu h)) (mu the
    logarithmic norm of A) bounds each derivative g_i^(k) within e_k =
    h^2 / 8 (max |g_i^(k+2)| at the ends + h^2 / 8 ||rows_i A^(k+4)|| G |x|)
    of its chord, x = exp(As) b at the cell's start.  So the cell holds no
    zero if g_i exceeds e_0 in one sign at both ends, and at most one if g_i'
    exceeds e_1 in one sign at both ends.  Any other cell can hide zeros
    costing 2 h e_0 (4 h e_0 across a sign change); it is halved until that
    fits its share of ``budget`` or it is 1e-6 of the horizon wide.  Between
    zeros exp(As) b integrates to the change of A^-1 exp(As) b.
    """
    q, count = rows.shape[0], flow.count
    t_end = float(flow.ends[-1])
    powers = [rows @ power for power in flow.a_powers]
    # g_i and its first three derivatives are x @ lift.T; A^4, A^5 bound the rest.
    lift, high = np.concatenate(powers[:4]), np.linalg.norm(powers[4:], axis=2)[None]
    # Per sample, x and four kernel rows: a block fills at most a quarter stack.
    block = 1 << (max(1, _STACK_ENTRIES // (4 * (flow.n + 4 * q))).bit_length() - 1)
    leads = flow.orbit(flow.b[:, 0], -(-count // block), block.bit_length() - 1)
    brackets, lost = [], np.zeros(q)
    for first, lead in zip(range(0, count, block), leads):
        last, width = min(first + block, count), flow.cell
        x = flow.orbit(lead, last - first + 1)
        v = (x @ lift.T).reshape(-1, 4, q)
        cells = [np.arange(first, last) * width, x[:-1], v[:-1], v[1:]]
        while True:
            start, x, v0, v1 = cells
            chord = width**2 / 8.0
            grow = min(flow.m_const, math.exp(flow.mu * width)) * np.linalg.norm(x, axis=1)
            bound = np.maximum(abs(v0[:, 2:]), abs(v1[:, 2:])) + chord * grow[:, None, None] * high
            e0, e1 = chord * bound[:, 0], chord * bound[:, 1]
            g0, p0, g1, p1 = v0[:, 0], v0[:, 1], v1[:, 0], v1[:, 1]
            flip = (g0 >= 0.0) != (g1 >= 0.0)
            monotone = (p0 * p1 > 0.0) & (np.minimum(abs(p0), abs(p1)) > e1)
            clear = monotone | (~flip & (np.minimum(abs(g0), abs(g1)) > e0))
            loss = np.where(clear, 0.0, width * e0 * np.where(flip, 4.0, 2.0))
            # Each cell's loss within its share of the budget keeps the sum within it.
            done = (loss.sum(axis=1) <= budget * width / t_end) | (width < 2e-6 * t_end)
            lost += loss[done].sum(axis=0)
            c, i = np.nonzero(flip & done[:, None])
            brackets.append((i, start[c], x[c], np.full(c.size, width), g0[c, i], g1[c, i]))
            if done.all():
                break
            start, x, v0, v1 = (part[~done] for part in cells)
            width /= 2.0
            xm = flow.taylor(width / flow.cell, x)
            vm = (xm @ lift.T).reshape(-1, 4, q)
            pairs = (start, start + width), (x, xm), (v0, vm), (vm, v1)
            cells = [np.concatenate(pair) for pair in pairs]
    row, start, x, width, g0, g1 = map(np.concatenate, zip(*brackets))
    offset, x = _kernel_zeros(flow, rows[row], powers[1][row], x, width, g0, g1)
    y_roots = np.linalg.solve(flow.matrix, x.T).T
    roots, signed = _signed_states(rows, row, start + offset, y_roots, flow)
    return roots, signed, lost


def _signed_states(rows, row, t, y_roots, flow):
    """(roots, signed) from the zeros t of the kernels rows_i exp(As) b (row
    their row numbers) and y = A^-1 exp(As) b at each: _sign_partition's
    per-row zeros and signed state integrals over [0, flow.ends[j]].

    Each step of y between consecutive zeros, and from the last zero before
    an end to the end, is signed by the kernel's sign across it (the sign of
    its change along the row).  Row i's states (y at 0, then at its zeros)
    fill y_pad[i], padded with its last state to the most zeros any row has,
    so every row's signed steps add up in one cumulative sum along axis 1:
    sequential, and so bit for bit the sum of each row on its own.
    """
    q, ends = rows.shape[0], flow.ends
    order = np.lexsort((t, row))
    counts = np.bincount(row, minlength=q)
    bounds = np.cumsum(counts)
    # pos[i, j]: row i's j-th state, 0 the start, its last repeated after it.
    pos = np.minimum(np.arange(int(counts.max()) + 1), counts[:, None])
    at = np.where(pos > 0, (bounds - counts)[:, None] + pos, 0)
    y_pad = np.vstack((flow.y_start, y_roots[order]))[at]
    # k[i, j]: how many of row i's zeros lie before ends[j].
    past = row * (ends.size + 1) + np.searchsorted(ends, t, side="right")
    k = np.bincount(past, minlength=q * (ends.size + 1)).reshape(q, -1).cumsum(axis=1)[:, :-1]
    inner, each = pos.shape[1] - 1, np.arange(q)[:, None]
    steps = np.concatenate((np.diff(y_pad, axis=1), flow.y_ends - y_pad[each, k]), axis=1)
    steps *= np.sign(steps @ rows[:, :, None])
    total = np.zeros_like(y_pad)
    np.cumsum(steps[:, :inner], axis=1, out=total[:, 1:])
    signed = np.ascontiguousarray((total[each, k] + steps[:, inner:]).transpose(1, 0, 2))
    t = t[order]
    return [t[stop - count : stop] for stop, count in zip(bounds.tolist(), counts.tolist())], signed


def _kernel_zeros(flow, rows, ra, x0, width, g0, g1):
    """Zeros of g_k(t) = rows_k exp(At) x0_k, A the flow's, on [0, width_k],
    across which g_k changes sign (g0, g1 its end values): Newton on (g, g')
    from the secant point, bisecting where a step would leave the bracket or
    not halve the last one, all in lockstep.  Returns the zeros (to 1e-13)
    and exp(A zero_k) x0_k."""
    lo, hi, last = np.zeros(width.size), width.copy(), width.copy()
    t, x = width * g0 / (g0 - g1), x0.copy()
    live = np.arange(t.size)
    for iteration in range(100):
        if not live.size:
            break
        tl = t[live]
        x[live] = flow.taylor(tl / flow.cell, x0[live])
        g = np.einsum("kn,kn->k", rows[live], x[live])
        below = (g >= 0.0) == (g0[live] >= 0.0)
        lo[live[below]], hi[live[~below]] = tl[below], tl[~below]
        with np.errstate(divide="ignore", invalid="ignore"):
            step = g / np.einsum("kn,kn->k", ra[live], x[live])
        nxt, lo_l, hi_l = tl - step, lo[live], hi[live]
        bisect = ~((nxt > lo_l) & (nxt < hi_l) & (abs(step) <= 0.5 * last[live]))
        nxt[bisect] = 0.5 * (lo_l + hi_l)[bisect]
        last[live] = abs(nxt - tl)
        done = (abs(step) <= 1e-13) | (hi_l - lo_l <= 1e-13) | (iteration == 99)
        t[live[~done]] = nxt[~done]
        live = live[~done]
    return t, x


def l1_impulse_gain(sys: StateSpaceSystem, tol: float = 1e-8) -> GainEstimate:
    """Gain from the componentwise L1 norms of the impulse response.

    Single-input systems only.  Each output component's kernel is integrated
    over [0, infinity) (summed between its certified zeros out to a horizon
    H past which a certified exponential tail is within tol; details give
    these partial integrals ``component_integrals``, H ``horizon``, the zero
    counts ``roots`` and the loss bound ``unresolved_bound``).  For several
    outputs their Euclidean norm is an upper bound (the best one over the
    standard output basis; see onb_upper_bound for refinement).  For a single
    output the value is the exact minimum peak gain, read as the steady
    output at phase 0 of the partition's bang-bang input u(t) = sgn g(H - t),
    g(s) = c exp(As) b, repeated with period H: |c (I - exp(AH))^-1 W_H|,
    W_H the signed state integral over [0, H].  An input realises it, so it
    never exceeds the gain; ConsistencyError is raised if it falls below
    the partial integral c W_H by more than twice tol (plus 1e-9 relative).
    """
    _checked_tol(tol)
    return _l1_gain(sys, sys.c[:0], tol)[0]


def _l1_gain(sys: StateSpaceSystem, extra_rows: np.ndarray, tol: float):
    """(l1_impulse_gain's estimate off C's rows, the extra rows' L1 norms,
    every row's zeros on [0, H], the partition's _KernelFlow), from one sign
    partition of C's rows and ``extra_rows`` on [0, H]; H = 0 partitions
    nothing and returns no flow (None).  Half the budget goes to the
    partition, half to the certified tail past H, the tail share split
    evenly across rows.  The SISO periodic figure |c (I - exp(AH))^-1 W_H|
    takes the exp(AH) that the partition's flow formed for its end, H, and
    verify_gain_equality reads its bang-bang switches off the zeros and the
    flow."""
    if sys.m != 1:
        raise DimensionError("impulse-response integrals require a single input")
    rows = np.vstack((sys.c, extra_rows))
    q, cert = rows.shape[0], sys.certificate
    coef = float(np.max(np.linalg.norm(rows, axis=1))) * cert.m * spectral_norm(sys.b)
    horizon = tail_horizon(cert.sigma, coef, (tol / 2.0) / q)
    ints, roots, lost, flow = np.zeros(q), [np.empty(0)] * q, np.zeros(q), None
    if horizon > 0.0:
        flow = _KernelFlow(sys, [horizon])
        roots, signed, lost = _sign_partition(flow, rows, tol / 2.0)
        ints = (signed[0] * rows).sum(axis=1)
    value = float(np.linalg.norm(ints[: sys.p]))
    if sys.p == 1 and horizon > 0.0:
        periodic = abs(float(sys.c[0] @ np.linalg.solve(np.eye(sys.n) - flow.exp_end, signed[0, 0])))
        # gain_report's slack for a pair of figures computed to tol.
        if value - periodic > 2.0 * tol + 1e-9 * max(1.0, value, periodic):
            raise ConsistencyError(
                f"partial integral {value} exceeds the periodic input's output {periodic}"
            )
        value = periodic
    return GainEstimate(
        value=value,
        kind="exact" if sys.p == 1 else "upper",
        method="l1-impulse",
        tolerance=tol,
        details={
            "component_integrals": [float(v) for v in ints[: sys.p]],
            "horizon": horizon,
            "roots": [int(r.size) for r in roots[: sys.p]],
            "unresolved_bound": float(lost[: sys.p].sum()),
        },
    ), ints[sys.p :], roots, flow


def dc_gain(sys: StateSpaceSystem) -> GainEstimate:
    """Norm of the steady output under the worst constant unit input.

    Always a valid lower bound on the peak gain.  For single-input systems
    whose response kernel carries a positivity certificate (see
    positivity_certificate) the constant input is worst-case overall and the
    value is exact: to rounding under a structural certificate, and to
    2e-8 sqrt(p) more under SIGN_PARTITION, whose 1e-8 tail per output is
    left unchecked.
    """
    pos = positivity_certificate(sys) if sys.m == 1 else None
    return _dc_estimate(sys, pos, 2.0 * _POSITIVITY_TAIL * math.sqrt(sys.p))


def _dc_estimate(sys, pos, partition_slack: float) -> GainEstimate:
    # The dc figure, exact when pos certifies positivity; partition_slack is
    # what a sign partition's unchecked tails can add to the L1 gain above it.
    value = float(spectral_norm(sys.c @ np.linalg.solve(sys.a, sys.b)))
    slack = partition_slack if pos is PositivityCertificate.SIGN_PARTITION else 0.0
    kind, details = ("lower", None) if pos is None else ("exact", pos.value)
    return GainEstimate(value, kind, "dc", slack + 1e-12 * max(1.0, value), {"positivity": details})


# Positivity is proved on the horizon past which every kernel row integrates
# to less than this.
_POSITIVITY_TAIL = 1e-8


def _structural_positivity(sys, flags: StructureFlags) -> PositivityCertificate | None:
    # Symmetric negative definite A with identity output, or Metzler A with
    # nonnegative B and C: positivity of a single-input kernel by structure.
    if flags.assumption_h is not None and np.array_equal(sys.c, np.eye(sys.n)):
        return PositivityCertificate.ASSUMPTION_H
    if flags.metzler and flags.nonnegative_b and flags.nonnegative_c:
        return PositivityCertificate.METZLER_NONNEG
    return None


def positivity_certificate(sys: StateSpaceSystem) -> PositivityCertificate | None:
    """Certify that each output's response kernel never changes sign.

    Checked in order: symmetric negative definite A with identity output
    (exact, via the orthogonal diagonalization), Metzler A with nonnegative
    B and C (exact), and the kernel sign partition: no row of C exp(As) b
    has a zero or an unresolved cell on the horizon past which its integral
    is below 1e-8 (so the DC value misses the L1 gain by at most 2e-8 per
    output); it runs on [0, 1/sigma] first, so an early sign change rejects
    cheaply.  Returns None when nothing applies.
    """
    if sys.m != 1:
        raise DimensionError("positivity certificates require a single input")
    pos = _structural_positivity(sys, structure_flags(sys))
    if pos is not None:
        return pos
    cert = sys.certificate
    coef = spectral_norm(sys.c) * cert.m * spectral_norm(sys.b)
    horizon = tail_horizon(cert.sigma, coef, _POSITIVITY_TAIL)
    if horizon > 0.0:
        for end in sorted({min(horizon, 1.0 / cert.sigma), horizon}):
            roots, _, lost = _sign_partition(_KernelFlow(sys, [end]), sys.c, _POSITIVITY_TAIL)
            if lost.any() or any(r.size for r in roots):
                return None
    return PositivityCertificate.SIGN_PARTITION


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
    achieving the value: vcurve on the one horizon, so SISO systems are exact
    and several outputs give a lower estimate.
    """
    curve = vcurve(sys, [horizon], restarts, tol, seed)
    return float(curve.values[0]), curve.directions[0]


def _iterative_terminal_output(sys, horizons, restarts, tol, seed):
    # Each (start, horizon) pair alternates between the optimal input for its
    # output direction and realigning the direction with the terminal output
    # that input produces, at most 40 times.  The pairs run in lockstep: with
    # one input a step is one sign partition of every live pair's kernel
    # d'C exp(As) b out to the last horizon, each pair reading its terminal
    # state at its own horizon.  Each iterate is feasible, so the best value
    # seen per horizon is a valid lower estimate whatever the iteration does.
    # Every step partitions on one kernel flow over the horizons.
    flow = _KernelFlow(sys, horizons) if sys.m == 1 else None
    rng = np.random.default_rng(seed)
    draws = rng.standard_normal((restarts, sys.p))
    starts = [*np.eye(sys.p), *(v / np.linalg.norm(v) for v in draws)]
    k, s = horizons.size, len(starts)
    horizon_of = np.repeat(np.arange(k), s)
    d = np.tile(starts, (k, 1))
    best, best_dir = np.zeros(k * s), np.tile(starts[0], (k * s, 1))
    last, live = np.full(k * s, -np.inf), np.arange(k * s)
    for _ in range(40):
        if sys.m == 1:
            signed = _sign_partition(flow, d[live] @ sys.c, tol)[1]
            x = signed[horizon_of[live], np.arange(live.size)]
        else:
            x = np.array([_aligned_terminal(sys, horizons[horizon_of[j]], d[j], tol)[1:] for j in live])
        y = x @ sys.c.T
        value = np.linalg.norm(y, axis=1)
        up = value > best[live]
        best[live[up]], best_dir[live[up]] = value[up], y[up] / value[up, None]
        stop = (value <= 0) | (value - last[live] <= tol * np.maximum(1.0, value))
        last[live], d[live[~stop]] = value, y[~stop] / value[~stop, None]
        live = live[~stop]
        if not live.size:
            break
    # Per horizon, the first start to reach the best value, as one start
    # after another would find it.
    pick = best.reshape(k, s).argmax(axis=1) + s * np.arange(k)
    return best[pick], best_dir[pick]


def _aligned_terminal(sys, horizon, d, tol):
    # Integrates [|v(s)|, exp(A (horizon - s)) B v(s) / |v(s)|] with
    # v(s) = B' exp(A' (horizon - s)) C' d, the input aligned with d, for
    # several inputs (one input takes the sign partition instead).
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


def _check_partition_cells(sys: StateSpaceSystem, horizon: float, flag: str) -> None:
    """Raises ValueError, naming the command-line ``flag`` that set it, when a
    finite ``horizon`` needs more than _MAX_GRID_STEPS sign-partition cells of
    1 / (2 ||A||_1).  Non-finite horizons are left to the caller's own check."""
    if math.isfinite(horizon) and 2.0 * np.linalg.norm(sys.a, 1) * horizon > _MAX_GRID_STEPS:
        raise ValueError(
            f"horizon {horizon:.4g} needs more than {_MAX_GRID_STEPS} partition cells ({flag})"
        )


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

    SISO systems read the curve off one sign partition of the kernel (each
    value a partial sum).  Otherwise the direction-alignment ascent runs from
    the standard basis and ``restarts`` seeded directions at every horizon at
    once.  With one input each of its at most 40 steps is one sign partition,
    out to the largest horizon, for all starts and horizons, so a grid of any
    size costs at most 40 partitions, as one horizon does.  The steps share
    one kernel flow, whose matrix exponentials (end states, orbit powers) are
    formed once per curve: a step adds only its rows' kernel values and the
    Newton polish of their zeros, neither of which forms one.  Horizons must be
    finite, and the largest at most _MAX_GRID_STEPS cells of 1 / (2 ||A||_1).
    The ascent's signed states, n entries per (start, horizon) pair at each
    of the k horizons, k^2 (p + restarts) n in all, may number at most
    _MAX_GRID_STEPS.
    """
    _checked_tol(tol)
    _checked_seed(restarts, "restarts")
    _checked_seed(seed)
    hs = np.asarray(list(horizons), dtype=float)
    if hs.size == 0 or not np.all((hs > 0) & (hs < math.inf)) or np.any(np.diff(hs) <= 0):
        raise ValueError("horizons must be finite, positive and strictly increasing")
    _check_partition_cells(sys, hs[-1], "--t-max")
    if sys.p == 1 and sys.m == 1:
        values = _sign_partition(_KernelFlow(sys, hs), sys.c, tol)[1][:, 0] @ sys.c[0]
        return VCurve(hs, values, [np.array([1.0])] * hs.size, exact=True)
    entries = hs.size**2 * (sys.p + restarts) * sys.n
    if entries > _MAX_GRID_STEPS:
        raise ValueError(
            f"{hs.size} horizons need {entries} ascent state entries, more than "
            f"{_MAX_GRID_STEPS}; use fewer points (--points)"
        )
    values, dirs = _iterative_terminal_output(sys, hs, restarts, tol, seed)
    return VCurve(hs, values, list(dirs), exact=sys.p == 1)


def bang_bang_switches(sys: StateSpaceSystem, horizon: float) -> BangBangInput:
    """Optimal switching input for the terminal-output problem on [0, horizon].

    For a SISO system the optimizer of |y(horizon)| is u(s) = sgn of the
    kernel C exp(A (horizon - s)) B, with sgn(0) taken as +1: it switches at
    horizon - r for the kernel's certified zeros r, good to 1e-12.  An
    identically vanishing kernel yields the zero-input marker.
    """
    if sys.m != 1 or sys.p != 1:
        raise DimensionError("bang-bang construction requires a SISO system")
    if not (0 < horizon < math.inf):
        raise ValueError("horizon must be finite and positive")
    scale = max(spectral_norm(sys.c) * spectral_norm(sys.b), 1e-300)
    flow = _KernelFlow(sys, [horizon])
    roots, signed, _ = _sign_partition(flow, sys.c, 1e-12 * scale)
    return _bang_bang(sys, flow, roots[0], horizon, signed[0, 0] @ sys.c[0])


def _bang_bang(sys, flow: _KernelFlow, roots, horizon: float, integral: float) -> BangBangInput:
    """bang_bang_switches's input on [0, horizon] from a partition of the
    kernel c exp(As) b on a flow reaching at least ``horizon``: ``roots`` its
    increasing zeros, ``integral`` its L1 norm on [0, horizon] or on the
    flow's longer span (an upper bound).  An integral of at most 1e-14 |c| |b|
    per unit of horizon marks an identically vanishing kernel."""
    scale = max(spectral_norm(sys.c) * spectral_norm(sys.b), 1e-300)
    zero = bool(integral <= 1e-14 * scale * horizon)
    lags = roots[(roots > 1e-12) & (roots < horizon - 1e-12) & (not zero)]
    switches = horizon - lags[::-1]
    # The first sign is the kernel's between its last zero and the horizon.
    mid = 0.5 * (horizon + (lags[-1] if lags.size else 0.0))
    kernel = sys.c[0] @ flow.advance(sys.b[:, 0], mid)
    return BangBangInput(
        horizon=horizon,
        switch_times=switches[np.diff(switches, prepend=-math.inf) > 1e-11],
        initial_sign=-1 if kernel < 0.0 and not zero else 1,
        zero_kernel=zero,
    )


def sinusoid_response(sys: StateSpaceSystem, omega: float) -> float:
    """Asymptotic peak output norm under the worst unit sinusoid at ``omega``.

    Single-input systems.  The steady output under sin(omega t + phase) is
    Re G sin + Im G cos with G = C (i omega I - A)^{-1} B, so its peak over
    the period and phase is the larger singular value of [Re G, Im G], that
    is sqrt((||G||^2 + |sum_k G_k^2|) / 2); with one output, |G|.  G comes
    from one complex solve on A / s and omega / s for a power of two s, so
    its error grows with cond(A), not cond(A)^2, and no omega overflows.
    """
    return float(sinusoid_sweep(sys, [omega])[0])


def sinusoid_sweep(sys: StateSpaceSystem, omegas) -> np.ndarray:
    """sinusoid_response at each frequency of ``omegas``: each frequency's
    rescaled resolvent in a stack of at most _STACK_ENTRIES // n^2, and one
    batched solve per stack, so peak memory does not grow with the grid."""
    if sys.m != 1:
        raise DimensionError("sinusoid response requires a single input")
    grid = np.asarray(omegas, dtype=float).reshape(-1)
    if not np.all((grid > 0) & (grid < math.inf)):
        raise ValueError("omega must be finite and positive")
    out, chunk = np.empty(grid.size), max(1, _STACK_ENTRIES // (sys.n * sys.n))
    for start in range(0, grid.size, chunk):
        omega = grid[start : start + chunk]
        scale = np.ldexp(1.0, np.maximum(0, np.frexp(omega)[1] - 1))
        shifted = 1j * (omega / scale)[:, None, None] * np.eye(sys.n) - sys.a / scale[:, None, None]
        g = (sys.c @ np.linalg.solve(shifted, sys.b[None]))[:, :, 0]
        # A power of two keeps |G|^2 clear of underflow and overflow.
        unit = np.ldexp(1.0, np.frexp(abs(g).max(axis=1))[1])[:, None]
        re, im = g.real / unit, g.imag / unit
        squares = np.hypot((re * re - im * im).sum(axis=1), 2.0 * (re * im).sum(axis=1))
        psi = np.sqrt(0.5 * ((re * re + im * im).sum(axis=1) + squares))
        out[start : start + chunk] = psi * unit[:, 0] / scale
    return out


# The zoom narrows its bracket 32-fold per round, 10^6-fold in all.
_ZOOM_POINTS = 65
_ZOOM_ROUNDS = 4


def sinusoid_lower_bound(sys: StateSpaceSystem, omegas=None) -> GainEstimate:
    """Best sinusoid response over a frequency grid, then polished.

    A valid lower bound on the peak gain for every frequency; the returned
    value is the grid maximum (one sinusoid_sweep), improved by a zoom in
    log frequency: the bracket starts at the winning grid point's
    neighbours, and each of 4 rounds sweeps 65 log-spaced frequencies across
    it, ends included, in one batch, keeps the best value seen and narrows
    the bracket to the round's best point's neighbours.
    """
    if omegas is None:
        omegas = np.logspace(-3.0, 3.0, 200)
    omegas = np.asarray(list(omegas), dtype=float)
    if omegas.size == 0 or np.any(omegas <= 0):
        raise ValueError("omegas must be positive")
    vals = sinusoid_sweep(sys, omegas)
    i_best = int(np.argmax(vals))
    best, best_omega = float(vals[i_best]), float(omegas[i_best])
    bracket = omegas[[max(0, i_best - 1), min(omegas.size - 1, i_best + 1)]]
    if bracket[1] > bracket[0]:
        for _ in range(_ZOOM_ROUNDS):
            points = np.geomspace(bracket[0], bracket[1], _ZOOM_POINTS)
            vals = sinusoid_sweep(sys, points)
            j = int(np.argmax(vals))
            if vals[j] > best:
                best, best_omega = float(vals[j]), float(points[j])
            bracket = points[[max(0, j - 1), min(_ZOOM_POINTS - 1, j + 1)]]
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
    bounds the gain.  The standard basis (l1_impulse_gain) is always tried;
    ``random_bases`` more (seeded, their rows in one partition with C's) are
    tried for multi-output systems and the minimum is returned.
    """
    _checked_tol(tol)
    _checked_seed(random_bases, "random_bases")
    _checked_seed(seed)
    return _onb_bound(sys, random_bases, tol, seed)[1]


def _onb_bound(sys, random_bases: int, tol: float, seed: int):
    # (l1, onb): the standard basis is l1 itself; the drawn bases ride along.
    draws = np.random.default_rng(seed).standard_normal((random_bases * (sys.p > 1), sys.p, sys.p))
    rows = [np.linalg.qr(g)[0].T @ sys.c for g in draws]
    l1, ints, _, _ = _l1_gain(sys, np.reshape(rows, (-1, sys.n)), tol)
    values = [l1.value, *(float(np.linalg.norm(v)) for v in ints.reshape(-1, sys.p))]
    best = int(np.argmin(values))
    return l1, GainEstimate(
        value=values[best],
        kind="upper",
        method="onb",
        tolerance=tol,
        details={"basis_values": values, "selected": best},
    )


def periodic_upper_estimate(
    sys: StateSpaceSystem, t_grid=None, tol: float = 1e-8
) -> GainEstimate:
    """Best periodic steady-state output over a grid of periods, SISO only.

    For each period T the integral of |c (exp(AT) - I)^{-1} exp(As) b| over
    [0, T] (by its sign partition, whose flow forms exp(AT) for the
    resolvent too) is the asymptotic output, at phase 0, of
    the best T-periodic unit input: the bang-bang one, which realises it.  So
    every value is a lower bound on the gain, and their supremum over T is
    the gain; on the default grid {2^k / sigma, k = -2..6} the maximum tends
    to the L1 gain.  l1_impulse_gain's exact SISO figure is such a steady
    output too, for its own partition's bang-bang input and the L1 horizon
    as period.  For several outputs the norm integral is at least the L1
    bound less twice the integral of ||C exp(As) b|| beyond T (Minkowski's
    inequality), so it could never tighten a report; they raise
    DimensionError.
    """
    _checked_tol(tol)
    if sys.m != 1 or sys.p != 1:
        raise DimensionError("periodic estimate requires a SISO system")
    if t_grid is None:
        t_grid = [2.0**k / sys.certificate.sigma for k in range(-2, 7)]
    horizons = np.asarray(list(t_grid), dtype=float)
    if horizons.size == 0 or not np.all((horizons > 0) & (horizons < math.inf)):
        raise ValueError("t_grid must contain finite positive periods")
    values = []
    for t_per in horizons:
        flow = _KernelFlow(sys, [t_per])
        cmod = np.linalg.solve((flow.exp_end - np.eye(sys.n)).T, sys.c.T).T
        values.append(float(_sign_partition(flow, cmod, tol)[1][0, 0] @ cmod[0]))
    i_best = int(np.argmax(values))
    return GainEstimate(
        value=values[i_best],
        kind="lower",
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
    b_samples: k rows (t_k, b_k) of nondecreasing envelope samples, t_0 = 0,
        as a right-open step function.
    t_grid: candidate horizons, one flat list.

    Every number must be finite; ValueError names the field that is not.
    """

    certificates: tuple
    b_samples: np.ndarray
    t_grid: np.ndarray

    def __post_init__(self) -> None:
        samples = np.atleast_2d(np.asarray(self.b_samples, dtype=float))
        grid = np.atleast_1d(np.asarray(self.t_grid, dtype=float))
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError(f"b_samples must be (t, b) pairs, got shape {samples.shape}")
        if grid.ndim != 1:
            raise ValueError(f"t_grid must be a flat list of horizons, got shape {grid.shape}")
        certs = tuple((float(m), float(s)) for m, s in self.certificates)
        if not certs:
            raise ValueError("at least one (M, sigma) certificate is required")
        for m_const, sigma in certs:
            if not 1.0 <= m_const < math.inf:
                raise ValueError(f"certificate constant M={m_const} must be finite and >= 1")
            if not 0.0 < sigma < math.inf:
                raise ValueError(f"certificate rate sigma={sigma} must be finite and > 0")
        if not np.all(np.isfinite(samples)):
            raise ValueError("b_samples must be finite")
        if samples[0, 0] != 0.0:
            raise ValueError("b_samples must start at t = 0")
        if np.any(np.diff(samples[:, 0]) <= 0):
            raise ValueError("b_samples times must be strictly increasing")
        if np.any(np.diff(samples[:, 1]) < 0) or np.any(samples[:, 1] < 0):
            raise ValueError("b_samples values must be nonnegative and nondecreasing")
        if grid.size == 0 or not np.all((grid > 0) & (grid < math.inf)):
            raise ValueError("t_grid must contain finite positive horizons")
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
    """All gain figures for one system, cross-checked for consistency:
    ``exact`` is dc (also in ``lowers``) whenever ``positivity`` is certified,
    else the L1 figure for one input and output; only several outputs have
    ``uppers``."""

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


def gain_report(sys: StateSpaceSystem, tol: float = 1e-8, seed: int = 0) -> GainReport:
    """Assemble every applicable estimate into one audited report.

    Multi-input systems get a reduced report (constant-input lower bound
    only) with an explanatory note.  A single-input report takes positivity
    from structure (then one output needs no partition at all) or else from
    its one sign partition, of C's rows and, for several outputs, the ONB
    bound's drawn bases: no zero and nothing unresolved in any of C's rows
    certifies SIGN_PARTITION, and as each of their tails is within
    tol / (2p) the dc value is then exact to tol (plus 1e-12 relative).
    ConsistencyError is raised if any lower or exact figure exceeds any
    upper or exact one beyond their combined tolerances.
    """
    _checked_tol(tol)
    _checked_seed(seed)
    flags = structure_flags(sys)
    pos, l1, uppers = None, None, []
    if sys.m == 1:
        pos = _structural_positivity(sys, flags)
        if pos is None or sys.p > 1:
            l1, onb = _onb_bound(sys, random_bases=4, tol=tol, seed=seed)
            if pos is None and l1.details["unresolved_bound"] == 0.0 and not any(l1.details["roots"]):
                pos = PositivityCertificate.SIGN_PARTITION
            if sys.p > 1:
                uppers = [l1, onb]
    dc = _dc_estimate(sys, pos, tol)
    exact = dc if pos is not None else l1 if sys.p == 1 else None
    if sys.m > 1:
        lowers, notes = [dc], ["multi-input system: only the constant-input lower bound is computed"]
    else:
        lowers = [dc, sinusoid_lower_bound(sys)]
        notes = [] if exact is not None else ["no exactness certificate: value bracketed only"]
    ends = [] if exact is None else [exact]
    for low in lowers + ends:
        for high in uppers + ends:
            slack = low.tolerance + high.tolerance + 1e-9 * max(1.0, low.value, high.value)
            if low is not high and low.value > high.value + slack:
                raise ConsistencyError(
                    f"{low.kind} {low.method}={low.value} exceeds "
                    f"{high.kind} {high.method}={high.value}"
                )
    return GainReport(
        exact=exact,
        lowers=tuple(lowers),
        uppers=tuple(uppers),
        dims=(sys.n, sys.m, sys.p),
        structure=flags,
        positivity=pos,
        certificate=sys.certificate,
        tolerance=tol,
        seed=seed,
        notes=tuple(notes),
    )
