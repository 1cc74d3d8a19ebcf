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
* lower bounds from sinusoid sweeps (a log-frequency grid whose best point
  a safeguarded Newton iteration polishes), from periodic bang-bang inputs
  (whose steady outputs tend to the gain) and from terminal outputs;
* upper bounds from orthonormal output decompositions and from
  decay-certificate arithmetic.

Every integral of a single-input scalar kernel |row exp(As) b| (the L1 norm
and the ONB bases, the terminal-output curve and its ascent, the SISO periodic
values, the bang-bang switches and the positivity proof) comes from a certified
partition of the kernel at its zeros, C's rows and the ONB bases' in one;
the multi-input terminal states take one Gauss–Legendre pass per interval of
the horizon grid, for every output direction at once (_aligned_states).
Every partition goes through _partition, on a kernel flow (_KernelFlow, a
linalg._Flow of A) that it builds or that the caller built, and every derived
horizon comes from one tail rule, _tail_horizon.  The flow alone holds what
the partition takes from the system (A, b, n, the certificate's M), its one
stack of orbit powers, whose ladder gives exp(A) at the last end (the SISO
periodic figures' exp(AT)), and the Taylor stack of its base cell.

All estimates carry their kind (exact / lower / upper / estimate), the method
label, and the tolerance they were computed to, so reports stay auditable;
callers' tolerances, seeds, counts and horizons are checked before any
computation.  Estimates, reports and their inputs are immutable records
(_record.Record, not dataclasses: a changed copy is
type(r)(**{**vars(r), name: value})).
"""

from __future__ import annotations

import enum
import math
import numbers

import numpy as np

from . import linalg
from ._record import Record
from .exceptions import ConsistencyError, DimensionError
from .linalg import (
    _MAX_GRID_STEPS,
    _STACK_ENTRIES,
    StabilityCertificate,
    StateSpaceSystem,
    StructureFlags,
    _Flow,
    _grid_flow,
    spectral_norm,
    structure_flags,
)
from .quadrature import gauss_legendre, tail_horizon
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


class GainEstimate(Record):
    """One gain figure with its provenance.

    kind is one of "exact", "lower", "upper", "estimate"; method is the
    label of the producing routine; tolerance is the absolute accuracy the
    number was computed to (0 for closed-form arithmetic); details holds
    the routine's audit data, a new empty dict when left out or None.
    """

    value: float
    kind: str
    method: str
    tolerance: float
    details: dict = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.details is None:
            object.__setattr__(self, "details", {})
        if self.kind not in ("exact", "lower", "upper", "estimate"):
            raise ValueError(f"unknown estimate kind {self.kind!r}")
        if not np.isfinite(self.value) or self.value < 0:
            raise ValueError(f"estimate value must be finite and nonnegative, got {self.value}")
        if not 0 <= self.tolerance < math.inf:
            raise ValueError(f"estimate tolerance must be finite and nonnegative, got {self.tolerance}")


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
    object that holds the partition's state coordinates: b over ``scale``,
    the power of two at its largest entry, so that no norm of a state
    leaves double range, whatever B's scale.

    It is the _Flow of A on ``count`` cells up to ends[-1], whose power
    stack is its one matrix exponential; of its own it holds A^0..A^5, the
    logarithmic norm mu of A, exp(A ends[-1]) (the ladder of ``count``
    cells) and the states y = A^-1 exp(As) b at s = 0 and at each end (the
    earlier ends off one array advance).  A block's lead is a row of the
    orbit at the block's stride, a product of at most log2(blocks) powers
    (one carried from the last block by one fixed exponential drifts into
    rounding noise, and false zeros, where the kernel underflows).  A
    halving or a zero steps inside a cell by the Taylor stack, so a
    partition whose cells all clear their tests never forms it.
    """

    def __init__(self, sys: StateSpaceSystem, ends):
        a, b = sys.a, sys.b
        self.scale = float(linalg._power_of_two_at(np.abs(b).max()))
        b = b / self.scale
        self.b, self.n, self.m_const = b, sys.n, sys.certificate.m
        self.ends = np.asarray(ends, dtype=float)
        t_end = float(self.ends[-1])
        self.a_powers = [np.linalg.matrix_power(a, k) for k in range(6)]
        self.mu = max(0.0, float(np.linalg.eigvalsh(a + a.T)[-1]) / 2.0)
        self.count = linalg._partition_cells(a, t_end)
        super().__init__(a, t_end / self.count, t_end)
        self.exp_end = self.ladder(self.count, np.eye(self.n))
        x_ends = np.vstack((self.advance(b[:, 0], self.ends[:-1]), self.exp_end @ b[:, 0]))
        self.y_ends = np.linalg.solve(a, x_ends.T).T
        self.y_start = np.linalg.solve(a, b).T


def _tail_horizon(sys: StateSpaceSystem, rows: np.ndarray, tail: float) -> float:
    """H where the largest row's certified tail ||row|| M ||b|| exp(-sigma H) / sigma meets tail."""
    largest = float(np.max(linalg._spectral_norms(rows[:, None])))
    coef = largest * sys.certificate.m * spectral_norm(sys.b)
    return tail_horizon(sys.certificate.sigma, coef, tail)


def _partition(sys, rows, budget, horizons, flow=None):
    """(roots, signed, unresolved, flow): _sign_partition on ``flow``, else on a
    new _KernelFlow of ``horizons``.  A caller has checked the cell budget
    (linalg._check_partition_cells) of every horizon but the L1 and
    positivity horizons first."""
    flow = _KernelFlow(sys, horizons) if flow is None else flow
    return (*_sign_partition(flow, rows, budget), flow)


def _sign_partition(flow: _KernelFlow, rows: np.ndarray, budget: float):
    """(roots, signed, unresolved) for the kernels g_i(s) = rows_i exp(As) b
    of the single-input system that ``flow`` was built from: roots[i] the
    increasing zeros of g_i, signed[j, i] the state integral of
    sgn(g_i(s)) exp(As) b over [0, flow.ends[j]], and unresolved[i] the
    certified worst-case loss left in row i.  The integral of |g_i| over
    [0, ends[j]] is rows_i @ signed[j, i].  The partition reads A, b, n and M
    from the flow alone, which _partition, its one caller, builds or is
    handed.  It walks blocks of 2^k cells, the most that fill a quarter
    stack, each from its lead exp(first w A) b, an orbit row.

    On a cell of width h, ||exp(At)|| <= G = min(M, exp(mu h)) (mu the
    logarithmic norm of A) bounds each derivative g_i^(k) within e_k =
    h^2 / 8 (max |g_i^(k+2)| at the ends + h^2 / 8 ||rows_i A^(k+4)|| G |x|)
    of its chord, x = exp(As) b at the cell's start.  So the cell holds no
    zero if g_i exceeds e_0 in one sign at both ends, and at most one if g_i'
    exceeds e_1 in one sign at both ends.  Any other cell can hide zeros
    costing 2 h e_0 (4 h e_0 across a sign change); it is halved until that
    fits its share of ``budget`` or it is 1e-6 of the horizon wide.  Between
    zeros exp(As) b integrates to the change of A^-1 exp(As) b.  The rows,
    like the flow's b, are divided by powers of two first, exactly, so the
    bounds' norms neither overflow nor underflow under B -> 2^k B,
    C -> 2^-k C.
    """
    q, count = rows.shape[0], flow.count
    t_end = float(flow.ends[-1])
    # A scaled row's loss times ``unscale`` is the row's own.
    row_scale = linalg._power_of_two_at(np.abs(rows).max(axis=1))
    rows, unscale = rows / row_scale[:, None], row_scale * flow.scale
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
            loss = np.where(clear, 0.0, width * e0 * np.where(flip, 4.0, 2.0)) * unscale
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
    return roots, flow.scale * signed, lost


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
    every row's zeros on [0, H], the partition's flow, None if H = 0) from
    one partition of C's rows and ``extra_rows`` to tol / 2, the other half
    split evenly across the rows' tails past H.  The SISO periodic figure
    |c (I - exp(AH))^-1 W_H| takes exp(AH) off the flow, and
    verify_gain_equality reads its bang-bang switches off the zeros and the flow."""
    if sys.m != 1:
        raise DimensionError("impulse-response integrals require a single input")
    rows = np.vstack((sys.c, extra_rows))
    q = rows.shape[0]
    horizon = _tail_horizon(sys, rows, (tol / 2.0) / q)
    ints, roots, lost, flow = np.zeros(q), [np.empty(0)] * q, np.zeros(q), None
    if horizon > 0.0:
        roots, signed, lost, flow = _partition(sys, rows, tol / 2.0, [horizon])
        ints = (signed[0] * rows).sum(axis=1)
    value = spectral_norm(ints[: sys.p])
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
    """Norm of the steady output under the worst constant unit input:
    gain_report's dc entry at its default tol (1e-8) and seed (0).

    Always a valid lower bound on the peak gain.  For single-input systems
    whose response kernel carries a positivity certificate (see
    positivity_certificate) the constant input is worst-case overall and the
    value is exact: to rounding under a structural certificate, and to
    1e-8 more under SIGN_PARTITION.
    """
    pos = positivity_certificate(sys) if sys.m == 1 else None
    return _dc_estimate(sys, pos, 1e-8)


def _dc_estimate(sys, pos, tol: float) -> GainEstimate:
    # The dc figure, exact when pos certifies positivity: to rounding by
    # structure, and to tol more by the report's partition, whose rows' tails
    # past its horizon go unchecked.
    value = float(spectral_norm(sys.c @ np.linalg.solve(sys.a, sys.b)))
    slack = tol if pos is PositivityCertificate.SIGN_PARTITION else 0.0
    kind, details = ("lower", None) if pos is None else ("exact", pos.value)
    return GainEstimate(value, kind, "dc", slack + 1e-12 * max(1.0, value), {"positivity": details})


def _positivity(sys, flags: StructureFlags, tol: float, seed: int, bounds: bool):
    """(positivity, l1, onb) for a single-input system: the one rule that
    decides positivity.  Structure first: symmetric negative definite A with
    identity output, or Metzler A with nonnegative B and C.  Else the report's
    own partition (_onb_bound at tol and seed) certifies SIGN_PARTITION when it
    ran (a horizon past 0) with no zero and nothing unresolved in any of C's
    rows.  l1 and onb are that partition's figures, None when structure
    decided and ``bounds`` did not ask for them."""
    pos = None
    if flags.assumption_h and np.array_equal(sys.c, np.eye(sys.n)):
        pos = PositivityCertificate.ASSUMPTION_H
    elif flags.metzler and flags.nonnegative_b and flags.nonnegative_c:
        pos = PositivityCertificate.METZLER_NONNEG
    if pos is not None and not bounds:
        return pos, None, None
    l1, onb = _onb_bound(sys, random_bases=4, tol=tol, seed=seed)
    d = l1.details
    if pos is None and d["horizon"] > 0.0 and d["unresolved_bound"] == 0.0 and not any(d["roots"]):
        pos = PositivityCertificate.SIGN_PARTITION
    return pos, l1, onb


def positivity_certificate(sys: StateSpaceSystem) -> PositivityCertificate | None:
    """Certify that each output's response kernel never changes sign:
    gain_report's positivity at its default tol (1e-8) and seed (0).

    Checked in order: symmetric negative definite A with identity output
    (exact, via the orthogonal diagonalization), Metzler A with nonnegative
    B and C (exact), neither of which runs a partition, and the report's
    sign partition: no row of C exp(As) b has a zero or an unresolved cell
    on the horizon past which the partitioned rows' integrals add up to
    within 5e-9 (so the DC value misses the L1 gain by at most 1e-8).  A
    horizon of 0 (the whole kernel within the tail) runs no partition, so
    proves nothing.  Returns None when nothing applies.
    """
    if sys.m != 1:
        raise DimensionError("positivity certificates require a single input")
    return _positivity(sys, structure_flags(sys), 1e-8, 0, bounds=False)[0]


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
    achieving the value: vcurve on the one horizon, so one output is exact
    and several outputs give the seeded ascent's lower estimate.
    """
    curve = vcurve(sys, [horizon], restarts, tol, seed)
    return float(curve.values[0]), curve.directions[0]


def _iterative_terminal_output(sys, horizons, restarts, tol, seed):
    # Each (start, horizon) pair alternates between the optimal input for its
    # output direction and realigning the direction with the terminal output
    # that input produces, at most 40 times.  The pairs run in lockstep: a
    # step is one call giving every live pair's terminal states at every
    # horizon (one input's sign partition of the kernels d'C exp(As) b, else
    # _aligned_states), each pair reading its own.  Each iterate is feasible,
    # so the best value per horizon is a lower estimate whatever it does.
    # Every step walks one flow to the last horizon (with several inputs, A's).
    end = horizons[-1]
    flow = _KernelFlow(sys, horizons) if sys.m == 1 else _grid_flow(sys.a, end, end)[0]
    draws = np.random.default_rng(seed).standard_normal((restarts, sys.p))
    starts = [*np.eye(sys.p), *(v / np.linalg.norm(v) for v in draws)]
    k, s = horizons.size, len(starts)
    horizon_of = np.repeat(np.arange(k), s)
    d = np.tile(starts, (k, 1))
    best, best_dir = np.zeros(k * s), np.tile(starts[0], (k * s, 1))
    last, live = np.full(k * s, -np.inf), np.arange(k * s)
    for _ in range(40):
        states = (_partition(sys, d[live] @ sys.c, tol, horizons, flow=flow)[1] if sys.m == 1
                  else _aligned_states(sys, flow, horizons, d[live], tol))
        y = states[horizon_of[live], np.arange(live.size)] @ sys.c.T
        value = linalg._spectral_norms(y[:, None])
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


def _aligned_states(sys, flow, horizons, dirs, tol):
    """The (k, q, n) terminal states at the k ``horizons`` under the input
    aligned with each of the q output directions ``dirs`` (several inputs):
    x(T) = int_0^T exp(Ar) B w_d(r) dr, r the time left, w_d = v_d / |v_d|
    (0 where v_d = B' exp(A'r) C'd vanishes), an integrand free of T.  So
    each grid interval is integrated once, to tol times its share of the last
    horizon, every direction a component of one refinement, and the states
    are the running sums; each node's exp(Ar) B comes once off ``flow``, A's."""
    rows = dirs @ sys.c

    def integrand(r: np.ndarray) -> np.ndarray:
        eb = flow.advance(sys.b, r)
        v = rows @ eb
        nv = linalg._spectral_norms(v.reshape(-1, 1, sys.m)).reshape(r.size, -1, 1)
        w = np.divide(v, nv, out=np.zeros_like(v), where=nv != 0.0)
        return (w @ np.swapaxes(eb, 1, 2)).reshape(r.size, -1)

    ends = np.concatenate(([0.0], horizons))
    parts = [gauss_legendre(integrand, a, b, tol * (b - a) / ends[-1]) for a, b in zip(ends, ends[1:])]
    return np.cumsum(parts, axis=0).reshape(horizons.size, *rows.shape)


class VCurve(Record):
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

    One output's V(T) is its norm integral of ||c exp(As) B|| on [0, T],
    off one sign partition with one input, else one _aligned_states call
    (a Gauss–Legendre pass per grid interval).  Several outputs run the
    ascent from the standard basis and ``restarts`` seeded directions at
    every horizon at once; each of its at most 40 steps is one such call,
    out to the largest horizon, for all starts and horizons, so a grid of
    any size costs at most 40 of them, as one horizon does.  The steps share
    one flow, whose matrix exponentials are formed once per curve: with one
    input a step adds only its rows' kernel values and the Newton polish of
    their zeros, neither of which forms one.
    Horizons must be finite, and the largest at most _MAX_GRID_STEPS / 2
    cells of 1 / ||A||_1.  The ascent's signed states, n entries per (start,
    horizon) pair at each of the k horizons, k^2 (p + restarts) n in all, may
    number at most _MAX_GRID_STEPS.
    """
    _checked_tol(tol)
    _checked_seed(restarts, "restarts")
    _checked_seed(seed)
    hs = np.asarray(list(horizons), dtype=float)
    if hs.size == 0 or not np.all((hs > 0) & (hs < math.inf)) or np.any(np.diff(hs) <= 0):
        raise ValueError("horizons must be finite, positive and strictly increasing")
    linalg._check_partition_cells(sys.a, hs[-1], "--t-max")
    if sys.p > 1:
        entries = hs.size**2 * (sys.p + restarts) * sys.n
        linalg._check_budget(entries, _MAX_GRID_STEPS, "ascent state entries", "--points")
        values, dirs = _iterative_terminal_output(sys, hs, restarts, tol, seed)
        return VCurve(hs, values, list(dirs), exact=False)
    if sys.m == 1:
        values = _partition(sys, sys.c, tol, hs)[1][:, 0] @ sys.c[0]
    else:
        x = _aligned_states(sys, _grid_flow(sys.a, hs[-1], hs[-1])[0], hs, np.ones((1, 1)), tol)
        values = linalg._spectral_norms(x @ sys.c.T)
    return VCurve(hs, values, [np.array([1.0])] * hs.size, exact=True)


def bang_bang_switches(sys: StateSpaceSystem, horizon: float) -> BangBangInput:
    """Optimal switching input for the terminal-output problem on [0, horizon].

    For a SISO system the optimizer of |y(horizon)| is u(s) = sgn of the
    kernel C exp(A (horizon - s)) B, with sgn(0) taken as +1: it switches at
    horizon - r for the kernel's certified zeros r, good to 1e-12.  A
    kernel that vanishes to the rounding of the data (_vanishes) yields the
    zero-input marker.  A horizon past the cell budget is refused.
    """
    if sys.m != 1 or sys.p != 1:
        raise DimensionError("bang-bang construction requires a SISO system")
    if not (0 < horizon < math.inf):
        raise ValueError("horizon must be finite and positive")
    linalg._check_partition_cells(sys.a, horizon, "--horizon")
    return _bang_bang_switches(sys, horizon)


def _bang_bang_switches(sys, horizon: float) -> BangBangInput:
    """bang_bang_switches past its argument checks and cell budget (verify checks its own horizon's)."""
    scale = max(spectral_norm(sys.c) * spectral_norm(sys.b), 1e-300)
    roots, _, _, flow = _partition(sys, sys.c, 1e-12 * scale, [horizon])
    return _bang_bang(sys, flow, roots[0], horizon)


def _vanishes(sys: StateSpaceSystem) -> bool:
    """Whether the SISO kernel c exp(As) b vanishes to the rounding of the
    data: whether each Markov parameter c A^k b, k < n (which fix the
    kernel, by Cayley-Hamilton), is within 4 (k + 1) n eps of its
    absolute-value bound |c| |A|^k |b|, the rounding scale of the data
    themselves, so a tiny kernel of exact data never counts.  Each step
    divides the Krylov vectors A^k b and |A|^k |b| by the power of two at the
    bound's largest entry, exactly, so neither leaves double range."""
    c = sys.c[0] / linalg._power_of_two_at(np.abs(sys.c).max())
    v, w, abs_a = sys.b[:, 0], np.abs(sys.b[:, 0]), np.abs(sys.a)
    for k in range(sys.n):
        scale = linalg._power_of_two_at(w.max())
        v, w = v / scale, w / scale
        if abs(c @ v) > 4 * (k + 1) * sys.n * 2.0**-52 * (abs(c) @ w):
            return False
        v, w = sys.a @ v, abs_a @ w
    return True


def _bang_bang(sys, flow: _KernelFlow, roots, horizon: float) -> BangBangInput:
    """bang_bang_switches's input on [0, horizon] from a partition of the
    kernel c exp(As) b on a flow reaching at least ``horizon``: ``roots`` its
    increasing zeros.  A kernel that _vanishes gets the zero-input marker."""
    zero = _vanishes(sys)
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
        scale = np.maximum(1.0, linalg._power_of_two_at(omega))
        shifted = 1j * (omega / scale)[:, None, None] * np.eye(sys.n) - sys.a / scale[:, None, None]
        g = (sys.c @ np.linalg.solve(shifted, sys.b[None]))[:, :, 0]
        unit = linalg._power_of_two_at(abs(g).max(axis=1))[:, None]  # |G|^2 stays in range
        re, im = g.real / unit, g.imag / unit
        squares = np.hypot((re * re - im * im).sum(axis=1), 2.0 * (re * im).sum(axis=1))
        psi = np.sqrt(0.5 * ((re * re + im * im).sum(axis=1) + squares))
        out[start : start + chunk] = psi * unit[:, 0] / scale
    return out


def _sinusoid_phi(sys: StateSpaceSystem, omega: float) -> tuple[float, float, float]:
    """phi(t) = Psi(e^t)^2 at t = ln omega and its first two derivatives in
    t, all three times one positive factor, from one inverse R of the
    resolvent on A / s and omega / s (s a power of two, as in sinusoid_sweep).

    With G' = -i C R^2 b and G'' = -2 C R^3 b in omega, dG/dt = omega G' and
    d^2G/dt^2 = omega G' + omega^2 G''; phi = (||G||^2 + |S|) / 2 with
    S = sum_k G_k^2, differentiated term by term (|S|' = Re(S* S') / |S|).
    """
    scale = max(1.0, float(linalg._power_of_two_at(omega)))
    w = omega / scale
    r = np.linalg.inv(1j * w * np.eye(sys.n) - sys.a / scale)
    x1 = r @ sys.b[:, 0]
    x2 = r @ x1
    # Columns G, dG/dt, d^2G/dt^2 (each times s), their products kept in range.
    steps = [[1.0, 0.0, 0.0], [0.0, -1j * w, -1j * w], [0.0, 0.0, -2.0 * w * w]]
    y = sys.c @ np.column_stack((x1, x2, r @ x2)) @ steps
    y /= linalg._power_of_two_at(np.abs(y).max())
    # h_jk = sum conj(y_j) y_k and q_jk = sum y_j y_k over the outputs, so
    # ||G||^2 = h_00 and S = q_00, S' = 2 q_01, S'' = 2 (q_02 + q_11).
    (h00, h01, h02), (_, h11, _) = (y.conj().T @ y)[:2].tolist()
    (q00, q01, q02), (_, q11, _) = (y.T @ y)[:2].tolist()
    size, size1, size2 = abs(q00), 0.0, 0.0
    if size > 0.0:
        size1 = 2.0 * (q00.conjugate() * q01).real / size
        size2 = (2.0 * (q00.conjugate() * (q02 + q11)).real + 4.0 * abs(q01) ** 2 - size1**2) / size
    return 0.5 * (h00.real + size), h01.real + 0.5 * size1, (h02 + h11).real + 0.5 * size2


# Bisection narrows the grid bracket (0.14 in ln omega on the default grid)
# below 1e-13 in 40 halvings.
_POLISH_STEPS = 40


def sinusoid_lower_bound(sys: StateSpaceSystem, omegas=None) -> GainEstimate:
    """Best sinusoid response over a frequency grid, then polished.

    A valid lower bound on the peak gain for every frequency; the returned
    value is the grid maximum (one sinusoid_sweep), improved by a
    safeguarded Newton iteration in t = ln omega inside the winning grid
    point's neighbours.  Each iterate reads phi(t) = Psi(e^t)^2, phi' and
    phi'' off _sinusoid_phi and narrows the bracket on the sign of phi'.
    The next iterate is Newton's for the minimum of 1/phi,
    t + phi phi' / (2 phi'^2 - phi phi''), where 1/phi is convex (so
    wherever phi'' < 0) and the point lands inside the bracket, else the
    bracket's midpoint.  On a lightly damped resonance 1/phi is nearly
    quadratic in t, so this lands near the peak from anywhere in the
    bracket, where phi itself is convex.  It stops when the model predicts
    a rise below rounding, when the bracket closes (at once, when the
    winner is a grid end and phi' points out of the grid) or after
    _POLISH_STEPS iterates.  The derivatives only steer: the value is the
    larger of the grid maximum and one sinusoid_sweep at the last iterate.
    """
    if omegas is None:
        omegas = np.logspace(-3.0, 3.0, 200)
    omegas = np.asarray(list(omegas), dtype=float)
    if omegas.size == 0 or np.any(omegas <= 0):
        raise ValueError("omegas must be positive")
    vals = sinusoid_sweep(sys, omegas)
    i_best = int(np.argmax(vals))
    best, best_omega = float(vals[i_best]), float(omegas[i_best])
    lo = math.log(omegas[max(0, i_best - 1)])
    hi = math.log(omegas[min(omegas.size - 1, i_best + 1)])
    t, omega = math.log(best_omega), best_omega
    if lo < hi and lo <= t <= hi:
        for _ in range(_POLISH_STEPS):
            phi, d1, d2 = _sinusoid_phi(sys, omega)
            lo, hi = (t, hi) if d1 > 0.0 else (lo, t)
            # phi^3 (1/phi)''; the model's rise is phi'^2 / (2 curve) relative.
            curve = 2.0 * d1 * d1 - phi * d2
            if curve > 0.0 and d1 * d1 <= 2.0 * curve * 2.0**-52:
                break
            step = t + d1 * phi / curve if curve > 0.0 else math.nan
            t_next = step if lo < step < hi else 0.5 * (lo + hi)
            if not lo < t_next < hi:
                break
            t, omega = t_next, math.exp(t_next)
        if omega != best_omega:
            value = float(sinusoid_sweep(sys, [omega])[0])
            if value > best:
                best, best_omega = value, omega
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
    values = [l1.value, *linalg._spectral_norms(ints.reshape(-1, 1, sys.p)).tolist()]
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
    default = [2.0**k / sys.certificate.sigma for k in range(-2, 7)]
    horizons = np.asarray(list(default if t_grid is None else t_grid), dtype=float)
    if horizons.size == 0 or not np.all((horizons > 0) & (horizons < math.inf)):
        raise ValueError("t_grid must contain finite positive periods")
    linalg._check_partition_cells(sys.a, horizons.max(), "t_grid")
    values = []
    for t_per in horizons:
        flow = _KernelFlow(sys, [t_per])
        cmod = np.linalg.solve((flow.exp_end - np.eye(sys.n)).T, sys.c.T).T
        values.append(float(_partition(sys, cmod, tol, [t_per], flow=flow)[1][0, 0] @ cmod[0]))
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


class CertificateBoundInput(Record):
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


def certificate_cell_value(
    m_const: float, sigma: float, b_samples: np.ndarray, horizon: float
) -> float | None:
    """Bound contributed by one (M, sigma, T) cell: the largest
    M exp(-sigma t_k) b(T) / (1 - M exp(-sigma T)) + b_k over t_k < T, b the
    right-open step envelope (b_0 below t_0; -inf with no t_k < T), or None
    when T is too short for the decay to contract (M exp(-sigma T) >= 1)."""
    decay_t = m_const * math.exp(-sigma * horizon)
    if decay_t >= 1.0:
        return None
    times, levels = b_samples.T
    before = times < horizon
    b_t = levels[max(np.count_nonzero(times <= horizon) - 1, 0)]
    cands = m_const * np.exp(-sigma * times[before]) * b_t / (1.0 - decay_t) + levels[before]
    return float(cands.max(initial=-math.inf))


def certificate_gain_bound(data: CertificateBoundInput) -> GainEstimate:
    """Gain upper bound from decay certificates and a robustness envelope.

    Minimizes over certificate/horizon cells with M exp(-sigma T) < 1 the
    split-at-T bound max over t_k < T of M exp(-sigma t_k) b(T) / (1 - M exp(-sigma T)) + b_k,
    falling back to the envelope supremum (itself always a valid bound) when
    that is smaller.  Cell values are reported in the details for audit.
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


class GainReport(Record):
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
    bound's drawn bases: a partition that ran (a horizon past 0) with no zero
    and nothing unresolved in any of C's rows certifies SIGN_PARTITION, and
    as each of their tails is within tol / (2p) the dc value is then exact
    to tol (plus 1e-12 relative).
    ConsistencyError is raised if any lower or exact figure exceeds any
    upper or exact one beyond their combined tolerances.
    """
    _checked_tol(tol)
    _checked_seed(seed)
    flags = structure_flags(sys)
    pos, l1, uppers = None, None, []
    if sys.m == 1:
        pos, l1, onb = _positivity(sys, flags, tol, seed, bounds=sys.p > 1)
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
