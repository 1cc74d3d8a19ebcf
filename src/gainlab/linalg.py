"""Dense real-matrix primitives and stability machinery.

Everything downstream (gain estimates, simulation, delay bounds) is built on
the handful of operations in this module: the one flow object _Flow (exp(t M)
by a ladder of powers exp(2^i c M), formed by scaling and squaring, and the
Taylor series of a cell c, one stack of scaled powers read by one product),
whose cells every Taylor flow sizes by one rule, ||c M||_1 <= 1
(_partition_cells), and whose top power is mat_exp; every size limit, with
the one check that refuses a request past it (_check_budget); a
Kronecker-product Lyapunov solver; and the decay certificate (M, sigma) read
off its solution.  Positive-definiteness probes, symmetric
eigendecompositions and spectral norms go to LAPACK through numpy.linalg, on
float64 ndarrays.  Two helpers here are the package's only range-keeping
scale and norm: the exact power-of-two scale _power_of_two_at and the norm
built on it, _spectral_norms (Blue, ACM TOMS 1978), whose squares do not
overflow.  StabilityCertificate and StructureFlags are immutable records
(_record.Record, not dataclasses: a changed copy is
type(r)(**{**vars(r), name: value})); StateSpaceSystem is a plain class,
equal only to itself.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from ._record import Record
from .exceptions import DimensionError, LyapunovSolveError, NotHurwitzError

__all__ = [
    "as_matrix",
    "mat_exp",
    "lyapunov_solve",
    "is_hurwitz",
    "spectral_norm",
    "StabilityCertificate",
    "stability_certificate",
    "StructureFlags",
    "structure_flags",
    "StateSpaceSystem",
]

# Coefficients of the degree-13 diagonal Pade approximant to exp, ordered by
# ascending power, and the largest scaled norm at which it is accurate to
# double precision (Higham, SIAM J. Matrix Anal. Appl. 26, 2005).
_PADE13 = (
    64764752532480000.0,
    32382376266240000.0,
    7771770303897600.0,
    1187353796428800.0,
    129060195264000.0,
    10559470521600.0,
    670442572800.0,
    33522128640.0,
    1323241920.0,
    40840800.0,
    960960.0,
    16380.0,
    182.0,
    1.0,
)
_PADE13_THETA = 5.371920351148152
# Entries a batched intermediate holds (orbit rows, an array advance's
# Taylor terms, rescaled resolvents), about 0.5 MB of float64.
_STACK_ENTRIES = 65536
# Every size limit, each refused by _check_budget before the work it bounds.
# _MAX_GRID_STEPS caps a simulation grid, a delay history and the ascent's
# state entries, and half of it a caller horizon's _partition_cells:
# verify's 40,960 steps are the most any command takes by default, a million
# steps simulate in about 0.2 s, and the cap bounds memory (ten million
# states of n floats) and CSV size.  _MAX_DELAY_WORK caps the stored rows
# n_steps (N + 1) that a delay simulation's windowed trapezoid sum over an
# N-step history reads; every grid of _MAX_GRID_STEPS steps at the default
# step tau / 64 fits.  _MAX_POINTS caps a vt or sweep grid, about 125 bytes
# a point.
_MAX_GRID_STEPS = 10**7
_MAX_DELAY_WORK = 65 * _MAX_GRID_STEPS
_MAX_POINTS = 10**6
# A walk on cells 1 / ||G||_1 keeps a decay rate sigma, and so its states,
# only to about 3 eps ||G||_1 / sigma relative (4.6e-6 at ||G||_1 / sigma =
# 6.7e9; the states of A = diag(-1e10, -1) under u = 1 were 2.4e-6 off at
# t = 5): _check_stiffness refuses a stiffer generator.
_MAX_STIFFNESS = 10**9
# A cell flow's Taylor series stops at its (c M)^18 / 18! term: with
# ||c M||_1 <= 1 the terms left out are below 8.7e-18 relative.
_CELL_TERMS = 19
_CELL_DEGREES = np.arange(_CELL_TERMS - 1, -1, -1)


def _check_budget(need, limit: int, what: str, flags: str) -> None:
    """Raises ValueError, naming the count, ``what`` it counts, the limit and
    the command-line ``flags`` that set it, when ``need``, rounded to a whole
    count (a float ratio, or inf), exceeds ``limit``."""
    if need >= limit + 0.5:
        raise ValueError(f"{need:.10g} {what} exceeds the limit of {limit} ({flags})")


def _check_stiffness(g: np.ndarray, sigma: float, what: str, symbol: str, note: str) -> None:
    """Raises ValueError when ||g||_1 / sigma exceeds _MAX_STIFFNESS, naming
    ``what`` the walk simulates, its generator's ``symbol``, the ratio and
    the limit, then ``note``."""
    stiffness = float(np.linalg.norm(g, 1)) / sigma
    if stiffness > _MAX_STIFFNESS:
        raise ValueError(
            f"the {what} is too stiff to simulate: ||{symbol}||_1 / sigma = {stiffness:.4g} "
            f"exceeds {_MAX_STIFFNESS:g}{note}"
        )


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a finite 2-d float64 array."""
    arr = np.array(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise DimensionError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _pade13(m: np.ndarray) -> np.ndarray:
    """The degree-13 Pade approximant to exp of a scaled matrix or stack."""
    ident = np.eye(m.shape[-1])
    b = _PADE13
    m2 = m @ m
    m4 = m2 @ m2
    m6 = m2 @ m4
    u = m @ (
        m6 @ (b[13] * m6 + b[11] * m4 + b[9] * m2)
        + b[7] * m6
        + b[5] * m4
        + b[3] * m2
        + b[1] * ident
    )
    v = (
        m6 @ (b[12] * m6 + b[10] * m4 + b[8] * m2)
        + b[6] * m6
        + b[4] * m4
        + b[2] * m2
        + b[0] * ident
    )
    return np.linalg.solve(v - u, v + u)


def _orbit(powers: np.ndarray | list[np.ndarray], v: np.ndarray, count: int) -> np.ndarray:
    """exp(j step a) v for j = 0..count-1, stacked along a new first axis:
    ``v`` one vector, giving (count, n), or an (n, k) matrix whose columns
    each walk the orbit, giving (count, n, k).

    ``powers`` holds exp(2^i step a) for i = 0, 1, ..., at least
    (count - 1).bit_length() of them (a _Flow's powers), so callers that
    walk one orbit in many pieces form them once.  Row j is the
    product of the powers named by the binary digits of j: each power
    doubles the rows filled, so no row carries more than log2(count)
    products.
    """
    k = v.size // v.shape[0]  # v's columns, one for a vector
    out = np.empty((count * k, v.shape[0]))
    out[:k] = v.T.reshape(k, -1)
    filled = 1
    for power in powers[: (count - 1).bit_length()]:
        take = min(filled, count - filled)
        np.matmul(out[: take * k], power.T, out=out[filled * k : (filled + take) * k])
        filled += take
    return out.reshape(count, *v.T.shape).swapaxes(1, -1)


def _cell_stack(m: np.ndarray) -> np.ndarray:
    """The (n, 19 n) stack [(m^18 / 18!)', ..., (m / 1!)', I] of an (n, n)
    matrix m = c M, the flow of M over a cell c with ||c M||_1 <= 1.

    Term k has 1-norm at most 1 / k!, so no entry can overflow.
    _cell_flow reads exp(s c M) x off it for any s in [-1, 1].
    """
    n = m.shape[0]
    terms = np.empty((_CELL_TERMS, n, n))
    terms[-1] = np.eye(n)
    for k in range(1, _CELL_TERMS):
        terms[-1 - k] = terms[-k] @ m / k
    return terms.transpose(2, 0, 1).reshape(n, -1)


def _cell_flow(stack: np.ndarray, s, x: np.ndarray) -> np.ndarray:
    """exp(s c M) x from ``stack`` = _cell_stack(c M): ``x`` one vector or
    rows x_k, ``s`` a scalar or one s_k per row, each in [-1, 1].  One
    product x @ stack gives every term (c M)^k x / k!, and one sum weights
    them by s^k."""
    terms = (x @ stack).reshape(*x.shape[:-1], _CELL_TERMS, stack.shape[0])
    weights = np.asarray(s, dtype=float)[..., None, None] ** _CELL_DEGREES
    return (weights @ terms)[..., 0, :]


def _closed_form_rows(m: np.ndarray, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, values): the rows of an autonomous tail of M, and those rows of
    exp(t M) at each of ``times``, a (times, rows, n) array.  A zero row of M
    is a unit row of exp(t M), and a trailing [[0, w], [-w, 0]] block with
    zero rows to its left is the rotation [[cos wt, sin wt], [-sin wt, cos wt]]."""
    n = m.shape[0]
    rows = np.flatnonzero(~m.any(axis=1))
    values = np.zeros((times.size, rows.size + 2, n))
    values[:, np.arange(rows.size), rows] = 1.0
    w = m[-2, -1] if n > 1 else 0.0
    if w == 0.0 or m[-2:, :-2].any() or m[-2, -2] or m[-1, -1] or m[-1, -2] != -w:
        return rows, values[:, :-2]
    cos, sin = np.cos(w * times), np.sin(w * times)
    values[:, -2, -2:] = np.stack((cos, sin), axis=1)
    values[:, -1, -2:] = np.stack((-sin, cos), axis=1)
    return np.append(rows, (n - 2, n - 1)), values


class _Flow:
    """The flow exp(t M) of a square M for 0 <= t <= ``end`` on cells of
    width ``cell`` (||cell M||_1 <= 1 for its Taylor stack), walked by the
    gains partition, the simulator and the delay kernels alike: the powers
    exp(2^i cell M) for 2^i up to end / cell cells, and the cell's Taylor
    ``stack``, formed on first use (a flow walked only on multiples of its
    cell never forms it).

    The powers are the package's one scaling and squaring: one stack of
    degree-13 Pade approximants gives level 0 and every level of 1-norm
    within _PADE13_THETA, and each level past it is the square of the level
    below.  The _closed_form_rows of M (a walk's constant or sinusoidal
    input state) are reset to their closed form at every level before it is
    squared: each squaring doubles a level's relative rounding, and after
    the 990 squarings of one stiff step a constant input's 1, which the Pade
    approximant gives as 1 - 2^-53, had become 0.  So a zero M gives the
    identity exactly.  A power that overflows raises OverflowError."""

    def __init__(self, matrix: np.ndarray, cell: float, end: float):
        self.matrix, self.cell = matrix, cell
        cells = int(end / cell + 0.5)
        times = cell * 2.0 ** np.arange(cells.bit_length())
        levels = matrix * times[:, None, None]
        norms = abs(levels).sum(axis=-2).max(axis=-1)  # each level's 1-norm
        direct = max(1, int(np.count_nonzero(norms <= _PADE13_THETA)))
        self.powers = np.concatenate((_pade13(levels[:direct]), levels[direct:]))
        rows, exact = _closed_form_rows(matrix, times)
        self.powers[:direct, rows] = exact[:direct]
        with np.errstate(over="ignore", invalid="ignore"):
            for i in range(direct, len(levels)):
                np.matmul(self.powers[i - 1], self.powers[i - 1], out=self.powers[i])
                self.powers[i, rows] = exact[i]
        if not np.isfinite(self.powers).all():
            raise OverflowError("matrix exponential overflowed double precision")

    @cached_property
    def stack(self) -> np.ndarray:
        return _cell_stack(self.matrix * self.cell)

    def taylor(self, s, x: np.ndarray) -> np.ndarray:
        """exp(s cell M) x by _cell_flow, for s in [-1, 1] (or one s per row of x)."""
        return _cell_flow(self.stack, s, x)

    def ladder(self, cells: int, z: np.ndarray) -> np.ndarray:
        """exp(cells cell M) z for a whole number of cells (z = I gives the
        matrix): the powers named by the binary digits of ``cells``, lowest first."""
        for i in range(cells.bit_length()):
            if cells >> i & 1:
                z = self.powers[i] @ z
        return z

    def advance(self, z: np.ndarray, t) -> np.ndarray:
        """exp(t M) z for 0 <= t <= end, ``z`` one vector or an (n, k) matrix
        of columns: the ladder of t // cell, then one Taylor product over the
        remainder.  A 1-d ndarray of times stacks the results on a new first
        axis: one masked product per binary digit of t // cell, then Taylor
        products in blocks of at most _STACK_ENTRIES terms, each time's
        columns taken as rows."""
        if not isinstance(t, np.ndarray):
            cells, rest = divmod(t, self.cell)
            z = self.ladder(int(cells), z)
            return self.taylor(rest / self.cell, z.T).T if rest else z
        cells, rest = np.divmod(t, self.cell)
        cells, rows = cells.astype(np.int64), np.repeat(z.T[None], cells.size, axis=0)
        for i in range(int(cells.max(initial=0)).bit_length()):
            on = (cells >> i & 1).astype(bool)
            rows[on] = rows[on] @ self.powers[i].T
        if rest.any():
            s = (rest / self.cell).reshape(-1, *(1,) * (z.ndim - 1))
            block = max(1, _STACK_ENTRIES // (_CELL_TERMS * z.size))
            for lo in range(0, cells.size, block):
                rows[lo : lo + block] = self.taylor(s[lo : lo + block], rows[lo : lo + block])
        return rows.swapaxes(1, -1)

    def orbit(self, z: np.ndarray, count: int, level: int = 0) -> np.ndarray:
        """_orbit of ``z`` over ``count`` strides of 2^level cells."""
        return _orbit(self.powers[level:], z, count)

    def row_orbit(self, r: np.ndarray, count: int, level: int = 0) -> np.ndarray:
        """r exp(j stride M) for j = 0..count-1 as a (count, n) array, the
        stride 2^level cells: the _orbit of the row ``r`` over the transposed
        powers, so a caller reading one row of many orbits walks one."""
        return _orbit(self.powers[level:].transpose(0, 2, 1), r, count)


def _partition_cells(a: np.ndarray, horizon: float) -> int | float:
    """Cells of 1 / ||A||_1 covering [0, horizon], at least one (inf past
    the float range): ||w A||_1 <= 1 on a cell w, where a _Flow's Taylor
    stack is exact to 8.7e-18 relative."""
    cells = float(abs(a).sum(axis=0).max()) * float(horizon)  # ||A||_1 * horizon
    return max(1, math.ceil(cells)) if cells < math.inf else cells


def _check_partition_cells(a: np.ndarray, horizon: float, flag: str) -> None:
    """_check_budget of the _partition_cells of ``horizon``, at most
    _MAX_GRID_STEPS / 2, naming the command-line ``flag`` that set it."""
    what = f"partition cells for horizon {horizon:.4g}"
    _check_budget(_partition_cells(a, horizon), _MAX_GRID_STEPS // 2, what, flag)


def _grid_flow(matrix: np.ndarray, h: float, end: float) -> tuple[_Flow, int]:
    """(flow, j): the _Flow of M to ``end`` on cells h / 2^j, j the least with
    _partition_cells(M, h) <= 2^j, so that a grid of step h is its orbit at level j."""
    j = int(_partition_cells(matrix, h) - 1).bit_length()
    return _Flow(matrix, h / 2.0**j, end), j


def _power_of_two_at(largest):
    """2^(e - 1) where 2^(e - 1) <= largest < 2^e (1/2 at 0), elementwise:
    dividing by it is exact, and leaves the largest entry in [1, 2)."""
    return np.ldexp(1.0, np.frexp(largest)[1] - 1)


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a (k, rows, cols) stack, k >= 0,
    the Euclidean norm for a row or column, each matrix divided first by the
    power of two at its largest entry, exactly, so that no square overflows."""
    k, rows, cols = stack.shape
    # The entries run down axis 0, so the max is one long reduction, not k short ones.
    entries = np.abs(stack.reshape(k, rows * cols).T, order="C")
    scale = _power_of_two_at(entries.max(axis=0, initial=0.0))
    order = None if 1 in (rows, cols) else 2
    return scale * np.linalg.norm(stack / scale[:, None, None], order, axis=(1, 2))


def mat_exp(a, t: float) -> np.ndarray:
    """Evaluate exp(a * t) for a square matrix ``a`` and time ``t >= 0``:
    the top power of the _grid_flow of one step t.

    Raises OverflowError when the result leaves the representable range
    (possible despite Hurwitz ``a`` for intermediate scalings of huge norm).
    """
    arr = as_matrix(a, "a")
    if arr.shape[0] != arr.shape[1]:
        raise DimensionError(f"a must be square, got shape {arr.shape}")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return _grid_flow(arr, t, t)[0].powers[-1] if t else np.eye(arr.shape[0])


def _lyapunov_operator(a: np.ndarray) -> np.ndarray:
    """I kron A' + A' kron I, the matrix of P -> A'P + PA on column-stacked P,
    by index assignment: entry (i n + k, j n + l) is row (i, k, j, l) of an
    (n, n, n, n) array, A'[k, l] where i = j plus A'[i, j] where k = l."""
    n = a.shape[0]
    k, i = np.zeros((n, n, n, n)), np.arange(n)
    k[i, :, i, :] = a.T
    k[:, i, :, i] += a.T
    return k.reshape(n * n, n * n)


def lyapunov_solve(a, q) -> np.ndarray:
    """Solve A'P + PA = -Q for symmetric P via Kronecker vectorization.

    The n^2-by-n^2 linear system is singular exactly when A has a pair of
    eigenvalues summing to zero; that case, and any solve whose residual is
    inconsistent with the conditioning of the data, raises LyapunovSolveError.
    """
    a = as_matrix(a, "a")
    q = as_matrix(q, "q")
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n):
        raise DimensionError("a and q must be square matrices of equal size")
    try:
        vec_p = np.linalg.solve(_lyapunov_operator(a), -q.reshape(-1, order="F"))
    except np.linalg.LinAlgError as exc:
        raise LyapunovSolveError(f"Lyapunov equation not solvable: {exc}") from exc
    p = vec_p.reshape((n, n), order="F")
    p = 0.5 * (p + p.T)
    # Frobenius norms, each the Euclidean norm of the flattened matrix, so
    # that no square leaves double range; the product in Python floats.
    norms = _spectral_norms(np.stack((a.T @ p + p @ a + q, a, p, q)).reshape(4, 1, -1))
    residual, norm_a, norm_p, norm_q = map(float, norms)
    scale = norm_a * norm_p + norm_q
    if not np.isfinite(residual) or residual > 1e-10 * max(scale, 1e-300):
        raise LyapunovSolveError(
            f"Lyapunov solve residual {residual:.3e} exceeds 1e-10 * {scale:.3e}"
        )
    return p


def _cholesky_positive_definite(p: np.ndarray) -> bool:
    """Cholesky factorization probe with a trace-relative pivot floor."""
    try:
        l = np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        return False
    return bool(np.all(np.diag(l) ** 2 > 1e-12 * max(np.trace(p), 0.0)))


def is_hurwitz(a) -> bool:
    """Whether every eigenvalue of ``a`` has negative real part.

    Decided without a nonsymmetric eigensolver: A is Hurwitz iff A'P + PA = -I
    admits a symmetric positive definite solution P, that is iff
    stability_certificate(a) succeeds.
    """
    try:
        stability_certificate(a)
    except NotHurwitzError:
        return False
    return True


def spectral_norm(m) -> float:
    """Largest singular value of ``m`` (Euclidean norm for vector shapes)."""
    return float(_spectral_norms(np.atleast_2d(np.asarray(m, dtype=float))[None])[0])


class StabilityCertificate(Record):
    """Decay envelope ||exp(A t)|| <= M exp(-sigma t) from a Lyapunov solution.

    P solves A'P + PA = -I; M = sqrt(lmax(P)/lmin(P)) and
    sigma = 1 / (2 lmax(P)).
    """

    p: np.ndarray
    m: float
    sigma: float

    def __post_init__(self) -> None:
        if self.m < 1.0 - 1e-12:
            raise ValueError(f"certificate constant M={self.m} must be >= 1")
        if self.sigma <= 0.0:
            raise ValueError(f"certificate rate sigma={self.sigma} must be > 0")


def stability_certificate(a) -> StabilityCertificate:
    """Build the Lyapunov decay certificate for a Hurwitz matrix.

    Raises NotHurwitzError when no positive definite Lyapunov solution exists.
    """
    a = as_matrix(a, "a")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"a must be square, got shape {a.shape}")
    try:
        p = lyapunov_solve(a, np.eye(a.shape[0]))
    except LyapunovSolveError as exc:
        raise NotHurwitzError(f"matrix is not Hurwitz: {exc}") from exc
    if not _cholesky_positive_definite(p):
        raise NotHurwitzError("matrix is not Hurwitz: Lyapunov solution not positive definite")
    w = np.linalg.eigh(p)[0]
    lmin, lmax = float(w[0]), float(w[-1])
    if lmin <= 0.0:
        raise NotHurwitzError("matrix is not Hurwitz: Lyapunov solution not positive definite")
    return StabilityCertificate(p=p, m=math.sqrt(lmax / lmin), sigma=1.0 / (2.0 * lmax))


class StructureFlags(Record):
    """Sign/symmetry structure of a system that certifies exact gain formulas."""

    metzler: bool
    nonnegative_b: bool
    nonnegative_c: bool
    assumption_h: bool


def structure_flags(sys: "StateSpaceSystem") -> StructureFlags:
    """Detect Metzler/nonnegativity structure and symmetric negative
    definiteness of the state matrix, by exact sign and symmetry tests.

    A system's A is Hurwitz, and a symmetric Hurwitz matrix is negative
    definite, so assumption_h is exact symmetry of A.
    """
    a, b, c = sys.a, sys.b, sys.c
    off = a - np.diag(np.diag(a))
    return StructureFlags(
        metzler=bool(np.all(off >= 0.0)),
        nonnegative_b=bool(np.all(b >= 0.0)),
        nonnegative_c=bool(np.all(c >= 0.0)),
        assumption_h=bool(np.array_equal(a, a.T)),
    )


class StateSpaceSystem:
    """Strictly causal LTI system  x' = A x + B u,  y = C x  with Hurwitz A.

    Dimensions: A is n-by-n, B is n-by-m, C is p-by-n.  The constructor
    rejects non-Hurwitz state matrices; the decay certificate it builds to
    decide that (one Lyapunov solve) is kept as ``certificate``.  Two
    systems are equal only if they are the same object.
    """

    def __init__(self, a, b, c) -> None:
        self.a = as_matrix(a, "A")
        self.b = as_matrix(b, "B")
        self.c = as_matrix(c, "C")
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise DimensionError(f"A must be square, got shape {self.a.shape}")
        if self.b.shape[0] != n:
            raise DimensionError(
                f"B must have {n} rows to match A, got shape {self.b.shape}"
            )
        if self.c.shape[1] != n:
            raise DimensionError(
                f"C must have {n} columns to match A, got shape {self.c.shape}"
            )
        try:
            self.certificate = stability_certificate(self.a)
        except NotHurwitzError as exc:
            raise NotHurwitzError("A is not Hurwitz") from exc
        for arr in (self.a, self.b, self.c):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]
