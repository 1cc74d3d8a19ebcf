"""Dense real-matrix primitives and stability machinery.

Everything downstream (gain estimates, simulation, delay bounds) is built on
the handful of operations in this module: a scaling-and-squaring matrix
exponential, the one flow object _Flow (exp(t M) by a ladder of powers
exp(2^i c M) over cells c with ||c M||_1 <= 1/2, and the Taylor series of a
cell, one stack of scaled powers read by one product), a Kronecker-product
Lyapunov solver, and the decay certificate (M, sigma) read off its
solution.  Positive-definiteness probes, symmetric eigendecompositions and
spectral norms go to LAPACK through numpy.linalg.  Matrices are plain
float64 ndarrays throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DimensionError, LyapunovSolveError, NotHurwitzError

__all__ = [
    "as_matrix",
    "mat_exp",
    "lyapunov_solve",
    "is_hurwitz",
    "symmetric_eigen",
    "spectral_norm",
    "StabilityCertificate",
    "stability_certificate",
    "AssumptionH",
    "StructureFlags",
    "structure_flags",
    "StateSpaceSystem",
]

# Coefficients of the degree-13 diagonal Pade approximant to exp, ordered by
# ascending power, and the largest scaled norm at which it is accurate to
# double precision.
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
# Matrix entries per stack handed to _expm by _expm_times: k = 65536 // n^2
# matrices of n-by-n, about 0.5 MB per intermediate.
_STACK_ENTRIES = 65536
# Largest simulation grid, and the most base cells a terminal-output
# partition may cut a caller's horizon into.  verify's 40,960 steps are the
# most any command takes by default; a million steps simulate in about 0.2 s.
# The cap bounds memory (ten million states of n floats) and CSV size.
_MAX_GRID_STEPS = 10**7
# A cell flow's Taylor series stops at its (c M)^18 / 18! term: with
# ||c M||_1 <= 1/2 the terms left out are below 1e-21 relative.
_CELL_TERMS = 19
_CELL_DEGREES = np.arange(_CELL_TERMS - 1, -1, -1)


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


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling and squaring with the degree-13 Pade approximant.

    ``m`` is one (n, n) matrix or a (k, n, n) stack; a stack is exponentiated
    matrix by matrix in one pass of broadcast products and solves, and one
    matrix is handled as a stack of one.  Each matrix gets its own scaling
    count from its own 1-norm, a zero matrix maps to the identity exactly,
    and only the matrices that were scaled are squared back.
    """
    if m.ndim == 2:
        return _expm(m[None])[0]
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(m, 1, axis=(-2, -1)).tolist()
        counts = [_squarings(x) for x in norms]
        top = max(counts, default=0)
        # Square a contiguous tail per level: order by ascending count, unless
        # all counts are equal (always so for one matrix).
        if min(counts, default=0) == top:
            order, starts = None, [0] * top
            result = _pade13(m / 2.0**top)
        else:
            order = np.argsort(counts, kind="stable")
            squarings = np.array(counts)[order]
            starts = np.searchsorted(squarings, np.arange(top), side="right")
            result = _pade13(m[order] / (2.0**squarings)[:, None, None])
        for start in starts:
            tail = result[start:]
            tail[...] = tail @ tail
        if order is not None:
            result = result[np.argsort(order)]
        if 0.0 in norms:
            result[np.equal(norms, 0.0)] = np.eye(m.shape[-1])
    if not np.all(np.isfinite(result)):
        raise OverflowError("matrix exponential overflowed double precision")
    return result


def _squarings(norm: float) -> int:
    """Squarings that bring a matrix of 1-norm ``norm`` into the range
    where the degree-13 Pade approximant is accurate to double precision."""
    if norm > _PADE13_THETA:
        return max(0, int(math.ceil(math.log2(norm / _PADE13_THETA))))
    return 0


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


def _expm_stack(a: np.ndarray, s) -> np.ndarray:
    """exp(s_k a) for every entry s_k of ``s``, as one (k, n, n) _expm stack."""
    return _expm(a * np.asarray(s, dtype=float).reshape(-1)[:, None, None])


def _expm_times(a: np.ndarray, s, b: np.ndarray) -> np.ndarray:
    """exp(s_k a) @ b for every entry s_k of ``s``, as a (k, n, m) array.

    The exponentials are formed in stacks of at most _STACK_ENTRIES // n^2
    matrices: peak memory does not grow with k, and larger stacks ran
    slower than one matrix at a time once n reached a few tens.
    """
    s = np.asarray(s, dtype=float).reshape(-1)
    n = a.shape[0]
    chunk = max(1, _STACK_ENTRIES // (n * n))
    out = np.empty((s.size, n, b.shape[1]))
    for start in range(0, s.size, chunk):
        out[start : start + chunk] = _expm_stack(a, s[start : start + chunk]) @ b
    return out


def _orbit(powers: np.ndarray | list[np.ndarray], v: np.ndarray, count: int) -> np.ndarray:
    """exp(j step a) v for j = 0..count-1, stacked along a new first axis:
    ``v`` one vector, giving (count, n), or an (n, k) matrix whose columns
    each walk the orbit, giving (count, n, k).

    ``powers`` holds exp(2^i step a) for i = 0, 1, ..., at least
    (count - 1).bit_length() of them (one _expm_stack of step * 2^i), so
    callers that walk one orbit in many pieces form them once.  Row j is the
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
        out[filled * k : (filled + take) * k] = out[: take * k] @ power.T
        filled += take
    return out.reshape(count, *v.T.shape).swapaxes(1, -1)


def _cell_stack(m: np.ndarray) -> np.ndarray:
    """The (n, 19 n) stack [(m^18 / 18!)', ..., (m / 1!)', I] of an (n, n)
    matrix m = c M, the flow of M over a cell c with ||c M||_1 <= 1/2.

    Term k has 1-norm at most 2^-k / k!, so no entry can overflow.
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


class _Flow:
    """The flow exp(t M) of a square M for 0 <= t <= ``end`` on cells of
    width ``cell``, ||cell M||_1 <= 1/2 (the caller's choice), walked by the
    gains partition, the simulator and the delay kernels alike: the powers
    exp(2^i cell M) for 2^i up to end / cell cells, in one _expm_stack, and
    the cell's Taylor ``stack``, formed on first use (a flow walked only on
    multiples of its cell never forms it)."""

    def __init__(self, matrix: np.ndarray, cell: float, end: float):
        self.matrix, self.cell = matrix, cell
        cells = int(end / cell + 0.5)
        self.powers = _expm_stack(matrix, cell * 2.0 ** np.arange(cells.bit_length()))

    @cached_property
    def stack(self) -> np.ndarray:
        return _cell_stack(self.matrix * self.cell)

    def taylor(self, s, x: np.ndarray) -> np.ndarray:
        """exp(s cell M) x by _cell_flow, for s in [-1, 1] (or one s per row of x)."""
        return _cell_flow(self.stack, s, x)

    def advance(self, z: np.ndarray, t: float) -> np.ndarray:
        """exp(t M) z for 0 <= t <= end, ``z`` one vector: the powers named
        by the binary digits of t // cell, lowest first, then one Taylor
        product over the remainder."""
        cells, rest = divmod(t, self.cell)
        cells = int(cells)
        for i in range(cells.bit_length()):
            if cells >> i & 1:
                z = self.powers[i] @ z
        return self.taylor(rest / self.cell, z) if rest else z

    def orbit(self, z: np.ndarray, count: int, level: int = 0) -> np.ndarray:
        """_orbit of ``z`` over ``count`` strides of 2^level cells."""
        return _orbit(self.powers[level:], z, count)

    def row_orbit(self, r: np.ndarray, count: int, level: int = 0) -> np.ndarray:
        """r exp(j stride M) for j = 0..count-1 as a (count, n) array, the
        stride 2^level cells: the _orbit of the row ``r`` over the transposed
        powers, so a caller reading one row of many orbits walks one."""
        return _orbit(self.powers[level:].transpose(0, 2, 1), r, count)


def _grid_flow(matrix: np.ndarray, h: float, end: float) -> tuple[_Flow, int]:
    """(flow, j): the _Flow of M to ``end`` on cells h / 2^j, j the least with
    ||(h / 2^j) M||_1 <= 1/2, so that a grid of step h is its orbit at level j."""
    j = math.ceil(math.log2(max(1.0, 2.0 * float(np.linalg.norm(matrix, 1)) * h)))
    return _Flow(matrix, h / 2.0**j, end), j


def _spectral_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a (k, rows, cols) stack,
    the Euclidean norm when rows or cols is 1."""
    if 1 in stack.shape[1:]:
        return np.linalg.norm(stack.reshape(stack.shape[0], -1), axis=1)
    return np.linalg.norm(stack, 2, axis=(-2, -1))


def mat_exp(a, t: float) -> np.ndarray:
    """Evaluate exp(a * t) for a square matrix ``a`` and time ``t >= 0``.

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
    return _expm(arr * t)


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
    ident = np.eye(n)
    k = np.kron(ident, a.T) + np.kron(a.T, ident)
    try:
        vec_p = np.linalg.solve(k, -q.reshape(-1, order="F"))
    except np.linalg.LinAlgError as exc:
        raise LyapunovSolveError(f"Lyapunov equation not solvable: {exc}") from exc
    p = vec_p.reshape((n, n), order="F")
    p = 0.5 * (p + p.T)
    residual = np.linalg.norm(a.T @ p + p @ a + q)
    scale = np.linalg.norm(a) * np.linalg.norm(p) + np.linalg.norm(q)
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


def symmetric_eigen(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by LAPACK (numpy.linalg.eigh).

    Returns (w, v) with eigenvalues ``w`` ascending and orthonormal columns
    ``v`` such that s = v @ diag(w) @ v.T.
    """
    s = as_matrix(s, "s")
    n = s.shape[0]
    if s.shape != (n, n):
        raise DimensionError(f"s must be square, got shape {s.shape}")
    if np.max(np.abs(s - s.T)) > 1e-10 * max(1.0, np.max(np.abs(s))):
        raise ValueError("s must be symmetric")
    w, v = np.linalg.eigh(0.5 * (s + s.T))
    return w, v


def spectral_norm(m) -> float:
    """Largest singular value of ``m`` (Euclidean norm for vector shapes)."""
    arr = np.asarray(m, dtype=float)
    return float(_spectral_norms(arr.reshape((1,) + np.atleast_2d(arr).shape))[0])


@dataclass(frozen=True)
class StabilityCertificate:
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
    w, _ = symmetric_eigen(p)
    lmin, lmax = float(w[0]), float(w[-1])
    if lmin <= 0.0:
        raise NotHurwitzError("matrix is not Hurwitz: Lyapunov solution not positive definite")
    return StabilityCertificate(p=p, m=math.sqrt(lmax / lmin), sigma=1.0 / (2.0 * lmax))


@dataclass(frozen=True)
class AssumptionH:
    """Orthogonal diagonalization A = -Q' diag(lambdas) Q of a symmetric
    negative definite A; lambdas are positive and ascend."""

    q: np.ndarray
    lambdas: np.ndarray


@dataclass(frozen=True)
class StructureFlags:
    """Sign/symmetry structure of a system that certifies exact gain formulas."""

    metzler: bool
    nonnegative_b: bool
    nonnegative_c: bool
    assumption_h: AssumptionH | None


def structure_flags(sys: "StateSpaceSystem") -> StructureFlags:
    """Detect Metzler/nonnegativity structure and symmetric negative
    definiteness of the state matrix, by exact sign and symmetry tests.

    The assumption_h field is populated only when A is exactly symmetric
    with all eigenvalues negative.
    """
    a, b, c = sys.a, sys.b, sys.c
    off = a - np.diag(np.diag(a))
    metzler = bool(np.all(off >= 0.0))
    nonneg_b = bool(np.all(b >= 0.0))
    nonneg_c = bool(np.all(c >= 0.0))
    assumption = None
    if np.array_equal(a, a.T):
        w, v = symmetric_eigen(0.5 * (a + a.T))
        if np.all(w < 0.0):
            # A = v diag(w) v', so with q = v' the lambdas -w are positive.
            order = np.argsort(-w)  # ascending lambdas
            assumption = AssumptionH(q=v[:, order].T.copy(), lambdas=-w[order])
    return StructureFlags(
        metzler=metzler,
        nonnegative_b=nonneg_b,
        nonnegative_c=nonneg_c,
        assumption_h=assumption,
    )


@dataclass(eq=False)
class StateSpaceSystem:
    """Strictly causal LTI system  x' = A x + B u,  y = C x  with Hurwitz A.

    Dimensions: A is n-by-n, B is n-by-m, C is p-by-n.  The constructor
    rejects non-Hurwitz state matrices; the decay certificate it builds to
    decide that (one Lyapunov solve) is kept as ``certificate``.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    certificate: StabilityCertificate = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.a = as_matrix(self.a, "A")
        self.b = as_matrix(self.b, "B")
        self.c = as_matrix(self.c, "C")
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

    def impulse_matrix(self, s: float) -> np.ndarray:
        """C exp(A s) B, the p-by-m response kernel at lag s."""
        return self.c @ mat_exp(self.a, s) @ self.b
