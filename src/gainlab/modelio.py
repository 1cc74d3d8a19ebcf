"""Model-file parsing and deterministic report/CSV emission.

System files are JSON documents with matrices as nested row-major arrays:
"A", "B", "C" for a standard system, or "A", "B", "G", "K", "tau", "mu" for
a delayed predictor loop, plus optional "tol" and "seed".  Reports are
emitted through a custom JSON writer so floats carry 17 significant digits
and identical inputs produce byte-identical documents.  CSV values carry the
same 17 digits, byte for byte as ``"%.17g" % x``: a table is written in
chunks of rows, each printed by NumPy arithmetic, or, when small (a V(T)
curve, a sweep), by one ``%``.  A document or a table refuses a NaN or
infinite number with a GainlabError naming its field or column.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .delay import (
    DelayBoundReport,
    DelayEmpiricalCheck,
    DelayPredictorSystem,
    DelayTrajectory,
)
from .exceptions import GainlabError, NotHurwitzError
from .gains import CertificateBoundInput, GainEstimate, GainReport, VCurve, _checked_seed
from .linalg import StateSpaceSystem
from .sim import GainEqualityRecord, Trajectory

__all__ = [
    "SCHEMA_VERSION",
    "parse_system",
    "parse_certificate_bound_input",
    "dumps_document",
    "gain_report_document",
    "delay_bounds_document",
    "delay_demo_document",
    "verification_document",
    "bound_document",
    "csv_lines",
    "trajectory_csv",
    "delay_trajectory_csv",
    "vcurve_csv",
    "sweep_csv",
]

SCHEMA_VERSION = 1
# A table is written in chunks of _CSV_CHUNK values, _CSV_CHUNK // columns
# rows each, so what it costs beyond its own arrays is one chunk.  A chunk of
# at least _CSV_ARRAY_VALUES values is printed by _g17_lines, a smaller one
# by ``%``, at the crossover measured on random 4- and 7-column blocks (best
# of 30, shared 2-CPU x86-64 machine), ``%`` against _g17_lines: 200 values
# 101-103 vs 181-188 us, 380 values 197-199 vs 197-213 us, 420 values 219 vs
# 202-205 us, 1,000 values 529-553 vs 301-302 us.  On the 12,289-row tables
# of 4 and 7 columns a worstcase run writes, chunks of 8192 and 16384 values
# were the fastest, 4096 and 32768 8-30% slower; one chunk per table raised a
# sim-verify run's peak RSS from 56 to 70-71 MB.
_CSV_ARRAY_VALUES = 400
_CSV_CHUNK = 8192


def _load_json(path) -> dict:
    text = Path(path).read_text()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    return doc


def _has_bool(value) -> bool:
    # JSON's true and false, which NumPy would read as 1 and 0.
    return isinstance(value, bool) or isinstance(value, list) and any(map(_has_bool, value))


def _matrix_field(doc: dict, key: str, path) -> np.ndarray:
    if key not in doc:
        raise ValueError(f"{path}: missing matrix {key!r}")
    if _has_bool(doc[key]):
        raise ValueError(f"{path}: matrix {key!r} must hold numbers, not booleans")
    try:
        arr = np.array(doc[key], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: matrix {key!r} is ragged or non-numeric") from exc
    if arr.ndim != 2:
        raise ValueError(f"{path}: matrix {key!r} must be a nested (2-d) array")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{path}: matrix {key!r} contains non-finite entries")
    return arr


def _scalar_field(doc: dict, key: str, path) -> float:
    if key not in doc:
        raise ValueError(f"{path}: missing scalar {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{path}: {key!r} must be a number")
    return float(value)


def parse_system(path):
    """Read a system file; returns (system, extras).

    The presence of any of "G", "K", "tau", "mu" selects the delay format
    (all four then required); otherwise "A", "B", "C" are required.  extras
    carries the optional "tol" and "seed" entries (None when absent).
    """
    doc = _load_json(path)
    extras = {
        "tol": _scalar_field(doc, "tol", path) if "tol" in doc else None,
        "seed": _checked_seed(doc["seed"], f"{path}: 'seed'") if "seed" in doc else None,
    }
    delay_keys = {"G", "K", "tau", "mu"}
    if delay_keys & set(doc):
        a = _matrix_field(doc, "A", path)
        b = _matrix_field(doc, "B", path)
        g = _matrix_field(doc, "G", path)
        k = _matrix_field(doc, "K", path)
        tau = _scalar_field(doc, "tau", path)
        mu = _scalar_field(doc, "mu", path)
        try:
            system = DelayPredictorSystem(a=a, b=b, g=g, k=k, tau=tau, mu=mu)
        except NotHurwitzError as exc:
            raise NotHurwitzError(f"{path}: A + B K is not Hurwitz") from exc
        return system, extras
    a = _matrix_field(doc, "A", path)
    b = _matrix_field(doc, "B", path)
    c = _matrix_field(doc, "C", path)
    try:
        system = StateSpaceSystem(a=a, b=b, c=c)
    except NotHurwitzError as exc:
        raise NotHurwitzError(f"{path}: A is not Hurwitz") from exc
    return system, extras


def parse_certificate_bound_input(path) -> CertificateBoundInput:
    """Read a decay-certificate bound document.

    Keys: "certificates" as [[M, sigma], ...], "b_samples" as [[t, b], ...]
    starting at t = 0, "T_grid" as a list of horizons.
    """
    doc = _load_json(path)
    fields = []
    for key, convert in (
        ("certificates", lambda rows: tuple((float(m), float(s)) for m, s in rows)),
        ("b_samples", lambda rows: np.array(rows, dtype=float)),
        ("T_grid", lambda rows: np.array(rows, dtype=float)),
    ):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
        if _has_bool(doc[key]):
            raise ValueError(f"{path}: {key!r} must hold numbers, not booleans")
        try:
            fields.append(convert(doc[key]))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed certificate-bound data in {key!r}") from exc
    return CertificateBoundInput(*fields)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    raise TypeError(f"cannot format {type(value)!r}")


def _emit(obj, indent: int, key: str) -> str:
    """``obj`` as JSON text; ``key`` names it (or the list holding it) in
    the error that refuses a non-finite number."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
        raise GainlabError(f"non-finite value {float(obj)!r} in document field {key!r}")
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_emit(v, indent + 1, str(k))}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_emit(v, indent + 1, key)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_document(doc: dict) -> str:
    """Serialize a report document deterministically (17-digit floats).
    A NaN or infinite number raises GainlabError naming its field."""
    return _emit(doc, 0, "document") + "\n"


def gain_report_document(report: GainReport) -> dict:
    # Each record's fields, copied: editing the document leaves it as it was.
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "gain-report",
        "dims": {"n": report.dims[0], "m": report.dims[1], "p": report.dims[2]},
        "exact": None if report.exact is None else {**vars(report.exact)},
        "lowers": [{**vars(e)} for e in report.lowers],
        "uppers": [{**vars(e)} for e in report.uppers],
        "certificate": {"M": report.certificate.m, "sigma": report.certificate.sigma},
        "structure": {**vars(report.structure)},
        "positivity": None if report.positivity is None else report.positivity.value,
        "tolerance": report.tolerance,
        "seed": report.seed,
        "notes": list(report.notes),
    }


def delay_bounds_document(report: DelayBoundReport) -> dict:
    fields = dict(vars(report))
    certificate = {"M": fields.pop("m_const"), "sigma": fields.pop("sigma")}
    return {"schema_version": SCHEMA_VERSION, "kind": "delay-bounds", "certificate": certificate,
            **fields}


def delay_demo_document(check: DelayEmpiricalCheck, labels) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "delay-demo",
        "bounds": delay_bounds_document(check.bounds),
        "entries": [{"input": label, **vars(entry)} for label, entry in zip(labels, check.entries)],
        "all_within_oag": check.all_within_oag,
        "tolerance": check.tolerance,
    }


def verification_document(record: GainEqualityRecord) -> dict:
    return {"schema_version": SCHEMA_VERSION, "kind": "verification", **vars(record)}


def bound_document(est: GainEstimate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "certificate-bound",
        "value": est.value,
        "estimate_kind": est.kind,
        "method": est.method,
        "details": est.details,
    }


def _csv_chunks(header, *columns):
    """The header line, then the CSV lines of _CSV_CHUNK values at a time, each
    chunk stacked from row slices of ``columns``: float arrays of equal length,
    each a column or a block of them.  A NaN or infinite value raises
    GainlabError naming its column and row before any chunk is formed."""
    if not np.isfinite([f(c, initial=0.0) for c in columns for f in (np.min, np.max)]).all():
        table = np.column_stack(columns)
        bad = int(np.flatnonzero(~np.isfinite(table))[0])
        row, col = divmod(bad, len(header))
        raise GainlabError(
            f"non-finite value {float(table.flat[bad])!r} in column {header[col]!r}, row {row + 1}"
        )
    rows = max(1, _CSV_CHUNK // len(header))

    def chunk(start):
        block = np.column_stack([c[start : start + rows] for c in columns])
        if block.size >= _CSV_ARRAY_VALUES:
            return _g17_lines(block)
        line = ",".join(["%.17g"] * block.shape[1]) + "\n"
        return line * len(block) % tuple(block.ravel().tolist())

    return itertools.chain([",".join(header) + "\n"], map(chunk, range(0, len(columns[0]), rows)))


def csv_lines(header, rows):
    """Render rows (an array or any iterable of rows) as CSV text: comma
    separator, every value printed as ``"%.17g" % x`` prints it.  The rows
    become one float64 table, and the text is its _csv_chunks joined, which
    refuse a NaN or infinite value."""
    table = np.asarray(rows if isinstance(rows, np.ndarray) else list(rows), dtype=float)
    return "".join(_csv_chunks(header, table))


# Bytes of one _g17_lines cell: the longest "%.17g" text,
# "-1.2345678901234567e-300", then a separator.
_CELL = 25
# Range of E = floor(log10 |x|) over 1e-300 <= |x| < 1e300, one step beyond
# it each way for a corrected estimate; k = 16 - E indexes the scales.
_E_MIN, _E_MAX = -301, 300
_K_MIN = 16 - _E_MAX
# Layout classes: fixed notation for each E in -4..16, then exponent notation.
_FIXED_MIN, _EXP_CLASS = -4, 21
# 1-based places of D's 17 digits.
_PLACES = np.arange(1, 18, dtype=np.uint8)


class _G17Tables(NamedTuple):
    """Lookup tables of _g17_lines, built once by _g17_tables."""

    # Per k - _K_MIN, scales with 2^s (hi + lo) = 10^k: s = 0, hi = 10^k,
    # lo = 0 for 0 <= k <= 22, where 10^k is a double; else s = k and
    # hi + lo = 5^k to about 106 bits.  head + rest is hi split in halves.
    two: np.ndarray
    hi: np.ndarray
    head: np.ndarray
    rest: np.ndarray
    lo: np.ndarray
    # Row E - _E_MIN: "e+05" or "e-300", zero padded to 5 bytes.
    exps: np.ndarray
    # Per layout class: the digits printed whatever they hold (E + 1 in
    # fixed notation for E >= 0, 0 for E < 0, 1 in exponent notation).
    whole: np.ndarray


@functools.cache
def _g17_tables() -> _G17Tables:
    """Built on first use; the scales come from exact Python integers."""
    scales = []
    for k in range(_K_MIN, 16 - _E_MIN + 1):
        if 0 <= k <= 22:
            scales.append((1.0, float(10**k), 0.0))
        else:
            # hi nearest 5^k, lo nearest the rest: int / int rounds correctly.
            num, den = (5**k, 1) if k > 0 else (1, 5**-k)
            hi = num / den
            hi_num, hi_den = hi.as_integer_ratio()
            scales.append((2.0**k, hi, (num * hi_den - hi_num * den) / (den * hi_den)))
    two, hi, lo = np.array(scales).T
    head, rest = _split(hi)
    exps = np.array([b"e%+03d" % e for e in range(_E_MIN, _E_MAX + 1)], "S5")
    fixed = np.arange(_FIXED_MIN, _EXP_CLASS + _FIXED_MIN)
    return _G17Tables(
        two=two,
        hi=hi,
        head=head,
        rest=rest,
        lo=lo,
        exps=exps.view(np.uint8).reshape(-1, 5),
        whole=np.append(np.maximum(fixed + 1, 0), 1).astype(np.uint8),
    )


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of v into a 26-bit head and the exact rest."""
    c = v * 134217729.0
    head = c - (c - v)
    return head, v - head


def _rows(a: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Rows ``index`` of a 2-d uint8 array, taken whole."""
    row = np.dtype((np.void, a.shape[1] * a.itemsize))
    return np.take(a.view(row).reshape(-1), index).view(a.dtype).reshape(len(index), a.shape[1])


def _g17_significand(a: np.ndarray, e10: np.ndarray, tab: _G17Tables):
    """(D, move, near) for t = a 10^(16 - e10): D = round-half-even(t) as
    int64; move = -1 where t < 10^16, +1 where t >= 10^17, else 0; and
    near, whether t may lie within 1e-12 of a rounding or range boundary,
    which a scale 10^k rounded to a double-double could misjudge.

    a 10^k is y (hi + lo) with y = a 2^s exact; Dekker's product gives
    y hi = p + e exactly (Dekker, Numer. Math. 18, 1971), and err is
    e + y lo.  Where move is 0, p is above 2^53, so an even integer, and
    D = p + rint(err).
    """
    i = 16 - _K_MIN - e10
    y = a * tab.two[i]
    hh, hl = tab.head[i], tab.rest[i]
    p = y * tab.hi[i]
    yh, yl = _split(y)
    err = ((yh * hh - p) + yh * hl + yl * hh) + yl * hl + y * tab.lo[i]
    r = np.rint(err)
    # (p - 10^j) + err has the sign of t - 10^j: the difference is exact
    # near 10^j, and a rounded sum keeps its exact sum's sign.
    below = (p - 1e16) + err
    above = (p - 1e17) + err
    move = (above >= 0).view(np.int8) - (below < 0).view(np.int8)
    near = np.abs(np.abs(err - r) - 0.5) < 1e-12
    near |= (np.abs(below) < 1e-12) | (np.abs(above) < 1e-12)
    return p.astype(np.int64) + r.astype(np.int64), move, near


def _g17_lines(block: np.ndarray) -> str:
    """The CSV lines of a 2-d float64 ``block``, each value as "%.17g"
    prints it, each line ended by a newline.

    For 1e-300 <= |x| < 1e300 the 17 digits are D = round(|x| 10^(16 - E))
    for the decimal exponent E of |x|: floor(log10 |x|), corrected once
    where the product falls outside [10^16, 10^17), and raised by one where
    D rounds up to 10^17.  The values are sorted by layout class (fixed
    notation for each -4 <= E <= 16, exponent notation otherwise), and
    each class's cells of _CELL bytes are filled by column-slice copies of
    D's digits, trailing zeros blanked to zero bytes, which pad the cells
    and are dropped at the end.  ±0, inf, nan, the values outside that
    range and those near a rounding boundary are formatted by "%.17g"
    itself, once per bit pattern.
    """
    tab = _g17_tables()
    x = block.ravel()
    a = np.abs(x)
    fast = np.flatnonzero((a >= 1e-300) & (a < 1e300))
    a = a[fast]
    e10 = np.floor(np.log10(a)).astype(np.intp)
    d, move, near = _g17_significand(a, e10, tab)
    off = np.flatnonzero(move)
    if off.size:
        e10[off] += move[off]
        d[off], move[off], near[off] = _g17_significand(a[off], e10[off], tab)
        near[off] |= move[off] != 0
    carry = d == 10**17
    e10[carry] += 1
    d[carry] = 10**16
    if near.any():
        fast, d, e10 = fast[~near], d[~near], e10[~near]

    fixed = (e10 >= _FIXED_MIN) & (e10 < _FIXED_MIN + _EXP_CLASS)
    cls = np.where(fixed, e10 - _FIXED_MIN, _EXP_CLASS).astype(np.uint8)
    order = np.argsort(cls, kind="stable")
    counts = np.bincount(cls, minlength=_EXP_CLASS + 1)
    # D's 17 digits as ASCII, one row of the array per place, from its
    # first 9 and last 8 digits in int32 (faster to divide than int64);
    # beyond the digits printed whatever they hold, trailing zeros become
    # zero bytes.
    digits = np.empty((17, d.size), np.uint8)
    head, tail = np.divmod(d[order], 10**8)
    for q, places in ((head, range(8, -1, -1)), (tail, range(16, 8, -1))):
        q = q.astype(np.int32)
        for j in places:
            r = q // 10
            digits[j] = q - 10 * r
            q = r
    sig = ((digits > 0) * _PLACES[:, None]).max(axis=0)
    whole = np.repeat(tab.whole, counts)
    digits += np.uint8(ord("0"))
    digits *= _PLACES[:, None] <= np.maximum(sig, whole)
    digits = digits.T
    point = (sig > whole) * np.uint8(ord("."))

    out = np.zeros((d.size + 1, _CELL), np.uint8)
    stops = np.cumsum(counts)
    for c in np.flatnonzero(counts):
        e, rows = c + _FIXED_MIN, slice(stops[c] - counts[c], stops[c])
        dig = digits[rows]
        if c == _EXP_CLASS:
            out[rows, 1] = dig[:, 0]
            out[rows, 2] = point[rows]
            out[rows, 3:19] = dig[:, 1:]
            out[rows, 19:24] = _rows(tab.exps, e10[order[rows]] - _E_MIN)
        elif e >= 0:
            out[rows, 1 : e + 2] = dig[:, : e + 1]
            out[rows, e + 2] = point[rows]
            out[rows, e + 3 : 19] = dig[:, e + 1 :]
        else:
            out[rows, 1 : 2 - e] = ord("0")
            out[rows, 2] = ord(".")
            out[rows, 2 - e : 19 - e] = dig

    # Cell i is row src[i] of out; the last row, all zero, serves the rest.
    src = np.full(x.size, d.size)
    src[fast[order]] = np.arange(d.size)
    cells = _rows(out, src)
    cells[:, 0] = np.signbit(x) * np.uint8(ord("-"))
    slow = np.flatnonzero(src == d.size)
    if slow.size:
        unique, inverse = np.unique(x[slow].view(np.int64), return_inverse=True)
        texts = [b"%.17g" % value for value in unique.view(np.float64).tolist()]
        texts = np.array(texts, f"S{_CELL - 1}").view(np.uint8).reshape(-1, _CELL - 1)
        cells[slow, : _CELL - 1] = texts[inverse]
    cells[:, -1] = ord(",")
    cells[block.shape[1] - 1 :: block.shape[1], -1] = ord("\n")
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _columns_chunks(times, **blocks):
    """_csv_chunks of a "t" column, then the columns name_1, name_2, ... of each block."""
    header = ["t"] + [f"{k}_{i + 1}" for k, v in blocks.items() for i in range(v.shape[1])]
    return _csv_chunks(header, times, *blocks.values())


def _trajectory_chunks(traj: Trajectory):
    return _columns_chunks(traj.times, x=traj.states, y=traj.outputs)


def _delay_trajectory_chunks(traj: DelayTrajectory, xi: np.ndarray, xi_ref: np.ndarray):
    return _columns_chunks(traj.times, y=traj.ys, z=traj.zs, pred_err=xi, pred_err_ref=xi_ref)


def trajectory_csv(traj: Trajectory) -> str:
    return "".join(_trajectory_chunks(traj))


def delay_trajectory_csv(traj: DelayTrajectory, xi: np.ndarray, xi_ref: np.ndarray) -> str:
    return "".join(_delay_trajectory_chunks(traj, xi, xi_ref))


def vcurve_csv(curve: VCurve) -> str:
    return csv_lines(["T", "V"], np.column_stack((curve.horizons, curve.values)))


def sweep_csv(omegas, values) -> str:
    return csv_lines(["omega", "Psi"], np.column_stack((omegas, values)))
