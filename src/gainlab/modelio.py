"""Model-file parsing and deterministic report/CSV emission.

System files are JSON documents with matrices as nested row-major arrays:
"A", "B", "C" for a standard system, or "A", "B", "G", "K", "tau", "mu" for
a delayed predictor loop, plus optional "tol" and "seed".  Reports are
emitted through a custom JSON writer so floats carry 17 significant digits
and identical inputs produce byte-identical documents.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .delay import (
    DelayBoundReport,
    DelayEmpiricalCheck,
    DelayPredictorSystem,
    DelayTrajectory,
)
from .exceptions import NotHurwitzError
from .gains import CertificateBoundInput, GainEstimate, GainReport, VCurve
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


def _load_json(path) -> dict:
    text = Path(path).read_text()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    return doc


def _matrix_field(doc: dict, key: str, path) -> np.ndarray:
    if key not in doc:
        raise ValueError(f"{path}: missing matrix {key!r}")
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
        "seed": int(doc["seed"]) if "seed" in doc else None,
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
    for key in ("certificates", "b_samples", "T_grid"):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")
    try:
        certificates = tuple((float(m), float(s)) for m, s in doc["certificates"])
        b_samples = np.array(doc["b_samples"], dtype=float)
        t_grid = np.array(doc["T_grid"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed certificate-bound data") from exc
    return CertificateBoundInput(
        certificates=certificates, b_samples=b_samples, t_grid=t_grid
    )


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    raise TypeError(f"cannot format {type(value)!r}")


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (bool, np.bool_, int, np.integer, float, np.floating)):
        return _fmt(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {_emit(v, indent + 1)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [f"{inner}{_emit(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dumps_document(doc: dict) -> str:
    """Serialize a report document deterministically (17-digit floats)."""
    return _emit(doc, 0) + "\n"


def _estimate_dict(est: GainEstimate | None):
    if est is None:
        return None
    return {
        "value": est.value,
        "kind": est.kind,
        "method": est.method,
        "tolerance": est.tolerance,
        "details": est.details,
    }


def gain_report_document(report: GainReport) -> dict:
    flags = report.structure
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "gain-report",
        "dims": {"n": report.dims[0], "m": report.dims[1], "p": report.dims[2]},
        "exact": _estimate_dict(report.exact),
        "lowers": [_estimate_dict(e) for e in report.lowers],
        "uppers": [_estimate_dict(e) for e in report.uppers],
        "certificate": {"M": report.certificate.m, "sigma": report.certificate.sigma},
        "structure": {
            "metzler": flags.metzler,
            "nonnegative_b": flags.nonnegative_b,
            "nonnegative_c": flags.nonnegative_c,
            "assumption_h": flags.assumption_h is not None,
        },
        "positivity": None if report.positivity is None else report.positivity.value,
        "tolerance": report.tolerance,
        "seed": report.seed,
        "notes": list(report.notes),
    }


def delay_bounds_document(report: DelayBoundReport) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "delay-bounds",
        "certificate": {"M": report.m_const, "sigma": report.sigma},
        "g_norm": report.g_norm,
        "phi_integral": report.phi_integral,
        "phi_tau": report.phi_tau,
        "r_integral": report.r_integral,
        "oag_bound": report.oag_bound,
        "ios_bound": report.ios_bound,
        "quad_tol": report.quad_tol,
    }


def delay_demo_document(check: DelayEmpiricalCheck, labels) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "delay-demo",
        "bounds": delay_bounds_document(check.bounds),
        "entries": [
            {
                "input": label,
                "sup_gain": entry.sup_gain,
                "asymptotic_gain": entry.asymptotic_gain,
                "gap_to_oag": entry.gap_to_oag,
                "within": entry.within,
            }
            for label, entry in zip(labels, check.entries)
        ],
        "all_within_oag": check.all_within_oag,
        "tolerance": check.tolerance,
    }


def verification_document(record: GainEqualityRecord) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "verification",
        "gamma": record.gamma,
        "horizon": record.horizon,
        "rest": record.rest,
        "period": record.period,
        "sup_gain": record.sup_gain,
        "asymptotic_gain": record.asymptotic_gain,
        "lower_target": record.lower_target,
        "upper_limit": record.upper_limit,
        "accuracy": record.accuracy,
        "passed": record.passed,
    }


def bound_document(est: GainEstimate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "certificate-bound",
        "value": est.value,
        "estimate_kind": est.kind,
        "method": est.method,
        "details": est.details,
    }


def csv_lines(header, rows):
    """Render rows as CSV text (comma separator, 17-digit floats)."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def trajectory_csv(traj: Trajectory) -> str:
    n = traj.states.shape[1]
    p = traj.outputs.shape[1]
    header = ["t"] + [f"x_{i + 1}" for i in range(n)] + [f"y_{i + 1}" for i in range(p)]
    rows = (
        [traj.times[k], *traj.states[k], *traj.outputs[k]]
        for k in range(traj.times.size)
    )
    return csv_lines(header, rows)


def delay_trajectory_csv(
    traj: DelayTrajectory, xi: np.ndarray, xi_ref: np.ndarray
) -> str:
    n = traj.ys.shape[1]
    m = traj.zs.shape[1]
    header = (
        ["t"]
        + [f"y_{i + 1}" for i in range(n)]
        + [f"z_{i + 1}" for i in range(m)]
        + [f"pred_err_{i + 1}" for i in range(m)]
        + [f"pred_err_ref_{i + 1}" for i in range(m)]
    )
    rows = (
        [traj.times[k], *traj.ys[k], *traj.zs[k], *xi[k], *xi_ref[k]]
        for k in range(traj.times.size)
    )
    return csv_lines(header, rows)


def vcurve_csv(curve: VCurve) -> str:
    rows = zip(curve.horizons, curve.values)
    return csv_lines(["T", "V"], rows)


def sweep_csv(omegas, values) -> str:
    return csv_lines(["omega", "Psi"], zip(omegas, values))
