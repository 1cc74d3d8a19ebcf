"""Checks of one op's exit code and output against the oracle's references.

``check`` returns ``(reason, violations)``: ``reason`` is None when the op
passed, otherwise a one-line description of the first problem found;
``violations`` counts the labelled numbers (exact, lower, upper, the
verified gamma, the rows of an exact V(T) curve) that contradict the
reference beyond their own stated tolerance.
"""

from __future__ import annotations

import json

import numpy as np

from workloads import flag_value

# Slack granted to the oracle itself, relative to max(1, |reference|).
ORACLE_SLACK = 1e-9
CLI_DEFAULT_TOL = 1e-8
VERIFY_DEFAULT_TOL = 1e-9
WORSTCASE_ROWS = 3 * 4096 + 1  # t_end = 3 periods at period / 4096


def _slack(tol: float, ref: float) -> float:
    return tol + ORACLE_SLACK * max(1.0, abs(ref))


def _csv(text: str) -> tuple[list[str], np.ndarray]:
    lines = text.splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return lines[0].split(","), rows


def _gain_report(doc, ref):
    if doc.get("kind") != "gain-report":
        return "not a gain-report document", 0
    low_ref, high_ref = ref["lower"], ref["upper"]
    problems = []
    exact = doc["exact"]
    if exact is not None:
        value, slack = exact["value"], _slack(exact["tolerance"], high_ref)
        if not (low_ref - slack <= value <= high_ref + slack):
            problems.append(f"exact {exact['method']}={value!r}, reference [{low_ref!r}, {high_ref!r}]")
    for est in doc["lowers"]:
        if est["value"] > high_ref + _slack(est["tolerance"], high_ref):
            problems.append(f"lower {est['method']}={est['value']!r} above reference {high_ref!r}")
        if est["method"] == "dc" and "dc" in ref and abs(est["value"] - ref["dc"]) > _slack(est["tolerance"], ref["dc"]):
            problems.append(f"dc={est['value']!r}, reference {ref['dc']!r}")
    for est in doc["uppers"]:
        if est["kind"] == "upper" and est["value"] < low_ref - _slack(est["tolerance"], low_ref):
            problems.append(f"upper {est['method']}={est['value']!r} below reference {low_ref!r}")
    return (problems[0] if problems else None), len(problems)


def _vcurve(text, ref, tol):
    _, rows = _csv(text)
    values = rows[:, 1]
    low = np.asarray(ref["lower"]) - tol - ORACLE_SLACK * np.maximum(1.0, ref["lower"])
    high = np.asarray(ref["upper"]) + tol + ORACLE_SLACK * np.maximum(1.0, ref["upper"])
    if values.shape != low.shape:
        return f"{values.size} V(T) rows, expected {low.size}", 1
    bad = np.nonzero((values < low) | (values > high))[0]
    if bad.size:
        k = int(bad[0])
        return f"V({rows[k, 0]:g})={values[k]!r} outside [{ref['lower'][k]!r}, {ref['upper'][k]!r}]", int(bad.size)
    return None, 0


def _sweep(text, ref):
    _, rows = _csv(text)
    psi, want = rows[:, 1], np.asarray(ref["psi"])
    if psi.shape != want.shape:
        return f"{psi.size} sweep rows, expected {want.size}"
    err = np.abs(psi - want) / np.maximum(want, 1e-300)
    if np.max(err) > 1e-7:
        k = int(np.argmax(err))
        return f"Psi({rows[k, 0]:g})={psi[k]!r}, reference {want[k]!r}"
    return None


def _trajectory(text, ref):
    lines = text.splitlines()
    for index, want in ref["rows"].items():
        row = np.array([float(v) for v in lines[1 + int(index)].split(",")[1:]])
        want = np.asarray(want)
        if row.shape != want.shape or np.max(np.abs(row - want)) > 1e-8 * (1.0 + np.max(np.abs(want))):
            return f"trajectory row {index} differs from exp(At) reference"
    if len(lines) != 2002:
        return f"{len(lines) - 1} trajectory rows, expected 2001"
    return None


def _delay_trajectory(text, ref, n):
    _, rows = _csv(text)
    if not np.all(np.isfinite(rows)):
        return "non-finite delay trajectory"
    peak = float(np.max(np.linalg.norm(rows[:, 1:1 + n], axis=1)))
    if peak > ref["ios"] + 1e-3:
        return f"plant state norm {peak!r} above the certified sup bound {ref['ios']!r}"
    return None


def _verification(doc, ref, tol):
    gamma = doc["gamma"]
    if abs(gamma - ref["gain"]) > _slack(tol, ref["gain"]):
        return f"gamma={gamma!r}, reference {ref['gain']!r}", 1
    if not doc["passed"]:
        return f"verification failed: asymptotic gain {doc['asymptotic_gain']!r}", 0
    if not doc["lower_target"] <= doc["asymptotic_gain"] <= doc["upper_limit"]:
        return f"asymptotic gain {doc['asymptotic_gain']!r} outside its stated bounds", 0
    return None, 0


def _worstcase(text, ref):
    lines = text.splitlines()
    if len(lines) != WORSTCASE_ROWS + 1:
        return f"{len(lines) - 1} worst-case rows, expected {WORSTCASE_ROWS}"
    peak = max(abs(float(line.rsplit(",", 1)[1])) for line in lines[1:])
    if peak > ref["gain"] * (1 + 1e-6) + 1e-9:
        return f"output {peak!r} above the peak gain {ref['gain']!r} under a unit input"
    return None


def _delay_demo(doc, ref):
    bounds = doc["bounds"]
    for key in ("oag", "ios"):
        if abs(bounds[f"{key}_bound"] - ref[key]) > 1e-6 * ref[key]:
            return f"{key}_bound={bounds[key + '_bound']!r}, reference {ref[key]!r}"
    for entry in doc["entries"]:
        if entry["asymptotic_gain"] > bounds["oag_bound"] + doc["tolerance"] or not entry["within"]:
            return f"{entry['input']}: gain {entry['sup_gain']!r} outside the certified bound"
    return None


def check(op, rc, out: str, err: str, refs: dict) -> tuple[str | None, int]:
    """Judge one op from its exit code and captured stdout/stderr."""
    if rc != op.expect_exit:
        first = err.strip().splitlines()[:1]
        return f"exit {rc}, expected {op.expect_exit}" + (f": {first[0]}" if first else ""), 0
    if op.expect_exit != 0:
        return ("rejected input but wrote a result" if out else None), 0
    ref = refs[f"{op.command} {op.model}"]
    try:
        if op.command == "analyze":
            return _gain_report(json.loads(out), ref)
        if op.command == "vt":
            return _vcurve(out, ref, flag_value(op.args, "--tol", CLI_DEFAULT_TOL))
        if op.command == "verify":
            return _verification(json.loads(out), ref, flag_value(op.args, "--tol", VERIFY_DEFAULT_TOL))
        if op.command == "sweep":
            return _sweep(out, ref), 0
        if op.command == "simulate":
            return (_delay_trajectory(out, ref, op.n) if "ios" in ref else _trajectory(out, ref)), 0
        if op.command == "worstcase":
            return _worstcase(out, ref), 0
        if op.command == "delay-demo":
            return _delay_demo(json.loads(out), ref), 0
        if op.command == "bound41":
            value = json.loads(out)["value"]
            if abs(value - ref["value"]) > 1e-12 * max(1.0, abs(ref["value"])):
                return f"bound {value!r}, reference {ref['value']!r}", 1
            return None, 0
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}", 0
    raise ValueError(f"no check for command {op.command!r}")

