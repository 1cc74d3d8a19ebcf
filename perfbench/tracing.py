"""Spans around gainlab's public functions, recorded from outside the program.

``instrument`` replaces, for the duration of a ``with`` block, the module
attributes through which gainlab's layers call each other (and through
which the CLI calls them) by wrappers that record a span: name, start,
end, parent span, op id, and an optional value read off the result (steps
simulated, segments built, bytes emitted).  Nothing inside gainlab changes;
a span covers exactly one call into a layer.  Spans stay in memory and are
written as JSON lines at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    value: float | None = None
    raised: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = -1

    def call(self, name, fn, *args, measure=None, **kwargs):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, self.op, parent, time.perf_counter())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            span.raised = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if measure is not None:
            span.value = float(measure(result))
        return result

    def wrap(self, name, fn, measure=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, measure=measure, **kwargs)

        # updated=() keeps a wrapped class's attribute dict off the function.
        return functools.update_wrapper(traced, fn, updated=())

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write_jsonl(self, path) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "op": s.op, "parent": s.parent,
                                     "start": s.start, "end": s.end, "self": own[i],
                                     "value": s.value, "raised": s.raised}) + "\n")


def _steps(traj) -> int:
    return traj.times.size - 1


def _residual(series) -> float:
    xi, xi_ref = series
    return float(np.max(np.linalg.norm(xi - xi_ref, axis=1)))


# (module, attribute, span name, value read off the result)
BOUNDARIES = (
    ("modelio", "parse_system", "modelio.parse", None),
    ("modelio", "parse_certificate_bound_input", "modelio.parse", None),
    ("modelio", "StateSpaceSystem", "linalg.construct", None),
    ("modelio", "DelayPredictorSystem", "linalg.construct", None),
    ("linalg", "stability_certificate", "linalg.certificate", None),
    ("delay", "stability_certificate", "linalg.certificate", None),
    ("linalg", "lyapunov_solve", "linalg.lyapunov", None),
    ("gains", "structure_flags", "linalg.structure_flags", None),
    ("gains", "gain_report", "gains.report", None),
    ("gains", "positivity_certificate", "gains.positivity", None),
    ("gains", "l1_impulse_gain", "gains.l1", None),
    ("sim", "l1_impulse_gain", "gains.l1", None),
    ("gains", "dc_gain", "gains.dc", None),
    ("gains", "sinusoid_lower_bound", "gains.sinusoid", None),
    ("gains", "sinusoid_response", "gains.sinusoid", None),
    ("gains", "onb_upper_bound", "gains.onb", None),
    ("gains", "periodic_upper_estimate", "gains.periodic", None),
    ("gains", "vcurve", "gains.vcurve", None),
    ("gains", "max_terminal_output", "gains.terminal", None),
    ("gains", "certificate_gain_bound", "gains.certificate_bound", None),
    ("sim", "bang_bang_switches", "gains.bang_bang", None),
    ("sim", "iter_segments", "signals.iter_segments", len),
    ("sim", "simulate", "sim.simulate", _steps),
    ("delay", "simulate", "sim.simulate", _steps),
    ("sim", "worst_case_periodic_input", "sim.worst_case_input", None),
    ("sim", "verify_gain_equality", "sim.verify", lambda record: 0 if record.passed else 1),
    ("delay", "delay_bounds", "delay.bounds", None),
    ("delay", "simulate_predictor", "delay.simulate_predictor", _steps),
    ("delay", "predictor_error_series", "delay.residual", _residual),
    ("delay", "delay_empirical_check", "delay.empirical_check", None),
    ("modelio", "dumps_document", "modelio.emit", len),
    ("modelio", "trajectory_csv", "modelio.emit", len),
    ("modelio", "delay_trajectory_csv", "modelio.emit", len),
    ("modelio", "vcurve_csv", "modelio.emit", len),
    ("modelio", "sweep_csv", "modelio.emit", len),
)


@contextmanager
def instrument(tracer: Tracer):
    """Route every boundary call between gainlab's modules through
    ``tracer`` inside the block; restore the originals after."""
    saved = []
    try:
        for module_name, attr, span_name, measure in BOUNDARIES:
            module = importlib.import_module(f"gainlab.{module_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(span_name, original, measure))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# Per-layer metrics.  "_s" is busy seconds per pass over the workload's op
# cycle, inclusive of child spans except modelio.parse_s, which excludes the
# construction it triggers; "_us" is a median per unit; a bare name is a
# count (or, for residual and abs_err, a largest value) per pass.
INCLUSIVE = {
    "modelio.emit_s": "modelio.emit",
    "linalg.construct_s": "linalg.construct",
    "linalg.certificate_s": "linalg.certificate",
    "linalg.lyapunov_s": "linalg.lyapunov",
    "linalg.structure_flags_s": "linalg.structure_flags",
    "gains.report_s": "gains.report",
    "gains.l1_s": "gains.l1",
    "gains.dc_s": "gains.dc",
    "gains.positivity_s": "gains.positivity",
    "gains.sinusoid_s": "gains.sinusoid",
    "gains.onb_s": "gains.onb",
    "gains.periodic_s": "gains.periodic",
    "gains.vcurve_s": "gains.vcurve",
    "gains.terminal_s": "gains.terminal",
    "gains.bang_bang_s": "gains.bang_bang",
    "signals.iter_segments_s": "signals.iter_segments",
    "sim.simulate_s": "sim.simulate",
    "sim.worst_case_input_s": "sim.worst_case_input",
    "sim.verify_s": "sim.verify",
    "delay.bounds_s": "delay.bounds",
    "delay.simulate_predictor_s": "delay.simulate_predictor",
    "delay.residual_s": "delay.residual",
    "delay.empirical_check_s": "delay.empirical_check",
}
COMMANDS = ("analyze", "vt", "sweep", "simulate", "worstcase", "verify", "bound41", "delay-demo")
VALUE_SUMS = {"modelio.out_bytes": "modelio.emit", "signals.segments": "signals.iter_segments",
              "sim.steps": "sim.simulate", "delay.steps": "delay.simulate_predictor"}
PER_STEP = {"sim.step_us": "sim.simulate", "delay.step_us": "delay.simulate_predictor"}
UNITS = {"_s": "s", ".s": "s", "_us": "us", "out_bytes": "B", "abs_err": "1", "residual": "1", "overhead": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def all_metric_names() -> list[str]:
    names = [f"cli.{c.replace('-', '_')}_s" for c in COMMANDS]
    names += ["modelio.parse_s", "modelio.emit_s", "modelio.out_bytes",
              "linalg.construct_s", "linalg.certificate_s", "linalg.lyapunov_s",
              "linalg.structure_flags_s", "linalg.mat_exp_us",
              "quadrature.nodes", "quadrature.s", "quadrature.abs_err"]
    names += [k for k in INCLUSIVE if k.startswith("gains.")]
    names += ["gains.label_violations", "gains.errors", "signals.iter_segments_s", "signals.segments",
              "sim.simulate_s", "sim.step_us", "sim.steps", "sim.worst_case_input_s", "sim.verify_s",
              "sim.errors", "delay.bounds_s", "delay.simulate_predictor_s", "delay.step_us",
              "delay.steps", "delay.residual", "delay.residual_s", "delay.empirical_check_s",
              "trace.overhead"]
    return list(dict.fromkeys(names))


def layer_metrics(tracer: Tracer, passes: float, extra: dict) -> tuple[dict, dict]:
    """Per-layer values from the spans, plus ``extra`` (metrics measured
    outside the spans).  Returns (values, reasons for absent metrics)."""
    own = tracer.self_times()
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(tracer.spans):
        by_name.setdefault(s.name, []).append(i)

    def outermost(name):
        # Spans of ``name`` with no ancestor of the same name, so that
        # recursion through a boundary is not counted twice.
        out = []
        for i in by_name.get(name, []):
            p = tracer.spans[i].parent
            while p is not None and tracer.spans[p].name != name:
                p = tracer.spans[p].parent
            if p is None:
                out.append(i)
        return out

    values: dict[str, float] = {}
    for command in COMMANDS:
        spans = by_name.get(f"cli.{command}", [])
        if spans:
            values[f"cli.{command.replace('-', '_')}_s"] = sum(tracer.spans[i].duration for i in spans) / passes
    if by_name.get("modelio.parse"):
        values["modelio.parse_s"] = sum(own[i] for i in by_name["modelio.parse"]) / passes
    for metric, name in INCLUSIVE.items():
        if by_name.get(name):
            values[metric] = sum(tracer.spans[i].duration for i in outermost(name)) / passes
    for metric, name in VALUE_SUMS.items():
        if by_name.get(name):
            values[metric] = sum(tracer.spans[i].value or 0.0 for i in by_name[name]) / passes
    for metric, name in PER_STEP.items():
        per = [own[i] / tracer.spans[i].value * 1e6 for i in by_name.get(name, []) if tracer.spans[i].value]
        if per:
            values[metric] = statistics.median(per)
    if by_name.get("delay.residual"):
        values["delay.residual"] = max(tracer.spans[i].value for i in by_name["delay.residual"]
                                       if tracer.spans[i].value is not None)
    # An exception is counted once, in the layer of the span it left first.
    passed_on = {s.parent for s in tracer.spans if s.raised}
    raised = [s for i, s in enumerate(tracer.spans) if s.raised and i not in passed_on]
    if any(s.name.startswith("gains.") for s in tracer.spans):
        values["gains.errors"] = sum(s.name.startswith("gains.") for s in raised) / passes
    if any(s.name.startswith("sim.") for s in tracer.spans):
        failed_checks = sum(s.name == "sim.verify" and s.value == 1 for s in tracer.spans)
        values["sim.errors"] = (sum(s.name.startswith("sim.") for s in raised) + failed_checks) / passes
    values.update(extra)
    absent = {name: "no call into this layer in the workload's ops"
              for name in all_metric_names() if name not in values}
    return values, absent
