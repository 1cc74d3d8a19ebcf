"""gainlab benchmark: seeded model files through the CLI, one op at a time.

Run from the root of a gainlab checkout::

    python3 perfbench/run.py --workload gain-report --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

An op is one in-process ``gainlab.cli.main([...])`` call on one model file
under a per-op time limit, followed by a check of its exit code and output
against references computed without gainlab (``oracle.py``).  One client
sends ops in a closed loop, the next when the last has finished, for
``--seconds``.  With ``--trace 0`` the last line of stdout is a JSON object
with the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` the
same ops run untraced and then traced (``tracing.py``) and the last line
carries the per-layer metrics.  Failures, the run record and the full
per-layer table are printed above the last line and kept in
``.perfbench/<workload>-s<seed>/``.
"""

import os

# One BLAS thread: the loop has a single client, and on a 2-CPU machine a
# second BLAS thread mostly adds noise.  Set before NumPy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 9
ORACLE_TIMEOUT_S = 150
TAIL_ABOVE = 10  # op_tail_s: highest percentile with at least this many ops above it
QUAD_TOL = 1e-8  # the CLI's default quadrature tolerance
MAT_EXP_CALLS = 20
# The machine's speed drifts: on a shared 2-CPU machine the same op took up
# to twice as long from one minute to the next, in CPU time as much as in
# wall time.  Each op and each set-up is therefore bracketed by a short fixed
# reference job, and its wall time scaled by REFERENCE_S over the reference
# job's mean time around it: the metrics are seconds at one fixed machine
# speed.  The per-op limit is on unscaled wall time.
clock = time.perf_counter
REFERENCE_S = 0.001
_REF_M = np.random.default_rng(0).standard_normal((6, 6))
_REF_S = _REF_M + 6.0 * np.eye(6)
_REF_X = np.ones(6)


def reference_job() -> float:
    """Seconds for a fixed job of the kind gainlab's inner loops do (small
    matrix products and solves with Python arithmetic between them); the
    best of three, so that a preemption does not count."""
    best = float("inf")
    for _ in range(3):
        start = clock()
        acc = 0.0
        for _ in range(100):
            acc += float((_REF_M @ _REF_S)[0, 0]) + float(np.linalg.solve(_REF_S, _REF_X)[0])
            for j in range(20):
                acc = 0.5 * acc + j
        best = min(best, clock() - start)
    return best


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * 2.0 * REFERENCE_S / (before + after)


class OpTimeout(BaseException):
    """Raised by the per-op alarm.  A BaseException, so that the CLI's own
    error handling (which catches OSError, hence TimeoutError) cannot turn a
    hang into an ordinary exit code."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Outcome:
    op: workloads.Op
    wall: float
    reason: str | None
    violations: int
    timed_out: bool = False
    latency: float = 0.0  # wall at the reference speed, set by closed_loop

    @property
    def passed(self) -> bool:
        return self.reason is None


def import_gainlab():
    """Import gainlab afresh from ``src/`` of the checkout; returns gainlab.cli."""
    for name in [m for m in sys.modules if m == "gainlab" or m.startswith("gainlab.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("gainlab.cli")
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise ImportError(f"gainlab imported from {cli.__file__}, not from {SRC}")
    return cli


def set_up(workdir: Path, ops):
    """Import gainlab and load the workload's files and cached references."""
    start = clock()
    cli = import_gainlab()
    for name in sorted({op.model for op in ops}):
        (workdir / name).read_bytes()
    refs = json.loads((workdir / "refs.json").read_text())
    return clock() - start, cli, refs


def ensure_references(workdir: Path) -> None:
    refs = workdir / "refs.json"
    if refs.exists():
        cached = json.loads(refs.read_text()).get("manifest_sha256")
        if cached == workloads.manifest_digest(workdir):
            return
    subprocess.run([sys.executable, str(HERE / "oracle.py"), str(workdir)], check=True,
                   timeout=ORACLE_TIMEOUT_S, stdout=subprocess.DEVNULL)


def run_op(main, op, workdir: Path, refs: dict) -> Outcome:
    out, err = io.StringIO(), io.StringIO()
    rc, reason, timed_out = None, None, False
    signal.signal(signal.SIGALRM, _alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, op.limit_s)
        start = clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(op.argv(workdir))
        finally:
            wall = clock() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        reason, timed_out = f"timeout after {op.limit_s:g} s", True
    except Exception as exc:  # an op that raises is a failure, not the end of the run
        reason = f"raised {type(exc).__name__}: {exc}"
    violations = 0
    if reason is None:
        reason, violations = checks.check(op, rc, out.getvalue(), err.getvalue(), refs["ops"])
    return Outcome(op, wall, reason, violations, timed_out=timed_out)


def closed_loop(main, ops, workdir, refs, before_op=None):
    """Send the ops in order, one at a time.  A timed out op counts as its
    time limit; every other op's wall time is scaled to the reference
    speed."""
    outcomes = []
    before = reference_job()
    for op in ops:
        if before_op is not None:
            before_op(op)
        outcome = run_op(main, op, workdir, refs)
        after = reference_job()
        outcome.latency = (op.limit_s if outcome.timed_out
                           else at_reference_speed(outcome.wall, before, after))
        outcomes.append(outcome)
        before = after
    return outcomes


def warm_up(main, ops, workdir, refs) -> None:
    """Run the first op of each command once, unmeasured."""
    seen = set()
    for op in ops:
        if op.command not in seen:
            seen.add(op.command)
            run_op(main, op, workdir, refs)


def ranked_latencies(outcomes) -> list[float]:
    """Latencies with failed ops ranked above every passing op: a failed op
    counts as the largest time limit plus its own time."""
    penalty = max(o.op.limit_s for o in outcomes)
    return sorted(o.latency if o.passed else penalty + o.latency for o in outcomes)


def end_to_end(outcomes, setup_times) -> tuple[dict, dict]:
    ranked = ranked_latencies(outcomes)
    index = max(0, len(ranked) - 1 - TAIL_ABOVE)
    passed = sum(o.passed for o in outcomes)
    values = {
        "ops_per_s": passed / sum(o.latency for o in outcomes),
        "op_p50_s": statistics.median(ranked),
        "op_tail_s": ranked[index],
        "fail_share": 1.0 - passed / len(outcomes),
        "pass_share": passed / len(outcomes),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail = {"percentile": 100.0 * (index + 1) / len(ranked), "ops": len(ranked),
            "ops_above": len(ranked) - 1 - index}
    return values, tail


UNITS = {"ops_per_s": "ops/s", "op_p50_s": "s", "op_tail_s": "s", "fail_share": "ratio",
         "pass_share": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}


def probe_models(workdir, models, siso_gains) -> dict:
    """Measurements made outside the op spans, once per distinct model:
    public ``mat_exp`` at the model's n, and ``adaptive_simpson`` on a
    counting integrand |C mat_exp(A, s) B| over [0, tail_horizon]."""
    import gainlab

    mat_exp_us, nodes, quad_s, abs_err = [], 0, 0.0, []
    for name in models:
        try:
            system, _ = gainlab.modelio.parse_system(workdir / name)
        except Exception:  # malformed files are measured by their ops alone
            continue
        if not isinstance(system, gainlab.StateSpaceSystem):
            continue
        a, b, c = system.a, system.b, system.c
        calls = []
        for _ in range(MAT_EXP_CALLS):
            start = clock()
            gainlab.mat_exp(a, 1.0)
            calls.append(clock() - start)
        mat_exp_us.append(statistics.median(calls) * 1e6)
        if name not in siso_gains:
            continue
        cert = system.certificate
        coef = gainlab.spectral_norm(c) * cert.m * gainlab.spectral_norm(b)
        horizon = gainlab.tail_horizon(cert.sigma, coef, QUAD_TOL / 2)
        count = 0

        def integrand(s):
            nonlocal count
            count += 1
            return abs((c @ gainlab.mat_exp(a, s) @ b).item())

        start = clock()
        value = gainlab.adaptive_simpson(integrand, 0.0, horizon, QUAD_TOL / 2) if horizon > 0 else 0.0
        quad_s += clock() - start
        nodes += count
        abs_err.append(abs(value - siso_gains[name]))
    return {"mat_exp_us": statistics.median(mat_exp_us), "nodes": nodes, "s": quad_s,
            "abs_err": max(abs_err) if abs_err else None}


def traced_run(cli, ops, workdir, refs):
    """The ops again, with spans at every layer boundary."""
    tracer = tracing.Tracer()
    traced_main = lambda argv: tracer.call(f"cli.{argv[0]}", cli.main, argv)  # noqa: E731

    def before_op(op):
        tracer.op = op.op_id

    with tracing.instrument(tracer):
        outcomes = closed_loop(traced_main, ops, workdir, refs, before_op=before_op)
    passes = len(ops) / workloads.ops_per_cycle(ops)
    probe = probe_models(workdir, dict.fromkeys(op.model for op in ops), refs["siso_gains"])
    extra = {
        "linalg.mat_exp_us": probe["mat_exp_us"],
        "quadrature.nodes": probe["nodes"] / passes,
        "quadrature.s": probe["s"] / passes,
        "gains.label_violations": sum(o.violations for o in outcomes) / passes,
    }
    if probe["abs_err"] is not None:
        extra["quadrature.abs_err"] = probe["abs_err"]
    values, absent = tracing.layer_metrics(tracer, passes, extra)
    return outcomes, values, absent, tracer


def _blas_info() -> dict:
    info = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except Exception as exc:  # the layout of show_config differs across NumPy versions
        info["config_error"] = repr(exc)
    # The OpenBLAS that NumPy wheels bundle; loading it again returns the same handle.
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            try:
                info["threads"] = int(getattr(ctypes.CDLL(str(lib)), symbol)())
                info["library"] = lib.name
                return info
            except (OSError, AttributeError):
                continue
    return info


def _git_revision():
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.exists():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(ref[5:]):
            return line.split()[0]
    return None


def run_record(workload, seed, ops, outcomes) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ops_per_command": dict(Counter(o.op.command for o in outcomes)),
        "model_n": {op.model: op.n for op in ops},
    }


def _failure(workload, o: Outcome) -> dict:
    return {"workload": workload, "command": o.op.command, "model": o.op.model,
            "category": o.op.category, "op": o.op.op_id, "latency_s": o.latency, "reason": o.reason}


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = WORK / f"{workload}-s{seed}"
    cycles = workloads.cycles_for(workload, seconds / 2 if trace else seconds)
    ops = workloads.generate(workload, seed, workdir, cycles)
    ensure_references(workdir)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = reference_job()
        elapsed, cli, refs = set_up(workdir, ops)
        setup_times.append(at_reference_speed(elapsed, before, reference_job()))
    warm_up(cli.main, ops, workdir, refs)
    untraced = closed_loop(cli.main, ops, workdir, refs)
    values, tail = end_to_end(untraced, setup_times)
    outcomes = untraced
    result = {"end_to_end": values, "tail": tail}
    if trace:
        outcomes, layers, absent, tracer = traced_run(cli, ops, workdir, refs)
        traced_rate = sum(o.passed for o in outcomes) / sum(o.latency for o in outcomes)
        layers["trace.overhead"] = values["ops_per_s"] / traced_rate
        absent.pop("trace.overhead")
        result.update(per_layer=layers, absent=absent)
        tracer.write_jsonl(workdir / "spans.jsonl")
    result["failures"] = [_failure(workload, o) for o in outcomes if not o.passed]
    result["record"] = run_record(workload, seed, ops, outcomes)
    result["attempted"] = len(outcomes)
    result["ops"] = [{"op": o.op.op_id, "command": o.op.command, "model": o.op.model,
                      "latency_s": o.latency, "wall_s": o.wall, "passed": o.passed}
                     for o in outcomes]
    (workdir / f"result-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def _print_report(workload, seed, result) -> None:
    values, tail = result["end_to_end"], result["tail"]
    print(f"{workload} seed {seed}: {result['attempted']} ops, {len(result['failures'])} failed")
    for name in ("ops_per_s", "op_p50_s", "op_tail_s", "fail_share", "setup_s", "peak_rss_mb"):
        note = (f"  (p{tail['percentile']:.1f} of {tail['ops']} ops, {tail['ops_above']} above)"
                if name == "op_tail_s" else "")
        print(f"  {workload}/{name:<12} {values[name]:.6g} {UNITS[name]}{note}")
    for failure in result["failures"]:
        print(json.dumps({"failure": failure}))
    print(json.dumps({"run": result["record"]}))


def _emit(names, values, units) -> dict:
    missing = [n for n in names if n not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    return {n: {"value": values[n], "unit": units(n)} for n in names}


def run_all(args) -> int:
    """Every workload in its own process (peak RSS is per process)."""
    merged, attempted, failed, correct = {}, 0, 0, True
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        last = json.loads(lines[-1])
        attempted += last["attempted"]
        failed += last["failed"]
        correct &= last["correct"]
        merged.update({f"{workload}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_gainlab()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ImportError, OSError, ValueError) as exc:
        print(f"perfbench: run from the root of a gainlab checkout: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_report(args.workload, args.seed, result)
    if args.trace:
        print(json.dumps({"per_layer": result["per_layer"], "absent": result["absent"]}))
        metrics = _emit([m["name"] for m in spec["per_layer"]], result["per_layer"], tracing.unit_of)
    else:
        metrics = _emit([m["name"] for m in spec["end_to_end"]], result["end_to_end"], UNITS.get)
    failed = len(result["failures"])
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"], "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
