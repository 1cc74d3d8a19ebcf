"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import tracing
import workloads

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
END_TO_END_TABLE = ("ops_per_s", "op_p50_s", "op_tail_s", "fail_share", "setup_s", "peak_rss_mb")


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def _prepared(workload, seed, workdir, slots):
    """The first ``slots`` model slots of one cycle, with references."""
    ops = workloads.generate(workload, seed, workdir, cycles=1)
    models = list(dict.fromkeys(op.model for op in ops))[:slots]
    run.ensure_references(workdir)
    _, cli, refs = run.set_up(workdir, ops)
    return cli, refs, [op for op in ops if op.model in models]


def test_oracle_reproduces_readme_oscillator():
    oracle.self_check()
    assert abs(oracle.oscillator_gain(1.0, 1.0) - 1.3895820002) < 1e-10


def test_every_end_to_end_metric_is_emitted_with_its_unit(workdir):
    cli, refs, ops = _prepared("large-n", 5, workdir, 2)
    outcomes = run.closed_loop(cli.main, ops, workdir, refs)
    values, tail = run.end_to_end(outcomes, [0.1, 0.2, 0.3])
    for name in END_TO_END_TABLE:
        assert name in values and run.UNITS[name]
    emitted = run._emit([m["name"] for m in SPEC["end_to_end"]], values, run.UNITS.get)
    for metric in SPEC["end_to_end"]:
        assert emitted[metric["name"]]["unit"] == metric["unit"]
        assert emitted[metric["name"]]["value"] > 0
    assert tail["ops"] == len(ops)


def test_traced_run_emits_every_per_layer_metric(workdir):
    cli, refs, ops = _prepared("large-n", 5, workdir, 2)
    outcomes, values, absent, tracer = run.traced_run(cli, ops, workdir, refs)
    assert all(o.passed for o in outcomes)
    values["trace.overhead"] = 1.0
    for metric in SPEC["per_layer"]:
        assert metric["name"] in values, absent.get(metric["name"])
        assert tracing.unit_of(metric["name"]) == metric["unit"]
    assert set(values) | set(absent) == set(tracing.all_metric_names())
    own = tracer.self_times()
    assert all(t >= -1e-9 for t in own)


def test_planted_wrong_answer_counts_in_fail_share(workdir, monkeypatch):
    cli, refs, ops = _prepared("gain-report", 5, workdir, 200)
    picked = [next(op for op in ops if op.command == "bound41"),
              next(op for op in ops if op.category == "malformed-bad-shape")]
    honest = run.closed_loop(cli.main, picked, workdir, refs)
    assert [o.passed for o in honest] == [True, True]

    original = cli.gains.certificate_gain_bound

    def planted(data):
        est = original(data)
        return type(est)(value=est.value * 1.001, kind=est.kind, method=est.method,
                         tolerance=est.tolerance, details=est.details)

    monkeypatch.setattr(cli.gains, "certificate_gain_bound", planted)
    outcomes = run.closed_loop(cli.main, picked, workdir, refs)
    assert not outcomes[0].passed and "reference" in outcomes[0].reason
    values, _ = run.end_to_end(outcomes, [0.1])
    assert values["fail_share"] == pytest.approx(0.5)
    assert values["pass_share"] == pytest.approx(0.5)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_models_but_keeps_the_op_mix(tmp_path, workload):
    def mix(seed):
        ops = workloads.generate(workload, seed, tmp_path / str(seed), cycles=2)
        files = {op.model: (tmp_path / str(seed) / op.model).read_text() for op in ops}
        return Counter((op.command, op.category, op.args, op.expect_exit, op.limit_s) for op in ops), files

    mix1, files1 = mix(1)
    mix2, files2 = mix(2)
    assert mix1 == mix2
    assert files1.keys() == files2.keys()
    assert all(files1[name] != files2[name] for name in files1)
    assert mix(1)[1] == files1  # the same seed gives the same inputs


def test_known_defects_are_kept_out_of_the_benchmarked_workloads(tmp_path):
    listed = [w["name"] for w in SPEC["workloads"]]
    assert "defects" not in listed
    defect_models = {slot.category for slot in workloads.SLOTS["defects"]()}
    for workload in listed:
        ops = workloads.generate(workload, 3, tmp_path / workload, cycles=workloads.BASE_CYCLES)
        assert not defect_models & {op.category for op in ops}
        assert not {f"malformed-{k}" for k in workloads.DEFECT_MALFORMED_KINDS} & {op.category for op in ops}
    # A base system named in UNDER_RESOLVED is replaced in its cycle, not
    # dropped; the spectrum (unchanged by the change of coordinates) differs.
    category, cycle = workloads.UNDER_RESOLVED[0]
    (drawn,) = (tmp_path / "gain-report").glob(f"c{cycle:02d}-*-{category}.json")
    spectrum = lambda a: np.sort_complex(np.linalg.eigvals(np.asarray(a)))  # noqa: E731
    quarantined = workloads.base_system(category, cycle)[0]["A"]
    assert not np.allclose(spectrum(json.loads(drawn.read_text())["A"]), spectrum(quarantined))
