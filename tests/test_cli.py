import argparse
import json
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gainlab import (
    Constant,
    DelayState,
    predictor_error_series,
    simulate,
    simulate_predictor,
    sinusoid_response,
    vcurve,
    worst_case_periodic_input,
)
from gainlab import cli
from gainlab.cli import main
from gainlab.delay import _history_steps
from gainlab.modelio import parse_system
from gainlab_testkit import (
    assert_same_text,
    damped_oscillator_l1,
    reference_delay_trajectory_csv,
    reference_sweep_csv,
    reference_trajectory_csv,
    reference_vcurve_csv,
)


@pytest.fixture
def scalar_file(tmp_path):
    path = tmp_path / "scalar.json"
    path.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}))
    return str(path)


@pytest.fixture
def oscillator_file(tmp_path):
    path = tmp_path / "osc.json"
    path.write_text(
        json.dumps(
            {"A": [[0.0, 1.0], [-1.0, -1.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
        )
    )
    return str(path)


@pytest.fixture
def delay_file(tmp_path):
    path = tmp_path / "delay.json"
    path.write_text(
        json.dumps(
            {
                "A": [[-1.0]],
                "B": [[1.0]],
                "G": [[1.0]],
                "K": [[-0.5]],
                "tau": 0.5,
                "mu": 2.0,
            }
        )
    )
    return str(path)


@pytest.fixture
def unstable_file(tmp_path):
    path = tmp_path / "unstable.json"
    path.write_text(
        json.dumps(
            {"A": [[0.0, 1.0], [-1.0, 0.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
        )
    )
    return str(path)


@pytest.fixture
def bound_file(tmp_path):
    path = tmp_path / "b41.json"
    path.write_text(
        json.dumps(
            {
                "certificates": [[2.0, 1.0]],
                "b_samples": [[0.0, 1.0]],
                "T_grid": [2.0, 4.0, 8.0, 16.0],
            }
        )
    )
    return str(path)


class TestAnalyze:
    def test_scalar_stdout(self, scalar_file, capsys):
        assert main(["analyze", scalar_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exact"]["value"] == pytest.approx(1.0, abs=1e-7)
        assert doc["positivity"] == "assumption-h"

    def test_out_file(self, scalar_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["analyze", scalar_file, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert doc["exact"]["method"] == "dc"
        assert doc["uppers"] == []

    def test_delay_file_gets_bounds(self, delay_file, capsys):
        assert main(["analyze", delay_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "oag_bound" in doc and "ios_bound" in doc
        assert doc["oag_bound"] < doc["ios_bound"]

    def test_tol_flag_recorded(self, scalar_file, capsys):
        assert main(["analyze", scalar_file, "--tol", "1e-6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerance"] == pytest.approx(1e-6)

    def test_tol_env(self, scalar_file, capsys, monkeypatch):
        monkeypatch.setenv("GAINLAB_TOL", "1e-5")
        assert main(["analyze", scalar_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerance"] == pytest.approx(1e-5)

    def test_tol_file_beats_env(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "sys.json"
        path.write_text(
            json.dumps({"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "tol": 1e-7})
        )
        monkeypatch.setenv("GAINLAB_TOL", "1e-4")
        assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tolerance"] == pytest.approx(1e-7)

    def test_fast_oscillator_exact(self, tmp_path, capsys):
        # w = 10, d = 1: quadrature missed the kernel (onb=8e-142 below dc=0.01)
        # and the report stopped with a ConsistencyError.
        path = tmp_path / "fast.json"
        model = {"A": [[0.0, 1.0], [-100.0, -1.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
        path.write_text(json.dumps(model))
        assert main(["analyze", str(path)]) == 0
        exact = json.loads(capsys.readouterr().out)["exact"]
        assert exact["method"] == "l1-impulse"
        assert abs(exact["value"] - damped_oscillator_l1(10.0, 1.0)) <= exact["tolerance"]

    @pytest.mark.parametrize("w, d", [(3.0, 0.3), (2.0, 0.02)])
    def test_periodic_meets_exact_on_light_damping(self, tmp_path, capsys, w, d):
        # Adaptive Simpson lost the kernel at the long periods of the grid:
        # periodic=1.40769 (w = 3) and 31.82232 (w = 2) fell below exact.
        path = tmp_path / "light.json"
        model = {"A": [[0.0, 1.0], [-w * w, -d]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
        path.write_text(json.dumps(model))
        assert main(["analyze", str(path), "--tol", "1e-6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["exact"]["value"] - damped_oscillator_l1(w, d)) <= 1e-6

    def test_deterministic_bytes(self, oscillator_file, capsys):
        main(["analyze", oscillator_file])
        first = capsys.readouterr().out
        main(["analyze", oscillator_file])
        second = capsys.readouterr().out
        assert first == second


class TestErrors:
    def test_unstable_exit_1(self, unstable_file, capsys):
        assert main(["analyze", unstable_file]) == 1
        err = capsys.readouterr().err
        assert "gainlab: error:" in err
        assert "A is not Hurwitz" in err

    def test_missing_file_exit_1(self, capsys):
        assert main(["analyze", "/nonexistent/nowhere.json"]) == 1
        assert "gainlab: error:" in capsys.readouterr().err

    def test_usage_exit_2(self, capsys):
        assert main([]) == 2
        assert main(["not-a-command"]) == 2

    def test_missing_model_exit_2(self, capsys):
        assert main(["analyze"]) == 2

    @pytest.mark.parametrize(
        "command, file_tol, flag, env",
        [
            ("analyze", float("nan"), None, None),
            ("analyze", float("inf"), None, None),
            ("analyze", -1.0, None, None),
            ("analyze", True, None, None),
            ("analyze", "1e-6", None, None),
            ("analyze", None, "nan", None),
            ("analyze", None, None, "nan"),
            ("vt", None, None, "nan"),
            ("verify", None, "nan", None),
            ("worstcase", None, "nan", None),
        ],
    )
    def test_bad_tol_exit_1(self, tmp_path, capsys, monkeypatch, command, file_tol, flag, env):
        doc = {"A": [[0.0, 1.0], [-1.0, -1.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
        if file_tol is not None:
            doc["tol"] = file_tol
        path = tmp_path / "osc.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)] + (["--tol", flag] if flag is not None else [])
        if env is not None:
            monkeypatch.setenv("GAINLAB_TOL", env)
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 1.0
        assert "tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, extra, flag",
        [
            ("analyze", {"seed": None}, None),
            ("analyze", {"seed": True}, None),
            ("analyze", {"seed": 1.7}, None),
            ("analyze", {"seed": "3"}, None),
            ("analyze", {"seed": -1}, None),
            ("vt", {"seed": -1}, None),
            ("analyze", {}, "-3"),
            ("vt", {}, "-3"),
            ("analyze", {"G": [[1.0]], "K": [[-0.5]], "tau": 0.5, "mu": 2.0}, "-3"),
        ],
        ids=["null", "bool", "float", "string", "negative", "vt-negative", "flag",
             "vt-flag", "delay-flag"],
    )
    def test_bad_seed_exit_1(self, tmp_path, capsys, command, extra, flag):
        # Each used to crash, pass as another seed, or fail after the l1,
        # positivity and sinusoid work (-1), or pass unused (vt --seed -3).
        doc = {"A": [[0.0, 1.0], [-1.0, -1.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
        if "G" in extra:
            doc = {"A": [[-1.0]], "B": [[1.0]]}
        doc.update(extra)
        path = tmp_path / "osc.json"
        path.write_text(json.dumps(doc))
        argv = [command, str(path)] + (["--seed", flag] if flag is not None else [])
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert ("--seed" if flag is not None else str(path)) in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["simulate", "{osc}", "--t-max", "inf"], "t_end must be finite"),
            (["worstcase", "{osc}", "--t-max", "inf"], "t_end must be finite"),
            (["simulate", "{osc}", "--t-max", "nan"], "t_end must be finite"),
            (["simulate", "{osc}", "--step", "nan"], "step h must be finite"),
            (["simulate", "{fast_delay}"], "--step"),
            (["delay-demo", "{fast_delay}"], "--step"),
        ],
        ids=[
            "simulate-inf",
            "worstcase-inf",
            "simulate-nan",
            "simulate-step-nan",
            "simulate-delay-fine-grid",
            "delay-demo-fine-grid",
        ],
    )
    def test_bad_grid_exit_1(self, oscillator_file, tmp_path, capsys, argv, message):
        # tau = 1e-6 with the default step tau/64 asks for over 10^9 steps
        doc = {"A": [[-1.0]], "B": [[1.0]], "G": [[1.0]], "K": [[-0.5]], "tau": 1e-6, "mu": 2.0}
        fast_delay = tmp_path / "fast_delay.json"
        fast_delay.write_text(json.dumps(doc))
        files = {"osc": oscillator_file, "fast_delay": str(fast_delay)}
        start = time.perf_counter()
        assert main([arg.format(**files) for arg in argv]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert message in err
        if "fast_delay" in argv[1]:
            assert "grid steps exceeds the limit" in err and "--t-max" in err

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("vt", "--t-max"),
            ("sweep", "--omega-min"),
            ("sweep", "--omega-max"),
            ("worstcase", "--horizon"),
        ],
    )
    def test_bad_range_flag_exit_1(self, oscillator_file, capsys, command, flag, value):
        start = time.perf_counter()
        assert main([command, oscillator_file, f"{flag}={value}"]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        # the diagnostic alone, naming the value: no warning or traceback
        assert captured.err.startswith("gainlab: error: ")
        assert captured.err.count("\n") == 1
        assert flag.lstrip("-") in captured.err

    @pytest.mark.parametrize(
        "command, model, flag, value",
        [("delay-demo", "delay", "--t-max", v) for v in ("nan", "inf", "0", "-5")]
        + [("delay-demo", "delay", "--window", v) for v in ("nan", "inf", "0", "-1", "100")]
        + [("delay-demo", "delay", "--step", v) for v in ("nan", "0")]
        + [(c, "osc", "--t-max", v) for c in ("simulate", "worstcase") for v in ("inf", "nan")]
        + [("simulate", "delay", "--t-max", "nan"), ("worstcase", "osc", "--step", "nan")]
        + [("verify", "osc", "--accuracy", v) for v in ("nan", "0", "1.5")]
        + [("worstcase", "osc", "--horizon", v) for v in ("nan", "inf", "0", "-1")]
        + [("worstcase", "osc", "--tol", "2")]
        + [(c, "osc", "--t-max", "0.001") for c in ("simulate", "worstcase")],
    )
    def test_bad_grid_flag_named_before_any_work(
        self, oscillator_file, delay_file, capsys, monkeypatch, command, model, flag, value
    ):
        # delay-demo's --t-max used to be reported as a window outside the
        # duration, simulate's and worstcase's as "t_end", without the flag;
        # verify's --accuracy, worstcase's --horizon and --tol, and a --t-max
        # shorter than one step as the library's own checks saw them.
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the flags were checked")

        refused = ("delay.delay_bounds", "delay._rk4_step_map", "sim.bang_bang_switches",
                   "gains._KernelFlow", "sim.simulate")
        for name in refused:
            monkeypatch.setattr(f"gainlab.{name}", refuse)
        path = {"osc": oscillator_file, "delay": delay_file}[model]
        assert main([command, path, f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"gainlab: error: {flag}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "delay-demo"])
    @pytest.mark.parametrize(
        "step, message",
        [
            ("0", "step h must be finite and positive"),
            ("nan", "step h must be finite and positive"),
            ("inf", "step h must be finite and positive"),
            ("-1", "step h must be finite and positive"),
            ("1e-12", "history steps exceeds the limit"),
        ],
    )
    def test_bad_delay_step_exit_1(self, delay_file, capsys, command, step, message):
        start = time.perf_counter()
        assert main([command, delay_file, "--step", step]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("gainlab: error: ")
        assert message in err and "--step" in err

    @pytest.mark.parametrize("command", ["simulate", "delay-demo"])
    def test_overflowing_step_map_exit_1(self, tmp_path, capsys, command):
        # mu h = 2.5e99: the RK4 stages of the step map overflow.  That used
        # to print two RuntimeWarnings (errors under this suite's warning
        # filter) and report the state diverged at t = 0.25.
        model = {"A": [[-1.0]], "B": [[1.0]], "G": [[1.0]], "K": [[-0.5]], "tau": 1.0, "mu": 1e100}
        path = tmp_path / "fast.json"
        path.write_text(json.dumps(model))
        assert main([command, str(path), "--step", "0.25"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("gainlab: error: ") and err.count("\n") == 1
        assert "step map overflows" in err and "--step" in err

    @pytest.mark.parametrize("command", ["simulate", "delay-demo"])
    @pytest.mark.parametrize("step", ["5e-7", "5e-8"])
    def test_delay_grid_work_exit_1(self, delay_file, capsys, command, step):
        # tau = 0.5: 2,000 steps over a 10^6-step history, or 20,000 over
        # 10^7; the first used to take seconds and the second to hang.
        start = time.perf_counter()
        assert main([command, delay_file, "--t-max", "1e-3", "--step", step]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("gainlab: error: ") and err.count("\n") == 1
        assert "stored rows" in err and "--step" in err and "--t-max" in err

    @pytest.mark.parametrize("command", ["simulate", "delay-demo"])
    def test_delay_window_exit_1(self, delay_file, capsys, monkeypatch, command):
        # tau = 0.5, h = 1.25e-7: 80 steps over a 4 x 10^6-step history pass
        # the work bound, but the step map's window would hold (N + 1) 2^2 =
        # 1.6 x 10^7 entries (the simulator holds about 410 bytes per history
        # step at n = 4).
        def refuse(*args, **kwargs):
            raise AssertionError("_weighted_kernels reached")

        monkeypatch.setattr("gainlab.delay._weighted_kernels", refuse)
        start = time.perf_counter()
        assert main([command, delay_file, "--t-max", "1e-5", "--step", "1.25e-7"]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("gainlab: error: ") and err.count("\n") == 1
        assert "window entries" in err and "--step" in err

    @pytest.mark.parametrize("command", ["simulate", "delay-demo"])
    def test_delay_window_refused_before_allocating(self, delay_file, capsys, command):
        # tau = 0.5, h = tau / 9.9e6: 20 steps pass the work bound, but the
        # window, (N + 1) 2^2 entries, is over its limit.  The resting
        # history of N + 1 rows alone made an 89 MB peak before the refusal.
        tracemalloc.start()
        try:
            code = main([command, delay_file, "--t-max", "1e-6", "--step", repr(0.5 / 9.9e6)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 10 * 2**20
        assert "window entries" in capsys.readouterr().err

    def test_vt_partition_cells_exit_1(self, oscillator_file, capsys):
        # ||A||_1 = 2: T = 1e9 needs 4 x 10^9 base cells, about half an hour
        # of partition before the cell limit.
        start = time.perf_counter()
        assert main(["vt", oscillator_file, "--t-max", "1e9"]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("gainlab: error: ") and err.count("\n") == 1
        assert "partition cells" in err and "--t-max" in err

    @pytest.mark.parametrize(
        "argv, needles",
        [
            (["worstcase", "{osc}", "--horizon", "1e9"], ["partition cells", "--horizon"]),
            (["vt", "{osc}", "--points", "1000001"], ["--points", "1000000"]),
            (["sweep", "{osc}", "--points", "1000001"], ["--points", "1000000"]),
            (["vt", "{osc_ci}", "--points", "1000"], ["ascent state entries", "--points"]),
        ],
        ids=["worstcase-horizon", "vt-points", "sweep-points", "vt-ascent-state"],
    )
    def test_size_cap_exit_1(self, oscillator_file, tmp_path, capsys, argv, needles):
        # Past each cap the work grows without bound: worstcase took 10.9 s
        # at --horizon 1e7 (1e9: about 18 minutes), vt holds about 125
        # bytes per point (69 MB peak RSS at 3 x 10^5 points), and the C = I
        # oscillator's ascent, which holds 1000^2 (2 + 8) 2 = 2 x 10^7 signed
        # state entries at 1000 points, took 171 s and 1.3 GB at 2,000.
        osc_ci = tmp_path / "osc_ci.json"
        doc = {"A": [[0.0, 1.0], [-1.0, -1.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0], [0.0, 1.0]]}
        osc_ci.write_text(json.dumps(doc))
        files = {"osc": oscillator_file, "osc_ci": str(osc_ci)}
        start = time.perf_counter()
        assert main([arg.format(**files) for arg in argv]) == 1
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gainlab: error: ") and captured.err.count("\n") == 1
        assert all(needle in captured.err for needle in needles)

    @pytest.mark.parametrize(
        "file_tol, flag, env, message",
        [
            (-1.0, None, None, "model file: tol must be finite and positive, got -1.0"),
            (None, "nan", None, "--tol: tol must be finite and positive, got nan"),
            (None, None, "nan", "GAINLAB_TOL: tol must be finite and positive, got nan"),
            (None, None, "abc", "GAINLAB_TOL: tol must be finite and positive, got 'abc'"),
        ],
    )
    def test_bad_tol_message(self, tmp_path, capsys, monkeypatch, file_tol, flag, env, message):
        doc = {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]}
        if file_tol is not None:
            doc["tol"] = file_tol
        path = tmp_path / "scalar.json"
        path.write_text(json.dumps(doc))
        if env is not None:
            monkeypatch.setenv("GAINLAB_TOL", env)
        argv = ["analyze", str(path)] + (["--tol", flag] if flag is not None else [])
        assert main(argv) == 1
        assert capsys.readouterr().err == f"gainlab: error: {message}\n"

    def test_delay_divergence_exit_1(self, tmp_path, capsys):
        path = tmp_path / "stiff.json"
        doc = {"A": [[-1.0]], "B": [[1.0]], "G": [[1.0]], "K": [[-1.0]], "tau": 1, "mu": 1e4}
        path.write_text(json.dumps(doc))
        assert main(["simulate", str(path), "--step", "1", "--t-max", "50"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # the diagnostic alone: no RuntimeWarning text ahead of it
        assert captured.err.startswith("gainlab: error: delay state diverged at t=")
        assert captured.err.count("\n") == 1

    def test_infinite_mu_exit_1(self, tmp_path, capsys):
        path = tmp_path / "delay.json"
        path.write_text(
            '{"A": [[-1.0]], "B": [[1.0]], "G": [[1.0]], "K": [[-0.5]], '
            '"tau": 0.5, "mu": Infinity}'
        )
        assert main(["analyze", str(path)]) == 1
        assert "mu must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("B", [[True], [False]]),
            ("A", [[0.0, 1.0], [-1.0, True]]),
            ("C", [[1.0, False]]),
            ("K", [[True]]),
        ],
        ids=["B", "A", "C", "delay-K"],
    )
    def test_boolean_matrix_entry_exit_1(self, tmp_path, capsys, key, value):
        # JSON's true and false were read as 1 and 0: B = [[true], [false]]
        # ran as B = [[1], [0]] and exited 0.
        if key == "K":
            doc = {"A": [[-1.0]], "B": [[1.0]], "G": [[1.0]], "tau": 0.5, "mu": 2.0}
        else:
            doc = {"A": [[0.0, 1.0], [-1.0, -1.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({**doc, key: value}))
        start = time.perf_counter()
        assert main(["analyze", str(path)]) == 1
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and f"matrix {key!r}" in err and "boolean" in err

    def test_delay_rejected_where_standard_needed(self, delay_file, capsys):
        assert main(["vt", delay_file]) == 1
        assert "standard" in capsys.readouterr().err


class TestDispatch:
    """main builds the parser once per process, and no call's arguments
    reach the next."""

    @pytest.fixture
    def built(self, monkeypatch):
        names = []
        init = argparse.ArgumentParser.__init__

        def counting(parser, *args, **kwargs):
            names.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._parser.cache_clear()
        return names

    def test_import_builds_no_parser(self):
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(parser, *args, **kwargs):\n"
            "    built.append(1)\n"
            "    init(parser, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import gainlab.cli\n"
            "print(len(built))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        run = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        )
        assert run.stdout == "0\n"

    def test_first_call_builds_nine_later_calls_none(self, built, scalar_file, capsys):
        assert main(["analyze", scalar_file]) == 0
        assert len(built) == 9
        assert built[0] == "gainlab"
        for argv in (["analyze", scalar_file], ["vt", scalar_file], [], ["sweep"]):
            main(argv)
        assert len(built) == 9

    def test_no_arguments_carried_over(self, oscillator_file, capsys, monkeypatch):
        monkeypatch.delenv("GAINLAB_TOL", raising=False)

        def vt_rows(argv):
            assert main(["vt", oscillator_file, *argv]) == 0
            return len(capsys.readouterr().out.strip().split("\n")) - 1

        def analyze_tol(argv):
            assert main(["analyze", oscillator_file, *argv]) == 0
            return json.loads(capsys.readouterr().out)["tolerance"]

        for usage_error in ([], ["vt", oscillator_file, "--points", "many"]):
            if usage_error:
                assert main(usage_error) == 2
            assert vt_rows(["--points", "20"]) == 20
            if usage_error:
                assert main(usage_error) == 2
            assert vt_rows([]) == 40
            assert analyze_tol(["--tol", "1e-6"]) == 1e-6
            if usage_error:
                assert main(usage_error) == 2
            assert analyze_tol([]) == 1e-8


class TestVt:
    def test_monotone_csv(self, oscillator_file, capsys):
        assert main(["vt", oscillator_file, "--t-max", "10", "--points", "20"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "T,V"
        assert len(lines) == 21
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))

    def test_bad_points(self, oscillator_file, capsys):
        assert main(["vt", oscillator_file, "--points", "0"]) == 1


class TestSweep:
    def test_scalar_sweep(self, scalar_file, capsys):
        assert (
            main(
                [
                    "sweep",
                    scalar_file,
                    "--omega-min",
                    "0.1",
                    "--omega-max",
                    "10",
                    "--points",
                    "5",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "omega,Psi"
        assert len(lines) == 6
        omega0, psi0 = map(float, lines[1].split(","))
        assert psi0 == pytest.approx(1.0 / np.sqrt(1.0 + omega0**2), abs=1e-12)

    def test_bad_range(self, scalar_file, capsys):
        assert main(["sweep", scalar_file, "--omega-min", "-1"]) == 1

    def test_huge_omega_max(self, oscillator_file, capsys):
        # omega^2 overflows above about 1.3e154; Psi must not collapse to 0
        # where |H(i omega)| = 1 / |1 - omega^2 + i omega| is representable.
        argv = ["sweep", oscillator_file, "--omega-max", "1e300", "--points", "3"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = [list(map(float, line.split(","))) for line in captured.out.split()[1:]]
        assert [omega for omega, _ in rows] == pytest.approx([1e-3, 10**148.5, 1e300])
        assert rows[0][1] == pytest.approx(1.0, rel=1e-6)
        assert rows[1][1] == pytest.approx(10**-297, rel=1e-12, abs=0.0)
        assert rows[2][1] == 0.0  # 1e-600 rounds to zero


class TestSimulate:
    def test_standard_csv(self, scalar_file, capsys):
        assert main(["simulate", scalar_file, "--t-max", "2", "--step", "0.5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,x_1,y_1"
        assert len(lines) == 6
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == pytest.approx(2.0)
        assert last[1] == pytest.approx(1.0 - np.exp(-2.0), abs=1e-12)

    def test_delay_csv_has_error_columns(self, delay_file, capsys):
        assert main(["simulate", delay_file, "--t-max", "2"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "t,y_1,z_1,pred_err_1,pred_err_ref_1"


class TestWorstcase:
    def test_scalar_spec_on_stderr(self, scalar_file, capsys, tmp_path):
        out = tmp_path / "wc.csv"
        code = main(
            [
                "worstcase",
                scalar_file,
                "--horizon",
                "10",
                "--tol",
                "1e-6",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "rest=14" in err
        assert "period=24" in err
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,x_1,y_1"


class TestVerify:
    def test_scalar_passes_exit_0(self, scalar_file, capsys):
        assert main(["verify", scalar_file, "--accuracy", "0.01"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["asymptotic_gain"] >= 0.99
        assert doc["gamma"] == pytest.approx(1.0, abs=1e-7)

    def test_oscillator_w3_passes(self, tmp_path, capsys):
        # gamma came out 2.5e-13 and the check exited 1.
        path = tmp_path / "w3.json"
        model = {"A": [[0.0, 1.0], [-9.0, -1.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]}
        path.write_text(json.dumps(model))
        assert main(["verify", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert abs(doc["gamma"] - damped_oscillator_l1(3.0, 1.0)) <= 1e-9

    def test_bad_accuracy_exit_1(self, scalar_file, capsys):
        assert main(["verify", scalar_file, "--accuracy", "2.0"]) == 1


class TestBound41:
    def test_document(self, bound_file, capsys):
        assert main(["bound41", bound_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "theorem41"
        assert doc["value"] == pytest.approx(1.0)
        assert len(doc["details"]["cells"]) == 4

    def test_rejects_system_file(self, scalar_file, capsys):
        assert main(["bound41", scalar_file]) == 1

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("T_grid", [2.0, float("inf")], "t_grid"),
            ("T_grid", [float("nan")], "t_grid"),
            ("b_samples", [[0.0, 1.0], [1.0, float("nan")]], "b_samples"),
            ("b_samples", [[0.0, 1.0], [float("inf"), 2.0]], "b_samples"),
            ("certificates", [[float("inf"), 1.0]], "M=inf"),
            ("certificates", [[2.0, float("nan")]], "sigma=nan"),
            ("certificates", [[2.0, float("inf")]], "sigma=inf"),
        ],
        ids=["T-inf", "T-nan", "b-nan", "t-inf", "M-inf", "sigma-nan", "sigma-inf"],
    )
    def test_rejects_non_finite_data(self, tmp_path, capsys, key, value, field):
        # JSON's Infinity and NaN once gave exit 0, a "horizon": inf document
        # or a bound, or an error naming no field.
        doc = {"certificates": [[2.0, 1.0]], "b_samples": [[0.0, 1.0]], "T_grid": [2.0]}
        path = tmp_path / "b41.json"
        path.write_text(json.dumps({**doc, key: value}))
        start = time.perf_counter()
        assert main(["bound41", str(path)]) == 1
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and field in err


    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("T_grid", [[1.0, 2.0]], "t_grid"),
            ("b_samples", [[[0.0, 1.0], [1.0, 2.0]]], "b_samples"),
            ("certificates", [[True, 0.5]], "'certificates'"),
            ("b_samples", [[0.0, 1.0], [1.0, True]], "'b_samples'"),
            ("T_grid", [True, 4.0], "'T_grid'"),
            ("certificates", [[2.0, 1.0, 3.0]], "'certificates'"),
            ("certificates", 5, "'certificates'"),
            ("b_samples", [[0.0, 1.0], [1.0]], "'b_samples'"),
            ("T_grid", [1.0, [2.0]], "'T_grid'"),
        ],
        ids=["T-2d", "b-3d", "M-bool", "b-bool", "T-bool", "M-row-of-3", "M-number", "b-ragged", "T-ragged"],
    )
    def test_rejects_wrong_rank_and_booleans(self, tmp_path, capsys, key, value, field):
        # A 2-d T_grid crashed with a TypeError traceback, a 3-d b_samples,
        # a ragged array and a 3-entry certificate row gave an error naming
        # no field, and true was read as 1 (M = 1).
        doc = {"certificates": [[2.0, 1.0]], "b_samples": [[0.0, 1.0]], "T_grid": [2.0]}
        path = tmp_path / "b41.json"
        path.write_text(json.dumps({**doc, key: value}))
        start = time.perf_counter()
        assert main(["bound41", str(path)]) == 1
        assert time.perf_counter() - start < 0.5
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and field in err


class TestDelayDemo:
    def test_battery(self, delay_file, capsys):
        assert main(["delay-demo", delay_file, "--t-max", "10"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["all_within_oag"] is True
        assert [e["input"] for e in doc["entries"]] == [
            "constant",
            "sin-0.1",
            "sin-1",
            "sin-10",
        ]
        for entry in doc["entries"]:
            assert entry["sup_gain"] <= doc["bounds"]["oag_bound"] + doc["tolerance"]

    def test_standard_file_rejected(self, scalar_file, capsys):
        assert main(["delay-demo", scalar_file]) == 1


class TestCsvCommandsMatchReference:
    """Each CSV command prints what the value-by-value reference writer makes
    of the library objects the command builds."""

    def run(self, capsys, argv):
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_simulate(self, oscillator_file, capsys):
        out = self.run(capsys, ["simulate", oscillator_file, "--t-max", "12.5"])
        system, _ = parse_system(oscillator_file)
        traj = simulate(system, Constant(u0=[1.0]), np.zeros(2), 12.5, 0.01)
        assert_same_text(out, reference_trajectory_csv(traj))

    def test_worstcase(self, oscillator_file, capsys):
        out = self.run(capsys, ["worstcase", oscillator_file, "--horizon", "8"])
        system, _ = parse_system(oscillator_file)
        signal, spec = worst_case_periodic_input(system, 8.0, 1e-6)
        traj = simulate(system, signal, np.zeros(2), 3.0 * spec.period, spec.period / 4096.0)
        assert_same_text(out, reference_trajectory_csv(traj))

    def test_sweep(self, oscillator_file, capsys):
        argv = ["sweep", oscillator_file, "--omega-min", "0.01", "--omega-max", "100"]
        out = self.run(capsys, argv + ["--points", "37"])
        system, _ = parse_system(oscillator_file)
        omegas = np.geomspace(0.01, 100.0, 37)
        values = [sinusoid_response(system, w) for w in omegas]
        assert_same_text(out, reference_sweep_csv(omegas, values))

    def test_vt(self, oscillator_file, capsys):
        out = self.run(capsys, ["vt", oscillator_file, "--t-max", "6", "--points", "12"])
        system, _ = parse_system(oscillator_file)
        curve = vcurve(system, np.linspace(0.5, 6.0, 12), tol=1e-8, seed=0)
        assert_same_text(out, reference_vcurve_csv(curve))

    def test_delay_simulate(self, delay_file, capsys):
        out = self.run(capsys, ["simulate", delay_file, "--t-max", "9"])
        system, _ = parse_system(delay_file)
        h = system.tau / 64.0
        state = DelayState.resting(system, _history_steps(system.tau, h))
        traj = simulate_predictor(system, Constant(u0=[1.0]), state, 9.0, h)
        xi, xi_ref = predictor_error_series(traj, system)
        assert_same_text(out, reference_delay_trajectory_csv(traj, xi, xi_ref))
