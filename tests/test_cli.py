import argparse
import json
import math
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

from gainlab import (
    Constant,
    predictor_error_series,
    simulate,
    simulate_predictor,
    sinusoid_response,
    vcurve,
    worst_case_periodic_input,
)
from gainlab import GainEstimate, cli, delay, gains, linalg, modelio, sim
from gainlab.cli import main
from gainlab.modelio import parse_system
from gainlab_testkit import (
    SMALL_KERNEL_MODELS,
    assert_same_text,
    damped_oscillator_l1,
    near_zero_kernel_system,
    reference_delay_trajectory_csv,
    reference_sweep_csv,
    reference_trajectory_csv,
    random_hurwitz_matrix,
    reference_vcurve_csv,
)
from op_digests import largest_move, op_digests


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


def _model_file(tmp_path, name):
    """The SMALL_KERNEL_MODELS file ``name`` in tmp_path."""
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(SMALL_KERNEL_MODELS[name]))
    return str(path)


def _stiff_scalar_file(tmp_path, k):
    """The model A = -10^k, B = 10^k, C = 1 in tmp_path."""
    path = tmp_path / f"stiff-{k}.json"
    path.write_text(json.dumps({"A": [[-(10.0**k)]], "B": [[10.0**k]], "C": [[1.0]]}))
    return str(path)


# verify's document of a vanishing kernel at the default tol 1e-9.
VANISHING_DOCUMENT = {
    "schema_version": modelio.SCHEMA_VERSION,
    "kind": "verification",
    "gamma": 0.0,
    "horizon": 0.0,
    "rest": 0.0,
    "period": 0.0,
    "sup_gain": 0.0,
    "asymptotic_gain": 0.0,
    "lower_target": 0.0,
    "upper_limit": 2e-9,
    "accuracy": 0.02,
    "passed": True,
}


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

    def test_tol_env(self, oscillator_file, capsys, monkeypatch):
        # GAINLAB_TOL sets no tolerance: analyze prints the same document
        # with it as without, at the default 1e-8.
        assert main(["analyze", oscillator_file]) == 0
        plain = capsys.readouterr().out
        monkeypatch.setenv("GAINLAB_TOL", "1e-5")
        assert main(["analyze", oscillator_file]) == 0
        assert capsys.readouterr().out == plain
        assert json.loads(plain)["tolerance"] == 1e-8

    def test_tol_file_beats_env(self, tmp_path, capsys, monkeypatch):
        # The file's tol, and --tol over it; GAINLAB_TOL changes nothing.
        path = tmp_path / "sys.json"
        path.write_text(
            json.dumps({"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "tol": 1e-7})
        )
        monkeypatch.setenv("GAINLAB_TOL", "1e-4")
        for flags, tol in (([], 1e-7), (["--tol", "1e-6"], 1e-6)):
            assert main(["analyze", str(path), *flags]) == 0
            assert json.loads(capsys.readouterr().out)["tolerance"] == tol

    def test_seed_file_and_flag(self, tmp_path, capsys):
        # The file's seed draws the ONB bases of a p = 2 report, and --seed
        # beats it.
        model = {"A": [[-1.0, 2.0], [0.0, -3.0]], "B": [[1.0], [1.0]], "C": [[1.0, 0.0], [0.5, -2.0]]}
        path = tmp_path / "seeded.json"
        path.write_text(json.dumps({**model, "seed": 7}))
        sys, extras = parse_system(path)
        assert extras["seed"] == 7
        for flags, seed in (([], 7), (["--seed", "3"], 3)):
            assert main(["analyze", str(path), *flags]) == 0
            doc = json.loads(capsys.readouterr().out)
            onb = gains.gain_report(sys, seed=seed).uppers[1]
            assert doc["seed"] == seed and doc["uppers"][1]["method"] == onb.method == "onb"
            assert doc["uppers"][1]["details"]["basis_values"] == onb.details["basis_values"]

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

    def test_small_b_positivity_needs_a_partition(self, tmp_path, capsys):
        # The kernel changes sign at ln 3 but lies within the tail, so no
        # partition ran: this printed sign-partition and an exact dc of 5e-11.
        path = _model_file(tmp_path, "b-1e-10")
        assert main(["analyze", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["positivity"] is None
        assert (doc["lowers"][0]["method"], doc["lowers"][0]["kind"]) == ("dc", "lower")
        assert doc["exact"]["method"] == "l1-impulse"

    def test_deterministic_bytes(self, oscillator_file, capsys):
        main(["analyze", oscillator_file])
        first = capsys.readouterr().out
        main(["analyze", oscillator_file])
        second = capsys.readouterr().out
        assert first == second
        # Every op of one cycle of each benchmarked workload, run twice: the
        # same exit code, stdout and stderr.
        root = Path(__file__).resolve().parent.parent
        for workload in ("gain-report", "sim-verify"):
            first = op_digests(root, workload, seed=1, cycles=1)
            assert first and op_digests(root, workload, seed=1, cycles=1) == first

    def test_largest_move_reads_the_numbers(self):
        # The moved-figures mode of tests/op_digests.py: the largest relative
        # change over an output's numbers, and None where its text moved.
        old = '{"value": 1.25, "tolerance": 1e-08, "roots": [3]}\n'
        assert largest_move(old, old) == (0.0, "", "")
        new = old.replace("1.25", "1.2500000000000002").replace("1e-08", "1.0000000000000001e-08")
        rel, a, b = largest_move(old, new)
        assert (a, b) == ("1.25", "1.2500000000000002") and rel == pytest.approx(1.7763568394002505e-16)
        assert largest_move(old, old.replace("value", "gain")) is None
        assert largest_move("x,0\n", "x,-0\n") == (0.0, "", "")


# Files whose Lyapunov solution P lies near the ends of double range.
HUGE_SCALE = {"A": [[-1e300]], "B": [[1e300]], "C": [[1.0]]}
TINY_SCALE = {"A": [[-1e-300]], "B": [[1.0]], "C": [[1.0]]}
OVERFLOWING_RESIDUAL = {"A": [[-2.0, 1e150], [0.0, -1.0]], "B": [[1.0], [1.0]], "C": [[1.0, 1.0]]}


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
            ("analyze", -1.0, None, "1e-6"),
            ("vt", None, "nan", "1e-6"),
            ("verify", None, "nan", None),
            ("worstcase", None, "nan", None),
        ],
    )
    def test_bad_tol_exit_1(self, tmp_path, capsys, monkeypatch, command, file_tol, flag, env):
        # env, when given, is a valid GAINLAB_TOL, which rescues nothing.
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

        refused = ("delay.delay_bounds", "delay._loop_states", "sim.bang_bang_switches",
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

    @pytest.mark.parametrize(
        "model, argv, code, message",
        [
            ({"A": [[1.0]], "K": [[-2.0]], "tau": 600.0, "mu": 1.0}, ["simulate", "--t-max", "6000"], 1,
             "the prediction error's terms exp(A tau) y and J overflowed double precision"),
            ({"A": [[1.0]], "K": [[-2.0]], "tau": 600.0, "mu": 1.0}, ["delay-demo"], 0, None),
            ({"A": [[-1.0]], "K": [[-1.0]], "tau": 1.0, "mu": 1e4}, ["simulate", "--step", "1"], 0, None),
            ({"A": [[-1.0]], "K": [[-1.0]], "tau": 1.0, "mu": 1e4}, ["delay-demo", "--step", "1"], 0, None),
            ({"A": [[-1.0]], "K": [[-0.5]], "tau": 1.0, "mu": 1e100}, ["simulate", "--step", "0.25"], 1,
             "the loop is too stiff to simulate: ||F2||_1 / sigma = 6.667e+99 exceeds 1e+09 (mu = 1e+100)"),
            ({"A": [[-1.0]], "K": [[-0.5]], "tau": 1.0, "mu": 1e100}, ["delay-demo", "--step", "0.25"], 1,
             "the loop is too stiff to simulate: ||F2||_1 / sigma = 6.667e+99 exceeds 1e+09 (mu = 1e+100)"),
        ],
        ids=["tau-600-simulate", "tau-600-delay-demo", "mu-1e4-simulate", "mu-1e4-delay-demo",
             "mu-1e100-simulate", "mu-1e100-delay-demo"],
    )
    def test_hard_delay_file_exits_cleanly(self, tmp_path, capsys, model, argv, code, message):
        # Files the former RK4 map refused: tau = 600 diverged at t = 56.25,
        # mu = 1e4 at h = 1 diverged, mu = 1e100 overflowed its step map.  Each
        # now prints finite numbers, or one error line: J reaches e^1200 on
        # the first, and the last is too stiff for its walk's cells.
        path = tmp_path / "hard.json"
        path.write_text(json.dumps({"B": [[1.0]], "G": [[1.0]], **model}))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([argv[0], str(path), *argv[1:]]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and err == f"gainlab: error: {message}\n"
        else:
            assert err == "" and out
            assert not any(word in out for word in ("nan", "inf", "NaN", "Infinity"))

    @pytest.mark.parametrize("command", ["analyze", "delay-demo"])
    def test_overflowing_exponential_exit_1(self, tmp_path, capsys, command):
        # A + BK = -1 is Hurwitz, so the file is valid, but exp(A tau) = e^1000
        # is not a double: that used to end in an OverflowError traceback.
        model = {"A": [[1.0]], "B": [[1.0]], "K": [[-2.0]], "G": [[1.0]], "tau": 1000.0, "mu": 1.0}
        path = tmp_path / "long-delay.json"
        path.write_text(json.dumps(model))
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gainlab: error: matrix exponential overflowed double precision\n"

    def test_bounds_past_1e154_stay_finite(self, tmp_path, capsys, monkeypatch):
        # exp(A tau) = e^600 is a double but its square is not: the spectral
        # norms used to square the entries, and every bound printed NaN.
        # phi(s) = 2 e^s and r(s) = e^s integrate in closed form.  The
        # absolute quad_tol is far below the integrals' rounding, so the
        # quadrature stops at rounding level: it took 2.7 million nodes
        # when it split every such panel down to its width floor.
        model = {"A": [[1.0]], "B": [[1.0]], "K": [[-2.0]], "G": [[1.0]], "tau": 600.0, "mu": 1.0}
        path = tmp_path / "long-delay.json"
        path.write_text(json.dumps(model))
        nodes = []
        original = delay.gauss_legendre

        def counting(f, a, b, tol):
            return original(lambda s: nodes.append(s.size) or f(s), a, b, tol)

        monkeypatch.setattr(delay, "gauss_legendre", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["analyze", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["phi_integral"] == pytest.approx(2.0 * math.expm1(600.0), rel=1e-12)
        assert doc["r_integral"] == pytest.approx(math.expm1(600.0), rel=1e-12)
        assert 0 < sum(nodes) < 10**5

    def test_bound_past_double_range_exit_1(self, tmp_path, capsys):
        # exp(A tau) = e^709 is a double, but (M / sigma) times the phi
        # integral is not: the bounds report refuses its infinite field.
        model = {"A": [[1.0]], "B": [[1.0]], "K": [[-2.0]], "G": [[1.0]], "tau": 709.0, "mu": 1.0}
        path = tmp_path / "long-delay.json"
        path.write_text(json.dumps(model))
        assert main(["analyze", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gainlab: error: delay bound field oag_bound must be finite, got inf\n"

    @pytest.mark.parametrize(
        "command, message",
        [
            ("analyze", "delay bound field phi_integral must be finite, got inf"),
            ("delay-demo", "delay bound field phi_integral must be finite, got inf"),
            ("simulate", "the predictor's input gain exp(A tau) G overflowed double precision"),
        ],
        ids=["analyze", "delay-demo", "simulate"],
    )
    def test_overflowing_kernel_exit_1(self, tmp_path, capsys, command, message):
        # exp(A tau) = e^709 is a double, but B K exp(A s) G near s = tau and
        # exp(A tau) G are not.  analyze and delay-demo printed two
        # RuntimeWarnings from the bounds' integrand and phi(tau) before the
        # report's refusal; simulate refuses the predictor's input gain.
        model = {"A": [[1000.0]], "B": [[1.0]], "G": [[10.0]], "K": [[-1001.0]], "tau": 0.709, "mu": 2.0}
        path = tmp_path / "overflowing-kernel.json"
        path.write_text(json.dumps(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"gainlab: error: {message}\n"

    @pytest.mark.parametrize(
        "model, command, code, message",
        [
            *((HUGE_SCALE, command, 0, None) for command in ("analyze", "sweep", "simulate")),
            *((TINY_SCALE, command, 0, None) for command in ("analyze", "sweep")),
            (TINY_SCALE, "simulate", 1, "the system is too stiff to simulate: ||G||_1 / sigma = 1e+300 "
             "exceeds 1e+09 (G the flow of the state and the input)"),
            (OVERFLOWING_RESIDUAL, "analyze", 1, "{path}: A is not Hurwitz"),
        ],
        ids=["1e300-analyze", "1e300-sweep", "1e300-simulate", "1e-300-analyze", "1e-300-sweep",
             "1e-300-simulate", "1e150-analyze"],
    )
    def test_lyapunov_check_silent_at_any_scale(self, tmp_path, capsys, model, command, code, message):
        # The solve's residual check took raw Frobenius norms: ||A|| or ||P||
        # overflowed while the other underflowed, every command printed two
        # RuntimeWarnings, and inf * 0 = NaN switched the check off.  On the
        # last file the scale ||A|| ||P|| itself leaves double range.  (The
        # 1e300 file's simulate is pinned for its silence only: see ROADMAP
        # on its states.)
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(model))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([command, str(path)]) == code
        out, err = capsys.readouterr()
        if code:
            assert out == "" and err == f"gainlab: error: {message.format(path=path)}\n"
        else:
            assert err == "" and out

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
    def test_delay_stored_rows_refused_before_allocating(self, delay_file, capsys, command):
        # tau = 0.5, h = tau / 9.9e6: 2,000 steps read 1.98 x 10^10 stored rows.
        # The kernels of N + 1 rows alone would make an 80 MB peak before
        # the refusal.
        tracemalloc.start()
        try:
            code = main([command, delay_file, "--t-max", "1e-4", "--step", repr(0.5 / 9.9e6)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and peak < 10 * 2**20
        assert "stored rows" in capsys.readouterr().err

    def test_vt_partition_cells_exit_1(self, oscillator_file, capsys):
        # ||A||_1 = 2: T = 1e9 needs 2 x 10^9 base cells, many minutes of
        # partition before the cell limit.
        start = time.perf_counter()
        assert main(["vt", oscillator_file, "--t-max", "1e9"]) == 1
        assert time.perf_counter() - start < 1.0
        err = capsys.readouterr().err
        assert err.startswith("gainlab: error: ") and err.count("\n") == 1
        assert "partition cells" in err and "--t-max" in err

    @pytest.mark.parametrize("command", ["analyze", "verify"])
    def test_refused_allocation_exit_1(self, oscillator_file, capsys, monkeypatch, command):
        # On (100, 1e-3) and the n = 20 Jordan chain the partition's block
        # leads ask NumPy for 25.6 GiB to 3.25 TiB.  The refusal is raised
        # here without allocating: a host that overcommits memory could
        # accept the request and then run out of memory.
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 25.6 GiB for an array")

        monkeypatch.setattr(gains, "_sign_partition", refuse)
        assert main([command, oscillator_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gainlab: error: Unable to allocate 25.6 GiB for an array\n"

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
            (-1.0, None, "1e-6", "model file: tol must be finite and positive, got -1.0"),
            (None, "inf", "1e-6", "--tol: tol must be finite and positive, got inf"),
        ],
    )
    def test_bad_tol_message(self, tmp_path, capsys, monkeypatch, file_tol, flag, env, message):
        # env, when given, is a valid GAINLAB_TOL, which changes no message.
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

    def test_non_finite_estimate_exits_1(self, oscillator_file, capsys, monkeypatch):
        # A NaN in a document is refused at the writer: exit 1, one error
        # line naming the field, and no partial document on stdout.
        def nan_sinusoid(sys, omegas=None):
            return GainEstimate(1.0, "lower", "sinusoid", 1e-12, {"omega": math.nan})

        monkeypatch.setattr(gains, "sinusoid_lower_bound", nan_sinusoid)
        assert main(["analyze", oscillator_file]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gainlab: error: ") and err.count("\n") == 1
        assert "'omega'" in err

    def test_non_finite_trajectory_row_exits_1(self, oscillator_file, capsys, monkeypatch):
        simulate_once = sim.simulate

        def nan_row(*args, **kwargs):
            traj = simulate_once(*args, **kwargs)
            traj.states[7, 1] = math.nan
            return traj

        monkeypatch.setattr(sim, "simulate", nan_row)
        assert main(["simulate", oscillator_file, "--t-max", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("gainlab: error: ") and err.count("\n") == 1
        assert "column 'x_2', row 8" in err

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

    def test_no_arguments_carried_over(self, oscillator_file, capsys):
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

    def test_single_output_curve_past_the_ascent_budget(self, tmp_path, capsys):
        # Two inputs and one output: V(T) is the integral of |c exp(As) B|
        # over [0, T], one per horizon.  The one-step ascent that computed it
        # refused 1000 points (1000^2 (1 + 8) 2 = 1.8 x 10^7 state entries).
        a, b, c = np.array([[0.0, 1.0], [-1.0, -1.0]]), np.eye(2), np.array([[1.0, 0.5]])
        path = tmp_path / "m2p1.json"
        path.write_text(json.dumps({"A": a.tolist(), "B": b.tolist(), "C": c.tolist()}))
        assert main(["vt", str(path), "--points", "1000"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = np.array([[float(v) for v in line.split(",")] for line in captured.out.split()[1:]])
        assert rows.shape == (1000, 2)
        kernel = lambda s: np.linalg.norm(c @ scipy.linalg.expm(a * s) @ b)  # noqa: E731
        for t, value in rows[[0, 499, 999]]:
            ref = scipy.integrate.quad(kernel, 0.0, t, epsabs=1e-12, epsrel=1e-12, limit=200)[0]
            assert abs(value - ref) <= 1e-8


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

    def test_stiff_system_refused(self, tmp_path, capsys):
        # y(5) printed 0.99325968346467075, 2.4e-6 from 1 - e^-5, with exit 0.
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps({"A": [[-1e10, 0.0], [0.0, -1.0]], "B": [[1.0], [1.0]], "C": [[0.0, 1.0]]}))
        assert main(["simulate", str(path), "--t-max", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "gainlab: error: the system is too stiff to simulate: ||G||_1 / sigma = 1e+10 "
            "exceeds 1e+09 (G the flow of the state and the input)\n"
        )

    @pytest.mark.parametrize("k", [6, 10, 15, 300])
    def test_stiff_scalar_family(self, tmp_path, capsys, k):
        # A = -10^k, B = 10^k, C = 1: y = 1 - e^{-10^k t}.  y(20) printed 0.61
        # at k = 15, and 0 from k = 20 on, with exit 0.
        assert main(["simulate", _stiff_scalar_file(tmp_path, k)]) == 0
        rows = np.loadtxt(capsys.readouterr().out.splitlines(), delimiter=",", skiprows=1)
        assert rows.shape == (2001, 3)
        exact = 1.0 - np.exp(-(10.0**k) * rows[:, 0])
        np.testing.assert_allclose(rows[:, 2], exact, rtol=0.0, atol=1e-12)

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

    @pytest.mark.parametrize("k", [12, 15])
    def test_stiff_scalar_horizon_refused(self, tmp_path, capsys, k):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["worstcase", _stiff_scalar_file(tmp_path, k)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == (
            f"gainlab: error: 1e+{k + 1} partition cells for horizon 10 exceeds the limit "
            "of 5000000 (--horizon)\n"
        )

    def _trajectory(self, path, capsys):
        assert main(["worstcase", path]) == 0
        out, err = capsys.readouterr()
        assert err == "worst-case input: horizon=10 rest=15 period=25 rest_tolerance=1e-06\n"
        return np.loadtxt(out.splitlines(), delimiter=",", skiprows=1)

    def test_tiny_kernel_is_driven(self, tmp_path, capsys):
        # The kernel 1e-20 e^{-s} was taken for a vanishing one: x and y
        # printed all zero.  Under u = 1 on [0, 10], y = 1e-20 x_1.
        rows = self._trajectory(_model_file(tmp_path, "tiny"), capsys)
        assert rows[:, 1].max() > 0.99 and not rows[:, 2].any()
        np.testing.assert_allclose(rows[:, 3], 1e-20 * rows[:, 1], rtol=1e-15)

    def test_exact_zero_kernel_rests(self, tmp_path, capsys):
        # The zero-input marker: every period is rest, and every state 0.
        rows = self._trajectory(_model_file(tmp_path, "exact-zero"), capsys)
        assert rows.shape == (3 * 4096 + 1, 4) and not rows[:, 1:].any()

    def test_small_b_kernel_scales(self, tmp_path, capsys):
        # B = 1e-300 (1, 1): the same input as at B = (1, 1), one switch at
        # 10 - ln 3, and the states 1e-300 times its states.
        small = self._trajectory(_model_file(tmp_path, "b-1e-300"), capsys)
        unit = tmp_path / "unit.json"
        unit.write_text(json.dumps({**SMALL_KERNEL_MODELS["b-1e-300"], "B": [[1.0], [1.0]]}))
        rows = self._trajectory(str(unit), capsys)
        np.testing.assert_allclose(small[:, 1:], 1e-300 * rows[:, 1:], rtol=1e-12, atol=1e-320)
        assert np.abs(small[:, 1:]).max() > 1e-301


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

    def test_vanishing_kernel_passes_exit_0(self, tmp_path, capsys):
        # B drives only x_1 and C reads only x_2, so the kernel is 0.
        assert main(["verify", _model_file(tmp_path, "exact-zero")]) == 0
        assert json.loads(capsys.readouterr().out) == VANISHING_DOCUMENT

    def test_near_zero_and_small_b_kernels_vanish(self, tmp_path, capsys):
        # The near-zero kernel (2.5e-15, all rounding) printed gamma 2.5e-15
        # and passed false with exit 1.  At B = 1e-300 the L1 horizon is 0, so
        # no partition runs, and gamma is 0.
        near = tmp_path / "near.json"
        sys = near_zero_kernel_system()
        near.write_text(json.dumps({"A": sys.a.tolist(), "B": sys.b.tolist(), "C": sys.c.tolist()}))
        for path in (str(near), _model_file(tmp_path, "b-1e-300")):
            assert main(["verify", path]) == 0
            assert json.loads(capsys.readouterr().out) == VANISHING_DOCUMENT

    def test_stiff_system_refused_before_the_partition(self, tmp_path, capsys, monkeypatch):
        # The L1 partition ran first and held 3.2 GB after 2.5 min.
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps({"A": [[-1e10, 0.0], [0.0, -1.0]], "B": [[1.0], [1.0]], "C": [[0.0, 1.0]]}))
        partitions = []
        monkeypatch.setattr(gains, "_partition", lambda *args, **kwargs: partitions.append(1))
        start = time.perf_counter()
        assert main(["verify", str(path)]) == 1
        assert time.perf_counter() - start < 1.0 and not partitions
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "gainlab: error: the system is too stiff to simulate: ||G||_1 / sigma = 1e+10 "
            "exceeds 1e+09 (G the flow of the state and the input)\n"
        )

    @pytest.mark.parametrize("k", [12, 15, 50, 62, 100, 300])
    def test_stiff_scalar_horizon_past_the_cell_budget(self, tmp_path, capsys, k):
        # The rest is a whole time unit, so verify's horizon is at least
        # 1 / 4095, and A = -10^k partitioned 2.4 x 10^(k - 4) cells of it:
        # no answer in 30 s under a 3 GB address-space limit.  The L1
        # partition before the refusal lifts its rows by wA, the cell-scaled
        # matrix, so no power or norm of A overflows: unscaled, the norms of
        # c A^4 and c A^5 did from k = 50 on, and A^5 itself from k = 62.
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", _stiff_scalar_file(tmp_path, k)]) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("gainlab: error: ") and err.count("\n") == 1
        assert "partition cells for horizon 0.0002442" in err and "with no flag" in err

    def test_tiny_kernel_passes_exit_0(self, tmp_path, capsys):
        # 1e-20 e^{-s}: the check ran the zero input (asymptotic gain 0) and
        # exited 1.
        assert main(["verify", _model_file(tmp_path, "tiny")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert doc["gamma"] == pytest.approx(1e-20, rel=1e-9)
        assert abs(doc["asymptotic_gain"] - doc["gamma"]) <= doc["accuracy"] * doc["gamma"]


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

    def test_one_expm_stack_per_flow(self, delay_file, capsys, monkeypatch):
        # The bounds' flow of A on [0, tau] gives every quadrature node and
        # exp(A tau).  Each of the four battery inputs walks two flows, of
        # (A, G) over [0, tau] and of (P, xi), whose generators carry that
        # input's own state: one Pade stack each, nine in all, whatever the
        # step count.
        calls = []
        original = linalg._pade13

        def counting(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(linalg, "_pade13", counting)
        for steps in (64, 256):
            calls.clear()
            assert main(["delay-demo", delay_file, "--step", repr(0.5 / steps)]) == 0
            assert json.loads(capsys.readouterr().out)["all_within_oag"] is True
            assert len(calls) == 9


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
        traj = simulate_predictor(system, Constant(u0=[1.0]), np.zeros(system.n), 9.0, h)
        xi, xi_ref = predictor_error_series(traj, system)
        assert_same_text(out, reference_delay_trajectory_csv(traj, xi, xi_ref))


def _system_file(tmp_path, n, seed):
    """A random SISO system of n states, written as a model file."""
    rng = np.random.default_rng(seed)
    doc = {
        "A": random_hurwitz_matrix(rng, n=n).tolist(),
        "B": rng.uniform(-2.0, 2.0, (n, 1)).tolist(),
        "C": rng.uniform(-2.0, 2.0, (1, n)).tolist(),
    }
    path = tmp_path / f"siso-{n}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _delay_loop_file(tmp_path, n):
    """A delay loop of n plant states and one input: 1 + n + 3 columns."""
    a = -np.eye(n) + 0.2 * np.eye(n, k=1)
    ones = np.ones((n, 1))
    doc = {"A": a.tolist(), "B": ones.tolist(), "G": ones.tolist(),
           "K": (-0.5 / n * ones.T).tolist(), "tau": 0.5, "mu": 2.0}
    path = tmp_path / f"delay-{n}.json"
    path.write_text(json.dumps(doc))
    return str(path)


# Rows of a table around one and two chunks of _CSV_CHUNK values.
CHUNK_OFFSETS = {"chunk-1": (1, -1), "chunk": (1, 0), "chunk+1": (1, 1), "2chunk+1": (2, 1)}


def _chunk_rows(columns, offset):
    chunks, extra = CHUNK_OFFSETS[offset]
    return chunks * (modelio._CSV_CHUNK // columns) + extra


class TestStreamedCsv:
    """simulate, worstcase and a delay simulate write their CSV chunk by
    chunk; on stdout and in an --out file the bytes are the value-by-value
    reference writer's, on tables that end just before, at and just after a
    chunk boundary."""

    def check(self, capsys, tmp_path, argv, reference, rows):
        assert reference.count("\n") == rows + 1
        assert main(argv) == 0
        assert_same_text(capsys.readouterr().out, reference)
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == reference.encode("ascii")

    @pytest.mark.parametrize("offset", sorted(CHUNK_OFFSETS))
    @pytest.mark.parametrize("columns", [3, 4, 5, 6, 7, 8])
    def test_simulate(self, tmp_path, capsys, columns, offset):
        rows = _chunk_rows(columns, offset)
        path = _system_file(tmp_path, columns - 2, columns)
        t_max = (rows - 1) * 0.01
        system, _ = parse_system(path)
        traj = simulate(system, Constant(u0=[1.0]), np.zeros(system.n), t_max, 0.01)
        argv = ["simulate", path, "--t-max", repr(t_max), "--step", "0.01"]
        self.check(capsys, tmp_path, argv, reference_trajectory_csv(traj), rows)

    @pytest.mark.parametrize("offset", sorted(CHUNK_OFFSETS))
    @pytest.mark.parametrize("columns", [3, 5, 8])
    def test_worstcase(self, tmp_path, capsys, columns, offset):
        rows = _chunk_rows(columns, offset)
        path = _system_file(tmp_path, columns - 2, 10 + columns)
        t_max = (rows - 1) * 0.01
        system, _ = parse_system(path)
        signal, _ = worst_case_periodic_input(system, 3.0, 1e-6)
        traj = simulate(system, signal, np.zeros(system.n), t_max, 0.01)
        argv = ["worstcase", path, "--horizon", "3", "--t-max", repr(t_max), "--step", "0.01"]
        self.check(capsys, tmp_path, argv, reference_trajectory_csv(traj), rows)

    @pytest.mark.parametrize("offset", sorted(CHUNK_OFFSETS))
    @pytest.mark.parametrize("columns", [5, 6, 8])
    def test_delay_simulate(self, tmp_path, capsys, columns, offset):
        rows = _chunk_rows(columns, offset)
        path = _delay_loop_file(tmp_path, columns - 4)
        system, _ = parse_system(path)
        h = system.tau / 64.0
        t_max = (rows - 1) * h
        traj = simulate_predictor(system, Constant(u0=[1.0]), np.zeros(system.n), t_max, h)
        xi, xi_ref = predictor_error_series(traj, system)
        argv = ["simulate", path, "--t-max", repr(t_max)]
        self.check(capsys, tmp_path, argv, reference_delay_trajectory_csv(traj, xi, xi_ref), rows)

    def test_memory_is_a_few_chunks(self, oscillator_file, tmp_path, monkeypatch):
        # Beyond the trajectory's own arrays (built before tracing starts),
        # writing its CSV takes a few chunks, whatever the row count: at
        # 20,000 and 160,000 rows (1.6 and 12.5 MB of CSV) the traced peak
        # stays under 16 chunks of the widest text.  A writer that joins the
        # text first peaks at 4.0 and 30 MB.
        system, _ = parse_system(oscillator_file)
        cli._parser()
        for rows in (20_000, 160_000):
            t_max = (rows - 1) * 0.01
            traj = simulate(system, Constant(u0=[1.0]), np.zeros(2), t_max, 0.01)
            monkeypatch.setattr(sim, "simulate", lambda *args, traj=traj: traj)
            out = tmp_path / f"{rows}.csv"
            tracemalloc.start()
            try:
                argv = ["simulate", oscillator_file, "--t-max", repr(t_max), "--out", str(out)]
                assert main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert out.read_text().count("\n") == rows + 1
            assert peak < 16 * modelio._CSV_CHUNK * modelio._CELL, rows

    @pytest.mark.parametrize("command", ["simulate", "worstcase", "delay-simulate"])
    @pytest.mark.parametrize("value", [math.nan, -math.inf])
    def test_non_finite_value_writes_nothing(self, tmp_path, capsys, monkeypatch, command, value):
        # The value sits in the table's second chunk: the whole table is
        # checked before the first chunk, so stdout stays empty and no --out
        # file is made.
        row = modelio._CSV_CHUNK // 4 + 5
        if command == "delay-simulate":
            path, argv, column = _delay_loop_file(tmp_path, 1), ["simulate"], "pred_err_1"
            series_once = delay.predictor_error_series

            def spoiled(*args):
                xi, xi_ref = series_once(*args)
                xi[row - 1, 0] = value
                return xi, xi_ref

            monkeypatch.setattr(delay, "predictor_error_series", spoiled)
        else:
            path, argv, column = _system_file(tmp_path, 2, 1), [command, "--step", "0.01"], "x_2"
            simulate_once = sim.simulate

            def spoiled(*args, **kwargs):
                traj = simulate_once(*args, **kwargs)
                traj.states[row - 1, 1] = value
                return traj

            monkeypatch.setattr(sim, "simulate", spoiled)
        argv = [argv[0], path, "--t-max", "30", *argv[1:]]
        out = tmp_path / "out.csv"
        for extra in ([], ["--out", str(out)]):
            assert main(argv + extra) == 1
            stdout, err = capsys.readouterr()
            assert stdout == ""
            assert err.splitlines()[-1] == (
                f"gainlab: error: non-finite value {value!r} in column {column!r}, row {row}"
            )
            assert not out.exists()
