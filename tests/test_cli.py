import json
import time

import numpy as np
import pytest

from gainlab.cli import main


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
        assert doc["exact"]["method"] == "l1-impulse"

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

    def test_infinite_mu_exit_1(self, tmp_path, capsys):
        path = tmp_path / "delay.json"
        path.write_text(
            '{"A": [[-1.0]], "B": [[1.0]], "G": [[1.0]], "K": [[-0.5]], '
            '"tau": 0.5, "mu": Infinity}'
        )
        assert main(["analyze", str(path)]) == 1
        assert "mu must be positive and finite" in capsys.readouterr().err

    def test_delay_rejected_where_standard_needed(self, delay_file, capsys):
        assert main(["vt", delay_file]) == 1
        assert "standard" in capsys.readouterr().err


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
