import json
import math

import numpy as np
import pytest

from gainlab import (
    CertificateBoundInput,
    Constant,
    DelayPredictorSystem,
    GainlabError,
    NotHurwitzError,
    Sinusoid,
    StateSpaceSystem,
    Zero,
    certificate_gain_bound,
    delay_bounds,
    gain_report,
    l1_impulse_gain,
    predictor_error_series,
    simulate,
    simulate_predictor,
    sinusoid_response,
    vcurve,
    verify_gain_equality,
    worst_case_periodic_input,
)
from gainlab import modelio
from gainlab.modelio import (
    bound_document,
    csv_lines,
    delay_bounds_document,
    delay_trajectory_csv,
    dumps_document,
    gain_report_document,
    parse_certificate_bound_input,
    parse_system,
    sweep_csv,
    trajectory_csv,
    vcurve_csv,
    verification_document,
)
from gainlab_testkit import (
    assert_same_text,
    random_hurwitz_matrix,
    reference_csv_lines,
    reference_delay_trajectory_csv,
    reference_sweep_csv,
    reference_trajectory_csv,
    reference_vcurve_csv,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload) if not isinstance(payload, str) else payload)
    return path


class TestParseSystem:
    def test_standard(self, tmp_path):
        path = write(
            tmp_path,
            "sys.json",
            {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]], "tol": 1e-6, "seed": 3},
        )
        system, extras = parse_system(path)
        assert isinstance(system, StateSpaceSystem)
        assert extras == {"tol": 1e-6, "seed": 3}

    def test_extras_default_none(self, tmp_path):
        path = write(tmp_path, "sys.json", {"A": [[-1.0]], "B": [[1.0]], "C": [[1.0]]})
        _, extras = parse_system(path)
        assert extras == {"tol": None, "seed": None}

    def test_delay_format(self, tmp_path):
        path = write(
            tmp_path,
            "delay.json",
            {
                "A": [[-1.0]],
                "B": [[1.0]],
                "G": [[1.0]],
                "K": [[-0.5]],
                "tau": 0.5,
                "mu": 2.0,
            },
        )
        system, _ = parse_system(path)
        assert isinstance(system, DelayPredictorSystem)
        assert system.tau == 0.5

    def test_partial_delay_keys_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "bad.json",
            {"A": [[-1.0]], "B": [[1.0]], "G": [[1.0]], "K": [[-0.5]], "tau": 0.5},
        )
        with pytest.raises(ValueError, match="mu"):
            parse_system(path)

    def test_missing_matrix(self, tmp_path):
        path = write(tmp_path, "bad.json", {"A": [[-1.0]], "B": [[1.0]]})
        with pytest.raises(ValueError, match="C"):
            parse_system(path)

    def test_ragged_matrix(self, tmp_path):
        path = write(
            tmp_path, "bad.json", {"A": [[-1.0, 0.0], [1.0]], "B": [[1.0]], "C": [[1.0]]}
        )
        with pytest.raises(ValueError, match="ragged or non-numeric"):
            parse_system(path)

    def test_flat_vector_rejected(self, tmp_path):
        path = write(tmp_path, "bad.json", {"A": [-1.0], "B": [[1.0]], "C": [[1.0]]})
        with pytest.raises(ValueError, match="2-d"):
            parse_system(path)

    def test_non_finite_rejected(self, tmp_path):
        path = write(
            tmp_path, "bad.json", '{"A": [[NaN]], "B": [[1.0]], "C": [[1.0]]}'
        )
        with pytest.raises(ValueError, match="non-finite"):
            parse_system(path)

    def test_top_level_list_rejected(self, tmp_path):
        path = write(tmp_path, "bad.json", "[1, 2]")
        with pytest.raises(ValueError, match="object"):
            parse_system(path)

    def test_unstable_diagnostic_names_file(self, tmp_path):
        path = write(
            tmp_path,
            "unstable.json",
            {"A": [[0.0, 1.0], [-1.0, 0.0]], "B": [[0.0], [1.0]], "C": [[1.0, 0.0]]},
        )
        with pytest.raises(NotHurwitzError, match="A is not Hurwitz") as info:
            parse_system(path)
        assert "unstable.json" in str(info.value)

    def test_unstable_delay_diagnostic(self, tmp_path):
        path = write(
            tmp_path,
            "unstable.json",
            {
                "A": [[1.0]],
                "B": [[1.0]],
                "G": [[1.0]],
                "K": [[-0.5]],
                "tau": 0.5,
                "mu": 2.0,
            },
        )
        with pytest.raises(NotHurwitzError, match="A \\+ B K is not Hurwitz"):
            parse_system(path)

    def test_boolean_scalar_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "bad.json",
            {
                "A": [[-1.0]],
                "B": [[1.0]],
                "G": [[1.0]],
                "K": [[-0.5]],
                "tau": True,
                "mu": 2.0,
            },
        )
        with pytest.raises(ValueError, match="tau"):
            parse_system(path)


class TestParseCertificateBoundInput:
    def test_round_trip(self, tmp_path):
        path = write(
            tmp_path,
            "b41.json",
            {
                "certificates": [[2.0, 1.0]],
                "b_samples": [[0.0, 1.0], [1.0, 2.0]],
                "T_grid": [2.0, 4.0],
            },
        )
        data = parse_certificate_bound_input(path)
        assert data.certificates == ((2.0, 1.0),)
        np.testing.assert_array_equal(data.t_grid, [2.0, 4.0])

    def test_missing_key(self, tmp_path):
        path = write(tmp_path, "b41.json", {"certificates": [[2.0, 1.0]]})
        with pytest.raises(ValueError, match="b_samples"):
            parse_certificate_bound_input(path)


class TestDeterministicSerialization:
    def test_fmt_17_digits(self):
        text = dumps_document({"x": 0.1, "n": 3, "flag": True, "none": None})
        assert '"x": 0.10000000000000001' in text
        assert '"n": 3' in text
        assert '"flag": true' in text
        assert '"none": null' in text

    def test_json_round_trip(self, scalar_system):
        rep = gain_report(scalar_system, tol=1e-9)
        doc = gain_report_document(rep)
        text = dumps_document(doc)
        parsed = json.loads(text)
        assert parsed["exact"]["value"] == pytest.approx(1.0, abs=1e-8)
        assert parsed["schema_version"] == 1
        assert parsed["dims"] == {"n": 1, "m": 1, "p": 1}

    def test_byte_determinism(self, oscillator):
        docs = []
        for _ in range(2):
            rep = gain_report(oscillator, tol=1e-8)
            docs.append(dumps_document(gain_report_document(rep)))
        assert docs[0] == docs[1]

    def test_editing_a_document_leaves_its_records(self, diag_two_output):
        # Documents hold copies of the frozen records' fields, not the
        # records' own __dict__.
        rep = gain_report(diag_two_output, tol=1e-8)
        doc = gain_report_document(rep)
        text = dumps_document(doc)
        for entry in (doc["exact"], *doc["lowers"], *doc["uppers"], doc["structure"]):
            if entry is not None:
                entry.clear()
        assert dumps_document(gain_report_document(rep)) == text

    def test_nested_arrays_serialized(self):
        text = dumps_document({"m": np.array([[1.0, 2.0], [3.0, 4.0]])})
        parsed = json.loads(text)
        assert parsed["m"] == [[1.0, 2.0], [3.0, 4.0]]

    def test_verification_document(self, scalar_system):
        record = verify_gain_equality(scalar_system, accuracy=0.05)
        doc = verification_document(record)
        parsed = json.loads(dumps_document(doc))
        assert parsed["passed"] is True
        assert parsed["gamma"] == pytest.approx(1.0, abs=1e-7)

    def test_bound_document(self):
        est = certificate_gain_bound(
            CertificateBoundInput(
                certificates=[(2.0, 1.0)], b_samples=[[0.0, 1.0]], t_grid=[4.0]
            )
        )
        parsed = json.loads(dumps_document(bound_document(est)))
        assert parsed["method"] == "theorem41"
        assert parsed["value"] == pytest.approx(1.0)
        assert len(parsed["details"]["cells"]) == 1

    def test_delay_bounds_document(self, scalar_delay):
        doc = delay_bounds_document(delay_bounds(scalar_delay))
        parsed = json.loads(dumps_document(doc))
        assert parsed["oag_bound"] == pytest.approx(1.0 - math.exp(-0.5) / 6.0, abs=1e-8)
        assert parsed["oag_bound"] < parsed["ios_bound"]

    def test_non_finite_number_refused(self):
        # A NaN or infinite number would make the document invalid JSON and a
        # false labelled figure: the writer names the field instead.
        for value in (math.nan, math.inf, -np.inf):
            with pytest.raises(GainlabError, match="document field 'omega'"):
                dumps_document({"lowers": [{"value": 1.0, "details": {"omega": value}}]})
        with pytest.raises(GainlabError, match="document field 'm'"):
            dumps_document({"m": np.array([[1.0, 2.0], [math.nan, 4.0]])})

    def test_non_finite_table_refused(self, scalar_system):
        # The commands' tables refuse too, naming the column.
        with pytest.raises(GainlabError, match="column 'Psi', row 2"):
            sweep_csv([1.0, 2.0], [0.5, math.inf])
        traj = simulate(scalar_system, Constant([1.0]), np.zeros(1), 30.0, 0.01)
        traj.outputs[1500, 0] = math.nan
        with pytest.raises(GainlabError, match="column 'y_1', row 1501"):
            trajectory_csv(traj)


class TestCsv:
    def test_csv_lines_shape(self):
        text = csv_lines(["a", "b"], [[1, 2.5], [3, 4.0]])
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert len(lines) == 3

    def test_trajectory_csv(self, oscillator):
        traj = simulate(oscillator, Constant(u0=[1.0]), np.zeros(2), 1.0, 0.5)
        text = trajectory_csv(traj)
        lines = text.strip().split("\n")
        assert lines[0] == "t,x_1,x_2,y_1"
        assert len(lines) == 1 + traj.times.size

    def test_delay_trajectory_csv(self, scalar_delay):
        steps = 8
        traj = simulate_predictor(
            scalar_delay, Zero(dim=1), np.zeros(scalar_delay.n), 1.0, scalar_delay.tau / steps
        )
        xi, xi_ref = predictor_error_series(traj, scalar_delay)
        text = delay_trajectory_csv(traj, xi, xi_ref)
        lines = text.strip().split("\n")
        assert lines[0] == "t,y_1,z_1,pred_err_1,pred_err_ref_1"
        assert len(lines) == 1 + traj.times.size

    def test_vcurve_csv(self, scalar_system):
        curve = vcurve(scalar_system, [1.0, 2.0])
        lines = vcurve_csv(curve).strip().split("\n")
        assert lines[0] == "T,V"
        assert len(lines) == 3

    def test_sweep_csv(self):
        lines = sweep_csv([0.1, 1.0], [0.9, 0.7]).strip().split("\n")
        assert lines[0] == "omega,Psi"
        assert lines[1].startswith("0.1")


def _random_system(rng, n, p=1):
    a = random_hurwitz_matrix(rng, n=n)
    return StateSpaceSystem(
        a=a, b=rng.uniform(-2.0, 2.0, (n, 1)), c=rng.uniform(-2.0, 2.0, (p, n))
    )


def _delay_traj(system, t_end, steps):
    signal = Constant(u0=np.ones(system.p) / np.sqrt(system.p))
    traj = simulate_predictor(system, signal, np.zeros(system.n), t_end, system.tau / steps)
    return (traj, *predictor_error_series(traj, system))


# Rows of a three-column chunk, and of the smallest three-column table that
# _g17_lines writes.
ARRAY_ROWS = modelio._CSV_CHUNK // 3
ARRAY_CUT = -(-modelio._CSV_ARRAY_VALUES // 3)
FOUR_STATE_LOOP = DelayPredictorSystem(
    a=[[-0.5, 0.4, 0.0, 0.1], [-0.3, -0.6, 0.2, 0.0], [0.0, 0.1, -0.4, 0.3], [0.2, 0.0, -0.1, -0.7]],
    b=[[0.5], [-0.3], [0.8], [0.1]],
    g=[[0.2], [0.7], [-0.4], [0.3]],
    k=[[-0.5, 0.3, -0.8, -0.1]],
    tau=0.6,
    mu=2.5,
)


class TestCsvMatchesReference:
    """Every CSV emitter's bytes equal the value-by-value reference writer's."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_trajectory_csv_simulate(self, n):
        rng = np.random.default_rng(100 + n)
        system = _random_system(rng, n, p=1 + n % 2)
        for signal in (Constant(u0=[1.0]), Sinusoid([1.0], 2.3, 0.4)):
            traj = simulate(system, signal, rng.standard_normal(n), 7.3, 0.01)
            assert_same_text(trajectory_csv(traj), reference_trajectory_csv(traj))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_trajectory_csv_worst_case(self, n):
        rng = np.random.default_rng(200 + n)
        system = _random_system(rng, n)
        signal, spec = worst_case_periodic_input(system, 4.0, 1e-6)
        traj = simulate(system, signal, np.zeros(n), 2.0 * spec.period, spec.period / 1500)
        assert_same_text(trajectory_csv(traj), reference_trajectory_csv(traj))

    @pytest.mark.parametrize("name", ["scalar", "four-state"])
    def test_delay_trajectory_csv(self, scalar_delay, name):
        system = scalar_delay if name == "scalar" else FOUR_STATE_LOOP
        traj, xi, xi_ref = _delay_traj(system, 6.0, 32)
        assert_same_text(
            delay_trajectory_csv(traj, xi, xi_ref),
            reference_delay_trajectory_csv(traj, xi, xi_ref),
        )

    def test_vcurve_and_sweep_csv(self, oscillator):
        curve = vcurve(oscillator, np.linspace(0.5, 10.0, 20))
        assert_same_text(vcurve_csv(curve), reference_vcurve_csv(curve))
        omegas = np.geomspace(1e-3, 1e3, 200)
        values = [sinusoid_response(oscillator, w) for w in omegas]
        assert_same_text(sweep_csv(omegas, values), reference_sweep_csv(omegas, values))

    def test_edge_values(self):
        # csv_lines refuses NaN and infinity; _g17_lines prints them as "%.17g" does.
        edge = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308]
        table = [edge[:3], edge[3:], [1, 2.5, 3]]
        with pytest.raises(GainlabError, match="non-finite value nan in column 'b', row 1"):
            csv_lines(["a", "b", "c"], table)
        with pytest.raises(GainlabError, match="non-finite value inf in column 'a', row 2"):
            csv_lines(["a"], [0.1, math.inf])
        text = modelio._g17_lines(np.array(table))
        assert text == reference_csv_lines([], table)[1:]
        assert text.split("\n")[:3] == [
            "-0,nan,inf",
            "-inf,4.9406564584124654e-324,1.7976931348623157e+308",
            "1,2.5,3",
        ]
        assert csv_lines(["a"], [[0.1]]) == "a\n0.10000000000000001\n"
        assert csv_lines(["a"], []) == reference_csv_lines(["a"], []) == "a\n"

    @pytest.mark.parametrize(
        "k",
        [
            # Tables under _CSV_ARRAY_VALUES values, each printed by one %.
            ARRAY_CUT - 1,
            # Tables printed by _g17_lines in one chunk, among them the
            # boundaries of the former 256- and 1,024-row blocks and of the
            # former cut at 2,048 values (682 and 683 rows).
            ARRAY_CUT,
            255,
            256,
            257,
            682,
            683,
            1023,
            1024,
            1025,
            2049,
            # Tables printed in chunks of ARRAY_ROWS rows.
            ARRAY_ROWS - 1,
            ARRAY_ROWS,
            ARRAY_ROWS + 1,
            2 * ARRAY_ROWS + 1,
        ],
    )
    def test_block_boundaries(self, k):
        rows = np.random.default_rng(k).standard_normal((k, 3)) * np.logspace(-300, 300, k)[:, None]
        header = ["a", "b", "c"]
        assert_same_text(csv_lines(header, rows), reference_csv_lines(header, rows))

    def test_any_iterable_of_rows(self):
        t = np.linspace(0.0, 1.0, 7)
        y = np.sin(t)
        expected = reference_csv_lines(["t", "y"], zip(t, y))
        assert csv_lines(["t", "y"], [[a, b] for a, b in zip(t, y)]) == expected
        assert csv_lines(["t", "y"], list(zip(t, y))) == expected
        assert csv_lines(["t", "y"], zip(t, y)) == expected
        assert csv_lines(["t", "y"], ((a, b) for a, b in zip(t, y))) == expected
        assert csv_lines(["t", "y"], np.column_stack((t, y))) == expected

    def test_no_emitter_formats_one_value_at_a_time(self, oscillator, monkeypatch):
        traj = simulate(oscillator, Constant(u0=[1.0]), np.zeros(2), 99.99, 0.01)
        assert traj.times.size == 10_000
        delay_traj, xi, xi_ref = _delay_traj(FOUR_STATE_LOOP, 0.6 * 9999 / 64, 64)
        assert delay_traj.times.size == 10_000
        curve = vcurve(oscillator, [1.0, 2.0])
        expected = [
            reference_trajectory_csv(traj),
            reference_delay_trajectory_csv(delay_traj, xi, xi_ref),
            reference_vcurve_csv(curve),
            reference_sweep_csv(traj.times, traj.outputs[:, 0]),
        ]

        def refuse(value):
            raise AssertionError("a CSV emitter formatted a single value")

        monkeypatch.setattr(modelio, "_fmt", refuse)
        ours = [
            modelio.trajectory_csv(traj),
            modelio.delay_trajectory_csv(delay_traj, xi, xi_ref),
            modelio.vcurve_csv(curve),
            modelio.sweep_csv(traj.times, traj.outputs[:, 0]),
        ]
        for text, reference in zip(ours, expected):
            assert_same_text(text, reference)


def _float_bits(rng, size):
    return rng.integers(0, 2**64, size, dtype=np.uint64, endpoint=False).view(np.float64)


def _neighbours(centres, steps=3):
    """Each centre and its ``steps`` nearest doubles on either side."""
    bits = np.asarray(centres, dtype=float).view(np.int64)
    return (bits[:, None] + np.arange(-steps, steps + 1)).view(np.float64).ravel()


def _exact_ties(rng, powers):
    """Doubles q 2^-j, j in ``powers``, whose 18 significant digits end in
    5: the 17-digit rounding is an exact tie, decided half to even.  For
    j <= 23, 10^(j - 1) is a double and the ties are decided in NumPy."""
    values = []
    for j in powers:
        lo, hi = -(-(10**17) // 5**j), 10**18 // 5**j
        q = rng.integers(lo, hi, 40) | 1
        values.append(q.astype(float) * 2.0**-j)
    return np.concatenate(values)


def _g17_cases():
    rng = np.random.default_rng(2024)
    m = rng.integers(10**15, 10**16, 60)
    return {
        "bit-patterns": _float_bits(rng, 6000),
        "powers-of-ten": _neighbours(10.0 ** np.arange(-323, 309), 1),
        "decimal-ties": np.concatenate([(10 * m + 5) / 10.0**j for j in range(0, 36)]),
        "exact-ties": _exact_ties(rng, range(8, 24)),
        "ties-beyond-exact-scales": _exact_ties(rng, range(24, 26)),
        "boundaries": _neighbours(
            [1e-4, 1e-5, 1e16, 1e17, 9.999999999999999e16, 1e-300, 1e300, 1e-301, 1e299],
            40,
        ),
        "decay-past-1e-300": np.geomspace(1e-280, 5e-324, 3000),
        "specials": np.array(
            [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -2.2250738585072014e-308,
             1e-310, 1.7976931348623157e308, 0.5, 1.0, 0.1, 100.0, 123456.0]
        ),
    }


class TestG17Writer:
    """csv_lines on either side of _CSV_ARRAY_VALUES prints every float64
    as the "%.17g" reference writer does."""

    @pytest.mark.parametrize("name", list(_g17_cases()))
    def test_both_paths_match_reference(self, name, monkeypatch):
        values = _g17_cases()[name]
        values = np.concatenate((values, -values))
        header = ["a", "b", "c", "d", "e"]
        if not np.isfinite(values).all():
            # csv_lines refuses NaN and infinity, which _g17_lines prints as
            # "%.17g" does; both paths print the finite values.
            block = np.resize(values, (-(-values.size // 5), 5))
            assert_same_text(modelio._g17_lines(block), reference_csv_lines([], block)[1:])
            with pytest.raises(GainlabError, match="non-finite value"):
                csv_lines(header, block)
            values = values[np.isfinite(values)]
        rows = -(-max(values.size, modelio._CSV_ARRAY_VALUES) // 5)
        table = np.resize(values, (rows, 5))
        calls = []
        original = modelio._g17_lines
        monkeypatch.setattr(modelio, "_g17_lines", lambda b: calls.append(b.shape) or original(b))
        assert_same_text(csv_lines(header, table), reference_csv_lines(header, table))
        assert calls and max(rows * cols for rows, cols in calls) <= modelio._CSV_CHUNK
        calls.clear()
        small = modelio._CSV_ARRAY_VALUES // 5 - 1
        for start in range(0, len(table), small):
            part = table[start : start + small]
            assert_same_text(csv_lines(header, part), reference_csv_lines(header, part))
        assert not calls

    def test_values_at_a_boundary_are_flagged_near(self):
        # Exact 17-digit ties at k = 16 - E = 23 and 24, where 5^k is not a
        # double and only the double-double scale decides them, and
        # t = 10^16 exactly at k = -1..-6: each is flagged near, so "%.17g"
        # prints it, and no ordinary value is.
        ties = np.concatenate((np.arange(3, 17, 2) * 2.0**-24, np.array([1, 3]) * 2.0**-25))
        a = np.concatenate((ties, 10.0 ** np.arange(17, 23)))
        e10 = np.floor(np.log10(a)).astype(np.intp)
        assert set((16 - e10).tolist()) == {23, 24, -1, -2, -3, -4, -5, -6}
        _, _, near = modelio._g17_significand(a, e10, modelio._g17_tables())
        assert near.all()
        a = np.abs(np.random.default_rng(5).standard_normal(1000)) * 1e-7
        e10 = np.floor(np.log10(a)).astype(np.intp)
        _, move, near = modelio._g17_significand(a, e10, modelio._g17_tables())
        assert not near[move == 0].any()

    def test_block_of_values_printed_by_percent_alone(self):
        block = np.array([[0.0, -0.0, math.nan], [math.inf, 1e-310, -1e300]])
        assert modelio._g17_lines(block) == reference_csv_lines([], block)[1:]
