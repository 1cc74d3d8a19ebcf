import math
import tracemalloc

import numpy as np
import pytest

from gainlab import adaptive_simpson, quadrature, tail_horizon
from gainlab.quadrature import gauss_legendre
from gainlab_testkit import recursive_simpson, simpson

# (integrand, a, b, tol, min_width): the integrands of TestAdaptiveSimpson.
REFERENCE_CASES = {
    "cubic": (lambda s: s**3 - 2.0 * s, 0.0, 2.0, 1e-12, None),
    "exp": (lambda s: math.exp(-s), 0.0, 10.0, 1e-10, None),
    "abs-sin": (lambda s: abs(math.sin(s)), 0.0, 2.0 * math.pi, 1e-9, None),
    "step": (lambda s: 1.0 if s < 0.5 else 0.0, 0.0, 1.0, 1e-14, 1e-5),
    "vector": (lambda s: np.array([math.exp(-s), math.cos(s)]), 0.0, 1.0, 1e-10, None),
    "gaussian": (lambda s: math.exp(-(s**2)), -6.0, 6.0, 1e-11, None),
}


def recording(f):
    nodes = []

    def g(s):
        nodes.append(float(s))
        return f(s)

    return g, nodes


class TestAdaptiveSimpson:
    def test_cubic_is_exact(self):
        # Simpson's rule integrates cubics exactly
        val = adaptive_simpson(lambda s: s**3 - 2.0 * s, 0.0, 2.0, tol=1e-12)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_exponential(self):
        val = adaptive_simpson(lambda s: math.exp(-s), 0.0, 10.0, tol=1e-10)
        assert val == pytest.approx(1.0 - math.exp(-10.0), abs=1e-9)

    def test_kinked_integrand(self):
        # |sin s| over one full period integrates to 4
        val = adaptive_simpson(lambda s: abs(math.sin(s)), 0.0, 2.0 * math.pi, tol=1e-9)
        assert val == pytest.approx(4.0, abs=1e-7)

    def test_vector_integrand(self):
        val = adaptive_simpson(
            lambda s: np.array([math.exp(-s), math.cos(s)]), 0.0, 1.0, tol=1e-10
        )
        assert val.shape == (2,)
        assert val[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
        assert val[1] == pytest.approx(math.sin(1.0), abs=1e-9)

    def test_empty_interval(self):
        assert adaptive_simpson(lambda s: s, 1.0, 1.0, tol=1e-9) == 0.0

    def test_rejects_reversed_interval(self):
        with pytest.raises(ValueError):
            adaptive_simpson(lambda s: s, 1.0, 0.0, tol=1e-9)

    def test_rejects_bad_tol(self):
        for tol in (0.0, float("nan")):
            with pytest.raises(ValueError):
                adaptive_simpson(lambda s: s, 0.0, 1.0, tol=tol)

    def test_min_width_prevents_runaway(self):
        # step discontinuity: refinement must stop at min_width, not recurse forever
        f = lambda s: 1.0 if s < 0.5 else 0.0
        val = adaptive_simpson(f, 0.0, 1.0, tol=1e-14, min_width=1e-5)
        assert val == pytest.approx(0.5, abs=1e-4)

    def test_gaussian_bump(self):
        val = adaptive_simpson(lambda s: math.exp(-(s**2)), -6.0, 6.0, tol=1e-11)
        assert val == pytest.approx(math.sqrt(math.pi), abs=1e-9)


class TestLevelSynchronousCore:
    """adaptive_simpson against gainlab_testkit's recursion, and the testkit's
    level-synchronous Simpson reference against adaptive_simpson."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_same_nodes_and_values_as_recursion(self, case):
        f, a, b, tol, min_width = REFERENCE_CASES[case]
        g_ref, ref_nodes = recording(f)
        g_new, new_nodes = recording(f)
        ref = recursive_simpson(g_ref, a, b, tol, min_width)
        val = adaptive_simpson(g_new, a, b, tol, min_width)
        assert sorted(new_nodes) == sorted(ref_nodes)
        np.testing.assert_allclose(val, ref, rtol=1e-14, atol=1e-14)

    # The testkit rule keeps the default width floor.
    @pytest.mark.parametrize("case", sorted(k for k, v in REFERENCE_CASES.items() if v[4] is None))
    def test_testkit_levels_match_recursion(self, case):
        f, a, b, tol, _ = REFERENCE_CASES[case]
        g_ref, ref_nodes = recording(f)
        new_nodes = []

        def vectorized(s):
            new_nodes.extend(s.tolist())
            return np.array([np.asarray(f(x), dtype=float) for x in s])

        ref = adaptive_simpson(g_ref, a, b, tol)
        val = simpson(vectorized, a, b, tol)
        assert sorted(new_nodes) == sorted(ref_nodes)
        np.testing.assert_allclose(val, ref, rtol=1e-14, atol=1e-14)


class TestGaussLegendre:
    def test_rule_is_golub_welsch(self):
        # The constants against NumPy's nodes and weights, moved to [0, 1].
        nodes, weights = np.polynomial.legendre.leggauss(8)
        np.testing.assert_allclose(quadrature._NODES, 0.5 + 0.5 * nodes, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(quadrature._WEIGHTS, 0.5 * weights, rtol=0.0, atol=1e-15)

    def test_degree_15_exact_on_one_panel(self):
        calls = []

        def f(s):
            calls.append(s.size)
            return s**15

        # The panel and its two halves agree to rounding, so the panel is
        # accepted; s^15 turns a node's rounding into 15 ulps.
        assert gauss_legendre(f, 0.0, 2.0, 1e-12) == pytest.approx(2.0**16 / 16.0, rel=2e-15)
        assert calls == [8, 16]

    @pytest.mark.parametrize(
        "f, a, b, exact",
        [
            (lambda s: np.exp(-s), 0.0, 10.0, 1.0 - math.exp(-10.0)),
            (lambda s: np.abs(np.sin(s)), 0.0, 2.0 * math.pi, 4.0),
            (lambda s: np.abs(s - 1.0 / 3.0), 0.0, 1.0, 5.0 / 18.0),
            (lambda s: np.exp(-(s**2)), -6.0, 6.0, math.sqrt(math.pi)),
        ],
        ids=["exp", "abs-sin", "kink", "gaussian"],
    )
    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_meets_tol(self, f, a, b, exact, tol):
        assert abs(gauss_legendre(f, a, b, tol) - exact) <= tol

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_capped_groups_keep_nodes_and_values(self, case, monkeypatch):
        # With one panel per integrand call the rule visits the same nodes;
        # only the order in which accepted panels are summed changes.
        f, a, b, tol, _ = REFERENCE_CASES[case]

        def run():
            nodes = []

            def vectorized(s):
                nodes.extend(s.tolist())
                return np.array([np.asarray(f(x), dtype=float) for x in s])

            return gauss_legendre(vectorized, a, b, tol), sorted(nodes)

        grouped, grouped_nodes = run()
        monkeypatch.setattr(quadrature, "_GROUP", 1)
        single, single_nodes = run()
        assert single_nodes == grouped_nodes
        np.testing.assert_allclose(single, grouped, rtol=1e-14, atol=1e-16)

    def test_vector_integrand(self):
        val = gauss_legendre(lambda s: np.stack((np.exp(-s), np.cos(s)), axis=1), 0.0, 1.0, 1e-10)
        assert val.shape == (2,)
        np.testing.assert_allclose(val, [1.0 - math.exp(-1.0), math.sin(1.0)], rtol=0.0, atol=1e-10)

    def test_rejects_bad_args(self):
        for a, b in ((1.0, 0.0), (1.0, 1.0), (0.0, math.inf), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="invalid interval"):
                gauss_legendre(np.abs, a, b, 1e-9)
        for tol in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                gauss_legendre(np.abs, 0.0, 1.0, tol)

    def test_rounding_tol_stops_at_width_floor_in_bounded_memory(self):
        # Every panel where f is not zero splits down to the 1e-6 width
        # floor (2^-20 here, its halves 2^-21): the tol is below rounding, and
        # f oscillates faster than the floor resolves.  Ten times the panels
        # must not take ten times the memory.
        def run(start):
            seen = {"nodes": 0, "width": math.inf}  # a list of nodes would dominate the peak

            def f(s):
                blocks = s.reshape(-1, 8)
                spans = (blocks[:, 7] - blocks[:, 0]) / (quadrature._NODES[7] - quadrature._NODES[0])
                seen["nodes"] += s.size
                seen["width"] = min(seen["width"], float(spans.min()))
                return np.where(s > start, np.sin(1e7 * s), 0.0)

            tracemalloc.start()
            gauss_legendre(f, 0.0, 1.0, 1e-300)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert seen["width"] == pytest.approx(2.0**-21, rel=1e-6)
            return seen["nodes"], peak

        few, few_peak = run(0.99)
        many, many_peak = run(0.9)
        # The waiting groups grow with the depth, not with the panel count:
        # the 0.9 run's node values alone would take 27 MB held at once.
        assert many > 9 * few
        assert many_peak < 2 * few_peak and many_peak < 1 << 20


class TestTailHorizon:
    def test_closed_form(self):
        # integral of c*exp(-sigma*s) beyond T equals (c/sigma) exp(-sigma T)
        sigma, coef, tol = 0.5, 3.0, 1e-8
        t = tail_horizon(sigma, coef, tol)
        assert (coef / sigma) * math.exp(-sigma * t) == pytest.approx(tol, rel=1e-12)

    def test_already_small(self):
        assert tail_horizon(1.0, 1e-12, 1e-6) == 0.0

    def test_monotone_in_tolerance(self):
        assert tail_horizon(1.0, 1.0, 1e-10) > tail_horizon(1.0, 1.0, 1e-6)

    def test_nonpositive_coefficient_means_no_tail(self):
        assert tail_horizon(1.0, -1.0, 1e-8) == 0.0
        assert tail_horizon(1.0, 0.0, 1e-8) == 0.0

    def test_ratio_past_double_range(self):
        # 4.5e300 / (2 * 2.5e-9) overflows and 1e-200 * 1e-200 underflows to
        # 0: each takes the log as a difference of logs.
        for sigma, coef, tol in ((2.0, 4.5e300, 2.5e-9), (1e-200, 1.0, 1e-200)):
            logs = math.log(coef) - math.log(sigma) - math.log(tol)
            assert tail_horizon(sigma, coef, tol) == pytest.approx(logs / sigma, rel=1e-15)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            tail_horizon(0.0, 1.0, 1e-8)
        with pytest.raises(ValueError):
            tail_horizon(1.0, 1.0, 0.0)
