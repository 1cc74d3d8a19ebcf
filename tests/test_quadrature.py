import math

import numpy as np
import pytest

from gainlab import adaptive_simpson, quadrature, tail_horizon
from gainlab.quadrature import simpson_panels
from gainlab_testkit import recursive_simpson

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
    """The level-by-level rule against the classical recursion it replaces."""

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_same_nodes_and_values_as_recursion(self, case):
        f, a, b, tol, min_width = REFERENCE_CASES[case]
        g_ref, ref_nodes = recording(f)
        g_new, new_nodes = recording(f)
        ref = recursive_simpson(g_ref, a, b, tol, min_width)
        val = adaptive_simpson(g_new, a, b, tol, min_width)
        assert sorted(new_nodes) == sorted(ref_nodes)
        np.testing.assert_allclose(val, ref, rtol=1e-14, atol=1e-14)

    def test_panels_refine_like_separate_calls(self):
        # Each panel gets the full tol and its own 1e-6-width floor; shared
        # edges are evaluated once instead of once per neighbouring panel.
        f = lambda s: np.abs(np.sin(3.0 * s)) * np.exp(-0.1 * s)  # noqa: E731
        edges = np.array([0.0, 0.5, 2.0, 2.1, 7.0, 20.0])
        tol = 1e-9
        ref_nodes, ref = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            g, nodes = recording(f)
            ref.append(recursive_simpson(g, lo, hi, tol))
            ref_nodes += nodes
        new_nodes = []

        def vectorized(s):
            new_nodes.extend(s.tolist())
            return f(s)

        cells = simpson_panels(vectorized, edges, tol)
        for edge in edges[1:-1]:
            ref_nodes.remove(edge)
        assert sorted(new_nodes) == sorted(ref_nodes)
        np.testing.assert_allclose(cells, ref, rtol=1e-14, atol=1e-16)

    def test_one_call_per_level(self):
        calls = []

        def vectorized(s):
            calls.append(s.size)
            return np.abs(np.sin(s))

        simpson_panels(vectorized, [0.0, 2.0 * math.pi], 1e-9)
        g, ref_nodes = recording(lambda s: abs(math.sin(s)))
        recursive_simpson(g, 0.0, 2.0 * math.pi, 1e-9)
        # the three starting nodes, then two new nodes per open interval
        assert calls[0] == 3 and all(k % 2 == 0 for k in calls[1:])
        assert sum(calls) == len(ref_nodes)
        assert len(calls) <= 22  # the 1e-6 width floor caps the depth

    @pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
    def test_capped_levels_keep_nodes_and_values(self, case, monkeypatch):
        # With at most four open intervals per level the rule refines in
        # contiguous groups; nodes and sums stay those of the recursion.
        f, a, b, tol, min_width = REFERENCE_CASES[case]
        g_ref, ref_nodes = recording(f)
        g_new, new_nodes = recording(f)
        recursive_simpson(g_ref, a, b, tol, min_width)
        uncapped = adaptive_simpson(f, a, b, tol, min_width)
        monkeypatch.setattr(quadrature, "_LIVE_ENTRIES", 4)
        val = adaptive_simpson(g_new, a, b, tol, min_width)
        assert sorted(new_nodes) == sorted(ref_nodes)
        np.testing.assert_array_equal(val, uncapped)

    def test_capped_levels_keep_panel_values(self, monkeypatch):
        f = lambda s: np.abs(np.sin(3.0 * s)) * np.exp(-0.1 * s)  # noqa: E731
        edges = np.array([0.0, 0.5, 2.0, 2.1, 7.0, 20.0])
        uncapped = simpson_panels(f, edges, 1e-9)
        monkeypatch.setattr(quadrature, "_LIVE_ENTRIES", 4)
        np.testing.assert_array_equal(simpson_panels(f, edges, 1e-9), uncapped)

    def test_rejects_bad_edges(self):
        for edges in ([0.0], [0.0, 0.0, 1.0], [1.0, 0.0], [0.0, float("inf")]):
            with pytest.raises(ValueError):
                simpson_panels(np.abs, edges, 1e-9)


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

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            tail_horizon(0.0, 1.0, 1e-8)
        with pytest.raises(ValueError):
            tail_horizon(1.0, 1.0, 0.0)
