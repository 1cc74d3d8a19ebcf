import ast
import itertools
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from gainlab import (
    DelayPredictorSystem,
    DimensionError,
    LyapunovSolveError,
    NotHurwitzError,
    StateSpaceSystem,
    is_hurwitz,
    lyapunov_solve,
    mat_exp,
    spectral_norm,
    stability_certificate,
    structure_flags,
)
from gainlab import linalg
from gainlab_testkit import expm_stack, kron_lyapunov_operator, random_hurwitz_matrix


class TestMatExp:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(mat_exp(np.zeros((2, 2)), 5.0), np.eye(2))

    def test_nilpotent(self):
        e = mat_exp([[0.0, 1.0], [0.0, 0.0]], 1.0)
        np.testing.assert_allclose(e, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

    def test_input_state_stays_exact(self):
        # Its 990 squarings took the input row's 1 to (1 - 2^-53)^(2^990) = 0,
        # and the whole matrix to zero.
        e = mat_exp([[-1e300, 1e300], [0.0, 0.0]], 0.01)
        np.testing.assert_allclose(e, [[0.0, 1.0], [0.0, 1.0]], rtol=0.0, atol=4.5e-16)

    def test_diagonal(self):
        e = mat_exp(np.diag([-1.0, -2.0]), 1.0)
        expected = np.diag([0.3678794411714423, 0.1353352832366127])
        np.testing.assert_allclose(e, expected, atol=1e-14)

    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(7)
        by_size = {}
        for _ in range(50):
            n = int(rng.integers(1, 6))
            a = rng.uniform(-2.0, 2.0, (n, n))
            t = float(rng.uniform(0.0, 3.0))
            ours = mat_exp(a, t)
            ref = scipy.linalg.expm(a * t)
            bound = 1e-12 * math.exp(np.linalg.norm(a * t))
            assert np.linalg.norm(ours - ref) <= max(bound, 1e-13)
            by_size.setdefault(n, []).append(a * t)
        # The same draws again, behind a zero matrix and a skew matrix (its
        # exponential is a rotation) whose 1-norm of 1500 needs 9 squarings:
        # by mat_exp, and by the ladder of a _Flow on ceil(2 ||m||_1) cells
        # of a width that is no power of two.
        for n, mats in by_size.items():
            skew = rng.standard_normal((n, n))
            skew = skew - skew.T
            if n > 1:
                skew *= 1500.0 / np.linalg.norm(skew, 1)
                assert np.linalg.norm(skew, 1) > linalg._PADE13_THETA * 2.0**8
            for k, m in enumerate([np.zeros((n, n)), skew] + mats):
                count = max(1, math.ceil(2.0 * np.linalg.norm(m, 1)))
                ours = mat_exp(m, 1.0), linalg._Flow(m, 1.0 / count, 1.0).ladder(count, np.eye(n))
                bound = 1e-10 if k == 1 else max(1e-12 * math.exp(np.linalg.norm(m)), 1e-13)
                for e in ours:
                    if k == 0:
                        np.testing.assert_array_equal(e, np.eye(n))
                    assert np.linalg.norm(e - scipy.linalg.expm(m)) <= bound

    def test_stack_kernel_matches_one_by_one(self):
        # The array advance of a _Flow of A to 30: 5000 times, more than one
        # block of Taylor products.
        rng = np.random.default_rng(23)
        a = random_hurwitz_matrix(rng, n=4, abscissa=-0.2)
        b = rng.standard_normal((4, 2))
        s = np.linspace(0.0, 30.0, 5000)
        stacked = linalg._grid_flow(a, 30.0, 30.0)[0].advance(b, s)
        assert stacked.shape == (s.size, 4, 2)
        for k in (0, 1, 4095, 4096, 4999):
            np.testing.assert_allclose(
                stacked[k], scipy.linalg.expm(a * s[k]) @ b, rtol=1e-12, atol=1e-14
            )

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 1000, 1025])
    def test_orbit_matches_reference(self, count):
        # The constant-input generator [[A, B], [0, 0]] that simulate uses:
        # singular, with a Hurwitz block, so rows neither blow up nor vanish.
        # Walked by _orbit on its own power stack and by a _Flow to the
        # orbit's end.
        g, v = flow_generator()
        powers = expm_stack(g, 0.05 * 2.0 ** np.arange((count - 1).bit_length()))
        ref = np.array([scipy.linalg.expm(j * 0.05 * g) @ v for j in range(count)])
        by_flow = linalg._Flow(g, 0.05, 0.05 * (count - 1)).orbit(v, count)
        for rows in linalg._orbit(powers, v, count), by_flow:
            assert rows.shape == (count, 5)
            np.testing.assert_allclose(rows, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))

    def test_semigroup_property(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = random_hurwitz_matrix(rng, n_max=5, abscissa=-0.1, scale=1.0)
            norm = np.linalg.norm(a)
            if norm > 2.0:
                a = a * (2.0 / norm)
            t = float(rng.uniform(0.0, 3.0))
            s = float(rng.uniform(0.0, 3.0))
            gap = np.linalg.norm(mat_exp(a, t + s) - mat_exp(a, t) @ mat_exp(a, s))
            assert gap <= 1e-10

    def test_derivative_at_zero(self):
        rng = np.random.default_rng(13)
        h = 1e-5
        for _ in range(200):
            a = random_hurwitz_matrix(rng, n_max=5, abscissa=-0.1, scale=1.0)
            n = a.shape[0]
            fd = (mat_exp(a, h) - np.eye(n)) / h
            assert np.linalg.norm(fd - a) <= 2.0 * np.linalg.norm(a) ** 2 * h

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            mat_exp(np.ones((2, 3)), 1.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            mat_exp([[-1.0]], -0.5)

    def test_overflow_reported(self):
        with pytest.raises(OverflowError):
            mat_exp([[800.0]], 1.0)

    def test_zero_time_gives_identity(self):
        np.testing.assert_array_equal(mat_exp([[2.0, -1.0], [3.0, 0.5]], 0.0), np.eye(2))

    def test_one_pade_matrix_per_call(self, monkeypatch):
        # mat_exp(a, t) evaluates the Pade approximant once, on one stack:
        # the levels of its _grid_flow of 1-norm within _PADE13_THETA, the
        # first a grid cell (1-norm within 1).  exp(t a) is squared up from
        # the top one, the cell t / 2^s of the fewest squarings: its 1-norm
        # is past half of _PADE13_THETA whenever s > 0.
        calls = []
        original = linalg._pade13

        def recording(m):
            calls.append(m)
            return original(m)

        monkeypatch.setattr(linalg, "_pade13", recording)
        rng = np.random.default_rng(34)
        theta = linalg._PADE13_THETA
        for n in (1, 2, 3, 6):
            for norm_t in (1e-3, 1.0, 5.0, 6.0, 1e2, 1e3):
                a = rng.standard_normal((n, n))
                a -= (np.linalg.norm(a, 1) + 1.0) * np.eye(n)
                t = norm_t / np.linalg.norm(a, 1)
                calls.clear()
                mat_exp(a, t)
                assert len(calls) == 1 and calls[0].shape[1:] == (n, n)
                assert np.linalg.norm(calls[0][0], 1) <= 1.0
                cell_norm = np.linalg.norm(calls[0][-1], 1)
                assert cell_norm <= theta
                if norm_t > theta:
                    assert cell_norm > theta / 2.0
                else:
                    np.testing.assert_array_equal(calls[0][-1], a * t)

    def test_matches_the_fewest_squarings_rule(self):
        # mat_exp once squared up from the fewest cells t / 2^s of 1-norm
        # within _PADE13_THETA, s = ceil(log2(||a||_1 t / theta)); the grid
        # flow's levels give the same bits, or refuse with the same exception.
        def fewest_squarings(a, t):
            s = math.ceil(math.log2(max(1.0, float(np.linalg.norm(a, 1)) * t / linalg._PADE13_THETA)))
            return linalg._Flow(a, t / 2.0**s, t).powers[-1]

        rng, refused = np.random.default_rng(49), 0
        for _ in range(500):
            n = int(rng.integers(1, 9))
            a = rng.standard_normal((n, n))
            if rng.random() < 0.5:
                a -= (np.linalg.norm(a, 1) + rng.random()) * np.eye(n)
            t = 10.0 ** rng.uniform(-19.0, 15.0) / np.linalg.norm(a, 1)
            try:
                expected = fewest_squarings(a, t)
            except OverflowError:
                refused += 1
                with pytest.raises(OverflowError):
                    mat_exp(a, t)
                continue
            assert mat_exp(a, t).tobytes() == expected.tobytes()
        assert 0 < refused < 250


def flow_generator():
    """The constant-input generator [[A, B], [0, 0]] of a seeded n = 4 SISO
    system, and a start vector."""
    rng = np.random.default_rng(29)
    g = np.zeros((5, 5))
    g[:4, :4] = random_hurwitz_matrix(rng, n=4, abscissa=-0.2)
    g[:4, 4] = rng.standard_normal(4)
    return g, rng.standard_normal(5)


class TestFlow:
    # A _Flow on cells of a power of two, so every cell multiple is exact.
    def flow(self):
        g, v = flow_generator()
        cell = 2.0 ** -math.ceil(math.log2(2.0 * np.linalg.norm(g, 1)))
        return linalg._Flow(g, cell, 37 * cell), g, v

    def test_advance_meets_scipy_expm(self):
        # At t = 0, inside the first cell, at cell multiples named by one
        # power and by several, between multiples, and at the end time.
        flow, g, v = self.flow()
        c = flow.cell
        for t in (0.0, c / 3.0, c, 4.0 * c, 11.0 * c, 11.6 * c, 36.2 * c, 37.0 * c):
            ref = scipy.linalg.expm(t * g) @ v
            got = flow.advance(v, t)
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
        np.testing.assert_array_equal(flow.advance(v, 0.0), v)

    @pytest.mark.parametrize("level", [0, 2])
    def test_orbit_strides_meet_scipy_expm(self, level):
        # Strides of 1 and 4 cells, of a vector and of a matrix's columns.
        flow, g, v = self.flow()
        count = 37 // 2**level + 1
        columns = np.stack((v, -2.0 * v[::-1]), axis=1)
        rows, cols = flow.orbit(v, count, level), flow.orbit(columns, count, level)
        assert rows.shape == (count, 5) and cols.shape == (count, 5, 2)
        for j in range(count):
            e = scipy.linalg.expm(j * 2**level * flow.cell * g)
            scale = np.max(np.abs(e @ columns))
            np.testing.assert_allclose(rows[j], e @ v, rtol=0, atol=1e-13 * scale)
            np.testing.assert_allclose(cols[j], e @ columns, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("columns", [0, 2])
    def test_array_advance_meets_scipy_expm(self, columns):
        # One call at t = 0, inside the first cell, at whole cells, off the
        # cell grid and at the end time, of a vector and of two columns.
        flow, g, v = self.flow()
        z = v if not columns else np.stack((v, -2.0 * v[::-1]), axis=1)
        c = flow.cell
        times = np.array([0.0, c / 3.0, c, 4.0 * c, 11.0 * c, 11.6 * c, 36.2 * c, 37.0 * c])
        got = flow.advance(z, times)
        assert got.shape == (times.size, *z.shape)
        for t, row in zip(times, got):
            ref = scipy.linalg.expm(t * g) @ z
            np.testing.assert_allclose(row, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))
        np.testing.assert_array_equal(got[0], z)
        assert flow.advance(z, times[:0]).shape == (0, *z.shape)

    def test_ladder_meets_scipy_expm(self):
        # A flow whose end is count = 14,552 cells of a non-binary width:
        # float divmod of the end time gives 14,551 cells and a remainder
        # just short of one, the integer ladder exactly count cells.
        g, v = flow_generator()
        count = 14552
        flow = linalg._Flow(g, 1.0 / count, 1.0)
        assert divmod(1.0, flow.cell)[0] == count - 1
        ref = scipy.linalg.expm(g)
        for z in np.eye(5), v:
            got, want = flow.ladder(count, z), ref @ z
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.max(np.abs(want)))
        np.testing.assert_array_equal(flow.ladder(0, v), v)
        assert "stack" not in vars(flow)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_powers_past_pade_range_square_the_level_below(self, n):
        # Kernel-type flows (cells of 1-norm 1/2, ends a non-binary number of
        # cells) and grid flows of 1-norms 1e-3 to 1e3: every level within
        # _PADE13_THETA meets SciPy within 1e-13 relative, and every level
        # past it is the square of the level below, to the bit.
        rng = np.random.default_rng(33 + n)
        for norm in (1e-3, 1.0, 1e3):
            a = rng.standard_normal((n, n))
            a *= norm / np.linalg.norm(a, 1)
            for flow in linalg._Flow(a, 0.5 / norm, 300.3 / norm), linalg._grid_flow(a, 7.0 / norm, 60.0 / norm)[0]:
                levels = a * (flow.cell * 2.0 ** np.arange(len(flow.powers)))[:, None, None]
                within = np.linalg.norm(levels, 1, axis=(1, 2)) <= linalg._PADE13_THETA
                assert within[:3].all() and not within[-1]
                for i, (level, power) in enumerate(zip(levels, flow.powers)):
                    if within[i]:
                        ref = scipy.linalg.expm(level)
                        assert np.linalg.norm(power - ref, 1) <= 1e-13 * np.linalg.norm(ref, 1)
                    else:
                        np.testing.assert_array_equal(power, flow.powers[i - 1] @ flow.powers[i - 1])

    def test_scalar_advance_of_columns_meets_scipy_expm(self):
        # One time off the cell grid, of a vector, of a square z and of a
        # non-square z: the Taylor product takes z's columns, as the array
        # advance does (a square z once came back 0.40 off, and a 3 x 2 z
        # raised ValueError).
        rng = np.random.default_rng(35)
        a = random_hurwitz_matrix(rng, n=3)
        flow = linalg._grid_flow(a, 0.1, 1.0)[0]
        assert divmod(0.37, flow.cell)[1] > 0.0
        for z in rng.standard_normal(3), rng.standard_normal((3, 3)), rng.standard_normal((3, 2)):
            ref = scipy.linalg.expm(0.37 * a) @ z
            got = flow.advance(z, 0.37)
            assert got.shape == z.shape
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-13 * np.max(np.abs(ref)))

    def test_grid_cell_is_the_least_dyadic_level_of_the_rule(self):
        # ||cell M||_1 <= 1 for the grid flow's cell h / 2^j, and 2 cell
        # breaks it unless j = 0: the least such level, for ||M||_1 h from
        # 1e-3 to 1e3 (M symmetric negative definite, so no power overflows).
        rng = np.random.default_rng(36)
        for n in (1, 2, 4, 7):
            for norm_h in np.geomspace(1e-3, 1e3, 25):
                r = rng.standard_normal((n, n))
                m = -(r @ r.T + np.eye(n))
                h = float(rng.uniform(0.01, 10.0))
                m *= norm_h / (np.linalg.norm(m, 1) * h)
                flow, j = linalg._grid_flow(m, h, 3.0 * h)
                assert flow.cell == h / 2.0**j
                cell_norm = np.linalg.norm(m, 1) * flow.cell
                assert cell_norm <= 1.0
                assert j == 0 or 2.0 * cell_norm > 1.0

    def test_zero_matrix_gives_exact_identities(self):
        flow = linalg._Flow(np.zeros((3, 3)), 0.5, 40.0)
        assert len(flow.powers) == 7
        for power in flow.powers:
            np.testing.assert_array_equal(power, np.eye(3))

    def test_overflowing_top_power_reported(self):
        # The flow of M = 1 to 1500 on cells of 1/2: its top power
        # exp(1024) is past double range, its lower levels within it.
        with pytest.raises(OverflowError):
            linalg._Flow(np.array([[1.0]]), 0.5, 1500.0)

    def test_grid_walk_forms_no_taylor_stack(self):
        # Orbits and advances by whole cells take powers alone; the first
        # advance off the grid forms the cell's Taylor stack.
        flow, _, v = self.flow()
        flow.orbit(v, 38)
        for cells in (0, 1, 6, 37):
            flow.advance(v, cells * flow.cell)
        assert "stack" not in vars(flow)
        flow.advance(v, 2.5 * flow.cell)
        assert "stack" in vars(flow)


def test_ladder_and_taylor_code_only_in_linalg():
    # gains, sim and delay walk every flow through linalg._Flow: none of
    # them imports the orbit, cell stack or cell flow primitives, nor any
    # matrix exponential of linalg's own.
    primitives = {"_orbit", "_cell_stack", "_cell_flow"}
    for name in ("gains", "sim", "delay"):
        tree = ast.parse(Path(linalg.__file__).with_name(f"{name}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "linalg":
                names = {alias.name for alias in node.names}
                assert not primitives & names, name
                assert not any(n.startswith(("_expm", "_pade")) for n in names), name


def test_pade_called_only_by_flow_init():
    # One scaling and squaring: the Pade approximant's only caller in the
    # package is _Flow's constructor, and no other exponential helper is left.
    def calls_pade(func):
        return any(
            isinstance(node, ast.Call)
            and "_pade13" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(func)
        )

    callers = set()
    for path in Path(linalg.__file__).parent.glob("*.py"):
        source = path.read_text()
        assert "_expm" not in source and "_squarings" not in source, path.name
        tree = ast.parse(source)
        scoped = [("", node) for node in tree.body]
        scoped += [(f"{c.name}.", node) for c in tree.body if isinstance(c, ast.ClassDef) for node in c.body]
        callers |= {
            f"{path.stem}:{prefix}{node.name}"
            for prefix, node in scoped
            if isinstance(node, ast.FunctionDef) and calls_pade(node)
        }
    assert callers == {"linalg:_Flow.__init__"}


class TestLyapunov:
    def test_scalar(self):
        p = lyapunov_solve([[-1.0]], [[1.0]])
        np.testing.assert_allclose(p, [[0.5]])

    def test_identity_pair(self):
        p = lyapunov_solve(-np.eye(2), np.eye(2))
        np.testing.assert_allclose(p, 0.5 * np.eye(2))

    def test_residual_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = random_hurwitz_matrix(rng, n_max=4, abscissa=-0.3)
            n = a.shape[0]
            q = np.eye(n)
            p = lyapunov_solve(a, q)
            residual = np.linalg.norm(a.T @ p + p @ a + q)
            assert residual <= 1e-10 * (np.linalg.norm(a) * np.linalg.norm(p) + n)
            ref = scipy.linalg.solve_continuous_lyapunov(a.T, -q)
            np.testing.assert_allclose(p, ref, rtol=1e-8, atol=1e-10)

    def test_operator_is_the_kronecker_sum(self):
        # Index assignment gives I kron A' + A' kron I entry for entry.
        rng = np.random.default_rng(5)
        for n in range(1, 9):
            a = rng.standard_normal((n, n))
            assert np.array_equal(linalg._lyapunov_operator(a), kron_lyapunov_operator(a)), n

    def test_certificate_unchanged_from_kron_assembly(self, monkeypatch):
        # The same matrix, so the same P, M and sigma to the bit.
        rng = np.random.default_rng(6)
        mats = [random_hurwitz_matrix(rng, n=int(rng.integers(1, 9))) for _ in range(40)]
        mats += [np.diag(-np.arange(1.0, 5.0)), -np.eye(4) + np.eye(4, k=1)]
        certs = [stability_certificate(a) for a in mats]
        monkeypatch.setattr(linalg, "_lyapunov_operator", kron_lyapunov_operator)
        for a, cert in zip(mats, certs):
            old = stability_certificate(a)
            assert cert.p.tobytes() == old.p.tobytes()
            assert (cert.m, cert.sigma) == (old.m, old.sigma)

    def test_singular_pair_rejected(self):
        # eigenvalues +1 and -1 sum to zero, so the vectorized system is singular
        with pytest.raises(LyapunovSolveError):
            lyapunov_solve(np.diag([1.0, -1.0]), np.eye(2))


class TestHurwitz:
    def test_examples(self):
        assert is_hurwitz([[-1.0]])
        assert is_hurwitz([[0.0, 1.0], [-2.0, -1.0]])
        assert not is_hurwitz([[0.0, 1.0], [-1.0, 0.0]])

    def test_exhaustive_2x2_integer_oracle(self):
        # quadratic-formula oracle: eigenvalues of [[a,b],[c,d]] are
        # (tr +- sqrt(tr^2 - 4 det)) / 2
        values = range(-3, 4)
        for a, b, c, d in itertools.product(values, values, values, values):
            m = np.array([[a, b], [c, d]], dtype=float)
            tr = a + d
            det = a * d - b * c
            disc = tr * tr - 4 * det
            if disc >= 0:
                top = (tr + math.sqrt(disc)) / 2.0
            else:
                top = tr / 2.0
            assert is_hurwitz(m) == (top < 0), f"disagreement at {m.tolist()}"


class TestSpectralNorm:
    def test_matches_reference(self):
        rng = np.random.default_rng(9)
        draws = ((int(rng.integers(1, 5)), int(rng.integers(1, 5))) for _ in range(30))
        for rows, cols in itertools.chain(draws, ((20, 40), (40, 20), (40, 40))):
            m = rng.standard_normal((rows, cols))
            assert spectral_norm(m) == pytest.approx(scipy.linalg.svdvals(m)[0], abs=1e-10)

    def test_vector_shapes(self):
        assert spectral_norm(np.array([[3.0], [4.0]])) == pytest.approx(5.0)
        assert spectral_norm(np.array([3.0, 4.0])) == pytest.approx(5.0)


class TestStabilityCertificate:
    def test_scalar(self):
        cert = stability_certificate([[-1.0]])
        assert cert.m == pytest.approx(1.0)
        assert cert.sigma == pytest.approx(1.0)
        np.testing.assert_allclose(cert.p, [[0.5]])

    def test_diagonal(self):
        cert = stability_certificate(np.diag([-1.0, -2.0]))
        np.testing.assert_allclose(cert.p, np.diag([0.5, 0.25]))
        assert cert.m == pytest.approx(math.sqrt(2.0))
        assert cert.sigma == pytest.approx(1.0)

    def test_decay_envelope_sampled(self):
        rng = np.random.default_rng(17)
        for n in itertools.chain(itertools.repeat(None, 200), (20, 40)):
            a = random_hurwitz_matrix(rng, n_max=4, abscissa=-0.3, n=n)
            cert = stability_certificate(a)
            assert cert.m >= 1.0 - 1e-12
            w = scipy.linalg.eigvalsh(
                scipy.linalg.solve_continuous_lyapunov(a.T, -np.eye(a.shape[0]))
            )
            assert cert.m == pytest.approx(math.sqrt(w[-1] / w[0]), rel=1e-10)
            assert cert.sigma == pytest.approx(1.0 / (2.0 * w[-1]), rel=1e-10)
            for t in np.linspace(0.0, 10.0 / cert.sigma, 50):
                bound = cert.m * math.exp(-cert.sigma * t) * (1.0 + 1e-8)
                assert spectral_norm(mat_exp(a, t)) <= bound

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitzError):
            stability_certificate([[1.0]])


class TestStructureFlags:
    def test_metzler_example(self, metzler_system):
        flags = structure_flags(metzler_system)
        assert flags.metzler and flags.nonnegative_b and flags.nonnegative_c
        assert flags.assumption_h is True

    def test_diagonal_already_diagonal(self):
        sys = StateSpaceSystem(a=np.diag([-1.0, -2.0]), b=[[1.0], [1.0]], c=np.eye(2))
        assert structure_flags(sys).assumption_h is True

    def test_asymmetric_has_no_diagonalization(self):
        sys = StateSpaceSystem(a=[[-1.0, 5.0], [0.0, -1.0]], b=[[1.0], [0.0]], c=[[1.0, 0.0]])
        assert structure_flags(sys).assumption_h is False

    def test_sign_flags(self):
        sys = StateSpaceSystem(a=[[-1.0, 0.5], [0.0, -1.0]], b=[[-1.0], [0.0]], c=[[1.0, 0.0]])
        flags = structure_flags(sys)
        assert flags.metzler
        assert not flags.nonnegative_b
        assert flags.nonnegative_c

    def test_reconstruction_random_symmetric(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            s = rng.standard_normal((n, n))
            a = -(s @ s.T) - 0.1 * np.eye(n)
            sys = StateSpaceSystem(a=a, b=np.ones((n, 1)), c=np.ones((1, n)))
            # A symmetric Hurwitz matrix is negative definite.
            assert np.all(np.linalg.eigvalsh(a) < 0)
            assert structure_flags(sys).assumption_h is True


class TestStateSpaceSystem:
    def test_dimension_checks(self):
        with pytest.raises(DimensionError):
            StateSpaceSystem(a=[[-1.0, 0.0]], b=[[1.0]], c=[[1.0]])
        with pytest.raises(DimensionError):
            StateSpaceSystem(a=[[-1.0]], b=[[1.0], [1.0]], c=[[1.0]])
        with pytest.raises(DimensionError):
            StateSpaceSystem(a=[[-1.0]], b=[[1.0]], c=[[1.0, 0.0]])

    def test_rejects_non_hurwitz(self):
        with pytest.raises(NotHurwitzError):
            StateSpaceSystem(a=[[0.0, 1.0], [-1.0, 0.0]], b=[[0.0], [1.0]], c=[[1.0, 0.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateSpaceSystem(a=[[float("nan")]], b=[[1.0]], c=[[1.0]])

    def test_one_lyapunov_solve_per_system(self, monkeypatch):
        calls = []
        solve = linalg.lyapunov_solve

        def counted(a, q):
            calls.append(a)
            return solve(a, q)

        monkeypatch.setattr(linalg, "lyapunov_solve", counted)
        sys = StateSpaceSystem(a=[[-1.0, 2.0], [0.0, -3.0]], b=[[1.0], [0.0]], c=[[1.0, 1.0]])
        assert sys.certificate.sigma > 0
        assert len(calls) == 1
        loop = DelayPredictorSystem(
            a=[[1.0]], b=[[1.0]], g=[[1.0]], k=[[-2.0]], tau=0.5, mu=2.0
        )
        assert loop.certificate.sigma > 0
        assert len(calls) == 2

    def test_matrices_read_only(self, scalar_system):
        with pytest.raises(ValueError):
            scalar_system.a[0, 0] = 2.0
