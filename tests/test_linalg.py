import itertools
import math

import numpy as np
import pytest
import scipy.linalg

from gainlab import (
    AssumptionH,
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
    symmetric_eigen,
)
from gainlab import linalg
from gainlab_testkit import random_hurwitz_matrix


class TestMatExp:
    def test_zero_matrix(self):
        np.testing.assert_array_equal(mat_exp(np.zeros((2, 2)), 5.0), np.eye(2))

    def test_nilpotent(self):
        e = mat_exp([[0.0, 1.0], [0.0, 0.0]], 1.0)
        np.testing.assert_allclose(e, [[1.0, 1.0], [0.0, 1.0]], atol=1e-15)

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
        # The same draws again, exponentiated as one (k, n, n) stack per n
        # behind a zero matrix and a skew matrix (its exponential is a
        # rotation) whose 1-norm of 1500 needs 9 squarings.
        for n, mats in by_size.items():
            skew = rng.standard_normal((n, n))
            skew = skew - skew.T
            if n > 1:
                skew *= 1500.0 / np.linalg.norm(skew, 1)
                assert np.linalg.norm(skew, 1) > linalg._PADE13_THETA * 2.0**8
            ours = linalg._expm(np.stack([np.zeros((n, n)), skew] + mats))
            assert ours.shape == (len(mats) + 2, n, n)
            np.testing.assert_array_equal(ours[0], np.eye(n))
            assert np.linalg.norm(ours[1] - scipy.linalg.expm(skew)) <= 1e-10
            for m, e in zip(mats, ours[2:]):
                bound = 1e-12 * math.exp(np.linalg.norm(m))
                assert np.linalg.norm(e - scipy.linalg.expm(m)) <= max(bound, 1e-13)

    def test_stack_kernel_matches_one_by_one(self):
        rng = np.random.default_rng(23)
        a = random_hurwitz_matrix(rng, n=4, abscissa=-0.2)
        b = rng.standard_normal((4, 2))
        s = np.linspace(0.0, 30.0, 5000)  # more than one stack of 65536 // 16
        stacked = linalg._expm_times(a, s, b)
        assert stacked.shape == (s.size, 4, 2)
        for k in (0, 1, 4095, 4096, 4999):
            np.testing.assert_allclose(
                stacked[k], scipy.linalg.expm(a * s[k]) @ b, rtol=1e-12, atol=1e-14
            )

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

    def test_overflow_in_stack_reported(self):
        stack = np.array([[[-1.0]], [[800.0]], [[0.0]]])
        with pytest.raises(OverflowError):
            linalg._expm(stack)


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


class TestSymmetricEigen:
    def test_matches_reference(self):
        rng = np.random.default_rng(5)
        draws = (int(rng.integers(1, 6)) for _ in range(50))
        for n in itertools.chain(draws, (20, 40)):
            s = rng.standard_normal((n, n))
            s = s + s.T
            w, v = symmetric_eigen(s)
            np.testing.assert_allclose(w, np.linalg.eigvalsh(s), atol=1e-10)
            np.testing.assert_allclose(v @ np.diag(w) @ v.T, s, atol=1e-10)
            np.testing.assert_allclose(v.T @ v, np.eye(n), atol=1e-10)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            symmetric_eigen([[0.0, 1.0], [0.0, 0.0]])


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
        assert isinstance(flags.assumption_h, AssumptionH)
        np.testing.assert_allclose(flags.assumption_h.lambdas, [1.0, 3.0], atol=1e-10)

    def test_diagonal_already_diagonal(self):
        sys = StateSpaceSystem(a=np.diag([-1.0, -2.0]), b=[[1.0], [1.0]], c=np.eye(2))
        flags = structure_flags(sys)
        ah = flags.assumption_h
        assert ah is not None
        np.testing.assert_allclose(ah.lambdas, [1.0, 2.0])
        # reconstruction and orthonormality invariants
        recon = -ah.q.T @ np.diag(ah.lambdas) @ ah.q
        assert np.linalg.norm(recon - sys.a) <= 1e-8 * np.linalg.norm(sys.a)
        assert np.linalg.norm(ah.q @ ah.q.T - np.eye(2)) <= 1e-10

    def test_asymmetric_has_no_diagonalization(self):
        sys = StateSpaceSystem(a=[[-1.0, 5.0], [0.0, -1.0]], b=[[1.0], [0.0]], c=[[1.0, 0.0]])
        assert structure_flags(sys).assumption_h is None

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
            ah = structure_flags(sys).assumption_h
            assert ah is not None
            assert np.all(ah.lambdas > 0)
            assert np.all(np.diff(ah.lambdas) >= 0)
            recon = -ah.q.T @ np.diag(ah.lambdas) @ ah.q
            assert np.linalg.norm(recon - a) <= 1e-8 * np.linalg.norm(a)
            assert np.linalg.norm(ah.q @ ah.q.T - np.eye(n)) <= 1e-10


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

    def test_impulse_matrix(self, oscillator):
        from gainlab_testkit import oscillator_kernel

        for s in (0.0, 0.7, 2.3):
            val = oscillator.impulse_matrix(s)[0, 0]
            assert val == pytest.approx(float(oscillator_kernel(s)), abs=1e-12)
