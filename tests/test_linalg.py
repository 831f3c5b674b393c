import warnings

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest
import scipy.linalg

from hfo import linalg
from conftest import power_iteration_norm, random_hurwitz, random_spd, rk4_lti


class TestMatExp:
    def test_zero_time_is_identity(self):
        a = np.array([[3.0, -2.0], [7.0, 0.1]])
        assert np.array_equal(linalg.mat_exp(a, 0.0), np.eye(2))

    def test_diagonal(self):
        result = linalg.mat_exp(np.diag([-1.0, -2.0]), 1.0)
        expected = np.diag([np.exp(-1.0), np.exp(-2.0)])
        np.testing.assert_allclose(result, expected, rtol=1e-12)

    def test_nilpotent_series_terminates(self):
        result = linalg.mat_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)
        np.testing.assert_allclose(result, np.array([[1.0, 1.0], [0.0, 1.0]]),
                                   atol=1e-14)

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(1, 5))
            a = random_hurwitz(rng, n)
            s, t = rng.uniform(0.0, 2.0, 2)
            lhs = linalg.mat_exp(a, s + t)
            rhs = linalg.mat_exp(a, s) @ linalg.mat_exp(a, t)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_rejects_non_square(self):
        with pytest.raises(linalg.DimensionError):
            linalg.mat_exp(np.ones((2, 3)), 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            linalg.mat_exp(np.array([[np.nan]]), 1.0)

    def test_time_array_gives_independent_stack(self):
        a = random_hurwitz(np.random.default_rng(11), 4)
        ts = np.array([0.0, 0.01, 0.3, 2.5])
        stack = linalg.mat_exp(a, ts)
        assert stack.shape == (4, 4, 4)
        for t, e in zip(ts, stack):
            assert np.array_equal(e, linalg.mat_exp(a, t))

    def test_time_array_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            linalg.mat_exp(np.eye(2), np.array([0.1, np.inf]))

    def test_time_array_must_be_flat(self):
        with pytest.raises(linalg.DimensionError):
            linalg.mat_exp(np.eye(2), np.zeros((2, 2)))


def inverse_formula_step(a, b, dt):
    """Oracle: the held-input step as A^{-1}(e^{A dt} - I) B, the form the
    simulator used before the augmented exponential; needs an invertible A."""
    e = scipy.linalg.expm(a * dt)
    return e, np.linalg.solve(a, (e - np.eye(a.shape[0])) @ b)


class TestStepLti:
    """The exact held-input step (e^{A dt}, int_0^dt e^{As} ds B)."""

    def test_scalar_closed_form(self):
        e, forced = linalg.propagator(np.array([[-1.0]]), np.array([[1.0]]), 1.0)
        x = e @ np.array([0.0]) + forced @ np.array([0.75])
        np.testing.assert_allclose(x, [(1.0 - np.exp(-1.0)) * 0.75], rtol=1e-12)

    def test_zero_duration(self):
        a = np.array([[-1.0, 0.5], [0.0, -2.0]])
        e, forced = linalg.propagator(a, np.eye(2), 0.0)
        assert np.array_equal(e, np.eye(2))
        assert np.array_equal(forced, np.zeros((2, 2)))

    def test_homogeneous_diagonal(self):
        e, _ = linalg.propagator(np.diag([-1.0, -2.0]), np.eye(2), 1.0)
        np.testing.assert_allclose(e @ np.array([1.0, 1.0]),
                                   [np.exp(-1.0), np.exp(-2.0)], rtol=1e-12)

    def test_matches_rk4_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 3))
            a = random_hurwitz(rng, n)
            b = rng.standard_normal((n, m))
            x0 = rng.standard_normal(n)
            u = rng.standard_normal(m)
            dt = rng.choice([0.2, 0.5, 1.0])
            e, forced = linalg.propagator(a, b, dt)
            reference = rk4_lti(a, b, x0, u, dt)
            assert np.max(np.abs(e @ x0 + forced @ u - reference)) < 1e-7

    def test_matches_inverse_formula(self):
        rng = np.random.default_rng(19)
        for n in [1, 2, 3, 5, 8, 13, 20]:
            m = int(rng.integers(1, 6))
            a = random_hurwitz(rng, n)
            b = rng.standard_normal((n, m))
            for dt in [0.01, 0.25, 1.0, 3.0]:
                e, forced = linalg.propagator(a, b, dt)
                e_ref, forced_ref = inverse_formula_step(a, b, dt)
                np.testing.assert_allclose(e, e_ref, rtol=0.0, atol=1e-12)
                np.testing.assert_allclose(forced, forced_ref, rtol=0.0,
                                           atol=1e-12)

    def test_zero_plant_matrix_closed_form(self):
        # A = 0: x(h) = x(0) + h B u
        b = np.array([[1.0, -2.0], [0.5, 3.0]])
        e, forced = linalg.propagator(np.zeros((2, 2)), b, 0.7)
        np.testing.assert_allclose(e, np.eye(2), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(forced, 0.7 * b, rtol=0.0, atol=1e-12)

    def test_nilpotent_plant_matrix_closed_form(self):
        # A^2 = 0: e^{Ah} = I + Ah, int_0^h e^{As} ds = I h + A h^2 / 2
        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        b = np.array([[0.3], [-1.2]])
        for h in [0.25, 1.0, 2.5]:
            e, forced = linalg.propagator(a, b, h)
            np.testing.assert_allclose(e, np.eye(2) + a * h, rtol=0.0,
                                       atol=1e-12)
            np.testing.assert_allclose(
                forced, (np.eye(2) * h + a * h ** 2 / 2.0) @ b, rtol=0.0,
                atol=1e-12)

    def test_rejects_input_matrix_of_wrong_height(self):
        with pytest.raises(linalg.DimensionError):
            linalg.propagator(np.eye(2) * -1.0, np.ones((3, 1)), 1.0)

    @pytest.mark.parametrize("n, m", [(1, 1), (2, 1), (20, 5)])
    def test_stacked_durations_equal_scalar_calls(self, n, m):
        # augmented sizes 2, 3 and 25; dt = 0 gives (I, 0) in the stack too
        rng = np.random.default_rng(n)
        a = random_hurwitz(rng, n)
        b = rng.standard_normal((n, m))
        dts = np.concatenate([[0.0], rng.uniform(0.0, 30.0, 12), [0.01, 30.0]])
        e, forced = linalg.propagator(a, b, dts)
        assert e.shape == (len(dts), n, n)
        assert forced.shape == (len(dts), n, m)
        for k, dt in enumerate(dts):
            e_k, forced_k = linalg.propagator(a, b, float(dt))
            assert np.array_equal(e[k], e_k)
            assert np.array_equal(forced[k], forced_k)
        assert np.array_equal(e[0], np.eye(n))
        assert np.array_equal(forced[0], np.zeros((n, m)))


class TestEigGeneral:
    """Eigenvalues of general (non-symmetric) matrices, from eigenbasis."""

    def test_diagonal(self):
        w = linalg.eigenbasis(np.diag([-1.0, -3.0]))[0]
        np.testing.assert_allclose(sorted(w.real), [-3.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(w.imag, 0.0, atol=1e-12)

    def test_rotation_block(self):
        w = linalg.eigenbasis(np.array([[-1.0, 2.0], [-2.0, -1.0]]))[0]
        np.testing.assert_allclose(w.real, [-1.0, -1.0], atol=1e-10)
        np.testing.assert_allclose(sorted(w.imag), [-2.0, 2.0], atol=1e-10)

    def test_companion_matrix_of_known_roots(self):
        roots = np.array([-0.5, -1.5, -2.0, -4.0])
        coeffs = npoly.polyfromroots(roots)  # monic, ascending order
        companion = np.zeros((4, 4))
        companion[1:, :3] = np.eye(3)
        companion[:, 3] = -coeffs[:4]
        w = linalg.eigenbasis(companion)[0]
        np.testing.assert_allclose(sorted(w.real), sorted(roots), atol=1e-8)

    def test_conjugate_closure_and_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n))
            w = linalg.eigenbasis(a)[0]
            np.testing.assert_allclose(np.sort(w.imag), np.sort(-w.imag),
                                       atol=1e-8)
            assert abs(np.sum(w).real - np.trace(a)) < 1e-8
            assert abs(np.sum(w).imag) < 1e-8


class TestEigSym:
    def test_identity(self):
        np.testing.assert_allclose(linalg.eig_sym(np.eye(2)), [1.0, 1.0])

    def test_two_by_two_closed_form(self):
        np.testing.assert_allclose(
            linalg.eig_sym(np.array([[2.0, 1.0], [1.0, 2.0]])), [1.0, 3.0],
            atol=1e-12)

    def test_constructed_spectrum(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        s = q.T @ np.diag([0.5, 2.0, 7.0]) @ q
        s = 0.5 * (s + s.T)
        np.testing.assert_allclose(linalg.eig_sym(s), [0.5, 2.0, 7.0],
                                   atol=1e-9)

    def test_reconstruction(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            s = random_spd(rng, n, lo=0.1, hi=5.0)
            lam = linalg.eig_sym(s)
            # residual check through full eigendecomposition
            lam_full, vec = np.linalg.eigh(s)
            np.testing.assert_allclose(lam, lam_full, atol=1e-9)
            np.testing.assert_allclose(vec @ np.diag(lam_full) @ vec.T, s,
                                       atol=1e-8)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            linalg.eig_sym(np.array([[1.0, 0.5], [0.0, 1.0]]))


class TestSpectralNorm:
    def test_identity(self):
        assert linalg.spectral_norm(np.eye(3)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert linalg.spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(13)
        for seed in range(10):
            b = rng.standard_normal((3, 2))
            assert abs(linalg.spectral_norm(b)
                       - power_iteration_norm(b, seed=seed)) < 1e-9


class TestLogNormBound:
    @pytest.mark.parametrize("levels", range(5))
    def test_brackets_the_spectral_norm(self, levels):
        rng = np.random.default_rng(29)
        n = 6
        # norms from e^-300 to e^300: no power of E'E may overflow
        e = rng.standard_normal((50, n, n)) * np.exp(
            rng.uniform(-300.0, 300.0, (50, 1, 1)))
        bound = linalg.log_norm_bound(e, levels, np.full(50, -np.inf))
        exact = np.log(np.linalg.svd(e, compute_uv=False)[:, 0])
        assert np.all(bound >= exact - 1e-12)
        assert np.all(bound <= exact + np.log(n) / 2.0 ** (levels + 1) + 1e-12)

    def test_matrix_below_its_cutoff_keeps_the_looser_bound(self):
        e = np.random.default_rng(31).standard_normal((4, 3, 3))
        level1 = linalg.log_norm_bound(e, 1, np.full(4, -np.inf))
        full = linalg.log_norm_bound(e, 4, np.full(4, -np.inf))
        assert np.all(full < level1)
        cutoff = np.array([np.inf, -np.inf, np.inf, -np.inf])
        got = linalg.log_norm_bound(e, 4, cutoff)
        assert np.array_equal(got, np.where(cutoff > 0, level1, full))

    def test_zero_and_non_finite_matrices_warn_nothing(self):
        e = np.array([np.zeros((2, 2)), np.full((2, 2), np.inf),
                      [[np.nan, 0.0], [0.0, 1.0]], [[1e200, 0.0], [0.0, 1.0]]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = linalg.log_norm_bound(e, 4, np.full(4, -np.inf))
        assert bound[0] == -np.inf
        # inf or NaN, never a finite value that could rule a point out
        assert not np.any(bound[1:] < np.inf)


class TestSolve:
    def test_identity(self):
        b = np.array([1.0, 2.0, 3.0])
        np.testing.assert_allclose(linalg.solve(np.eye(3), b), b)

    def test_scalar(self):
        np.testing.assert_allclose(linalg.solve(np.array([[-1.0]]),
                                                np.array([-0.75])), [0.75])

    def test_residual_on_random_systems(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            a = random_spd(rng, 4, lo=0.5, hi=3.0)
            b = rng.standard_normal(4)
            x = linalg.solve(a, b)
            resid = np.linalg.norm(a @ x - b)
            assert resid <= 1e-10 * (np.linalg.norm(a, 2) * np.linalg.norm(x)
                                     + np.linalg.norm(b))

    def test_singular_rejected(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones(2))

    def test_matrix_rhs_matches_column_solves(self):
        rng = np.random.default_rng(19)
        a = random_hurwitz(rng, 5)
        rhs = rng.standard_normal((5, 7))
        x = linalg.solve(a, rhs)
        assert x.shape == (5, 7)
        columns = np.column_stack([linalg.solve(a, rhs[:, k])
                                   for k in range(7)])
        np.testing.assert_allclose(x, columns, rtol=1e-13, atol=1e-15)

    def test_matrix_rhs_singular_rejected(self):
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve(np.array([[1.0, 1.0], [1.0, 1.0]]), np.ones((2, 3)))

    def test_matrix_rhs_checks_each_column(self, monkeypatch):
        # one column solved wrongly fails the check, however large the others
        a = np.diag([1.0, 2.0])
        rhs = np.array([[1e8, 1.0], [1e8, 1.0]])
        exact = np.linalg.solve(a, rhs)

        def off_in_one_column(a, rhs):
            x = exact.copy()
            x[0, 1] += 1e-6
            return x

        monkeypatch.setattr(np.linalg, "solve", off_in_one_column)
        with pytest.raises(linalg.SingularMatrixError):
            linalg.solve(a, rhs)


class TestEigenbasis:
    def test_decomposes_a_complex_spectrum(self):
        a = np.array([[-1.0, 2.0], [-2.0, -1.0]])
        lam, vecs, cond = linalg.eigenbasis(a)
        np.testing.assert_allclose(a @ vecs, vecs * lam, atol=1e-14)
        np.testing.assert_allclose(sorted(lam.imag), [-2.0, 2.0], atol=1e-14)
        assert cond == pytest.approx(1.0)

    def test_defective_matrix_is_ill_conditioned(self):
        _, _, cond = linalg.eigenbasis(np.array([[-1.0, 1.0], [0.0, -1.0]]))
        assert cond > 1e15 > linalg.EIGENBASIS_COND_LIMIT

    def test_rejects_an_inexact_eigenpair(self, monkeypatch):
        exact = np.linalg.eig

        def off_in_one_vector(a):
            w, v = exact(a)
            v[0, 1] += 1e-6
            return w, v

        monkeypatch.setattr(np.linalg, "eig", off_in_one_vector)
        with pytest.raises(np.linalg.LinAlgError, match="eigenpair residual"):
            linalg.eigenbasis(np.diag([-1.0, -3.0]))
