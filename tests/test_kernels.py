"""Activation values, gram matrices, and spectra."""

import numpy as np
import pytest

import d2_explicit
from sphattn import (
    activation,
    activation_matrix,
    cumulative_dim,
    empirical_gram,
    finalized_weights,
    gegenbauer_weighted_sum,
    gram_spectrum,
    harmonic_dim,
    normalized_gram,
    oracle_weights,
    population_gram,
    sample_sphere,
)
from sphattn import harmonics, kernels


class TestActivation:
    def test_diagonal_with_unit_weights(self):
        x = sample_sphere(1, 5, 0)[0]
        L = 6
        assert activation(x, x, np.ones(L + 1), 5) == pytest.approx(L + 1, abs=1e-12)

    def test_zero_weights(self):
        X = sample_sphere(2, 4, 1)
        assert activation(X[0], X[1], np.zeros(4), 4) == 0.0

    def test_finalized_diagonal(self):
        x = sample_sphere(1, 3, 2)[0]
        tau = finalized_weights(3, [True, True])
        assert activation(x, x, tau, 3) == pytest.approx(1 + np.sqrt(3), abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit"):
            activation(np.array([2.0, 0.0]), np.array([1.0, 0.0]), np.ones(2), 2)

    @pytest.mark.parametrize("tau", [[1.0, np.nan], [np.inf, 1.0]])
    def test_rejects_non_finite_weights(self, tau):
        # activation once returned nan for these
        X = sample_sphere(3, 3, 4)
        with pytest.raises(ValueError, match="sequence of finite numbers"):
            activation(X[0], X[1], tau, 3)
        with pytest.raises(ValueError, match="sequence of finite numbers"):
            activation_matrix(X, X, tau)

    def test_rejects_inputs_that_are_not_one_vector_of_length_d(self):
        # a d that disagrees with the vectors would change the polynomial
        # (these two read 0.381 at d = 5 against -0.177 at d = 3), and a
        # matrix would be cut to its first pair
        X = sample_sphere(3, 3, 3)
        tau = oracle_weights(3, 2)
        with pytest.raises(ValueError, match="x must be one vector of length d = 5"):
            activation(X[0], X[1], tau, 5)
        with pytest.raises(ValueError, match=r"x must be one vector of length d = 3, got \(3, 3\)"):
            activation(X, X, tau, 3)
        with pytest.raises(ValueError, match="x_prime must be one vector"):
            activation(X[0], X[1:2], tau, 3)

    def test_finalized_weights_values(self):
        tau = finalized_weights(4, [True, False, True])
        np.testing.assert_allclose(tau, [1.0, 0.0, 3.0])  # sqrt(N(4,2)) = 3
        np.testing.assert_allclose(oracle_weights(4, 1), [1.0, 2.0])

    def test_oracle_weights_check_their_degree(self):
        assert np.array_equal(oracle_weights(4, 1.0), oracle_weights(4, 1))
        for ell0 in (-1, 1.5, True):
            with pytest.raises(ValueError, match=f"target degree ell0 must be an integer >= 0, "
                                                 rf"got {ell0}"):
                oracle_weights(4, ell0)


class TestUnitCheck:
    """kernels._require_unit_rows: rows within UNIT_TOL pass, and beyond DOT_TOL / 4 are divided."""

    def test_returns_the_callers_array(self):
        X = sample_sphere(200, 6, 30)
        assert kernels._require_unit_rows(X, "X") is X
        # 1e-13 off, well inside DOT_TOL / 4 = 2.5e-13
        X *= 1 + 1e-13
        assert kernels._require_unit_rows(X, "X") is X
        Q = sample_sphere(30, 6, 31)
        X_checked, Q_checked = kernels._require_unit_pair(X, Q)
        assert X_checked is X and Q_checked is Q

    def test_divides_only_the_rows_beyond_dot_tol(self):
        X = sample_sphere(60, 5, 32)
        X[::7] *= 1 + 1e-10
        X[3] *= 1 - 5e-9
        X[4] *= 1 + 1e-13
        before = X.copy()
        Y = kernels._require_unit_rows(X, "X")
        assert np.array_equal(X, before)  # the caller's array is not written
        norms = np.sqrt(np.einsum("ij,ij->i", X, X))
        far = np.abs(norms - 1.0) > harmonics.DOT_TOL / 4
        assert np.flatnonzero(far).tolist() == [0, 3] + list(range(7, 60, 7))
        assert np.array_equal(Y[~far], X[~far])
        assert np.array_equal(Y[far], X[far] / norms[far, None])
        assert np.all(Y[far] != X[far])
        assert np.max(np.abs(np.linalg.norm(Y, axis=1) - 1.0)) <= harmonics.DOT_TOL / 4

    def test_rejects_beyond_unit_tol(self):
        X = sample_sphere(10, 4, 33)
        X[6] *= 1 + 2e-8
        with pytest.raises(ValueError, match=r"Q row 6 is not unit-norm \(\|norm - 1\| = 2\.0"):
            kernels._require_unit_rows(X, "Q")


class TestPopulationGram:
    def test_diagonal_entries(self):
        X = sample_sphere(7, 4, 3)
        K = population_gram(X, None, 2)
        np.testing.assert_allclose(np.diag(K), 3.0, atol=1e-12)

    def test_degree_zero_is_all_ones(self):
        X = sample_sphere(5, 3, 4)
        assert np.array_equal(population_gram(X, None, 0), np.ones((5, 5)))

    def test_exact_symmetry(self):
        X = sample_sphere(40, 5, 5)
        K = population_gram(X, None, 3)
        assert np.array_equal(K, K.T)

    def test_numerical_rank_bound(self):
        # rank of the d=3, degree<=2 kernel is 9 regardless of n
        X = sample_sphere(50, 3, 6)
        vals = gram_spectrum(normalized_gram(population_gram(X, None, 2), 50))
        assert np.all(vals[9:] <= 1e-8 * vals[0])

    @pytest.mark.parametrize("d, ell_hat, n", [(3, 2, 120), (6, 3, 200), (10, 4, 150)])
    def test_psd(self, d, ell_hat, n):
        X = sample_sphere(n, d, d + ell_hat)
        vals = np.linalg.eigvalsh(population_gram(X, None, ell_hat))
        assert vals.min() >= -1e-8 * vals.max()

    def test_matches_explicit_basis_on_circle(self):
        X = sample_sphere(30, 2, 7)
        Xp = sample_sphere(20, 2, 8)
        K = population_gram(X, Xp, 3)
        K_explicit = d2_explicit.population_gram_explicit(X, Xp, 3)
        np.testing.assert_allclose(K, K_explicit, rtol=0, atol=1e-10)

    def test_rejects_non_unit_rows(self):
        X = sample_sphere(4, 3, 9).copy()
        X[2] *= 1.5
        with pytest.raises(ValueError, match="row 2"):
            population_gram(X, None, 1)

    def test_integral_float_degree(self):
        X = sample_sphere(6, 3, 10)
        assert np.array_equal(population_gram(X, None, 2.0), population_gram(X, None, 2))

    @pytest.mark.parametrize("ell_hat", [-1, 2.5, True])
    def test_rejects_a_degree_that_is_not_a_count(self, ell_hat):
        X = sample_sphere(6, 3, 10)
        with pytest.raises(ValueError, match=f"degree cutoff ell_hat must be an integer >= 0, "
                                             rf"got {ell_hat}"):
            population_gram(X, None, ell_hat)


class TestEmpiricalGram:
    def test_single_direction(self):
        X = sample_sphere(3, 4, 10)
        Q = sample_sphere(1, 4, 11)
        tau = oracle_weights(4, 2)
        A = activation_matrix(X, Q, tau)[:, 0]
        K = empirical_gram(X, None, Q, tau)
        np.testing.assert_allclose(K, np.outer(A, A), atol=1e-13)

    def test_zero_weights_give_zero_matrix(self):
        X = sample_sphere(4, 3, 12)
        Q = sample_sphere(6, 3, 13)
        assert np.array_equal(empirical_gram(X, None, Q, np.zeros(3)), np.zeros((4, 4)))

    def test_psd_and_symmetric(self):
        X = sample_sphere(60, 4, 14)
        Q = sample_sphere(300, 4, 15)
        K = empirical_gram(X, None, Q, oracle_weights(4, 2))
        assert np.array_equal(K, K.T)
        vals = np.linalg.eigvalsh(K)
        assert vals.min() >= -1e-8 * vals.max()

    def test_matches_explicit_basis_on_circle(self):
        X = sample_sphere(25, 2, 16)
        Q = sample_sphere(40, 2, 17)
        tau = oracle_weights(2, 2)
        K = empirical_gram(X, None, Q, tau)
        K_explicit = d2_explicit.empirical_gram_explicit(X, X, Q, tau)
        np.testing.assert_allclose(K, K_explicit, rtol=0, atol=1e-10)

    def test_rejects_empty_width(self):
        X = sample_sphere(3, 3, 18)
        with pytest.raises(ValueError):
            empirical_gram(X, None, np.zeros((0, 3)), np.ones(2))

    def test_convergence_rate_in_width(self):
        """Median sup deviation over pairs shrinks like 1/sqrt(m):
        growing m by 4x shrinks it by a factor inside [1.3, 3]."""
        d, ell_hat, n_pairs = 4, 2, 200
        tau = oracle_weights(d, ell_hat)
        pts = sample_sphere(2 * n_pairs, d, 99)
        Xa, Xb = pts[:n_pairs], pts[n_pairs:]
        K_pop = gegenbauer_weighted_sum(np.sum(Xa * Xb, axis=1), d, np.ones(ell_hat + 1))

        def sup_err(m, seed):
            Q = sample_sphere(m, d, seed)
            Aa = activation_matrix(Xa, Q, tau)
            Ab = activation_matrix(Xb, Q, tau)
            return np.max(np.abs(np.sum(Aa * Ab, axis=1) / m - K_pop))

        ratios = []
        for seed in range(10):
            ratios.append(sup_err(4000, 1000 + seed) / sup_err(16000, 2000 + seed))
        assert 1.3 <= np.median(ratios) <= 3.0, np.median(ratios)

    def test_deviation_bound_constant_is_stable(self):
        """Entrywise |Khat - K| <= C * ell_hat * sqrt(log n / m) with one fitted
        constant working across seeds."""
        d, ell_hat, n = 3, 2, 80
        tau = oracle_weights(d, ell_hat)
        X = sample_sphere(n, d, 55)
        K = population_gram(X, None, ell_hat)
        scale = ell_hat * np.sqrt(np.log(n) / 2000)
        cs = []
        for seed in range(8):
            Q = sample_sphere(2000, d, 300 + seed)
            cs.append(np.max(np.abs(empirical_gram(X, None, Q, tau) - K)) / scale)
        c_fit = cs[0]
        assert all(c <= 3 * c_fit for c in cs)
        assert all(c >= c_fit / 3 for c in cs)


class TestNormalizedGram:
    def test_identity(self):
        np.testing.assert_allclose(normalized_gram(np.eye(2), 2), 0.5 * np.eye(2))

    def test_zero(self):
        assert np.array_equal(normalized_gram(np.zeros((3, 3)), 7), np.zeros((3, 3)))

    def test_trace_of_population_kernel(self):
        X = sample_sphere(45, 5, 20)
        K_n = normalized_gram(population_gram(X, None, 3), 45)
        assert np.trace(K_n) == pytest.approx(4.0, abs=1e-10)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            normalized_gram(np.eye(2), 0)

    @pytest.mark.parametrize("n", [float("nan"), 2.5, True])
    def test_count_is_an_integer(self, n):
        # these once divided the matrix by nan, 2.5 and 1
        with pytest.raises(ValueError, match=f"^sample count must be an integer >= 1, got {n}$"):
            normalized_gram(np.eye(2), n)


class TestGramSpectrum:
    def test_scaled_identity(self):
        vals = gram_spectrum(np.eye(4) / 4)
        np.testing.assert_allclose(vals, 0.25)

    def test_rank_one(self):
        v = np.ones(5)  # ||v||^2 = 5 = n
        vals = gram_spectrum(np.outer(v, v) / 5)
        np.testing.assert_allclose(vals, [1, 0, 0, 0, 0], atol=1e-12)

    def test_population_clusters_match_operator_eigenvalues(self):
        # large-n gram eigenvalues approach the operator spectrum:
        # 1 with multiplicity 1 and 1/3 with multiplicity 3 for d=3, degree<=1
        n = 2000
        X = sample_sphere(n, 3, 21)
        vals = gram_spectrum(normalized_gram(population_gram(X, None, 1), n))
        assert abs(vals[0] - 1.0) < 0.15
        np.testing.assert_allclose(vals[1:4], 1 / 3, atol=0.1)
        assert np.all(vals[4:] < 0.02)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            gram_spectrum(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            gram_spectrum(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            gram_spectrum(np.diag([1.0, -0.5]))

    def test_clamps_rounding_negatives(self):
        vals = gram_spectrum(np.diag([1.0, -1e-10]))
        assert vals[-1] == 0.0
