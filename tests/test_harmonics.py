"""Dimension counts, Gegenbauer evaluation, and sphere sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphattn.harmonics as harmonics_mod
from sphattn import (
    cumulative_dim,
    gegenbauer_all,
    gegenbauer_blocks,
    gegenbauer_weighted_matrix,
    gegenbauer_weighted_sum,
    harmonic_dim,
    sample_sphere,
)

# Classical Legendre polynomials: the d=3 family in closed form.
LEGENDRE = [
    lambda t: np.ones_like(t),
    lambda t: t,
    lambda t: (3 * t**2 - 1) / 2,
    lambda t: (5 * t**3 - 3 * t) / 2,
    lambda t: (35 * t**4 - 30 * t**2 + 3) / 8,
]


class TestHarmonicDim:
    @pytest.mark.parametrize(
        "d, ell, expected",
        [(7, 0, 1), (3, 2, 5), (2, 3, 2), (4, 2, 9), (2, 0, 1), (2, 1, 2), (8, 4, 294)],
    )
    def test_values(self, d, ell, expected):
        assert harmonic_dim(d, ell) == expected

    def test_d3_matches_classical_count(self):
        for ell in range(21):
            assert harmonic_dim(3, ell) == 2 * ell + 1

    def test_d4_matches_classical_count(self):
        for ell in range(21):
            assert harmonic_dim(4, ell) == (ell + 1) ** 2

    def test_matches_binomial_difference_identity(self):
        # independent formula: C(d+k-1, k) - C(d+k-3, k-2)
        for d in range(2, 9):
            for k in range(1, 12):
                alt = math.comb(d + k - 1, k) - (math.comb(d + k - 3, k - 2) if k >= 2 else 0)
                assert harmonic_dim(d, k) == alt

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            harmonic_dim(1, 2)
        with pytest.raises(ValueError):
            harmonic_dim(3, -1)
        for ell in (2.5, float("inf")):
            with pytest.raises(ValueError, match="degree"):
                harmonic_dim(3, ell)

    @pytest.mark.parametrize(
        "d, ell, expected", [(5, 0, 1), (3, 2, 9), (2, 4, 9), (8, 4, 450)]
    )
    def test_cumulative(self, d, ell, expected):
        assert cumulative_dim(d, ell) == expected

    @pytest.mark.parametrize("ell", [2.5, -1, float("nan")])
    def test_cumulative_rejects_bad_degree(self, ell):
        with pytest.raises(ValueError, match="degree"):
            cumulative_dim(3, ell)


class TestGegenbauerAll:
    def test_value_one_gives_all_ones(self):
        assert np.array_equal(gegenbauer_all(1.0, 9, 4), np.ones(5))

    def test_d3_half(self):
        np.testing.assert_allclose(
            gegenbauer_all(0.5, 3, 2), [1.0, 0.5, -0.125], rtol=0, atol=1e-15
        )

    def test_d2_is_cosine(self):
        vals = gegenbauer_all(np.cos(np.pi / 3), 2, 3)
        np.testing.assert_allclose(vals, [1.0, 0.5, -0.5, -1.0], atol=1e-14)

    def test_d3_matches_hardcoded_legendre(self):
        t = np.linspace(-1, 1, 1000)
        vals = gegenbauer_all(t, 3, 4)
        for ell, poly in enumerate(LEGENDRE):
            np.testing.assert_allclose(vals[ell], poly(t), atol=1e-12)

    def test_d2_matches_chebyshev_identity(self):
        theta = np.linspace(0, np.pi, 500)
        vals = gegenbauer_all(np.cos(theta), 2, 10)
        for k in range(11):
            np.testing.assert_allclose(vals[k], np.cos(k * theta), atol=1e-12)

    def test_matches_rodrigues_formula(self):
        """Symbolic derivative-form oracle, evaluated for several dimensions."""
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        grid = np.linspace(-1, 1, 201)
        for d in (3, 5, 7):
            vals = gegenbauer_all(grid, d, 4)
            for k in range(5):
                expr = (
                    sympy.Rational(-1, 2) ** k
                    * (sympy.gamma(sympy.Rational(d - 1, 2)) / sympy.gamma(k + sympy.Rational(d - 1, 2)))
                    * (1 - t**2) ** sympy.Rational(3 - d, 2)
                    * sympy.diff((1 - t**2) ** (k + sympy.Rational(d - 3, 2)), t, k)
                )
                poly = sympy.lambdify(t, sympy.simplify(expr), "numpy")
                expected = poly(grid) * np.ones_like(grid)
                np.testing.assert_allclose(vals[k], expected, atol=1e-11)

    def test_bounded_on_domain(self):
        rng = np.random.default_rng(5)
        t = rng.uniform(-1, 1, size=10_000)
        for d in (2, 3, 5, 9):
            vals = gegenbauer_all(t, d, 12)
            assert np.max(np.abs(vals)) <= 1 + 1e-12

    def test_recurrence_residual(self):
        rng = np.random.default_rng(6)
        t = rng.uniform(-1, 1, size=2000)
        for d in (2, 3, 6, 11):
            P = gegenbauer_all(t, d, 8)
            for k in range(1, 8):
                resid = (
                    t * P[k]
                    - k / (2 * k + d - 2) * P[k - 1]
                    - (k + d - 2) / (2 * k + d - 2) * P[k + 1]
                )
                assert np.max(np.abs(resid)) <= 1e-12

    def test_domain_tolerance_band(self):
        # inside the band: clamped to the endpoint value
        assert gegenbauer_all(1.0 + 0.5e-12, 4, 3)[3] == 1.0
        with pytest.raises(ValueError):
            gegenbauer_all(1.0 + 1e-9, 4, 3)
        with pytest.raises(ValueError):
            gegenbauer_all(np.nan, 4, 3)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            gegenbauer_all(0.5, 1, 3)
        with pytest.raises(ValueError):
            gegenbauer_all(0.5, 3, -1)

    @given(
        t=st.floats(min_value=-1.0, max_value=1.0),
        d=st.integers(min_value=2, max_value=10),
        L=st.integers(min_value=0, max_value=12),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_bounded_and_normalized(self, t, d, L):
        vals = gegenbauer_all(t, d, L)
        assert vals[0] == 1.0
        if L >= 1:
            assert vals[1] == t
        assert np.all(np.abs(vals) <= 1 + 1e-12)


class TestGegenbauerMatrix:
    """gegenbauer_all applied to matrices of pairwise dot products."""

    def test_all_ones_input(self):
        out = gegenbauer_all(np.ones((3, 3)), 4, 2)
        assert out.shape == (3, 3, 3)
        assert np.array_equal(out, np.ones((3, 3, 3)))

    def test_single_entry(self):
        out = gegenbauer_all(np.array([[0.5]]), 3, 2)
        np.testing.assert_allclose(out[:, 0, 0], [1.0, 0.5, -0.125], atol=1e-15)

    def test_preserves_symmetry(self):
        rng = np.random.default_rng(2)
        A = rng.uniform(-1, 1, size=(6, 6))
        G = (A + A.T) / 2
        out = gegenbauer_all(G, 5, 4)
        for sl in out:
            assert np.array_equal(sl, sl.T)

    def test_reports_offending_index(self):
        G = np.zeros((2, 2))
        G[1, 0] = 1.5
        with pytest.raises(ValueError, match=r"\(1, 0\)"):
            gegenbauer_all(G, 3, 2)


class TestWeightedSum:
    def test_matches_stacked_evaluation(self):
        rng = np.random.default_rng(3)
        G = rng.uniform(-1, 1, size=(10, 7))
        w = rng.standard_normal(6)
        stack = gegenbauer_all(G, 5, 5)
        expected = np.tensordot(w, stack, axes=1)
        np.testing.assert_allclose(gegenbauer_weighted_sum(G, 5, w), expected, atol=1e-13)

    def test_single_degree(self):
        G = np.array([0.3, -0.7])
        np.testing.assert_allclose(gegenbauer_weighted_sum(G, 4, [2.0]), [2.0, 2.0])


class TestGegenbauerBlocks:
    @pytest.mark.parametrize("block_entries", [1, 7 * 40, 1 << 16])
    def test_matches_stack_for_any_block_size(self, monkeypatch, block_entries):
        monkeypatch.setattr(harmonics_mod, "BLOCK_ENTRIES", block_entries)
        A, B = sample_sphere(33, 5, 40), sample_sphere(40, 5, 41)
        stack = np.zeros((6, 33, 40))
        seen = np.zeros(33, dtype=int)
        for rows, degrees in gegenbauer_blocks(A, B, 5, 5):
            seen[rows] += 1
            stack[0, rows] = 1.0
            for k, P in degrees:
                stack[k, rows] = P
        assert np.all(seen == 1)
        np.testing.assert_allclose(stack, gegenbauer_all(A @ B.T, 5, 5), rtol=0, atol=1e-14)

    def test_weighted_matrix_matches_weighted_sum(self, monkeypatch):
        monkeypatch.setattr(harmonics_mod, "BLOCK_ENTRIES", 3 * 25)
        A, B = sample_sphere(20, 4, 42), sample_sphere(25, 4, 43)
        w = [0.5, 0.0, 2.0, -1.0]
        np.testing.assert_allclose(
            gegenbauer_weighted_matrix(A, B, 4, w),
            gegenbauer_weighted_sum(A @ B.T, 4, w),
            rtol=0,
            atol=1e-14,
        )

    def test_reports_offending_index_in_later_block(self, monkeypatch):
        monkeypatch.setattr(harmonics_mod, "BLOCK_ENTRIES", 2 * 6)
        A, B = sample_sphere(9, 3, 44), sample_sphere(6, 3, 45)
        A[7] = B[4] * (1.0 + 5e-9)
        with pytest.raises(ValueError, match=r"dot product .* at index \(7, 4\)"):
            for _ in gegenbauer_blocks(A, B, 3, 2):
                pass

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            gegenbauer_blocks(np.ones((2, 3)), np.ones((2, 4)), 3, 2)


class TestSampleSphere:
    def test_unit_norm_rows(self):
        X = sample_sphere(3, 2, 7)
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-12)

    def test_deterministic(self):
        assert np.array_equal(sample_sphere(50, 6, 123), sample_sphere(50, 6, 123))

    def test_column_means_near_zero(self):
        X = sample_sphere(10_000, 5, 1)
        assert np.max(np.abs(X.mean(axis=0))) < 0.05

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            sample_sphere(0, 3, 0)

    @pytest.mark.parametrize("n, d, seed", [(1, 2, 0), (31, 3, 1), (625, 6, 2), (4000, 8, 3)])
    def test_normalized_normal_draws(self, n, d, seed):
        Z = np.random.default_rng(seed).standard_normal((n, d))
        assert np.array_equal(sample_sphere(n, d, seed), Z / np.linalg.norm(Z, axis=1)[:, None])

    def test_redraws_a_zero_row(self):
        class ZeroRowOnce(np.random.Generator):
            draws = 0

            def standard_normal(self, *args, **kwargs):
                Z = super().standard_normal(*args, **kwargs)
                if self.draws == 0:
                    Z[1] = 0.0
                self.draws += 1
                return Z

        rng = ZeroRowOnce(np.random.PCG64(5))
        X = sample_sphere(4, 3, rng)  # default_rng hands a Generator back as is
        assert rng.draws == 2
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-15)
        ref = np.random.Generator(np.random.PCG64(5))
        Z = ref.standard_normal((4, 3))
        z = ref.standard_normal((1, 3))
        assert np.array_equal(X[[0, 2, 3]], (Z / np.linalg.norm(Z, axis=1)[:, None])[[0, 2, 3]])
        assert np.array_equal(X[1], (z / np.linalg.norm(z))[0])

    def test_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(9)
        X1 = sample_sphere(4, 3, seq)
        X2 = sample_sphere(4, 3, np.random.SeedSequence(9))
        assert np.array_equal(X1, X2)


def test_monte_carlo_orthogonality():
    """Sample mean of P_j(<x,w>) P_k(<x',w>) approximates the kernel identity:
    it converges to delta_jk * P_k(<x,x'>) / N(d,k)."""
    d = 4
    rng_pts = sample_sphere(2, d, 42)
    x, xp = rng_pts[0], rng_pts[1]
    W = sample_sphere(1_000_000, d, 43)
    Px = gegenbauer_all(W @ x, d, 3)
    Pxp = gegenbauer_all(W @ xp, d, 3)
    dot = float(x @ xp)
    for j in range(4):
        for k in range(4):
            prod = Px[j] * Pxp[k]
            mean = prod.mean()
            se = prod.std(ddof=1) / np.sqrt(prod.size)
            expected = gegenbauer_all(dot, d, 3)[k] / harmonic_dim(d, k) if j == k else 0.0
            assert abs(mean - expected) <= 5 * se + 1e-12, (j, k, mean, expected, se)


def test_one_tolerance_reaches_every_user(monkeypatch):
    """With harmonics._FACTOR_RTOL at 0 no user of the expansion takes it."""
    from sphattn import experiments, selection, training
    from test_training import plain_builds
    from sphattn.kernels import oracle_weights
    from sphattn.targets import gen_dataset, make_target
    from sphattn.training import predict

    def expansion(*args):
        raise AssertionError("the monomial expansion was used")

    monkeypatch.setattr(harmonics_mod, "_FACTOR_RTOL", 0.0)
    # stage one and predict at d = 8, L = 4, on a shape where the expansion is cheaper
    ds = gen_dataset(make_target(8, 2, [1.0, 1.0, 1.0], 70), 400, 0.1, 71)
    Q = sample_sphere(400, 8, 72)
    assert harmonics_mod._expansion_is_cheaper(400, 400, 8, 4)
    with monkeypatch.context() as mp:
        mp.setattr(harmonics_mod, "_power_sums", expansion)
        selection.one_step_updates(ds, Q, 4)
        predict(np.ones(400), ds.S, Q, oracle_weights(8, 4))
    # train on the factors: the walk's residual exceeds 0 too, so it falls back
    monkeypatch.setattr(training, "_factored_is_cheaper", lambda *shape: True)
    built = plain_builds(monkeypatch)
    ds = gen_dataset(make_target(3, 1, [1.0, 1.0], 73), 60, 0.2, 74)
    with pytest.warns(RuntimeWarning, match="falling back to the m x n feature matrix"):
        training.train(ds, sample_sphere(200, 3, 75), oracle_weights(3, 2), 0.3, 5)
    assert len(built) == 1
    # the kernel gap walks both sides of its pairs
    calls, walk = [], harmonics_mod.gegenbauer_weighted_sum
    monkeypatch.setattr(harmonics_mod, "gegenbauer_weighted_sum",
                        lambda *args: calls.append(args) or walk(*args))
    monkeypatch.setattr(harmonics_mod, "_exact_factors", expansion)
    pairs = sample_sphere(20, 3, 76)
    experiments._kernel_gap(pairs[:10], pairs[10:], sample_sphere(50, 3, 77),
                            oracle_weights(3, 1), 1, 3)
    assert len(calls) == 2
