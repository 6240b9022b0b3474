"""Complexity functionals, critical radii, and risk estimation."""

import math
import tracemalloc

import numpy as np
import pytest

from sphattn import (
    KernelSpectrum,
    critical_radius,
    cumulative_dim,
    empirical_loss,
    empirical_spectrum,
    empirical_spectrum_from_points,
    eval_target,
    gen_dataset,
    kernel_complexity,
    make_target,
    mc_risk,
    normalized_gram,
    oracle_weights,
    population_complexity,
    population_gram,
    population_spectrum,
    predict,
    sample_sphere,
)
from sphattn import complexity, harmonics
from sphattn.complexity import MC_BATCH_ROWS, complexity_curve_csv
from sphattn.experiments import SUB_MC, derive_seed
from test_harmonics import unit_rows


class TestSpectrumType:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            KernelSpectrum(eigenvalues=np.array([1.0, -0.1]), n=2)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            KernelSpectrum(eigenvalues=np.array([0.1, 0.5]), n=2)

    def test_rejects_empty_or_2d(self):
        for lam in (np.zeros(0), np.array([[1.0, 0.5], [0.2, 0.1]])):
            with pytest.raises(ValueError, match="1-d"):
                KernelSpectrum(eigenvalues=lam, n=2)

    @pytest.mark.parametrize("lam", [[1.0, np.nan], [np.inf, 1.0]])
    def test_rejects_non_finite(self, lam):
        with pytest.raises(ValueError, match="finite"):
            KernelSpectrum(eigenvalues=np.array(lam), n=2)

    @pytest.mark.parametrize("n", [0, -3, 2.5, np.nan, np.inf, None])
    def test_rejects_bad_normalization(self, n):
        with pytest.raises(ValueError, match="normalization count"):
            KernelSpectrum(eigenvalues=np.array([1.0, 0.5]), n=n)

    def test_population_layout(self):
        # the rank-9 eigenvalues only, whatever n; n is carried alongside
        for n in (1, 20, 10**8):
            spec = population_spectrum(3, 2, n)
            assert spec.n == n
            np.testing.assert_allclose(spec.eigenvalues, [1] + [1 / 3] * 3 + [1 / 5] * 5)


class TestComplexity:
    def test_zero_spectrum(self):
        spec = KernelSpectrum(eigenvalues=np.zeros(4), n=4)
        assert kernel_complexity(spec, 1.0) == 0.0

    def test_two_eigenvalues(self):
        spec = KernelSpectrum(eigenvalues=np.array([4.0, 1.0]), n=2)
        assert kernel_complexity(spec, 1.0) == pytest.approx(1.0)

    def test_saturates_at_trace(self):
        rng = np.random.default_rng(0)
        lam = np.sort(rng.uniform(0, 2, size=12))[::-1]
        spec = KernelSpectrum(eigenvalues=lam, n=12)
        assert kernel_complexity(spec, 1e6) == pytest.approx(np.sqrt(lam.sum() / 12))

    @pytest.mark.parametrize("d, ell_hat, n", [(3, 2, 50), (5, 1, 20), (2, 4, 30)])
    def test_population_closed_form_matches_spectrum_route(self, d, ell_hat, n):
        spec = population_spectrum(d, ell_hat, n)
        for eps in (1e-3, 0.2, 0.7, 5.0):
            assert population_complexity(d, ell_hat, n, eps) == pytest.approx(
                kernel_complexity(spec, eps), rel=1e-12
            )

    def test_population_saturation(self):
        # eps^2 >= 1 saturates every term at the eigenvalue: sum N * 1/N = ell_hat + 1
        assert population_complexity(3, 2, 900, 1.0) == pytest.approx(np.sqrt(3 / 900))
        assert population_complexity(5, 0, 4, 2.0) == pytest.approx(0.5)

    def test_population_small_eps_regime(self):
        # below the smallest nonzero eigenvalue every min takes eps^2
        d, ell_hat, n = 3, 2, 900
        eps = 0.1  # eps^2 = 0.01 <= 1/5
        r = cumulative_dim(d, ell_hat)
        assert population_complexity(d, ell_hat, n, eps) == pytest.approx(
            eps * np.sqrt(r / n), rel=1e-12
        )

    def test_sub_root_property(self):
        specs = [
            population_spectrum(4, 2, 60),
            KernelSpectrum(np.sort(np.random.default_rng(1).uniform(0, 1, 30))[::-1], 30),
        ]
        grid = np.geomspace(1e-4, 10, 80)
        for spec in specs:
            R = np.array([kernel_complexity(spec, e) for e in grid])
            assert np.all(np.diff(R) >= -1e-15)
            ratio = R / grid
            assert np.all(np.diff(ratio) <= 1e-15)

    def test_rejects_bad_eps(self):
        for eps in (0.0, np.nan):
            with pytest.raises(ValueError):
                population_complexity(3, 1, 10, eps)
            with pytest.raises(ValueError):
                kernel_complexity(population_spectrum(3, 1, 10), eps)

    @pytest.mark.parametrize(
        "ell_hat, n, what",
        [(2, 0, "normalization"), (2, -5, "normalization"), (2, 2.5, "normalization"),
         (-1, 10, "ell_hat"), (1.5, 10, "ell_hat")],
    )
    def test_population_rejects_bad_counts(self, ell_hat, n, what):
        with pytest.raises(ValueError, match=what):
            population_complexity(3, ell_hat, n, 0.5)
        with pytest.raises(ValueError, match=what):
            population_spectrum(3, ell_hat, n)


class TestCriticalRadius:
    def test_zero_complexity(self):
        assert critical_radius(KernelSpectrum(eigenvalues=np.zeros(4), n=4), 1.0) == 0.0

    @pytest.mark.parametrize("sigma0", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_noise_scale(self, sigma0):
        with pytest.raises(ValueError, match="noise scale"):
            critical_radius(population_spectrum(3, 2, 900), sigma0)

    def test_closed_form_low_rank_regime(self):
        # rank 9 kernel, n = 900, sigma0 = 1: radius^2 = sigma0^2 * 9 / 900 = 0.01
        eps = critical_radius(population_spectrum(3, 2, 900), 1.0)
        assert abs(eps**2 - 0.01) <= 1e-10

    def test_scales_with_noise_level(self):
        def radius(sigma0):
            return critical_radius(population_spectrum(3, 2, 4000), sigma0)

        # in the small-radius regime the squared radius scales as sigma0^2
        assert radius(2.0) ** 2 / radius(1.0) ** 2 == pytest.approx(4.0, rel=1e-8)

    def test_matches_closed_form_across_scales(self):
        for sigma0, n in [(0.5, 800), (1.0, 2500), (2.0, 40000)]:
            r = cumulative_dim(3, 2)
            closed = sigma0**2 * r / n
            assert closed <= 1 / 5  # stays in the small-eps regime
            eps = critical_radius(population_spectrum(3, 2, n), sigma0)
            assert abs(eps**2 - closed) <= 1e-10

    @pytest.mark.parametrize("n, sigma0", [(900, 1.0), (40_000, 0.1), (10**6, 0.1), (10**8, 0.5)])
    def test_relative_error_at_large_n(self, n, sigma0):
        closed = sigma0**2 * cumulative_dim(3, 2) / n
        eps = critical_radius(population_spectrum(3, 2, n), sigma0)
        assert abs(eps**2 - closed) <= 1e-14 * closed
        # zeros past the rank change no sum of min(lam, eps^2)
        padded = np.pad(population_spectrum(3, 2, n).eigenvalues, (0, 91))
        assert critical_radius(KernelSpectrum(padded, n), sigma0) == eps

    @pytest.mark.parametrize("kind", ["empirical", "random", "tied"])
    def test_relative_residual_against_kernel_complexity(self, kind):
        if kind == "empirical":
            X = sample_sphere(300, 3, 7)
            spec = empirical_spectrum(normalized_gram(population_gram(X, None, 2), 300))
        elif kind == "random":
            lam = np.random.default_rng(8).exponential(size=40)
            spec = KernelSpectrum(np.sort(lam)[::-1], 1000)
        else:
            spec = KernelSpectrum(np.array([0.5, 0.5, 0.5, 0.01, 0.01, 0.0]), 6)
        # from deep in the low-rank regime to saturation at the trace
        for sigma0 in np.geomspace(1e-3, 1e2, 26):
            eps = critical_radius(spec, sigma0)
            residual = abs(sigma0 * kernel_complexity(spec, eps) - eps**2)
            assert residual <= 1e-14 * eps**2, (sigma0, residual / eps**2)

    def test_fixed_point_residual_and_uniqueness(self):
        spec = population_spectrum(4, 2, 300)
        R = lambda e: kernel_complexity(spec, e)
        sigma0 = 0.7
        eps = critical_radius(spec, sigma0)
        assert abs(sigma0 * R(eps) - eps**2) <= 1e-12 * max(1.0, eps**2)
        grid = np.geomspace(1e-6, 10, 2000)
        signs = np.sign([sigma0 * R(e) - e * e for e in grid])
        assert np.sum(np.diff(signs) != 0) == 1

    def test_empirical_vs_population_radius(self):
        """Gram-matrix radii track the analytic ones within a factor of 3."""
        d, ell_hat, n, sigma0 = 3, 2, 2000, 1.0
        eps_pop = critical_radius(population_spectrum(d, ell_hat, n), sigma0)
        ratios = []
        for seed in range(10):
            X = sample_sphere(n, d, 500 + seed)
            eps_emp = critical_radius(empirical_spectrum_from_points(X, ell_hat), sigma0)
            ratios.append(eps_emp**2 / eps_pop**2)
        assert all(1 / 3 <= r <= 3 for r in ratios)


def _gram_eigenvalues(X, ell_hat):
    """The n x n oracle: eigvalsh of the walked gram / n, descending, no clipping."""
    return np.linalg.eigvalsh(population_gram(X, None, ell_hat) / len(X))[::-1]


def _factor_width(d, ell_hat):
    g = harmonics._power_coefficients(d, np.ones(ell_hat + 1))
    return harmonics._factor_width(d, g)


@pytest.fixture
def gram_calls(monkeypatch):
    """Count the n x n grams the entry forms."""
    calls = []
    build = complexity.population_gram
    monkeypatch.setattr(complexity, "population_gram",
                        lambda *args: calls.append(args) or build(*args))
    return calls


# (d, ell_hat, n) on the factored route: d = 3..8 and ell_hat = 0..4, with
# n = p (a square monomial matrix) where p >= 150; and at n = 400 and 900
# the indefinite-g shape d = 3, ell_hat = 4
FACTORED = [(d, L, max(_factor_width(d, L), 150)) for d in range(3, 9) for L in range(5)]


class TestSpectrumFromPoints:
    @pytest.mark.parametrize("d, ell_hat, n", FACTORED + [(3, 4, 400), (3, 4, 900)])
    def test_matches_gram_route_within_bound(self, d, ell_hat, n, gram_calls):
        X = sample_sphere(n, d, 100 * d + 10 * ell_hat + n)
        spec = empirical_spectrum_from_points(X, ell_hat)
        assert not gram_calls
        p = _factor_width(d, ell_hat)
        assert spec.n == n and spec.eigenvalues.size == p
        _, tol = harmonics._gram_eigenvalues(X, ell_hat)
        ref = _gram_eigenvalues(X, ell_hat)
        # the oracle's own eigvalsh rounding, at its probabilistic size
        tol += math.sqrt(n) * np.finfo(float).eps * (ell_hat + 1)
        assert np.max(np.abs(spec.eigenvalues - ref[:p])) <= tol
        assert np.max(np.abs(ref[p:]), initial=0.0) <= tol  # the zeros left out
        # every sum of min(lam, eps^2) moves by at most tol per eigenvalue
        gram = empirical_spectrum(normalized_gram(population_gram(X, None, ell_hat), n))
        for eps in np.geomspace(1e-3, 3.0, 12):
            r2 = kernel_complexity(spec, eps) ** 2
            assert abs(r2 - kernel_complexity(gram, eps) ** 2) <= tol + 1e-15 * r2
        # the fixed point s = eps^2 of s^2 = a sum min(lam, s), a = sigma0^2 / n,
        # moves by at most a n tol / s: the slope of s^2 - h(s) there is >= s
        for sigma0 in (0.1, 1.0):
            s_f, s_g = critical_radius(spec, sigma0) ** 2, critical_radius(gram, sigma0) ** 2
            assert abs(s_f - s_g) <= sigma0**2 * tol / s_g + 1e-14 * s_g

    @pytest.mark.parametrize("d, ell_hat", [(3, 2), (4, 1), (5, 3), (8, 2), (3, 4), (6, 0)])
    def test_rank_above_cutoff(self, d, ell_hat):
        # criterion 4's count: exactly r = cumulative_dim(d, ell_hat) values
        # above 1e-6 lambda_max; the p - r others are the sphere's relations
        vals = empirical_spectrum_from_points(sample_sphere(600, d, 41), ell_hat).eigenvalues
        assert int(np.sum(vals > 1e-6 * vals[0])) == cumulative_dim(d, ell_hat)

    @pytest.mark.parametrize("d, ell_hat", [(3, 2), (6, 2), (3, 4)])
    def test_converges_to_population_spectrum(self, d, ell_hat):
        n = 20000
        spec = empirical_spectrum_from_points(sample_sphere(n, d, 42), ell_hat)
        pop = population_spectrum(d, ell_hat, n).eigenvalues
        r = pop.size
        # the gram's eigenvalues concentrate at the rate sqrt(r / n)
        assert np.max(np.abs(spec.eigenvalues[:r] - pop) / pop) <= 4 * math.sqrt(r / n)
        assert np.max(spec.eigenvalues[r:], initial=0.0) <= 1e-12

    @pytest.mark.parametrize("d, ell_hat, n", [(2, 12, 400), (3, 13, 300), (8, 4, 300), (6, 3, 60)])
    def test_gram_route_where_factors_decline(self, d, ell_hat, n, gram_calls):
        # the bound fails (d = 2, 3 at high degree) or p > n: the n x n route,
        # bit for bit the old composition
        X = sample_sphere(n, d, 43)
        assert harmonics._gram_eigenvalues(X, ell_hat) is None
        spec = empirical_spectrum_from_points(X, ell_hat)
        assert len(gram_calls) == 1
        old = empirical_spectrum(normalized_gram(population_gram(X, None, ell_hat), n))
        assert np.array_equal(spec.eigenvalues, old.eigenvalues) and spec.n == old.n == n

    def test_memory_at_large_n(self):
        X = sample_sphere(20000, 3, 44)
        tracemalloc.start()
        try:
            spec = empirical_spectrum_from_points(X, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the gram alone would be 20000^2 * 8 bytes = 3.2 GB
        assert peak < 20e6
        assert spec.eigenvalues.size == 10

    def test_rows_off_the_sphere(self):
        # rows inside the unit check's band, with the indefinite g of d = 3,
        # ell_hat = 4: within the bound, which counts their distance, of the gram
        X = sample_sphere(400, 3, 45)
        X *= 1.0 - 1e-9 * np.random.default_rng(46).random(400)[:, None]
        spec = empirical_spectrum_from_points(X, 4)
        _, tol = harmonics._gram_eigenvalues(X, 4)
        assert np.max(np.abs(spec.eigenvalues - _gram_eigenvalues(X, 4)[:35])) <= tol

    def test_negative_beyond_bound_raises(self, monkeypatch):
        X = sample_sphere(50, 3, 47)
        fake = lambda lam: lambda *args: (np.array(lam), 1e-12)
        monkeypatch.setattr(harmonics, "_gram_eigenvalues", fake([-2e-12, 0.5, 1.0]))
        with pytest.raises(ValueError, match="not PSD"):
            empirical_spectrum_from_points(X, 1)
        monkeypatch.setattr(harmonics, "_gram_eigenvalues", fake([-5e-13, 0.5, 1.0]))
        assert empirical_spectrum_from_points(X, 1).eigenvalues.tolist() == [1.0, 0.5, 0.0]

    def test_rejects_what_population_gram_rejects(self, monkeypatch):
        X = sample_sphere(30, 4, 48)
        X[3] *= 2
        for call in (lambda: empirical_spectrum_from_points(X, 2),
                     lambda: population_gram(X, None, 2)):
            with pytest.raises(ValueError, match="X row 3 is not unit-norm"):
                call()
        # a row inside the unit tolerance whose raw dot product with itself
        # would leave the band is divided by its norm: population_gram and
        # both routes of the spectrum give the walk's values on unit rows
        X = sample_sphere(30, 4, 48)
        X[5] *= 1 + 5e-9
        U = unit_rows(X)
        K = population_gram(X, None, 2)
        assert K[5, 5] == 3.0
        np.testing.assert_allclose(K, population_gram(U, None, 2), rtol=0, atol=1e-14)
        _, tol = harmonics._gram_eigenvalues(U, 2)
        tol += math.sqrt(30) * np.finfo(float).eps * 3
        ref = _gram_eigenvalues(U, 2)
        spec = empirical_spectrum_from_points(X, 2).eigenvalues
        assert np.max(np.abs(spec - ref[: spec.size])) <= tol
        monkeypatch.setattr(harmonics, "_gram_eigenvalues", lambda *args: None)
        gram = empirical_spectrum_from_points(X, 2).eigenvalues
        np.testing.assert_allclose(gram, np.maximum(ref, 0.0), rtol=0, atol=tol)


class TestMcRisk:
    def test_perfect_predictor(self):
        target = make_target(3, 1, [1.0, 1.0], 40)
        est, se = mc_risk(lambda X: eval_target(target, X), target, 5000, 41)
        assert est == 0.0 and se == 0.0

    def test_zero_predictor_matches_l2_norm(self):
        target = make_target(3, 1, [1.0, 1.0], 42)
        est, se = mc_risk(lambda X: np.zeros(X.shape[0]), target, 1_000_000, 43)
        assert abs(est - 4 / 3) <= 5 * se

    def test_deterministic_and_seed_stable(self):
        target = make_target(4, 1, [1.0, 0.5], 44)
        pred = lambda X: 0.3 * np.ones(X.shape[0])
        est1, se1 = mc_risk(pred, target, 200_000, 45)
        est2, se2 = mc_risk(pred, target, 200_000, 45)
        assert est1 == est2 and se1 == se2
        est3, se3 = mc_risk(pred, target, 200_000, 46)
        pooled = np.hypot(se1, se3)
        assert abs(est1 - est3) <= 3 * pooled

    def test_does_not_advance_a_seed_sequence(self):
        target = make_target(3, 1, [1.0, 1.0], 44)
        pred = lambda X: 0.3 * np.ones(X.shape[0])
        seq = np.random.SeedSequence(5)
        first = mc_risk(pred, target, 1000, seq)
        assert mc_risk(pred, target, 1000, seq) == first
        assert seq.n_children_spawned == 0
        assert first == mc_risk(pred, target, 1000, 5)

    @pytest.mark.parametrize("seed", [np.random.default_rng(5), np.random.PCG64(5)],
                             ids=["Generator", "BitGenerator"])
    def test_rejects_a_generator_seed(self, seed):
        target = make_target(3, 1, [1.0, 1.0], 44)
        with pytest.raises(TypeError, match="seed must be None, an int, a sequence of ints or a "
                                            f"SeedSequence, not {type(seed).__name__}$"):
            mc_risk(lambda X: np.zeros(X.shape[0]), target, 1000, seed)

    def test_rejects_tiny_sample(self):
        target = make_target(3, 0, [1.0], 47)
        with pytest.raises(ValueError):
            mc_risk(lambda X: np.zeros(X.shape[0]), target, 1, 48)


class TestEmpiricalLoss:
    def test_zero_on_match(self):
        f = np.array([1.0, 2.0, 3.0])
        assert empirical_loss(f, f) == 0.0

    def test_constant_offset(self):
        f = np.array([1.0, 2.0, 3.0])
        assert empirical_loss(f + 1, f) == pytest.approx(1.0)

    def test_recomposition_identity(self):
        """Loss against clean values equals (1/n)||u + w||^2 with u the residual
        against noisy responses and w the realized noise."""
        target = make_target(3, 1, [1.0, 1.0], 49)
        ds = gen_dataset(target, 300, 0.4, 50)
        rng = np.random.default_rng(51)
        preds = rng.standard_normal(300)
        u = preds - ds.y
        w = ds.y - ds.f_star_S
        assert empirical_loss(preds, ds.f_star_S) == pytest.approx(
            float((u + w) @ (u + w)) / 300, rel=1e-12
        )

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            empirical_loss(np.ones(3), np.ones(4))


def test_complexity_curve_csv(tmp_path):
    eps = np.geomspace(0.01, 1.0, 5)
    spec = population_spectrum(3, 1, 50)
    r_emp = [kernel_complexity(spec, e) for e in eps]
    r_pop = [population_complexity(3, 1, 50, e) for e in eps]
    path = tmp_path / "curve.csv"
    complexity_curve_csv(eps, r_emp, r_pop, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "eps,R_empirical,R_population"
    assert len(lines) == 6


def _per_chunk_mc_risk(predictor, target, num_samples, seed, rng_of=np.random.default_rng):
    """The estimator evaluated chunk by chunk: 32 chunks, one predictor call each.

    `seed` is an int or a SeedSequence, which is spawned as given; chunk c
    draws from rng_of(c-th child).
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    seqs = seed.spawn(32)
    base, extra = divmod(num_samples, 32)
    total = total_sq = 0.0
    for c, seq in enumerate(seqs):
        size = base + (1 if c < extra else 0)
        if size == 0:
            continue
        X = sample_sphere(size, target.d, rng_of(seq))
        sq = (np.asarray(predictor(X), dtype=float) - eval_target(target, X)) ** 2
        total += float(np.sum(sq))
        total_sq += float(np.sum(sq * sq))
    mean = total / num_samples
    return mean, float(np.sqrt(max(total_sq / num_samples - mean * mean, 0.0) / num_samples))


class _CountingPredictor:
    """A trained-network predictor that records the row count of every call."""

    def __init__(self, d, L, m, seed):
        self.Q = sample_sphere(m, d, seed)
        self.a = np.random.default_rng(seed + 1).standard_normal(m)
        self.tau = oracle_weights(d, L)
        self.rows = []

    def __call__(self, X):
        self.rows.append(X.shape[0])
        return predict(self.a, X, self.Q, self.tau)


def _rowwise_predictor(X):
    """A predictor whose every value is IEEE-exact elementwise arithmetic on its own row.

    Its values do not depend on how rows are batched, unlike predict's above
    degree 1, whose GEMMs round differently (by about 1 ulp) for different
    row counts.
    eval_target's values depend on their own rows alone, like these.
    """
    return X[:, 0] * X[:, 1] - 0.5 * X[:, 2] * X[:, 2] * X[:, 2] + X[:, 3]


# an int seed, and a seed shaped like an experiment trial's Monte Carlo seed
MC_SEEDS = {"int": lambda: 62, "trial": lambda: derive_seed(62, 1, 2, 3).spawn(4)[SUB_MC]}


class TestMcRiskBatches:
    @pytest.mark.parametrize("L", [1, 2])
    @pytest.mark.parametrize("num_samples", [2, 31, 32, 33, 1000, 20001, 200_000])
    def test_matches_per_chunk_oracle(self, L, num_samples):
        # at L = 1 predict gives each row the value it gives alone, so the
        # estimate is the oracle's bit for bit; at L = 2 the expansion's block
        # GEMMs round with the rows beside them, and the oracle calls predict
        # per chunk, so the two agree to rounding only
        target = make_target(6, 2, [0.5, 1.0, 2.0], 60)
        pred = _CountingPredictor(6, L, 200, 61)
        est, se = mc_risk(pred, target, num_samples, 62)
        want_est, want_se = _per_chunk_mc_risk(pred, target, num_samples, 62)
        if L == 1:
            assert (est, se) == (want_est, want_se)
        else:
            assert est == pytest.approx(want_est, rel=1e-13, abs=0)
            assert se == pytest.approx(want_se, rel=1e-13, abs=0)

    @pytest.mark.parametrize("seed_of", MC_SEEDS.values(), ids=MC_SEEDS.keys())
    @pytest.mark.parametrize("num_samples", [2, 31, 32, 33, 1000, 20001, 200_000])
    def test_matches_per_chunk_oracle_exactly(self, num_samples, seed_of):
        """Same chunks, seeds, normalization and order of sums, bit for bit."""
        target = make_target(6, 0, [1.5], 60)  # a constant f*: exact under any batching
        est_se = mc_risk(_rowwise_predictor, target, num_samples, seed_of())
        assert est_se == _per_chunk_mc_risk(_rowwise_predictor, target, num_samples, seed_of())

    @pytest.mark.parametrize("num_samples", [33, 20001])
    def test_targets_of_any_degree_match_exactly(self, num_samples):
        """f* of degree 3 is evaluated the same in a batch as chunk by chunk."""
        target = make_target(6, 3, [0.5, 1.0, 2.0, 1.5], 64)
        est_se = mc_risk(_rowwise_predictor, target, num_samples, 62)
        assert est_se == _per_chunk_mc_risk(_rowwise_predictor, target, num_samples, 62)

    def test_redraws_a_zero_row_from_its_chunk(self, monkeypatch):
        """A zero draw in chunk 5 is redrawn from chunk 5's generator, after the batch's draws."""

        class ZeroRowOnce(np.random.Generator):
            draws = 0

            def standard_normal(self, *args, **kwargs):
                Z = super().standard_normal(*args, **kwargs)
                if self.draws == 0:
                    Z[1] = 0.0
                self.draws += 1
                return Z

        forced = []

        def force_chunk_5(seed, count):
            for c, rng in enumerate(harmonics.child_generators(seed, count)):
                if c == 5:
                    rng = ZeroRowOnce(rng.bit_generator)
                    forced.append(rng)
                yield rng

        monkeypatch.setattr(complexity, "child_generators", force_chunk_5)
        target = make_target(4, 0, [1.0], 72)
        seen = []

        def pred(X):
            seen.append(X.copy())
            return _rowwise_predictor(X)

        est, se = mc_risk(pred, target, 100, 73)  # chunks 0..3 hold 4 rows, chunk 5 rows 19..21
        assert forced[0].draws == 2
        (X,) = seen
        np.testing.assert_allclose(np.linalg.norm(X, axis=1), 1.0, atol=1e-15)
        ref = np.random.default_rng(np.random.SeedSequence(73).spawn(32)[5])
        Z = ref.standard_normal((3, 4))
        z = ref.standard_normal((1, 4))
        assert np.array_equal(X[[19, 21]], unit_rows(Z)[[0, 2]])
        assert np.array_equal(X[20], unit_rows(z)[0])

        oracle_rngs = []

        def rng_of(seq):
            rng = np.random.default_rng(seq)
            if len(oracle_rngs) == 5:
                rng = ZeroRowOnce(rng.bit_generator)
            oracle_rngs.append(rng)
            return rng

        assert (est, se) == _per_chunk_mc_risk(pred, target, 100, 73, rng_of)
        assert oracle_rngs[5].draws == 2

    def test_sweep_size_is_one_call(self):
        target = make_target(6, 1, [1.0, 4.0], 63)
        pred = _CountingPredictor(6, 1, 300, 64)
        mc_risk(pred, target, 20_000, 65)
        assert pred.rows == [20_000]

    def test_batches_do_not_grow_with_samples(self):
        target = make_target(3, 1, [1.0, 1.0], 66)
        pred = _CountingPredictor(3, 1, 50, 67)
        mc_risk(pred, target, 1_000_000, 68)
        assert sum(pred.rows) == 1_000_000
        assert max(pred.rows) <= max(MC_BATCH_ROWS, math.ceil(1_000_000 / 32))

    def test_memory_does_not_grow_with_samples(self):
        d = 3
        target = make_target(d, 2, [0.5, 1.0, 2.0], 69)
        pred = _CountingPredictor(d, 1, 50, 70)

        def peak(num_samples):
            tracemalloc.start()
            try:
                mc_risk(pred, target, num_samples, 71)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # 250000 samples go in batches of four chunks of about 7800 rows, 1e6
        # samples in batches of one 31250-row chunk: the same rows per call
        # for 4x the samples
        small, large = peak(250_000), peak(1_000_000)
        assert large <= 1.05 * small
        # a chunk's draw, its normalized copy, the stacked batch and
        # eval_target's dot products and Gegenbauer table hold at most d floats
        # per row each; the whole 1e6 x 3 sample matrix would be 24 MB
        assert large < 8 * max(MC_BATCH_ROWS, math.ceil(1_000_000 / 32)) * d * 8
