"""Complexity functionals, critical radii, and risk estimation."""

import numpy as np
import pytest

from sphattn import (
    KernelSpectrum,
    critical_radius,
    cumulative_dim,
    empirical_loss,
    empirical_spectrum,
    eval_target,
    gen_dataset,
    kernel_complexity,
    make_target,
    mc_risk,
    normalized_gram,
    population_complexity,
    population_gram,
    population_spectrum,
    sample_sphere,
)
from sphattn.complexity import complexity_curve_csv


class TestSpectrumType:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            KernelSpectrum(eigenvalues=np.array([1.0, -0.1]), n=2)

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            KernelSpectrum(eigenvalues=np.array([0.1, 0.5]), n=2)

    def test_population_layout(self):
        spec = population_spectrum(3, 2, 20)
        assert spec.eigenvalues.shape == (20,)
        np.testing.assert_allclose(spec.eigenvalues[:9], [1] + [1 / 3] * 3 + [1 / 5] * 5)
        assert np.all(spec.eigenvalues[9:] == 0)


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
        with pytest.raises(ValueError):
            population_complexity(3, 1, 10, 0.0)


class TestCriticalRadius:
    def test_zero_complexity(self):
        assert critical_radius(lambda e: 0.0, 1.0) == 0.0

    def test_closed_form_low_rank_regime(self):
        # rank 9 kernel, n = 900, sigma0 = 1: radius^2 = sigma0^2 * 9 / 900 = 0.01
        eps = critical_radius(lambda e: population_complexity(3, 2, 900, e), 1.0)
        assert abs(eps**2 - 0.01) <= 1e-10

    def test_scales_with_noise_level(self):
        def radius(sigma0):
            return critical_radius(lambda e: population_complexity(3, 2, 4000, e), sigma0)

        # in the small-radius regime the squared radius scales as sigma0^2
        assert radius(2.0) ** 2 / radius(1.0) ** 2 == pytest.approx(4.0, rel=1e-8)

    def test_bisection_matches_closed_form_across_scales(self):
        for sigma0, n in [(0.5, 800), (1.0, 2500), (2.0, 40000)]:
            r = cumulative_dim(3, 2)
            closed = sigma0**2 * r / n
            assert closed <= 1 / 5  # stays in the small-eps regime
            eps = critical_radius(lambda e: population_complexity(3, 2, n, e), sigma0)
            assert abs(eps**2 - closed) <= 1e-10

    def test_fixed_point_residual_and_uniqueness(self):
        spec = population_spectrum(4, 2, 300)
        R = lambda e: kernel_complexity(spec, e)
        sigma0 = 0.7
        eps = critical_radius(R, sigma0)
        assert abs(sigma0 * R(eps) - eps**2) <= 1e-12 * max(1.0, eps**2)
        grid = np.geomspace(1e-6, 10, 2000)
        signs = np.sign([sigma0 * R(e) - e * e for e in grid])
        assert np.sum(np.diff(signs) != 0) == 1

    def test_empirical_vs_population_radius(self):
        """Gram-matrix radii track the analytic ones within a factor of 3."""
        d, ell_hat, n, sigma0 = 3, 2, 2000, 1.0
        eps_pop = critical_radius(lambda e: population_complexity(d, ell_hat, n, e), sigma0)
        ratios = []
        for seed in range(10):
            X = sample_sphere(n, d, 500 + seed)
            spec = empirical_spectrum(normalized_gram(population_gram(X, None, ell_hat), n))
            eps_emp = critical_radius(lambda e: kernel_complexity(spec, e), sigma0)
            ratios.append(eps_emp**2 / eps_pop**2)
        assert all(1 / 3 <= r <= 3 for r in ratios)


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
