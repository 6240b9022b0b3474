"""Zonal targets, their norms, and dataset generation."""

import csv
import json

import numpy as np
import pytest

from sphattn import (
    ZonalTarget,
    eval_target,
    gegenbauer_all,
    gen_dataset,
    harmonic_dim,
    l2_norm_sq,
    make_target,
    normalized_gram,
    population_gram,
    rkhs_norm,
    sample_sphere,
)
from sphattn.targets import dataset_to_csv, save_dataset


class TestMakeTarget:
    def test_constant_target(self):
        target = make_target(4, 0, [1.0], 0)
        X = sample_sphere(10, 4, 1)
        np.testing.assert_allclose(eval_target(target, X), 1.0)

    def test_linear_target_is_dot_product(self):
        target = make_target(3, 1, [0.0, 1.0], 2)
        X = sample_sphere(20, 3, 3)
        np.testing.assert_allclose(eval_target(target, X), X @ target.directions[1], atol=1e-14)

    def test_rejects_zero_top_coefficient(self):
        with pytest.raises(ValueError, match="top-degree"):
            make_target(3, 1, [1.0, 0.0], 0)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            make_target(3, 2, [1.0, 1.0], 0)

    @pytest.mark.parametrize("ell0, ok", [(2.5, False), (True, False), (2.0, True)])
    def test_degree_is_an_integer(self, ell0, ok):
        if ok:
            target = make_target(3, ell0, [1.0, 1.0, 1.0], 0)
            assert target.ell0 == 2 and type(target.ell0) is int
            assert np.array_equal(target.directions, make_target(3, 2, [1.0] * 3, 0).directions)
        else:
            with pytest.raises(ValueError, match=f"target degree ell0 must be an integer >= 0, "
                                                 f"got {ell0}"):
                make_target(3, ell0, [1.0, 1.0], 0)

    def test_directions_are_unit(self):
        target = make_target(6, 3, [1, 1, 1, 1], 5)
        np.testing.assert_allclose(np.linalg.norm(target.directions, axis=1), 1.0, atol=1e-12)


class TestEvalTarget:
    def test_at_own_direction(self):
        target = make_target(5, 1, [0.0, 1.0], 7)
        val = eval_target(target, target.directions[1][None, :])
        assert val[0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_point(self):
        target = make_target(4, 1, [0.0, 1.0], 8)
        w = target.directions[1]
        v = np.zeros(4)
        v[np.argmin(np.abs(w))] = 1.0
        x = v - (v @ w) * w
        x /= np.linalg.norm(x)
        assert eval_target(target, x[None, :])[0] == pytest.approx(0.0, abs=1e-12)

    def test_antipodal_degree_two(self):
        target = make_target(3, 2, [0.0, 0.0, 1.0], 9)
        x = -target.directions[2]
        # P_2(-1) = 1 for the classical Legendre polynomial
        assert eval_target(target, x[None, :])[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 6, 8, 16, 30, 64, 129])
    @pytest.mark.parametrize("ell0", [1, 2, 3])
    def test_each_value_depends_on_its_row_alone(self, d, ell0):
        # bit for bit, so that a batch of rows gives what each row gives alone
        target = make_target(d, ell0, np.linspace(0.5, 2.0, ell0 + 1), 11 + d)
        X = sample_sphere(257, d, 12 + ell0)
        f = eval_target(target, X)
        assert all(f[i] == eval_target(target, X[i : i + 1])[0] for i in range(len(X)))

    def test_rejects_non_unit(self):
        target = make_target(3, 0, [1.0], 10)
        with pytest.raises(ValueError):
            eval_target(target, np.array([[1.0, 1.0, 1.0]]))


class TestNorms:
    def test_rkhs_zero(self):
        target = ZonalTarget(d=3, ell0=0, coeffs=np.array([0.0]), directions=sample_sphere(1, 3, 0))
        assert rkhs_norm(target) == 0.0

    def test_rkhs_pythagorean(self):
        target = make_target(6, 1, [3.0, 4.0], 11)
        assert rkhs_norm(target) == pytest.approx(5.0)

    def test_rkhs_independent_of_dimension(self):
        for d in (2, 3, 9):
            target = make_target(d, 1, [1.0, 1.0], 12)
            assert rkhs_norm(target) == pytest.approx(np.sqrt(2))

    def test_rkhs_against_monte_carlo_spectral_expansion(self):
        """Estimate each degree's squared L2 mass by sampling and divide by the
        operator eigenvalue 1/N(d,k); the total must match sum of c_k^2."""
        d = 3
        target = make_target(d, 2, [0.7, -1.2, 0.9], 13)
        X = sample_sphere(200_000, d, 14)
        total = 0.0
        total_se = 0.0
        for k, c in enumerate(target.coeffs):
            vals = c * gegenbauer_all(X @ target.directions[k], d, k)[k]
            sq = vals**2 * harmonic_dim(d, k)
            total += sq.mean()
            total_se += (sq.std(ddof=1) / np.sqrt(sq.size)) ** 2
        rk2 = rkhs_norm(target) ** 2
        assert abs(total - rk2) <= 5 * np.sqrt(total_se)

    def test_l2_constant(self):
        target = make_target(7, 0, [1.0], 15)
        assert l2_norm_sq(target) == pytest.approx(1.0)

    def test_l2_closed_form_d3(self):
        target = make_target(3, 1, [1.0, 1.0], 16)
        assert l2_norm_sq(target) == pytest.approx(4 / 3)

    def test_l2_monte_carlo_d3(self):
        target = make_target(3, 1, [1.0, 1.0], 17)
        X = sample_sphere(1_000_000, 3, 18)
        sq = eval_target(target, X) ** 2
        se = sq.std(ddof=1) / np.sqrt(sq.size)
        assert abs(sq.mean() - 4 / 3) <= 5 * se

    def test_l2_chebyshev_weight(self):
        target = make_target(2, 2, [0.0, 0.0, 1.0], 19)
        assert l2_norm_sq(target) == pytest.approx(0.5)

    def test_rkhs_dominates_l2(self):
        target = make_target(5, 2, [1.0, 0.5, 2.0], 20)
        assert rkhs_norm(target) ** 2 > l2_norm_sq(target)
        constant = make_target(5, 0, [1.0], 21)
        assert rkhs_norm(constant) ** 2 == pytest.approx(l2_norm_sq(constant))

    def test_zonal_terms_are_mean_zero(self):
        d = 4
        X = sample_sphere(1_000_000, d, 22)
        w = sample_sphere(1, d, 23)[0]
        for k in (1, 2):
            vals = gegenbauer_all(X @ w, d, k)[k]
            se = vals.std(ddof=1) / np.sqrt(vals.size)
            assert abs(vals.mean()) <= 5 * se


class TestGenDataset:
    def test_noiseless(self):
        target = make_target(4, 1, [1.0, 2.0], 24)
        ds = gen_dataset(target, 50, 0.0, 25)
        assert np.array_equal(ds.y, ds.f_star_S)

    def test_noise_scale(self):
        target = make_target(3, 0, [1.0], 26)
        ds = gen_dataset(target, 10_000, 1.0, 27)
        sd = np.std(ds.y - ds.f_star_S, ddof=1)
        assert 0.95 <= sd <= 1.05

    def test_deterministic(self):
        target = make_target(3, 1, [1.0, 1.0], 28)
        d1 = gen_dataset(target, 40, 0.5, 29)
        d2 = gen_dataset(target, 40, 0.5, 29)
        assert np.array_equal(d1.S, d2.S) and np.array_equal(d1.y, d2.y)

    @pytest.mark.parametrize("seed", [np.random.default_rng(29), np.random.PCG64(29), 2.5, "29"],
                             ids=["Generator", "BitGenerator", "float", "str"])
    def test_rejects_a_seed_of_another_type(self, seed):
        target = make_target(3, 1, [1.0, 1.0], 28)
        with pytest.raises(TypeError, match="seed must be None, an int, a sequence of ints or a "
                                            f"SeedSequence, not {type(seed).__name__}$"):
            gen_dataset(target, 40, 0.5, seed)

    def test_does_not_advance_a_seed_sequence(self):
        target = make_target(3, 1, [1.0, 1.0], 28)
        seq = np.random.SeedSequence(29, spawn_key=(1, 2))
        d1 = gen_dataset(target, 40, 0.5, seq)
        d2 = gen_dataset(target, 40, 0.5, seq)
        assert seq.n_children_spawned == 0
        assert np.array_equal(d1.S, d2.S) and np.array_equal(d1.y, d2.y)
        feat, noise = np.random.SeedSequence(29, spawn_key=(1, 2)).spawn(2)
        assert np.array_equal(d1.S, sample_sphere(40, 3, feat))
        f_star = eval_target(target, d1.S)
        assert np.array_equal(d1.y, f_star + 0.5 * np.random.default_rng(noise).standard_normal(40))

    def test_rejects_empty(self):
        target = make_target(3, 0, [1.0], 30)
        with pytest.raises(ValueError):
            gen_dataset(target, 0, 0.1, 31)

    @pytest.mark.parametrize("n, ok", [(2.5, False), (True, False), (2.0, True)])
    def test_size_is_an_integer(self, n, ok):
        target = make_target(3, 1, [1.0, 1.0], 30)
        if ok:
            ds, want = gen_dataset(target, n, 0.1, 31), gen_dataset(target, 2, 0.1, 31)
            assert np.array_equal(ds.S, want.S) and np.array_equal(ds.y, want.y)
        else:
            with pytest.raises(ValueError, match=f"dataset size must be an integer >= 1, got {n}"):
                gen_dataset(target, n, 0.1, 31)

    @pytest.mark.parametrize("sigma0", [-1.0, np.nan, np.inf])
    def test_rejects_bad_noise_scale(self, sigma0):
        # nan fails every comparison, so "sigma0 > 0" alone would read it as no noise
        target = make_target(3, 1, [1.0, 1.0], 30)
        with pytest.raises(ValueError, match=f"noise scale must be >= 0 and finite, got {sigma0}"):
            gen_dataset(target, 5, sigma0, 31)

    def test_noise_mean_within_tolerance(self):
        target = make_target(5, 0, [2.0], 32)
        ds = gen_dataset(target, 4000, 0.7, 33)
        resid = ds.y - ds.f_star_S
        assert abs(resid.mean()) <= 5 * 0.7 / np.sqrt(4000)

    @staticmethod
    def _gen_with_rows(monkeypatch, S):
        import sphattn.targets as targets_mod

        target = make_target(3, 1, [1.0, 1.0], 34)
        monkeypatch.setattr(targets_mod, "sample_sphere", lambda n, d, seed: S.copy())
        return gen_dataset(target, S.shape[0], 0.1, 35)

    # unit rows sharing the first coordinate 0.6
    SHARED_FIRST = np.array(
        [[0.6, 0.8, 0.0], [0.0, 0.6, 0.8], [0.6, 0.0, 0.8], [0.6, -0.8, 0.0], [1.0, 0.0, 0.0]]
    )

    def test_repeated_row_raises(self, monkeypatch):
        S = self.SHARED_FIRST[[0, 2, 3, 2]]  # every first coordinate ties
        with pytest.raises(RuntimeError, match="duplicate feature rows"):
            self._gen_with_rows(monkeypatch, S)

    def test_shared_first_coordinate_is_not_a_duplicate(self, monkeypatch):
        ds = self._gen_with_rows(monkeypatch, self.SHARED_FIRST)
        assert np.array_equal(ds.S, self.SHARED_FIRST)


def test_degree_containment_in_gram_column_space():
    """Clean target values lie in the span of the top kernel eigenvectors."""
    d, ell0, ell_hat, n = 3, 2, 2, 400
    target = make_target(d, ell0, [1.0, 1.0, 1.0], 34)
    X = sample_sphere(n, d, 35)
    f = eval_target(target, X)
    K_n = normalized_gram(population_gram(X, None, ell_hat), n)
    vecs = np.linalg.eigh(K_n)[1][:, ::-1]  # non-increasing eigenvalues
    rank = 9  # cumulative_dim(3, 2)
    resid = f - vecs[:, :rank] @ (vecs[:, :rank].T @ f)
    assert np.linalg.norm(resid) <= 1e-6 * np.linalg.norm(f)


class TestSerialization:
    def test_csv_header_and_values(self, tmp_path):
        target = make_target(3, 1, [1.0, 1.0], 36)
        ds = gen_dataset(target, 12, 0.1, 37)
        path = tmp_path / "data.csv"
        dataset_to_csv(ds, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x_0", "x_1", "x_2", "f_star", "y"]
        parsed = np.array([[float(v) for v in row] for row in rows[1:]])
        np.testing.assert_allclose(parsed[:, :3], ds.S)
        np.testing.assert_allclose(parsed[:, 3], ds.f_star_S)
        np.testing.assert_allclose(parsed[:, 4], ds.y)

    def test_metadata_sidecar(self, tmp_path):
        target = make_target(3, 1, [1.0, 2.0], 38)
        ds = gen_dataset(target, 5, 0.2, 39)
        save_dataset(ds, target, 39, tmp_path / "d.csv", tmp_path / "d.json")
        meta = json.loads((tmp_path / "d.json").read_text())
        assert meta["d"] == 3 and meta["ell0"] == 1
        assert meta["coeffs"] == [1.0, 2.0]
        assert meta["sigma0"] == 0.2 and meta["seed"] == 39
        np.testing.assert_allclose(np.array(meta["directions"]), target.directions)
        # a NumPy integer seed is recorded as the same JSON integer, not its repr
        save_dataset(ds, target, np.int64(39), tmp_path / "n.csv", tmp_path / "n.json")
        assert (tmp_path / "n.json").read_bytes() == (tmp_path / "d.json").read_bytes()
