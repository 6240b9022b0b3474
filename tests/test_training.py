"""Gradient-descent dynamics against the exact linear-recursion oracle."""

import csv

import numpy as np
import pytest

from sphattn import (
    DivergenceError,
    TrainerState,
    closed_form_residual,
    empirical_gram,
    feature_matrix,
    gd_step,
    gen_dataset,
    gram_spectrum,
    make_target,
    normalized_gram,
    oracle_weights,
    predict,
    sample_sphere,
    train,
)
from sphattn.training import trace_to_csv


def _setup(d=3, ell0=2, n=120, m=600, sigma0=0.3, seed=0):
    target = make_target(d, ell0, [1.0] * (ell0 + 1), seed)
    ds = gen_dataset(target, n, sigma0, seed + 1)
    Q = sample_sphere(m, d, seed + 2)
    tau = oracle_weights(d, ell0)
    return target, ds, Q, tau


class TestFeatureMatrix:
    def test_zero_weights(self):
        _, ds, Q, _ = _setup()
        Z = feature_matrix(ds.S, Q, np.zeros(3))
        assert np.array_equal(Z, np.zeros((600, 120)))

    def test_gram_factorization_identity(self):
        _, ds, Q, tau = _setup(n=40, m=80)
        Z = feature_matrix(ds.S, Q, tau)
        K_hat = empirical_gram(ds.S, None, Q, tau)
        np.testing.assert_allclose(Z.T @ Z, K_hat, atol=1e-12)

    def test_single_direction(self):
        _, ds, Q, tau = _setup(n=10, m=1)
        Z = feature_matrix(ds.S, Q[:1], tau)
        assert Z.shape == (1, 10)


class TestPredict:
    def test_zero_weights_predict_zero(self):
        _, ds, Q, tau = _setup(n=15, m=30)
        assert np.array_equal(predict(np.zeros(30), ds.S, Q, tau), np.zeros(15))

    def test_linear_in_weights(self):
        _, ds, Q, tau = _setup(n=12, m=25)
        rng = np.random.default_rng(3)
        a, b = rng.standard_normal(25), rng.standard_normal(25)
        np.testing.assert_allclose(
            predict(a + b, ds.S, Q, tau),
            predict(a, ds.S, Q, tau) + predict(b, ds.S, Q, tau),
            atol=1e-12,
        )

    def test_matches_feature_matrix_contraction(self):
        _, ds, Q, tau = _setup(n=20, m=35)
        rng = np.random.default_rng(4)
        a = rng.standard_normal(35)
        Z = feature_matrix(ds.S, Q, tau)
        np.testing.assert_allclose(predict(a, ds.S, Q, tau), Z.T @ a, atol=1e-12)

    def test_block_size_independent(self, monkeypatch):
        import sphattn.harmonics as harmonics_mod

        _, ds, Q, tau = _setup(n=50, m=70)
        a = np.random.default_rng(5).standard_normal(70)
        ref = predict(a, ds.S, Q, tau)
        for entries in (1, 3 * 70, 7 * 70):
            monkeypatch.setattr(harmonics_mod, "BLOCK_ENTRIES", entries)
            np.testing.assert_allclose(predict(a, ds.S, Q, tau), ref, rtol=1e-13, atol=1e-15)

    def test_training_set_predictions_match_gd_outputs(self):
        _, ds, Q, tau = _setup(n=30, m=60)
        state, trace = train(ds, Q, tau, eta=0.2, T=40, lowrank="never")
        yhat = predict(state.a, ds.S, Q, tau)
        resid = yhat - ds.y
        assert np.linalg.norm(resid) == pytest.approx(trace.residual_norm[-1], rel=1e-10)


class TestGdStep:
    def test_first_step_from_zero(self):
        _, ds, Q, tau = _setup(n=25, m=50)
        Z = feature_matrix(ds.S, Q, tau)
        state = TrainerState(a=np.zeros(50), t=0, eta=0.3, Z=Z)
        stepped = gd_step(state, ds.y)
        np.testing.assert_allclose(stepped.a, 0.3 / 25 * (Z @ ds.y), atol=1e-14)
        assert stepped.t == 1

    def test_zero_responses_stay_zero(self):
        _, ds, Q, tau = _setup(n=10, m=20)
        Z = feature_matrix(ds.S, Q, tau)
        state = TrainerState(a=np.zeros(20), t=0, eta=0.5, Z=Z)
        for _ in range(5):
            state = gd_step(state, np.zeros(10))
        assert np.array_equal(state.a, np.zeros(20))

    def test_plain_training_loop_repeats_gd_step_bit_for_bit(self):
        _, ds, Q, tau = _setup(n=40, m=90)
        state, trace = train(ds, Q, tau, eta=0.3, T=25, record_weights=True, lowrank="never")
        ref = TrainerState(a=np.zeros(90), t=0, eta=0.3, Z=feature_matrix(ds.S, Q, tau))
        for t in range(1, 26):
            ref = gd_step(ref, ds.y)
            resid = ref.Z.T @ ref.a - ds.y
            assert trace.loss[t] == float(resid @ resid) / 40
            assert np.array_equal(trace.weights[t], ref.a)
        assert np.array_equal(state.a, ref.a)

    def test_rejects_non_positive_eta(self):
        _, ds, Q, tau = _setup(n=10, m=20)
        state = TrainerState(a=np.zeros(20), t=0, eta=0.0, Z=feature_matrix(ds.S, Q, tau))
        with pytest.raises(ValueError):
            gd_step(state, ds.y)
        with pytest.raises(ValueError, match="learning rate"):
            train(ds, Q, tau, eta=0.0, T=3, lowrank="always")


class TestClosedFormResidual:
    def test_zero_steps(self):
        y = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(closed_form_residual(np.eye(3) / 3, y, 0.4, 0), -y)

    def test_zero_learning_rate(self):
        y = np.array([1.0, 2.0])
        np.testing.assert_allclose(closed_form_residual(np.eye(2) / 2, y, 0.0, 57), -y)

    def test_power_and_spectral_agree(self):
        _, ds, Q, tau = _setup(n=80, m=160)
        K_n = normalized_gram(empirical_gram(ds.S, None, Q, tau), 80)
        u_pow = closed_form_residual(K_n, ds.y, 0.3, 500, method="power")
        u_spec = closed_form_residual(K_n, ds.y, 0.3, 500, method="spectral")
        assert np.linalg.norm(u_pow - u_spec) <= 1e-10 * np.linalg.norm(ds.y)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            closed_form_residual(np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2), 0.1, 3)


class TestExactDynamics:
    def test_residual_matches_recursion_at_every_step(self):
        """The trained residual equals (I - eta*K_n)^t (-y) at every step."""
        _, ds, Q, tau = _setup(n=120, m=600, seed=10)
        eta, T = 0.15, 120
        state, trace = train(ds, Q, tau, eta, T, lowrank="never")
        K_n = normalized_gram(empirical_gram(ds.S, None, Q, tau), 120)
        u = -ds.y.copy()
        norm_y = np.linalg.norm(ds.y)
        for t in range(T + 1):
            assert abs(np.linalg.norm(u) - trace.residual_norm[t]) <= 1e-8 * norm_y
            u = u - eta * (K_n @ u)

    def test_monotone_loss_for_stable_step(self):
        _, ds, Q, tau = _setup(n=100, m=300, seed=11)
        K_n = normalized_gram(empirical_gram(ds.S, None, Q, tau), 100)
        lam_max = gram_spectrum(K_n)[0]
        _, trace = train(ds, Q, tau, eta=0.9 / lam_max, T=80, lowrank="never")
        losses = np.array(trace.loss)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_spectral_loss_formula(self):
        _, ds, Q, tau = _setup(n=90, m=250, seed=12)
        eta = 0.2
        _, trace = train(ds, Q, tau, eta, T=60, lowrank="never")
        K_n = normalized_gram(empirical_gram(ds.S, None, Q, tau), 90)
        vals, vecs = gram_spectrum(K_n, return_vectors=True)
        c2 = (vecs.T @ ds.y) ** 2
        for t in (3, 17, 60):
            expected = np.sum((1 - eta * vals) ** (2 * t) * c2) / 90
            assert trace.loss[t] == pytest.approx(expected, rel=1e-8)

    def test_population_kernel_perturbation_bound(self):
        """Swapping the empirical kernel for the population one moves the
        closed-form residual by at most t * eta * ||K_hat - K|| * ||y||."""
        _, ds, Q, tau = _setup(n=70, m=400, seed=13)
        from sphattn import population_gram

        K_hat_n = normalized_gram(empirical_gram(ds.S, None, Q, tau), 70)
        K_pop_n = normalized_gram(population_gram(ds.S, None, 2), 70)
        eta, t = 0.2, 50
        u_hat = closed_form_residual(K_hat_n, ds.y, eta, t)
        u_pop = closed_form_residual(K_pop_n, ds.y, eta, t)
        gap = np.linalg.norm(K_hat_n - K_pop_n, 2)
        bound = t * eta * gap * np.linalg.norm(ds.y)
        assert np.linalg.norm(u_hat - u_pop) <= bound

    def test_noiseless_loss_vanishes(self):
        _, ds, Q, tau = _setup(n=80, m=400, sigma0=0.0, seed=14)
        _, trace = train(ds, Q, tau, eta=0.5, T=600, lowrank="never")
        assert trace.loss[-1] <= 1e-6


class TestTrain:
    def test_single_step_matches_formula(self):
        _, ds, Q, tau = _setup(n=30, m=40)
        state, _ = train(ds, Q, tau, eta=0.4, T=1, lowrank="never")
        Z = feature_matrix(ds.S, Q, tau)
        np.testing.assert_allclose(state.a, 0.4 / 30 * (Z @ ds.y), atol=1e-14)

    def test_rejects_zero_steps(self):
        _, ds, Q, tau = _setup(n=10, m=10)
        with pytest.raises(ValueError):
            train(ds, Q, tau, eta=0.1, T=0)

    def test_lowrank_path_matches_plain(self):
        _, ds, Q, tau = _setup(n=60, m=200, seed=15)
        s1, t1 = train(ds, Q, tau, eta=0.3, T=80, lowrank="never")
        s2, t2 = train(ds, Q, tau, eta=0.3, T=80, lowrank="always")
        np.testing.assert_allclose(s2.a, s1.a, atol=1e-10)
        np.testing.assert_allclose(t2.loss, t1.loss, rtol=1e-9, atol=1e-14)
        np.testing.assert_allclose(t2.clean_loss, t1.clean_loss, rtol=1e-9, atol=1e-14)

    def test_divergence_detected(self):
        _, ds, Q, tau = _setup(n=40, m=60, seed=16)
        with pytest.raises(DivergenceError):
            train(ds, Q, tau, eta=50.0, T=200, lowrank="never")

    def test_envelope_in_noiseless_run(self):
        """Clean loss decays at least as fast as C/(eta*t) once past the knee."""
        _, ds, Q, tau = _setup(d=4, ell0=2, n=300, m=1500, sigma0=0.0, seed=17)
        eta, T = 0.5, 400
        _, trace = train(ds, Q, tau, eta, T)
        clean = np.array(trace.clean_loss)
        C = eta * 10 * clean[10]
        ts = np.arange(10, T + 1)
        assert np.all(clean[ts] <= C / (eta * ts) * (1 + 1e-9))

    def test_weight_snapshots(self):
        _, ds, Q, tau = _setup(n=12, m=18)
        _, trace = train(ds, Q, tau, eta=0.2, T=7, record_weights=True, lowrank="never")
        assert len(trace.weights) == 8
        assert np.array_equal(trace.weights[0], np.zeros(18))

    def test_trace_csv(self, tmp_path):
        _, ds, Q, tau = _setup(n=10, m=15)
        _, trace = train(ds, Q, tau, eta=0.2, T=5, lowrank="never")
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "loss", "residual_norm"]
        assert len(rows) == 7
        assert float(rows[1][1]) == pytest.approx(trace.loss[0])
