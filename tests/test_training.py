"""Gradient-descent dynamics against the exact linear-recursion oracle."""

import csv
import dataclasses
import warnings

import numpy as np
import pytest

from sphattn import (
    DivergenceError,
    TrainerState,
    activation_matrix,
    closed_form_residual,
    empirical_gram,
    feature_matrix,
    finalized_weights,
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
from sphattn import harmonics, training
from sphattn.config import auto_steps
from sphattn.targets import LabeledDataset
from sphattn.training import trace_to_csv
from test_harmonics import unit_rows


def _setup(d=3, ell0=2, n=120, m=600, sigma0=0.3, seed=0):
    target = make_target(d, ell0, [1.0] * (ell0 + 1), seed)
    ds = gen_dataset(target, n, sigma0, seed + 1)
    Q = sample_sphere(m, d, seed + 2)
    tau = oracle_weights(d, ell0)
    return target, ds, Q, tau


def force_path(monkeypatch, factored: bool) -> None:
    """Make train take the factored path (True) or the plain m x n one (False)."""
    monkeypatch.setattr(training, "_factored_is_cheaper", lambda *shape: factored)


def plain_builds(monkeypatch) -> list:
    """Spy on training.feature_matrix, which only train's plain path calls; returns its calls."""
    calls = []
    build = training.feature_matrix
    monkeypatch.setattr(training, "feature_matrix",
                        lambda *args: calls.append(args) or build(*args))
    return calls


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

    def test_errors_name_points_and_directions(self):
        # checked points first, as train and activation_matrix check them
        _, ds, Q, tau = _setup(d=4, ell0=1, n=20, m=30)
        Qb = Q.copy()
        Qb[3] *= 2
        with pytest.raises(ValueError, match="Q row 3 is not unit-norm"):
            feature_matrix(ds.S, Qb, tau)
        X = ds.S.copy()
        X[5] *= 1.5
        with pytest.raises(ValueError, match="X row 5 is not unit-norm"):
            feature_matrix(X, Q, tau)
        # inside the unit tolerance, a point collinear with a direction is
        # divided by its norm: the walk's values on the unit rows
        X[5] = Q[7] * (1 + 5e-9)
        A = activation_matrix(X, Q, tau)
        np.testing.assert_allclose(A, activation_matrix(unit_rows(X), Q, tau), rtol=1e-13)
        np.testing.assert_allclose(A[5, 7], np.sum(tau), rtol=1e-15)  # P_k(1) = 1
        assert np.array_equal(feature_matrix(X, Q, tau), A.T / np.sqrt(30))


class TestPredict:
    def test_zero_weights_predict_zero(self):
        _, ds, Q, tau = _setup(n=15, m=30)
        assert np.array_equal(predict(np.zeros(30), ds.S, Q, tau), np.zeros(15))

    @pytest.mark.parametrize("tau", [[], np.ones((2, 2))])
    def test_rejects_channel_weights_that_are_not_a_vector(self, tau):
        # an empty tau once predicted zeros
        _, ds, Q, _ = _setup(n=5, m=10)
        with pytest.raises(ValueError, match="weights must be a non-empty 1-d sequence"):
            predict(np.ones(10), ds.S, Q, tau)

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

    def test_degree_one_matches_feature_matrix(self):
        _, ds, Q, tau = _setup(d=5, ell0=1, n=40, m=70)
        a = np.random.default_rng(6).standard_normal(70)
        Z = feature_matrix(ds.S, Q, tau)
        np.testing.assert_allclose(predict(a, ds.S, Q, tau), Z.T @ a, rtol=0, atol=1e-12)
        # zero-padded higher channels are trimmed away
        padded = np.concatenate([tau, [0.0, 0.0]])
        np.testing.assert_allclose(predict(a, ds.S, Q, padded), Z.T @ a, rtol=0, atol=1e-12)

    def test_degree_one_rejects_non_unit_rows(self):
        _, ds, Q, tau = _setup(d=4, ell0=1, n=10, m=20)
        a = np.ones(20)
        X = ds.S.copy()
        X[3] *= 1.01
        with pytest.raises(ValueError, match="X row 3 is not unit-norm"):
            predict(a, X, Q, tau)
        Qb = Q.copy()
        Qb[5] *= 0.99
        with pytest.raises(ValueError, match="Q row 5 is not unit-norm"):
            predict(a, ds.S, Qb, tau)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rows(self, bad, monkeypatch):
        # the expansion forms no dot product, so only the norm check can catch these
        _, ds, Q, tau = _setup(d=4, ell0=1, n=10, m=20)
        X = ds.S.copy()
        X[3, 1] = bad
        with pytest.raises(ValueError, match="X row 3 is not unit-norm"):
            predict(np.ones(20), X, Q, tau)
        with pytest.raises(ValueError, match="X row 3 is not unit-norm"):
            activation_matrix(X, Q, tau)
        bad_ds = LabeledDataset(S=X, f_star_S=ds.f_star_S, y=ds.y, sigma0=ds.sigma0)
        for factored in (False, True):
            force_path(monkeypatch, factored)
            with pytest.raises(ValueError, match="X row 3 is not unit-norm"):
                train(bad_ds, Q, tau, eta=0.2, T=3)
        Qb = Q.copy()
        Qb[5, 0] = bad
        with pytest.raises(ValueError, match="Q row 5 is not unit-norm"):
            predict(np.ones(20), ds.S, Qb, tau)

    @pytest.mark.parametrize("expansion", [False, True])
    @pytest.mark.parametrize("case", ["padded 1", "padded 2", "zero tau", "no rows"])
    def test_trims_tau_to_its_last_channel(self, case, expansion, monkeypatch):
        d, m = 5, 70
        _, ds, Q, _ = _setup(d=d, ell0=2, n=40, m=m)
        X = ds.S[:0] if case == "no rows" else ds.S
        tau, ell_hat = {"padded 1": (np.pad(oracle_weights(d, 1), (0, 3)), 1),
                        "padded 2": (np.pad(oracle_weights(d, 2), (0, 2)), 2),
                        "zero tau": (np.zeros(5), 0),
                        "no rows": (np.pad(oracle_weights(d, 2), (0, 2)), 2)}[case]
        a = np.random.default_rng(7).standard_normal(m)
        ref = feature_matrix(X, Q, tau).T @ a
        with monkeypatch.context() as mp:
            mp.setattr(harmonics, "_expansion_is_cheaper", lambda *shape: False)
            walk = predict(a, X, Q, tau)
        degrees, projections = [], harmonics._degree_projections
        monkeypatch.setattr(harmonics, "_degree_projections",
                            lambda A, B, w, L: degrees.append(L) or projections(A, B, w, L))
        monkeypatch.setattr(harmonics, "_expansion_is_cheaper", lambda *shape: expansion)
        got = predict(a, X, Q, tau)
        assert degrees == [ell_hat] and got.shape == (X.shape[0],)
        atol = 1e-11 * np.max(np.abs(ref), initial=0.0)
        np.testing.assert_allclose(got, walk, rtol=1e-11, atol=atol)
        np.testing.assert_allclose(got, ref, rtol=1e-11, atol=atol)

    def test_benchmark_shapes_take_the_expansion(self, monkeypatch):
        # mc_risk's batches in sweep-d6 (20000 points, m = 8000, d = 6) and
        # cli-small (1000 points at most, m = 240, d = 3), oracle channels 0..1
        def walk(*args):
            raise AssertionError("predict walked")

        monkeypatch.setattr(harmonics, "gegenbauer_blocks", walk)
        for N, m, d, ell_hat in [(20000, 8000, 6, 1), (1000, 240, 3, 1)]:
            assert harmonics._expansion_is_cheaper(N, m, d, ell_hat)
            assert harmonics._expansion_error(d, ell_hat, harmonics._RHO) <= harmonics._FACTOR_RTOL
            predict(np.ones(m), sample_sphere(N, d, 8), sample_sphere(m, d, 9),
                    oracle_weights(d, ell_hat))

    def test_block_size_independent(self, monkeypatch):
        import sphattn.harmonics as harmonics_mod

        _, ds, Q, tau = _setup(n=50, m=70)
        a = np.random.default_rng(5).standard_normal(70)
        ref = predict(a, ds.S, Q, tau)
        for entries in (1, 3 * 70, 7 * 70):
            monkeypatch.setattr(harmonics_mod, "BLOCK_ENTRIES", entries)
            np.testing.assert_allclose(predict(a, ds.S, Q, tau), ref, rtol=1e-13, atol=1e-15)

    @pytest.mark.parametrize("ell_hat", [0, 1])
    @pytest.mark.parametrize("d, m, N", [(6, 8000, 2001), (3, 240, 1000), (6, 200, 33)])
    def test_rows_are_predicted_alone_up_to_degree_one(self, d, m, N, ell_hat):
        # the sweep's and cli-small's shapes and a small one: every row as in
        # a call of its own, bit for bit
        X, Q = sample_sphere(N, d, 10), sample_sphere(m, d, 11)
        a, tau = np.random.default_rng(12).standard_normal(m), oracle_weights(d, ell_hat)
        batch = predict(a, X, Q, tau)
        alone = [predict(a, X[i : i + 1], Q, tau)[0] for i in range(0, N, max(1, N // 200))]
        assert np.array_equal(batch[:: max(1, N // 200)], alone)

    def test_training_set_predictions_match_gd_outputs(self, monkeypatch):
        _, ds, Q, tau = _setup(n=30, m=60)
        force_path(monkeypatch, False)
        state, trace = train(ds, Q, tau, eta=0.2, T=40)
        yhat = predict(state.a, ds.S, Q, tau)
        resid = yhat - ds.y
        assert np.linalg.norm(resid) == pytest.approx(trace.residual_norm[-1], rel=1e-10)


class TestGdStep:
    def test_first_step_from_zero(self):
        _, ds, Q, tau = _setup(n=25, m=50)
        Z = feature_matrix(ds.S, Q, tau)
        state = TrainerState(a=np.zeros(50), t=0, eta=0.3)
        stepped = gd_step(state, Z, ds.y)
        np.testing.assert_allclose(stepped.a, 0.3 / 25 * (Z @ ds.y), atol=1e-14)
        assert stepped.t == 1

    def test_zero_responses_stay_zero(self):
        _, ds, Q, tau = _setup(n=10, m=20)
        Z = feature_matrix(ds.S, Q, tau)
        state = TrainerState(a=np.zeros(20), t=0, eta=0.5)
        for _ in range(5):
            state = gd_step(state, Z, np.zeros(10))
        assert np.array_equal(state.a, np.zeros(20))

    def test_plain_training_loop_repeats_gd_step_bit_for_bit(self, monkeypatch):
        _, ds, Q, tau = _setup(n=40, m=90)
        force_path(monkeypatch, False)
        state, trace = train(ds, Q, tau, eta=0.3, T=25)
        Z = feature_matrix(ds.S, Q, tau)
        ref = TrainerState(a=np.zeros(90), t=0, eta=0.3)
        for t in range(1, 26):
            ref = gd_step(ref, Z, ds.y)
            resid = Z.T @ ref.a - ds.y
            assert trace.loss[t] == float(resid @ resid) / 40
            assert np.array_equal(train(ds, Q, tau, eta=0.3, T=t)[0].a, ref.a)
        assert np.array_equal(state.a, ref.a)

    def test_rejects_non_positive_eta(self, monkeypatch):
        _, ds, Q, tau = _setup(n=10, m=20)
        state = TrainerState(a=np.zeros(20), t=0, eta=0.0)
        with pytest.raises(ValueError):
            gd_step(state, feature_matrix(ds.S, Q, tau), ds.y)
        force_path(monkeypatch, True)
        with pytest.raises(ValueError, match="learning rate"):
            train(ds, Q, tau, eta=0.0, T=3)

    @pytest.mark.parametrize("eta", [np.nan, np.inf])
    def test_rejects_non_finite_eta(self, eta, monkeypatch):
        # a bad input, not a DivergenceError at step 1, on either path
        _, ds, Q, tau = _setup(n=10, m=20)
        state = TrainerState(a=np.zeros(20), t=0, eta=eta)
        with pytest.raises(ValueError, match="learning rate must be positive and finite"):
            gd_step(state, feature_matrix(ds.S, Q, tau), ds.y)
        for factored in (False, True):
            force_path(monkeypatch, factored)
            with pytest.raises(ValueError, match="learning rate must be positive and finite"):
                train(ds, Q, tau, eta=eta, T=3)

    def test_steps_after_train_on_either_path(self, monkeypatch):
        # on these shapes T = 1 takes the plain path and T = 80 the factors
        # (test_auto_takes_the_cheaper_path); gd_step continues either state
        _, ds, Q, tau = _setup(n=60, m=200, seed=15)
        Z = feature_matrix(ds.S, Q, tau)
        for T, plain in ((1, True), (80, False)):
            built = plain_builds(monkeypatch)
            state, _ = train(ds, Q, tau, eta=0.3, T=T)
            assert bool(built) == plain
            stepped = gd_step(state, Z, ds.y)
            assert stepped.t == T + 1 and stepped.eta == 0.3
            assert np.array_equal(stepped.a, state.a - 0.3 / 60 * (Z @ (Z.T @ state.a - ds.y)))


class TestClosedFormResidual:
    def test_zero_steps(self):
        y = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(closed_form_residual(np.eye(3) / 3, y, 0.4, 0), -y)

    def test_zero_learning_rate(self):
        y = np.array([1.0, 2.0])
        np.testing.assert_allclose(closed_form_residual(np.eye(2) / 2, y, 0.0, 57), -y)

    def test_matches_the_eigendecomposition(self):
        # the recursion against -V diag((1 - eta lam)^t) V.T y, formed here
        _, ds, Q, tau = _setup(n=80, m=160)
        K_n = normalized_gram(empirical_gram(ds.S, None, Q, tau), 80)
        lam, V = np.linalg.eigh(K_n)
        u_spec = -(V @ ((1.0 - 0.3 * lam) ** 500 * (V.T @ ds.y)))
        u_pow = closed_form_residual(K_n, ds.y, 0.3, 500)
        assert np.linalg.norm(u_pow - u_spec) <= 1e-10 * np.linalg.norm(ds.y)

    def test_rejects_non_symmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            closed_form_residual(np.array([[1.0, 1.0], [0.0, 1.0]]), np.ones(2), 0.1, 3)

    @pytest.mark.parametrize("t, ok", [(2.5, False), (True, False), (2.0, True)])
    def test_step_count_is_an_integer(self, t, ok):
        K, y = np.array([[0.5, 0.1], [0.1, 0.3]]), np.array([1.0, -2.0])
        if ok:
            want = closed_form_residual(K, y, 0.1, 2)
            assert np.array_equal(closed_form_residual(K, y, 0.1, t), want)
        else:
            with pytest.raises(ValueError, match=f"step count must be an integer >= 0, got {t}"):
                closed_form_residual(K, y, 0.1, t)


class TestExactDynamics:
    def test_residual_matches_recursion_at_every_step(self, monkeypatch):
        """The trained residual equals (I - eta*K_n)^t (-y) at every step."""
        _, ds, Q, tau = _setup(n=120, m=600, seed=10)
        eta, T = 0.15, 120
        force_path(monkeypatch, False)
        state, trace = train(ds, Q, tau, eta, T)
        K_n = normalized_gram(empirical_gram(ds.S, None, Q, tau), 120)
        u = -ds.y.copy()
        norm_y = np.linalg.norm(ds.y)
        for t in range(T + 1):
            assert abs(np.linalg.norm(u) - trace.residual_norm[t]) <= 1e-8 * norm_y
            u = u - eta * (K_n @ u)

    def test_monotone_loss_for_stable_step(self, monkeypatch):
        _, ds, Q, tau = _setup(n=100, m=300, seed=11)
        K_n = normalized_gram(empirical_gram(ds.S, None, Q, tau), 100)
        lam_max = gram_spectrum(K_n)[0]
        force_path(monkeypatch, False)
        _, trace = train(ds, Q, tau, eta=0.9 / lam_max, T=80)
        losses = np.array(trace.loss)
        assert np.all(np.diff(losses) <= 1e-12)

    def test_spectral_loss_formula(self, monkeypatch):
        _, ds, Q, tau = _setup(n=90, m=250, seed=12)
        eta = 0.2
        force_path(monkeypatch, False)
        _, trace = train(ds, Q, tau, eta, T=60)
        K_n = normalized_gram(empirical_gram(ds.S, None, Q, tau), 90)
        vals, vecs = np.linalg.eigh(K_n)
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

    def test_noiseless_loss_vanishes(self, monkeypatch):
        _, ds, Q, tau = _setup(n=80, m=400, sigma0=0.0, seed=14)
        force_path(monkeypatch, False)
        _, trace = train(ds, Q, tau, eta=0.5, T=600)
        assert trace.loss[-1] <= 1e-6


class TestTrain:
    def test_single_step_matches_formula(self, monkeypatch):
        _, ds, Q, tau = _setup(n=30, m=40)
        force_path(monkeypatch, False)
        state, _ = train(ds, Q, tau, eta=0.4, T=1)
        Z = feature_matrix(ds.S, Q, tau)
        np.testing.assert_allclose(state.a, 0.4 / 30 * (Z @ ds.y), atol=1e-14)

    def test_rejects_zero_steps(self):
        _, ds, Q, tau = _setup(n=10, m=10)
        with pytest.raises(ValueError):
            train(ds, Q, tau, eta=0.1, T=0)

    @pytest.mark.parametrize("T", [2.5, True])
    def test_rejects_non_integer_step_count(self, T):
        _, ds, Q, tau = _setup(n=10, m=10)
        with pytest.raises(ValueError, match=f"step count must be an integer >= 1, got {T}"):
            train(ds, Q, tau, eta=0.1, T=T)

    @pytest.mark.parametrize("tau", [[], np.ones((2, 2))])
    def test_rejects_channel_weights_that_are_not_a_vector(self, tau):
        _, ds, Q, _ = _setup(n=10, m=10)
        with pytest.raises(ValueError, match="weights must be a non-empty 1-d sequence"):
            train(ds, Q, tau, eta=0.1, T=2)

    def test_trace_keeps_the_factors_out_of_repr_and_eq(self, monkeypatch):
        _, ds, Q, tau = _setup(n=60, m=200, seed=15)
        force_path(monkeypatch, False)
        assert train(ds, Q, tau, eta=0.3, T=5)[1].factors is None
        force_path(monkeypatch, True)
        _, trace = train(ds, Q, tau, eta=0.3, T=5)
        g = harmonics._power_coefficients(3, tau)
        assert np.array_equal(trace.factors.M, harmonics._middle_matrix(Q, g)[2])
        assert "factors" not in repr(trace)
        assert dataclasses.replace(trace, factors=None) == trace

    def test_integral_float_step_count(self):
        # the state and the loop hold it as an int
        _, ds, Q, tau = _setup(n=10, m=10)
        state, trace = train(ds, Q, tau, eta=0.1, T=2.0)
        assert type(state.t) is int and state.t == 2 and len(trace.loss) == 3

    def test_lowrank_path_matches_plain(self, monkeypatch):
        # oracle channels at ell0 = 2 and 1, and the gapped mask [1, 0, 1]
        for ell0, mask in ((2, None), (1, None), (2, [1, 0, 1])):
            _, ds, Q, tau = _setup(ell0=ell0, n=60, m=200, seed=15)
            if mask is not None:
                tau = finalized_weights(3, mask)
            built = plain_builds(monkeypatch)
            force_path(monkeypatch, False)
            s1, t1 = train(ds, Q, tau, eta=0.3, T=80)
            force_path(monkeypatch, True)
            s2, t2 = train(ds, Q, tau, eta=0.3, T=80)
            assert len(built) == 1
            np.testing.assert_allclose(s2.a, s1.a, atol=1e-10)
            np.testing.assert_allclose(t2.loss, t1.loss, rtol=1e-9, atol=1e-14)
            np.testing.assert_allclose(t2.clean_loss, t1.clean_loss, rtol=1e-9, atol=1e-14)

    def test_auto_takes_the_cheaper_path(self, monkeypatch):
        # d = 3, ell0 = 2: factor width p = 1 + 3 + 6 = 10.  Over 80 steps the
        # factors take less time than the 200 x 60 matrix (measured train,
        # best of 5 or more, interleaved, one BLAS thread: 0.31 against 1.52 ms)
        _, ds, Q, tau = _setup(n=60, m=200, seed=15)
        built = plain_builds(monkeypatch)
        assert training._factored_is_cheaper(200, 60, 10, 80, 2)
        train(ds, Q, tau, eta=0.3, T=80)
        assert not built
        # for one step the expansion's calls, the QR and the eigh outweigh
        # the saving (0.21 ms plain against 0.28 ms factored)
        assert not training._factored_is_cheaper(200, 60, 10, 1, 2)
        train(ds, Q, tau, eta=0.3, T=1)
        assert len(built) == 1

    def test_cost_rule_weighs_width_and_steps(self):
        # outcomes from measured train times (best of 5 or more, interleaved,
        # one BLAS thread), plain against factored
        m = n = 2000
        assert training._factored_is_cheaper(m, n, 7, 62, 1)  # 273 vs 0.56 ms
        # d = 8, channels 0..4: p = 495 pays for its Gram, QR and eigh after
        # a few steps
        assert training._factored_is_cheaper(m, n, 495, 62, 4)  # 339 vs 108 ms
        assert not training._factored_is_cheaper(m, n, 495, 5, 4)  # 98 vs 109 ms
        # d = 8, channels 0..5: p = 1287 costs more than 62 plain steps
        assert not training._factored_is_cheaper(m, n, 1287, 62, 5)  # 416 vs 1170 ms
        # a width above m and n: the factors do not pay for 3 steps, but
        # the closed form adds only O(T min(p, n)) per step count
        assert not training._factored_is_cheaper(200, 60, 495, 3, 4)  # 0.36 vs 5.4 ms
        assert training._factored_is_cheaper(200, 60, 495, 3000, 4)  # 54 vs 8.0 ms
        # m << n at few steps: the points' QR costs more than the walk
        assert not training._factored_is_cheaper(200, 4000, 165, 10, 3)  # 20 vs 43 ms
        assert training._factored_is_cheaper(m, n, 0, 1, 0)

    @pytest.mark.parametrize("m, n, p, eta, d", [
        *((8000, n, 7, 0.8, 6) for n in (500, 1000, 2000, 4000, 8000)),  # sweep-d6
        *((240, n, 4, 0.5, 3) for n in (30, 60, 120, 300)),  # cli-small
    ])
    def test_benchmark_training_shapes_take_the_factors(self, m, n, p, eta, d):
        # oracle channels at ell0 = 1, T = auto; at m = 240, n = 30, T = 20 the
        # factors measured 0.27 ms against 0.50 ms for the plain path
        assert training._factored_is_cheaper(m, n, p, auto_steps(n, eta, d, 1), 1)

    def test_failed_verification_warns_and_falls_back(self, monkeypatch):
        _, ds, Q, tau = _setup(n=60, m=200, seed=15)
        force_path(monkeypatch, False)
        ref_state, ref_trace = train(ds, Q, tau, eta=0.3, T=30)
        monkeypatch.setattr(harmonics, "_FACTOR_RTOL", 0.0)
        force_path(monkeypatch, True)
        built = plain_builds(monkeypatch)
        with pytest.warns(RuntimeWarning, match=r"a-priori bound .* factor width p = 10"):
            state, trace = train(ds, Q, tau, eta=0.3, T=30)
        assert len(built) == 1
        assert np.array_equal(state.a, ref_state.a)
        assert trace.loss == ref_trace.loss
        assert trace.clean_loss == ref_trace.clean_loss

    def test_sweep_shape_is_certified_without_the_walk(self, monkeypatch):
        # d = 6, ell0 = 1 is the sweep-d6 benchmark's degree pair: a change
        # that sends its factors back to the m x n matrix fails here
        target = make_target(6, 1, [1.0, 4.0], 69)
        ds = gen_dataset(target, 500, 0.5, 70)
        Q = sample_sphere(2000, 6, 71)
        tau = oracle_weights(6, 1)
        g = harmonics._power_coefficients(6, tau)
        assert harmonics._spectrum_error(6, tau, g, 8000, 2) <= harmonics._FACTOR_RTOL
        built = plain_builds(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            train(ds, Q, tau, eta=0.8, T=100)
        assert not built

    def test_factored_train_allocates_no_feature_matrix(self, monkeypatch):
        import tracemalloc

        # the sweep-d6 shape at n = 4000: O((m + n) p) memory, p = 7, far
        # below the m x n matrix
        target = make_target(6, 1, [1.0, 4.0], 27)
        ds = gen_dataset(target, 4000, 0.5, 28)
        Q = sample_sphere(8000, 6, 29)
        tau = oracle_weights(6, 1)
        force_path(monkeypatch, True)
        train(ds, Q, tau, eta=0.8, T=20)  # warm up lazy allocations
        built = plain_builds(monkeypatch)
        tracemalloc.start()
        try:
            train(ds, Q, tau, eta=0.8, T=20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not built
        assert peak < 8 * ds.n * Q.shape[0] / 16

    def test_unstable_step_raises_without_the_feature_matrix(self, monkeypatch):
        # eta * lambda_max far above 2: the factored path raises the plain
        # loop's DivergenceError, at its step, and never builds Z
        _, ds, Q, tau = _setup(n=40, m=60, seed=16)
        force_path(monkeypatch, False)
        with pytest.raises(DivergenceError) as plain:
            train(ds, Q, tau, eta=50.0, T=200)
        force_path(monkeypatch, True)
        built = plain_builds(monkeypatch)
        with pytest.raises(DivergenceError) as factored:
            train(ds, Q, tau, eta=50.0, T=200)
        assert not built
        assert str(factored.value) == str(plain.value)

    def test_divergence_detected(self, monkeypatch):
        _, ds, Q, tau = _setup(n=40, m=60, seed=16)
        force_path(monkeypatch, False)
        with pytest.raises(DivergenceError):
            train(ds, Q, tau, eta=50.0, T=200)

    def test_envelope_in_noiseless_run(self):
        """Clean loss decays at least as fast as C/(eta*t) once past the knee."""
        _, ds, Q, tau = _setup(d=4, ell0=2, n=300, m=1500, sigma0=0.0, seed=17)
        eta, T = 0.5, 400
        _, trace = train(ds, Q, tau, eta, T)
        clean = np.array(trace.clean_loss)
        C = eta * 10 * clean[10]
        ts = np.arange(10, T + 1)
        assert np.all(clean[ts] <= C / (eta * ts) * (1 + 1e-9))

    def test_trace_csv(self, monkeypatch, tmp_path):
        _, ds, Q, tau = _setup(n=10, m=15)
        force_path(monkeypatch, False)
        _, trace = train(ds, Q, tau, eta=0.2, T=5)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "loss", "residual_norm"]
        assert len(rows) == 7
        assert float(rows[1][1]) == pytest.approx(trace.loss[0])


class TestExactFactors:
    """The factored spectrum and maps against the recurrence-built Z."""

    @pytest.mark.parametrize("d, L", [(2, 3), (3, 2), (6, 1), (8, 4)])
    def test_factors_reproduce_feature_matrix(self, d, L):
        X = sample_sphere(70, d, 31)
        Q = sample_sphere(90, d, 32)
        Y = np.random.default_rng(30).standard_normal((2, 70))
        for tau in (oracle_weights(d, L), finalized_weights(d, [1, 0, 1]), np.array([0.7, 0, 0])):
            factors = training._try_factor(X, Q, tau, harmonics._power_coefficients(d, tau), Y)
            assert factors is not None
            lam, coef, Phi, proj, perp2 = (factors.lam, factors.coef, factors.Phi,
                                           factors.proj, factors.perp2)
            Z = feature_matrix(X, Q, tau)
            K = Z.T @ Z
            scale = np.linalg.norm(K)
            # W = Z H with H = QF Us, the kernel's eigenvectors: W.T W = diag(lam),
            # Z.T W = H diag(lam), so W.T Z Y.T = lam * proj.T
            W = Phi.T @ coef
            np.testing.assert_allclose(W.T @ W, np.diag(lam), rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(W.T @ (Z @ Y.T), lam[:, None] * proj.T, rtol=0,
                                       atol=1e-12 * scale * np.max(np.abs(Y)) * 70)
            # the nonzero eigenvalues, and the parts of y and f* off H
            ref = np.linalg.eigvalsh(K)[::-1]
            np.testing.assert_allclose(lam[::-1], ref[: lam.size], rtol=0, atol=1e-12 * scale)
            assert np.all(np.abs(ref[lam.size :]) <= 1e-12 * scale)
            np.testing.assert_allclose(np.sum(proj**2, axis=1) + perp2, np.sum(Y**2, axis=1),
                                       rtol=1e-12)

    def test_factor_width_counts_monomials(self):
        # oracle channels 0..2 in d = 4: 1 + 4 + 10 monomials
        X, Q = sample_sphere(5, 4, 33), sample_sphere(6, 4, 34)
        g = harmonics._power_coefficients(4, oracle_weights(4, 2))
        assert harmonics._factor_width(4, g) == 15
        assert harmonics._middle_matrix(Q, g)[2].shape == (15, 15)
        assert harmonics._points_qr(X, [0, 1, 2]).shape == (5, 15)
        # the gapped mask [1, 0, 1] has no degree-1 term: 1 + 10
        g = harmonics._power_coefficients(4, finalized_weights(4, [1, 0, 1]))
        assert g[1] == 0.0
        assert harmonics._factor_width(4, g) == 11
        assert harmonics._middle_matrix(Q, g)[2].shape == (11, 11)
        assert harmonics._points_qr(X, [0, 2]).shape == (5, 11)


def _qr_cases():
    rng = np.random.default_rng(35)
    zero_cols = rng.standard_normal((200, 6))
    zero_cols[:, [1, 4]] = 0.0
    return {
        "8000x7": rng.standard_normal((8000, 7)),
        "300x45": rng.standard_normal((300, 45)),
        "p>m": rng.standard_normal((5, 9)),
        "zero-columns": zero_cols,
        "scales=0": np.zeros((40, 3)),
    }


class TestReflectors:
    """Columns appended to the points' QR against the QF that numpy forms."""

    @staticmethod
    def _close(got, ref):
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-13 * max(np.max(np.abs(ref)), 1.0))

    @pytest.mark.parametrize("case", _qr_cases().keys())
    def test_match_the_reduced_qr(self, case, monkeypatch):
        U = _qr_cases()[case]
        QF, R_ref = np.linalg.qr(U, mode="reduced")
        (n, k), p = QF.shape, U.shape[1]
        Y = np.random.default_rng(36).standard_normal((3, n))
        # the case's matrix in place of the points' monomials
        monkeypatch.setattr(harmonics, "_kept_monomials", lambda P, J: U.T)
        assert np.array_equal(harmonics._points_qr(None, None), R_ref)
        R = harmonics._points_qr(None, None, *Y)
        self._close(R[:k, :p], R_ref)
        # the first k rows of an appended column are QF.T @ y, and the rows
        # below hold the part of y off QF's columns, with its norm
        self._close(R[:k, p:], QF.T @ Y.T)
        perp = Y.T - QF @ (QF.T @ Y.T)
        np.testing.assert_allclose(np.linalg.norm(R[k:, p:], axis=0), np.linalg.norm(perp, axis=0),
                                   rtol=1e-12, atol=1e-13)


def _walk_error(A, B, d, L) -> str:
    with pytest.raises(ValueError) as err:
        for _ in harmonics.gegenbauer_blocks(A, B, d, L):
            pass
    return str(err.value)


class TestDomainScreen:
    """A point inside the unit tolerance whose raw dot product leaves the band."""

    # a 1.5x point raises the unit check's error on every route; a point
    # 5e-9 longer than a direction, whose raw dot product the walk rejects,
    # is divided by its norm, and every route gives the walk's values on the
    # unit rows within its bound
    @pytest.mark.parametrize("call, variant", [("train", False), ("train", True),
                                               ("predict", 1), ("predict", 2)])
    def test_every_route_raises_the_walks_error(self, call, variant, monkeypatch):
        d = 4
        X, Q = sample_sphere(20, d, 80), sample_sphere(30, d, 81)
        a = np.random.default_rng(82).standard_normal(30)

        def run(X):
            if call == "train":
                ds = LabeledDataset(S=X, f_star_S=np.zeros(20), y=np.ones(20), sigma0=0.0)
                return train(ds, Q, oracle_weights(d, 1), eta=0.3, T=3)
            return predict(a, X, Q, oracle_weights(d, variant))

        X[5] *= 1.5
        with monkeypatch.context() as mp:
            if call == "train":
                force_path(mp, variant)
            with pytest.raises(ValueError, match="X row 5 is not unit-norm"):
                run(X)
        X[5] = Q[7] * (1.0 + 5e-9)
        assert "tolerance band at index (5, 7)" in _walk_error(X, Q, d, 1)
        with monkeypatch.context() as mp:
            # the reference: the walk, on the plain path or the recurrence
            force_path(mp, False)
            mp.setattr(harmonics, "_expansion_is_cheaper", lambda *args: False)
            ref = run(unit_rows(X))
        if call == "train":
            force_path(monkeypatch, variant)
            (state, trace), (ref_state, ref_trace) = run(X), ref
            np.testing.assert_allclose(state.a, ref_state.a, atol=1e-10)
            np.testing.assert_allclose(trace.loss, ref_trace.loss, rtol=1e-9, atol=1e-14)
        else:
            bound = harmonics._expansion_error(d, variant, harmonics._RHO)
            scale = np.sum(oracle_weights(d, variant)) * np.sum(np.abs(a)) / np.sqrt(30)
            assert np.max(np.abs(run(X) - ref)) <= bound * scale

    @pytest.mark.parametrize("ell_hat", [1, 2])
    def test_near_unit_rows_form_no_dot_products(self, ell_hat, monkeypatch):
        # rows 1e-10 longer than unit are divided by their norms, and on the
        # expansion's route no dot product is formed for any check
        X, Q = sample_sphere(2000, 6, 83) * (1 + 1e-10), sample_sphere(800, 6, 84)
        a = np.random.default_rng(85).standard_normal(800)
        tau = oracle_weights(6, ell_hat)
        ref = predict(a, unit_rows(X), Q, tau)
        monkeypatch.setattr(harmonics, "_dot_fill", _no_dot_fill)
        np.testing.assert_allclose(predict(a, X, Q, tau), ref, rtol=1e-12, atol=1e-12)

    def test_high_dimension_forms_no_dot_products(self, monkeypatch):
        # at d = 1200 sample_sphere's rows reach every route unchanged, and
        # predict needs no dot product to clear them
        X, Q = sample_sphere(50, 1200, 86), sample_sphere(40, 1200, 87)
        a, tau = np.random.default_rng(88).standard_normal(40), oracle_weights(1200, 1)
        ref = activation_matrix(X, Q, tau) @ a / np.sqrt(40)  # the walk
        monkeypatch.setattr(harmonics, "_dot_fill", _no_dot_fill)
        bound = harmonics._expansion_error(1200, 1, harmonics._RHO)
        scale = np.sum(tau) * np.sum(np.abs(a)) / np.sqrt(40)
        assert np.max(np.abs(predict(a, X, Q, tau) - ref)) <= bound * scale


def _no_dot_fill(*args):
    raise AssertionError("a dot-product block was formed")


class TestCertificate:
    """The a-priori bound on the factored spectrum against an oracle that walks."""

    @staticmethod
    def _bound_and_error(X, Q, tau, monkeypatch):
        # the eigenvalues of N / n from the factors, whatever the bound, and
        # those of Z.T Z / n from the walk, relative to (sum |tau|)^2
        n, d = X.shape
        g = harmonics._power_coefficients(d, tau)
        with monkeypatch.context() as mp:
            mp.setattr(harmonics, "_FACTOR_RTOL", np.inf)
            lam = training._try_factor(X, Q, tau, g, np.zeros((2, n))).lam[::-1] / n
        ref = gram_spectrum(normalized_gram(empirical_gram(X, None, Q, tau), n))
        err = max(np.max(np.abs(lam - ref[: lam.size])),
                  np.max(np.abs(ref[lam.size :]), initial=0.0))
        return harmonics._spectrum_error(d, tau, g, n, 2), err / np.sum(np.abs(tau)) ** 2

    @pytest.mark.parametrize("d, L", [(2, 10), (2, 14), (3, 8), (8, 4), (6, 1)])
    def test_bound_is_never_below_the_walk(self, d, L, monkeypatch):
        X = sample_sphere(300, d, 61)
        Q = sample_sphere(600, d, 62)
        gapped = [1] + [0] * (L - 1) + [1] if L > 1 else [0, 1]
        rng = np.random.default_rng(63 + 20 * d + L)
        for tau in (oracle_weights(d, L), finalized_weights(d, gapped), rng.standard_normal(L + 1)):
            bound, err = self._bound_and_error(X, Q, tau, monkeypatch)
            assert err <= bound

    def test_zero_weights_certify_as_zero(self, monkeypatch):
        X, Q = sample_sphere(20, 4, 64), sample_sphere(30, 4, 65)
        tau = np.zeros(3)
        g = harmonics._power_coefficients(4, tau)
        assert harmonics._spectrum_error(4, tau, g, 20, 2) == 0.0
        # p = 0: Z is exactly 0, and train takes the factors without a warning
        force_path(monkeypatch, True)
        built = plain_builds(monkeypatch)
        ds = LabeledDataset(S=X, f_star_S=np.zeros(20), y=np.ones(20), sigma0=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state, trace = train(ds, Q, tau, eta=0.3, T=4)
        assert not built and np.array_equal(state.a, np.zeros(30))
        # |y|^2 / n = 1, with |y| from the QR's triangle
        np.testing.assert_allclose(trace.loss, [1.0] * 5, rtol=1e-15)

    def test_failure_names_the_bound_and_falls_back(self, monkeypatch):
        # the bound exceeds the tolerance: train warns before forming the
        # factors and runs the plain loop, bit for bit
        _, ds, Q, tau = _setup(n=60, m=200, seed=15)
        force_path(monkeypatch, False)
        ref_state, ref_trace = train(ds, Q, tau, eta=0.3, T=30)
        monkeypatch.setattr(harmonics, "_FACTOR_RTOL", 0.0)
        force_path(monkeypatch, True)
        formed = []
        monkeypatch.setattr(harmonics, "_middle_matrix", lambda *args: formed.append(args))
        built = plain_builds(monkeypatch)
        with pytest.warns(RuntimeWarning, match=r"a-priori bound \d\.\d{3}e-\d+ on the kernel's "
                          r"eigenvalues > 0 at factor width p = 10; falling back to "
                          r"the m x n feature matrix"):
            state, trace = train(ds, Q, tau, eta=0.3, T=30)
        assert not formed
        assert len(built) == 1 and np.array_equal(built[0][2], tau)
        assert np.array_equal(state.a, ref_state.a)
        assert trace.loss == ref_trace.loss and trace.clean_loss == ref_trace.clean_loss
        assert trace.residual_norm == ref_trace.residual_norm


class TestSpectralTrace:
    """The factored path's closed-form trace against the plain loop on Z."""

    @staticmethod
    def _paths(monkeypatch):
        # records "spectral" per factored train, "plain" per plain one
        taken = []
        spectral, loop = training._spectral_trace, training._gd_loop

        def spy_spectral(*args):
            taken.append("spectral")
            return spectral(*args)

        def spy_loop(*args):
            taken.append("plain")
            return loop(*args)

        monkeypatch.setattr(training, "_spectral_trace", spy_spectral)
        monkeypatch.setattr(training, "_gd_loop", spy_loop)
        return taken

    @staticmethod
    def _assert_matches_plain(monkeypatch, ds, Q, tau, eta, T):
        built = plain_builds(monkeypatch)
        force_path(monkeypatch, False)
        s1, t1 = train(ds, Q, tau, eta, T)
        force_path(monkeypatch, True)
        s2, t2 = train(ds, Q, tau, eta, T)
        assert len(built) == 1 and s2.t == T and s2.eta == eta
        np.testing.assert_allclose(s2.a, s1.a, atol=1e-10)
        np.testing.assert_allclose(t2.loss, t1.loss, rtol=1e-9, atol=1e-14)
        np.testing.assert_allclose(t2.clean_loss, t1.clean_loss, rtol=1e-9, atol=1e-14)
        np.testing.assert_allclose(t2.residual_norm, t1.residual_norm, rtol=1e-9, atol=1e-14)
        assert len(t2.loss) == len(t2.clean_loss) == len(t2.residual_norm) == T + 1
        return t1, t2

    def test_negative_rho_over_many_steps(self, monkeypatch):
        # eta * lambda_max = 1.6: the top mode flips sign every step (rho = -0.6)
        _, ds, Q, tau = _setup(n=60, m=200, seed=15)
        lam_max = gram_spectrum(normalized_gram(empirical_gram(ds.S, None, Q, tau), 60))[0]
        taken = self._paths(monkeypatch)
        self._assert_matches_plain(monkeypatch, ds, Q, tau, 1.6 / lam_max, 1000)
        assert taken == ["plain", "spectral"]

    def test_fewer_steps_than_width_take_the_loop(self, monkeypatch):
        # d = 3, ell0 = 2: p = 10, and T = 9 < p steps take the closed form too
        _, ds, Q, tau = _setup(n=60, m=200, seed=15)
        taken = self._paths(monkeypatch)
        self._assert_matches_plain(monkeypatch, ds, Q, tau, 0.3, 9)
        self._assert_matches_plain(monkeypatch, ds, Q, tau, 0.3, 10)
        assert taken == ["plain", "spectral", "plain", "spectral"]

    def test_width_above_sample_count(self, monkeypatch):
        # p = 10 monomials on n = 6 points: N is min(p, n) = 6 square
        _, ds, Q, tau = _setup(n=6, m=200, seed=18)
        taken = self._paths(monkeypatch)
        self._assert_matches_plain(monkeypatch, ds, Q, tau, 0.3, 50)
        assert taken == ["plain", "spectral"]

    def test_rank_deficient_factors(self, monkeypatch):
        # 4 distinct points, each 15 times: N has rank 4 < p = 10
        target, ds, Q, tau = _setup(n=4, m=200, seed=19)
        X = np.repeat(ds.S, 15, axis=0)
        f_star = np.repeat(ds.f_star_S, 15)
        y = f_star + 0.3 * np.random.default_rng(20).standard_normal(60)
        dup = LabeledDataset(S=X, f_star_S=f_star, y=y, sigma0=0.3)
        taken = self._paths(monkeypatch)
        _, t2 = self._assert_matches_plain(monkeypatch, dup, Q, tau, 0.5, 200)
        assert taken == ["plain", "spectral"]
        # the part of y off the 4 distinct points is never fitted
        resid = y - np.repeat(y.reshape(4, 15).mean(axis=1), 15)
        assert t2.loss[-1] >= float(resid @ resid) / 60 * (1 - 1e-12)

    def test_exactly_zero_singular_values(self, monkeypatch):
        # directions in the plane x_3 = 0: the monomials with q_3 vanish, so
        # M has zero rows and N eigenvalues that are 0 after the clip
        _, ds, _, tau = _setup(n=60, seed=26)
        Q = np.concatenate([sample_sphere(200, 2, 27), np.zeros((200, 1))], axis=1)
        g = harmonics._power_coefficients(3, tau)
        assert np.any(training._try_factor(ds.S, Q, tau, g, np.zeros((2, 60))).lam == 0.0)
        taken = self._paths(monkeypatch)
        self._assert_matches_plain(monkeypatch, ds, Q, tau, 0.5, 100)
        assert taken == ["plain", "spectral"]

    def test_zero_weights(self, monkeypatch):
        _, ds, Q, _ = _setup(n=30, m=50, seed=21)
        taken = self._paths(monkeypatch)
        t1, t2 = self._assert_matches_plain(monkeypatch, ds, Q, np.zeros(3), 0.3, 6)
        assert taken == ["plain", "spectral"]
        assert t2.loss == t1.loss and t2.residual_norm == t1.residual_norm

    def test_trace_across_blocks(self, monkeypatch):
        import sphattn.harmonics as harmonics_mod

        _, ds, Q, tau = _setup(n=40, m=90, seed=22)
        force_path(monkeypatch, False)
        plain_state, _ = train(ds, Q, tau, 0.3, 25)
        force_path(monkeypatch, True)
        ref_state, ref = train(ds, Q, tau, 0.3, 25)
        # 3 rows of t per block: the trace crosses 9 block boundaries
        monkeypatch.setattr(harmonics_mod, "BLOCK_ENTRIES", 3 * 10)
        taken = self._paths(monkeypatch)
        state, t2 = train(ds, Q, tau, 0.3, 25)
        assert taken == ["spectral"]
        assert len(t2.loss) == 26
        np.testing.assert_allclose(t2.loss, ref.loss, rtol=1e-13, atol=0)
        np.testing.assert_allclose(state.a, plain_state.a, atol=1e-10)
        np.testing.assert_allclose(state.a, ref_state.a, rtol=1e-13, atol=1e-15)

    def test_divergence_raises_like_the_plain_loop(self, monkeypatch):
        _, ds, Q, tau = _setup(n=40, m=60, seed=16)
        messages = {}
        taken = self._paths(monkeypatch)
        for factored in (False, True):
            force_path(monkeypatch, factored)
            with pytest.raises(DivergenceError) as err:
                train(ds, Q, tau, eta=50.0, T=200)
            messages[factored] = str(err.value)
        assert messages[True] == messages[False]
        assert "over 5 steps at step" in messages[False]
        # the closed form raises at the loop's step, with its message
        assert taken == ["plain", "spectral"]

    def test_non_finite_response_raises_like_the_plain_loop(self, monkeypatch):
        _, ds, Q, tau = _setup(n=40, m=60, seed=16)
        y = ds.y.copy()
        y[7] = np.nan
        bad = LabeledDataset(S=ds.S, f_star_S=ds.f_star_S, y=y, sigma0=ds.sigma0)
        for factored in (False, True):
            force_path(monkeypatch, factored)
            with pytest.raises(DivergenceError, match="non-finite residual at step 0"):
                train(bad, Q, tau, eta=0.3, T=50)

    def test_memory_does_not_grow_with_steps(self, monkeypatch):
        import sys
        import tracemalloc

        # d = 6, ell0 = 1: p = 7
        target = make_target(6, 1, [1.0, 4.0], 23)
        ds = gen_dataset(target, 300, 0.5, 24)
        Q = sample_sphere(400, 6, 25)
        tau = oracle_weights(6, 1)
        T, w = 20_000, 7
        force_path(monkeypatch, True)
        train(ds, Q, tau, eta=0.8, T=T)  # warm up lazy allocations
        built = plain_builds(monkeypatch)
        tracemalloc.start()
        try:
            state, trace = train(ds, Q, tau, eta=0.8, T=T)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        lists = sum(
            sys.getsizeof(values) + sum(sys.getsizeof(v) for v in values)
            for values in (trace.loss, trace.residual_norm, trace.clean_loss)
        )
        assert not built and len(trace.loss) == T + 1
        assert peak < (T + 1) * w * 8 + lists
