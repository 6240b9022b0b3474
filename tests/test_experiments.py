"""Harness configuration, runners, reports, and the CLI."""

import csv
import dataclasses
import json
import os
import re
import statistics
import subprocess
import sys

import numpy as np
import pytest

from sphattn import config, experiments, finalized_weights, harmonics, oracle_weights, sample_sphere
from sphattn.cli import main
from sphattn.config import ConfigError, ExperimentConfig, auto_steps, parse_config_file
from sphattn.experiments import (
    AllSeedsFailedError,
    calibrate_epsilon0,
    emit_report,
    run_channel_selection_trials,
    run_kernel_convergence,
    run_risk_sweep,
    run_training_run,
)
from sphattn.harmonics import _power_coefficients, gegenbauer_weighted_sum, harmonic_dim
from test_training import force_path

SELECT_KW = {
    "d": 4,
    "ell0": 0,
    "L": 2,
    "n": 400,
    "m": 400,
    "sigma0": 0.0,
    "epsilon0": 0.25,
    "num_seeds": 4,
    "base_seed": 7,
}

TRAIN_KW = {
    "d": 3,
    "ell0": 1,
    "n": 150,
    "m": 300,
    "eta": 0.5,
    "sigma0": 0.2,
    "num_seeds": 3,
    "num_mc_samples": 2000,
    "base_seed": 3,
}


class TestConfig:
    def test_flat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# experiment\n"
            "d = 5\n"
            "ell0: 1\n"
            "n = 100,200,1000,2000\n"
            "coeffs = 1.0,2.0\n"
            "T = auto\n"
            "sigma0 = 0.5\n"
        )
        values = parse_config_file(path)
        cfg = ExperimentConfig.from_sources(values, {})
        assert cfg.d == 5 and cfg.ell0 == 1
        assert cfg.n == [100, 200, 1000, 2000]
        assert cfg.coeffs == [1.0, 2.0] and cfg.T == "auto"

    def test_json_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"d": 3, "ell0": 0, "n": 50, "m": 60}))
        cfg = ExperimentConfig.from_sources(parse_config_file(path), {})
        assert (cfg.d, cfg.n, cfg.m) == (3, 50, 60)

    def test_cli_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d = 3\nell0 = 0\nn = 50\nm = 60\nsigma0 = 0.1\n")
        cfg = ExperimentConfig.from_sources(parse_config_file(path), {"sigma0": 0.9})
        assert cfg.sigma0 == 0.9

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_sources({"d": 3, "ell0": 0, "bogus": 1}, {})

    def test_grid_must_increase(self):
        with pytest.raises(ConfigError, match="increasing"):
            ExperimentConfig.from_sources({"d": 3, "ell0": 0, "n": [100, 100]}, {})

    def test_low_L_is_flagged_not_rejected(self):
        cfg = ExperimentConfig.from_sources({"d": 3, "ell0": 2, "L": 1, "n": 10, "m": 10}, {})
        assert "L_below_target_degree" in cfg.flags

    def test_coeffs_default_and_checks(self):
        cfg = ExperimentConfig.from_sources({"d": 3, "ell0": 2, "n": 10, "m": 10}, {})
        assert cfg.coeffs == [1.0, 1.0, 1.0]
        with pytest.raises(ConfigError, match="nonzero"):
            ExperimentConfig.from_sources(
                {"d": 3, "ell0": 1, "coeffs": [1.0, 0.0], "n": 10, "m": 10}, {}
            )

    def test_auto_steps(self):
        assert auto_steps(8000, 0.8, 6, 1) == round(8000 / (0.8 * 6))
        assert auto_steps(1, 1.0, 5, 2) == 1
        cfg = ExperimentConfig.from_sources({"d": 6, "ell0": 1, "n": 480, "m": 10}, {})
        assert cfg.steps_for(480) == auto_steps(480, cfg.eta, 6, 1)
        cfg2 = ExperimentConfig.from_sources({"d": 6, "ell0": 1, "n": 480, "m": 10, "T": 25}, {})
        assert cfg2.steps_for(480) == 25

    @pytest.mark.parametrize("key", ["d", "ell0", "L", "n", "m", "eta", "T", "sigma0", "epsilon0",
                                     "coeffs", "num_seeds", "num_mc_samples", "base_seed",
                                     "threads"])
    @pytest.mark.parametrize("value", ["2", True, float("nan")])
    def test_wrong_type_names_key_and_value(self, key, value):
        kw = {"d": 3, "ell0": 0, "n": 20, "m": 30, key: value}
        with pytest.raises(ConfigError, match=rf"^{key} must be .*, got {re.escape(repr(value))}$"):
            ExperimentConfig.from_sources(kw, {})

    @pytest.mark.parametrize("key, value, message", [
        ("d", 1, "d must be >= 2, got 1"),
        ("ell0", -1, "ell0 must be >= 0, got -1"),
        ("L", -1, "L must be >= 0, got -1"),
        ("n", 0, "n must be >= 1, got 0"),
        ("m", 0, "m must be >= 1, got 0"),
        ("eta", 0, "eta must be positive, got 0.0"),
        ("T", 0, "T must be >= 1 or 'auto', got 0"),
        ("sigma0", -0.5, "sigma0 must be >= 0, got -0.5"),
        ("epsilon0", 0, "epsilon0 must be positive, got 0.0"),
        ("num_seeds", 0, "num_seeds must be >= 1, got 0"),
        ("num_mc_samples", 1, "num_mc_samples must be >= 2, got 1"),
        ("threads", 0, "threads must be >= 1, got 0"),
    ])
    def test_value_past_its_bound_names_key_bound_and_value(self, key, value, message):
        kw = {"d": 3, "ell0": 0, "n": 20, "m": 30, key: value}
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            ExperimentConfig.from_sources(kw, {})

    def test_every_numeric_key_states_a_bound(self):
        # a new int or float key is coerced and bounded only through config._BOUNDS;
        # n, m and T, which also take grids or 'auto', are checked on their own
        numeric = {f.name for f in dataclasses.fields(ExperimentConfig)
                   if re.search(r"\b(int|float)\b", str(f.type))}
        assert {"d", "eta", "base_seed"} <= numeric, "are the annotations still read?"
        unbounded = numeric - {"n", "m", "T"} - set(config._BOUNDS)
        assert not unbounded, f"numeric config keys without a bound: {sorted(unbounded)}"

    def test_integral_values_are_normalized(self):
        cfg = ExperimentConfig.from_sources(
            {"d": 3.0, "ell0": np.int64(1), "n": [20.0, 40], "m": 30.0, "T": 5.0,
             "eta": 1, "sigma0": 0, "epsilon0": np.int64(2)}, {}
        )
        assert (cfg.d, cfg.ell0, cfg.n, cfg.m, cfg.T) == (3, 1, [20, 40], 30, 5)
        assert all(type(v) is int for v in (cfg.d, cfg.ell0, cfg.m, cfg.T, *cfg.n))
        assert (cfg.eta, cfg.sigma0, cfg.epsilon0) == (1.0, 0.0, 2.0)
        assert all(type(v) is float for v in (cfg.eta, cfg.sigma0, cfg.epsilon0))

    def test_scalar_vs_grid_accessors(self):
        cfg = ExperimentConfig.from_sources({"d": 3, "ell0": 0, "n": [10, 20, 400], "m": 5}, {})
        assert cfg.grid("n") == [10, 20, 400]
        assert cfg.scalar("m") == 5
        with pytest.raises(ConfigError):
            cfg.scalar("n")


class TestSelectionRuns:
    def test_report_and_aggregates_recomputable(self):
        cfg = ExperimentConfig.from_sources(SELECT_KW, {})
        report = run_channel_selection_trials(cfg)
        recs = report.per_seed
        assert len(recs) == 4
        agg = report.aggregates
        assert agg["success_rate"] == pytest.approx(
            statistics.mean(float(r["success"]) for r in recs)
        )
        taus = np.array([r["tau_raw"] for r in recs])
        np.testing.assert_allclose(agg["tau_raw_mean"], taus.mean(axis=0))
        assert agg["success_rate"] == 1.0  # constant target, easy regime

    def test_seed_prefix_stability(self):
        cfg10 = ExperimentConfig.from_sources({**SELECT_KW, "num_seeds": 2}, {})
        cfg20 = ExperimentConfig.from_sources({**SELECT_KW, "num_seeds": 4}, {})
        r10 = run_channel_selection_trials(cfg10)
        r20 = run_channel_selection_trials(cfg20)
        assert r20.per_seed[:2] == r10.per_seed

    def test_all_failed_raises(self):
        cfg = ExperimentConfig.from_sources({**SELECT_KW, "epsilon0": 1e9}, {})
        with pytest.raises(AllSeedsFailedError):
            run_channel_selection_trials(cfg)

    def test_requires_epsilon0(self):
        cfg = ExperimentConfig.from_sources({k: v for k, v in SELECT_KW.items() if k != "epsilon0"}, {})
        with pytest.raises(ConfigError, match="epsilon0"):
            run_channel_selection_trials(cfg)

    def test_calibration_recommends_usable_threshold(self):
        cfg = ExperimentConfig.from_sources(
            {k: v for k, v in SELECT_KW.items() if k != "epsilon0"}, {}
        )
        report = calibrate_epsilon0(cfg)
        rec = report.aggregates["recommended_epsilon0"]
        assert rec is not None and rec > 0
        # threshold sits strictly inside the measured gap
        assert report.aggregates["mean_max_redundant_abs"] < 2 * rec
        assert 2 * rec < report.aggregates["mean_min_informative"]
        cfg2 = ExperimentConfig.from_sources({**SELECT_KW, "epsilon0": rec}, {})
        assert run_channel_selection_trials(cfg2).aggregates["success_rate"] == 1.0

    def test_calibration_threads_do_not_change_report(self, tmp_path):
        kw = {"d": 3, "ell0": 1, "L": 2, "n": 200, "m": 150, "sigma0": 0.1,
              "num_seeds": 4, "base_seed": 5}
        paths = []
        for threads in (1, 2):
            report = calibrate_epsilon0(
                ExperimentConfig.from_sources({**kw, "threads": threads}, {})
            )
            report.config.pop("threads")  # the echo records the thread count
            paths.append(tmp_path / f"cal{threads}.json")
            emit_report(report, paths[-1])
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestTrainingRuns:
    def test_training_run_report(self):
        cfg = ExperimentConfig.from_sources(TRAIN_KW, {})
        report = run_training_run(cfg)
        assert len(report.per_seed) == 3
        risks = [r["risk"] for r in report.per_seed if r["ok"]]
        assert report.aggregates["median_risk"] == pytest.approx(statistics.median(risks))
        for rec in report.per_seed:
            assert rec["T"] == auto_steps(150, 0.5, 3, 1)
            assert rec["risk_stderr"] > 0

    def test_selected_channels_path(self):
        kw = {
            **TRAIN_KW,
            "channels": "select",
            "epsilon0": 0.08,
            "L": 2,
            "sigma0": 0.05,
            "n": 400,
            "m": 400,
        }
        report = run_training_run(ExperimentConfig.from_sources(kw, {}))
        assert all(r["ell_hat"] == 1 for r in report.per_seed if r["ok"])

    def test_oracle_channels_train_what_they_record(self):
        # oracle channels are 0..ell0 whatever L, which bounds only selection's
        # search: below ell0 no channel is dropped, above it none is padded
        ell0 = TRAIN_KW["ell0"]
        runs = [run_training_run(ExperimentConfig.from_sources({**TRAIN_KW, "L": L})).per_seed
                for L in (0, ell0, ell0 + 2)]
        assert all(r["ok"] and r["ell_hat"] == ell0 for r in runs[1])
        assert runs[0] == runs[1] == runs[2]

    def test_all_diverged_raises(self):
        cfg = ExperimentConfig.from_sources({**TRAIN_KW, "eta": 80.0, "T": 50}, {})
        with pytest.raises(AllSeedsFailedError):
            run_training_run(cfg)

    def test_risk_sweep_slope_and_aggregates(self):
        kw = {
            "d": 3,
            "ell0": 0,
            "n": [40, 80, 160, 400],
            "m": 200,
            "eta": 0.5,
            "sigma0": 0.5,
            "num_seeds": 4,
            "num_mc_samples": 2000,
            "base_seed": 5,
        }
        report = run_risk_sweep(ExperimentConfig.from_sources(kw, {}))
        agg = report.aggregates
        assert agg["n_grid"] == [40, 80, 160, 400]
        # rank-1 kernel: risk ~ sigma0^2 / n, slope near -1 even at this scale
        assert -1.6 <= agg["slope"] <= -0.4
        good = [r for r in report.per_seed if r["ok"]]
        med0 = statistics.median(r["risk"] for r in good if r["n"] == 40)
        assert agg["median_risk_per_n"][0] == pytest.approx(med0)

    def test_noiseless_sweep_dominated_by_noisy(self):
        kw = {
            "d": 3,
            "ell0": 0,
            "n": [40, 80, 160, 400],
            "m": 200,
            "eta": 0.5,
            "sigma0": 0.5,
            "num_seeds": 4,
            "num_mc_samples": 2000,
            "base_seed": 5,
        }
        noisy = run_risk_sweep(ExperimentConfig.from_sources(kw, {}))
        clean = run_risk_sweep(ExperimentConfig.from_sources({**kw, "sigma0": 0.0}, {}))
        for r_noisy, r_clean in zip(
            noisy.aggregates["median_risk_per_n"], clean.aggregates["median_risk_per_n"]
        ):
            assert r_clean < r_noisy

    def test_risk_scales_with_dimension(self):
        """Doubling d at fixed n scales the risk roughly with the kernel rank
        (ratio within a wide [1.3, 3] window for d = 4 vs 8, degree 1)."""

        def median_risk(d):
            kw = {
                "d": d,
                "ell0": 1,
                "coeffs": [1.0, 2.0],
                "n": 1000,
                "m": 1200,
                "eta": 0.8,
                "sigma0": 0.5,
                "num_seeds": 4,
                "num_mc_samples": 4000,
                "base_seed": 9,
            }
            report = run_training_run(ExperimentConfig.from_sources(kw, {}))
            return report.aggregates["median_risk"]

        ratio = median_risk(8) / median_risk(4)
        assert 1.3 <= ratio <= 3.0, ratio

    def test_risk_sweep_grid_validation(self):
        kw = {"d": 3, "ell0": 0, "n": [100, 200], "m": 50, "sigma0": 0.1}
        with pytest.raises(ConfigError, match="at least 4"):
            run_risk_sweep(ExperimentConfig.from_sources(kw, {}))
        kw["n"] = [100, 200, 300, 400]
        with pytest.raises(ConfigError, match="decade"):
            run_risk_sweep(ExperimentConfig.from_sources(kw, {}))

    def test_threads_do_not_change_results(self):
        cfg1 = ExperimentConfig.from_sources(TRAIN_KW, {})
        cfg2 = ExperimentConfig.from_sources({**TRAIN_KW, "threads": 3}, {})
        r1 = run_training_run(cfg1)
        r2 = run_training_run(cfg2)
        assert json.dumps(r1.per_seed, sort_keys=True) == json.dumps(r2.per_seed, sort_keys=True)


class TestEmpiricalKernel:
    """The kernel gap's paired kernel: the Gram route on the stage-two factors against the walk."""

    @staticmethod
    def _walk(X_a, X_b, Q, tau, d):
        dots_a = gegenbauer_weighted_sum(X_a @ Q.T, d, tau)
        dots_b = gegenbauer_weighted_sum(X_b @ Q.T, d, tau)
        return np.sum(dots_a * dots_b, axis=1) / Q.shape[0]

    @staticmethod
    def _no_walk(*args):
        raise AssertionError("the paired kernel walked the m directions")

    @pytest.mark.parametrize("d, L", [(3, 2), (6, 1), (8, 4)])
    def test_gram_route_matches_the_walk(self, d, L, monkeypatch):
        pairs = sample_sphere(128, d, 41)
        X_a, X_b = pairs[:64], pairs[64:]
        Q = sample_sphere(600, d, 42)
        gapped = finalized_weights(d, [1] + [0] * (L - 1) + [1] if L > 1 else [0, 1])
        for tau in (oracle_weights(d, L), gapped):
            ref = self._walk(X_a, X_b, Q, tau, d)
            # the kernel sigma_tau concentrates to: sum_k tau_k^2 / N_k P_k
            dims = np.array([harmonic_dim(d, k) for k in range(L + 1)])
            k_pop = gegenbauer_weighted_sum(np.sum(X_a * X_b, axis=1), d, tau**2 / dims)
            with monkeypatch.context() as patch:
                patch.setattr(harmonics, "gegenbauer_weighted_sum", self._no_walk)
                k_hat = harmonics._paired_kernel(X_a, X_b, Q, tau)
                gap = experiments._kernel_gap(X_a, X_b, Q, tau, d)
            np.testing.assert_allclose(k_hat, ref, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(ref)))
            assert gap == pytest.approx(float(np.max(np.abs(ref - k_pop))), rel=1e-12)

    def test_gap_measures_concentration_under_a_gapped_mask(self):
        # mask [1, 0, 1] at d = 3: the empirical kernel concentrates to
        # P_0 + P_2, so the gap shrinks with m; against P_0 + P_1 + P_2 it
        # would stay near max |P_1| over the pairs, about 1
        d = 3
        pairs = sample_sphere(128, d, 47)
        X_a, X_b = pairs[:64], pairs[64:]
        tau = finalized_weights(d, [1, 0, 1])
        gap = experiments._kernel_gap(X_a, X_b, sample_sphere(20000, d, 48), tau, d)
        assert gap < 0.1
        assert float(np.max(np.abs(np.sum(X_a * X_b, axis=1)))) > 0.9

    def test_ill_conditioned_expansion_takes_the_walk(self, monkeypatch):
        # d = 2, degree 14: the Chebyshev coefficients grow like (1 + sqrt 2)^14
        d, L = 2, 14
        tau = oracle_weights(d, L)
        bound = harmonics._kernel_error(d, tau, _power_coefficients(d, tau))
        assert bound > harmonics._FACTOR_RTOL
        pairs = sample_sphere(40, d, 43)
        Q = sample_sphere(300, d, 44)
        calls = []
        walk = harmonics.gegenbauer_weighted_sum
        monkeypatch.setattr(harmonics, "gegenbauer_weighted_sum",
                            lambda *args: calls.append(args) or walk(*args))
        k_hat = harmonics._paired_kernel(pairs[:20], pairs[20:], Q, tau)
        assert len(calls) == 2
        assert np.array_equal(k_hat, self._walk(pairs[:20], pairs[20:], Q, tau, d))

    def test_zero_weights(self):
        pairs = sample_sphere(20, 4, 45)
        Q = sample_sphere(30, 4, 46)
        k_hat = harmonics._paired_kernel(pairs[:10], pairs[10:], Q, np.zeros(3))
        assert np.array_equal(k_hat, np.zeros(10))


def middle_matrix_calls(monkeypatch) -> list:
    """Spy on harmonics._middle_matrix, the directions' Gram; returns its calls."""
    calls, build = [], harmonics._middle_matrix
    monkeypatch.setattr(harmonics, "_middle_matrix",
                        lambda *args: calls.append(args) or build(*args))
    return calls


class TestTrialGram:
    """A training trial forms the directions' Gram once, and its kernel gap reads the trainer's."""

    @staticmethod
    def _trial(kw):
        cfg = ExperimentConfig.from_sources(kw, {})
        return experiments._training_trial(cfg, experiments.STREAM_TRAIN, 0, 0, cfg.scalar("n"))

    @pytest.mark.parametrize("kw", [TRAIN_KW, {**TRAIN_KW, "d": 5, "ell0": 2}])
    def test_factored_trial_forms_the_gram_once(self, kw, monkeypatch):
        force_path(monkeypatch, True)
        calls = middle_matrix_calls(monkeypatch)
        assert self._trial(kw)["ok"] and len(calls) == 1

    @pytest.mark.parametrize("kw", [TRAIN_KW, {**TRAIN_KW, "d": 5, "ell0": 2}])
    def test_gap_is_bit_identical_without_the_handed_gram(self, kw, monkeypatch):
        force_path(monkeypatch, True)
        gaps, gap = [], experiments._kernel_gap
        monkeypatch.setattr(experiments, "_kernel_gap",
                            lambda *args: gaps.append(args) or gap(*args))
        rec = self._trial(kw)
        (args,) = gaps
        assert args[5] is not None
        assert rec["kernel_gap"] == gap(*args[:5])

    def test_plain_trial_forms_the_gram_in_its_gap(self, monkeypatch):
        force_path(monkeypatch, False)
        calls = middle_matrix_calls(monkeypatch)
        assert self._trial(TRAIN_KW)["ok"] and len(calls) == 1

    def test_risk_sweep_forms_one_gram_per_trial(self, monkeypatch):
        # d = 3, ell0 = 1 takes the factors at every n
        kw = {**TRAIN_KW, "n": [30, 60, 120, 300], "m": 60, "num_seeds": 2,
              "num_mc_samples": 200}
        calls = middle_matrix_calls(monkeypatch)
        report = run_risk_sweep(ExperimentConfig.from_sources(kw, {}))
        assert all(r["ok"] for r in report.per_seed) and len(calls) == 8

    def test_kernel_convergence_forms_one_gram_per_trial(self, monkeypatch):
        kw = {"d": 3, "ell0": 1, "m": [50, 100, 200], "n": 10, "num_seeds": 2}
        calls = middle_matrix_calls(monkeypatch)
        run_kernel_convergence(ExperimentConfig.from_sources(kw, {}))
        assert len(calls) == 6


class TestKernelConvergence:
    def test_slope_and_medians(self):
        kw = {
            "d": 3,
            "ell0": 1,
            "m": [200, 800, 3200],
            "n": 10,
            "num_seeds": 5,
            "base_seed": 2,
        }
        report = run_kernel_convergence(ExperimentConfig.from_sources(kw, {}))
        agg = report.aggregates
        assert len(agg["median_sup_error_per_m"]) == 3
        assert agg["median_sup_error_per_m"][0] > agg["median_sup_error_per_m"][2]
        assert -0.8 <= agg["slope"] <= -0.2


class TestEmitReport:
    @pytest.mark.parametrize("runner, kw", [
        (calibrate_epsilon0, {k: v for k, v in SELECT_KW.items() if k != "epsilon0"}),
        (run_channel_selection_trials, SELECT_KW),
        (run_training_run, TRAIN_KW),
        (run_training_run, {**TRAIN_KW, "channels": "select", "epsilon0": 0.08, "L": 2,
                            "sigma0": 0.05, "n": 400, "m": 400}),
        (run_risk_sweep, {**TRAIN_KW, "n": [30, 60, 120, 300], "num_seeds": 2}),
        (run_kernel_convergence, {"d": 3, "ell0": 1, "m": [50, 100, 200], "n": 10, "num_seeds": 2}),
    ])
    def test_records_hold_only_json_types(self, runner, kw):
        # the report is serialized as the workers and aggregates return it,
        # so a NumPy scalar anywhere in it is a defect
        def check(value):
            if type(value) is dict:
                assert all(type(k) is str for k in value)
                for v in value.values():
                    check(v)
            elif type(value) is list:
                for v in value:
                    check(v)
            else:
                assert type(value) in (int, float, bool, str, type(None)), repr(value)

        report = runner(ExperimentConfig.from_sources(kw, {}))
        check(report.per_seed)
        check(report.aggregates)

    def test_json_round_trip_and_determinism(self, tmp_path):
        cfg = ExperimentConfig.from_sources(SELECT_KW, {})
        report = run_channel_selection_trials(cfg)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        emit_report(report, p1, "json")
        emit_report(run_channel_selection_trials(cfg), p2, "json")
        assert p1.read_bytes() == p2.read_bytes()
        parsed = json.loads(p1.read_text())
        assert parsed["aggregates"] == report.aggregates
        assert "wall_clock" not in p1.read_text()

    def test_csv_flat_table(self, tmp_path):
        cfg = ExperimentConfig.from_sources(SELECT_KW, {})
        report = run_channel_selection_trials(cfg)
        path = tmp_path / "report.csv"
        emit_report(report, path, "csv")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "trial"
        assert set(rows[0]) == set(report.per_seed[0].keys())
        assert len(rows) == 1 + len(report.per_seed)

    def test_config_echo_reproduces_report(self, tmp_path):
        # with L < ell0 the echo carries a non-empty derived flags list
        for extra, flags in [({}, []), ({"L": 0}, ["L_below_target_degree"])]:
            cfg = ExperimentConfig.from_sources({**TRAIN_KW, **extra}, {})
            report = run_training_run(cfg)
            assert report.config["flags"] == flags
            echo_path = tmp_path / "echo.json"
            echo_path.write_text(json.dumps(report.config))
            cfg2 = ExperimentConfig.from_sources(parse_config_file(echo_path), {})
            report2 = run_training_run(cfg2)
            p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
            emit_report(report, p1, "json")
            emit_report(report2, p2, "json")
            assert p1.read_bytes() == p2.read_bytes()


class TestCli:
    def _cfg_file(self, tmp_path, **extra):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**SELECT_KW, **extra}))
        return str(path)

    def test_select_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["select", "--config", self._cfg_file(tmp_path), "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["kind"] == "channel_selection"

    def test_command_line_beats_config(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "select",
                "--config",
                self._cfg_file(tmp_path),
                "--num-seeds",
                "2",
                "--seed",
                "99",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["per_seed"]) == 2
        assert data["config"]["base_seed"] == 99

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("d = 1\nell0 = 0\nn = 10\nm = 10\n")
        assert main(["select", "--config", str(path)]) == 2
        assert main(["select", "--config", str(tmp_path / "missing.cfg")]) == 2
        # values of the wrong type, and the key that stage two no longer has
        flat = "d = 3\nell0 = 1\nn = 20\nm = 30\n"
        for name, text, message in [
            ("steps.cfg", flat + "T = abc\n", "T must be an integer, got 'abc'"),
            ("eta.cfg", flat + "eta = fast\n", "eta must be a finite number, got 'fast'"),
            ("seeds.json", json.dumps({"d": 3, "ell0": 1, "n": 20, "m": 30, "num_seeds": "2"}),
             "num_seeds must be an integer, got '2'"),
            ("path.cfg", flat + "lowrank = auto\n", "unknown config key 'lowrank'"),
            ("out.json", json.dumps({"d": 3, "ell0": 1, "n": 20, "m": 30, "out": 1}),
             "out must be a path string, got 1"),
            ("outbool.json", json.dumps({"d": 3, "ell0": 1, "n": 20, "m": 30, "out": True}),
             "out must be a path string, got True"),
        ]:
            path = tmp_path / name
            path.write_text(text)
            capsys.readouterr()
            assert main(["train", "--config", str(path)]) == 2
            assert message in capsys.readouterr().err
        path.write_text(flat)
        for flag, value, message in [
            ("--format", "xml", "format must be json or csv, got 'xml'"),
            ("--channels", "best", "channels must be 'oracle' or 'select', got 'best'"),
            ("--eta", "1" + "0" * 400, "eta must be a finite number, got 1000"),
        ]:
            capsys.readouterr()
            assert main(["train", "--config", str(path), flag, value]) == 2
            assert message in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main(["train", "--config", str(path), "--lowrank", "auto"])
        assert exc.value.code == 2

    def test_every_config_key_has_a_flag(self):
        from sphattn import cli

        for name in ExperimentConfig.field_names():
            flag = "--seed" if name == "base_seed" else "--" + name.replace("_", "-")
            args = cli._parser().parse_args(["train", flag, "7"])
            assert cli._overrides(args) == {name: "7" if name == "out" else 7}, flag

    def test_file_and_flags_parse_alike(self, tmp_path):
        base = "d = 4\nell0 = 0\nL = 2\nn = 300\nm = 300\nnum_seeds = 2\n"
        (tmp_path / "base.cfg").write_text(base)
        (tmp_path / "full.cfg").write_text(base + "eta = 1\nsigma0 = 0\n")
        out_file, out_flags = tmp_path / "file.json", tmp_path / "flags.json"
        assert main(["calibrate-eps0", "--config", str(tmp_path / "full.cfg"),
                     "--out", str(out_file)]) == 0
        assert main(["calibrate-eps0", "--config", str(tmp_path / "base.cfg"),
                     "--eta", "1", "--sigma0", "0", "--out", str(out_flags)]) == 0
        assert out_file.read_bytes() == out_flags.read_bytes()

    def test_all_seed_failure_exits_three(self, tmp_path):
        code = main(
            ["select", "--config", self._cfg_file(tmp_path, epsilon0=1e9), "--out", "/dev/null"]
        )
        assert code == 3

    def test_train_and_sweep_subcommands(self, tmp_path):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps(TRAIN_KW))
        out = tmp_path / "train.json.out"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "training_run"

    def test_calibrate_subcommand(self, tmp_path):
        cfg = self._cfg_file(tmp_path)
        out = tmp_path / "cal.json"
        assert main(["calibrate-eps0", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["aggregates"]["recommended_epsilon0"] > 0

    def test_kernel_conv_subcommand(self, tmp_path):
        cfg = tmp_path / "kc.json"
        cfg.write_text(
            json.dumps({"d": 3, "ell0": 1, "m": [100, 200, 400], "n": 5, "num_seeds": 2})
        )
        out = tmp_path / "kc.out.json"
        assert main(["kernel-conv", "--config", str(cfg), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == "kernel_convergence"

    def test_complexity_curve_subcommand(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(
            [
                "complexity-curve",
                "--d",
                "3",
                "--ell0",
                "2",
                "--n",
                "900",
                "--sigma0",
                "1.0",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "eps,R_empirical,R_population"
        payload = json.loads(capsys.readouterr().out)
        assert payload["population_critical_radius_sq"] == pytest.approx(0.01, abs=1e-10)
        # the empirical values lie within the factors' bound of the n x n route's
        from sphattn import cli, critical_radius, empirical_spectrum, kernel_complexity
        from sphattn.kernels import normalized_gram, population_gram

        X = sample_sphere(900, 3, experiments.derive_seed(0, cli.STREAM_COMPLEXITY, 0, 0))
        gram = empirical_spectrum(normalized_gram(population_gram(X, None, 2), 900))
        _, tol = harmonics._gram_eigenvalues(X, 2)
        for row in lines[1:]:
            eps, r_emp, _ = map(float, row.split(","))
            r2 = kernel_complexity(gram, eps) ** 2
            assert abs(r_emp**2 - r2) <= tol + 1e-15 * r2
        s_g = critical_radius(gram, 1.0) ** 2
        assert abs(payload["empirical_critical_radius_sq"] - s_g) <= tol / s_g + 1e-14 * s_g

    def test_complexity_curve_builds_the_population_spectrum_once(self, tmp_path, monkeypatch):
        from sphattn import cli, complexity, population_complexity

        calls = []
        build = complexity.population_spectrum
        spy = lambda *args: calls.append(args) or build(*args)
        # population_complexity builds one through complexity's name
        monkeypatch.setattr(complexity, "population_spectrum", spy)
        monkeypatch.setattr(cli, "population_spectrum", spy)
        out = tmp_path / "curve.csv"
        argv = ["--d", "3", "--ell0", "2", "--n", "400", "--sigma0", "1.0", "--out", str(out)]
        assert main(["complexity-curve", *argv]) == 0
        assert calls == [(3, 2, 400)]
        # each row's population value is population_complexity's, bit for bit
        for row in out.read_text().splitlines()[1:]:
            eps, _, r_pop = map(float, row.split(","))
            assert r_pop == population_complexity(3, 2, 400, eps)

    def test_parser_built_once_gives_fresh_parser_outputs(self, tmp_path, capsys):
        from sphattn import cli

        jobs = [
            ["select", "--config", self._cfg_file(tmp_path), "--format", "csv"],
            ["complexity-curve", "--d", "3", "--ell0", "1", "--n", "200", "--sigma0", "1.0"],
        ]

        def run(i, argv, tag):
            out = tmp_path / f"{tag}{i}.out"
            code = main([*argv, "--out", str(out)])
            return code, out.read_bytes(), capsys.readouterr()

        fresh = []
        for i, argv in enumerate(jobs):
            cli._parser.cache_clear()
            fresh.append(run(i, argv, "fresh"))
        cli._parser.cache_clear()
        reused = [run(i, argv, "reused") for i, argv in enumerate(jobs)]
        assert cli._parser.cache_info().misses == 1
        assert [r[0] for r in fresh] == [0, 0]
        assert reused == fresh

    def test_csv_format_flag(self, tmp_path):
        out = tmp_path / "r.csv"
        code = main(
            ["select", "--config", self._cfg_file(tmp_path), "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().startswith("trial,")

    def test_module_entry_point(self, tmp_path):
        cfg = self._cfg_file(tmp_path, num_seeds=2)
        out = tmp_path / "sub.json"
        # the child imports the package this process imported, installed or not
        src = os.path.dirname(os.path.dirname(experiments.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "sphattn.cli", "select", "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["kind"] == "channel_selection"
