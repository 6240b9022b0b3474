"""Harness configuration, runners, reports, and the CLI."""

import csv
import json
import statistics
import subprocess
import sys

import numpy as np
import pytest

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
                "lowrank": "always",
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
        cfg = ExperimentConfig.from_sources(TRAIN_KW, {})
        report = run_training_run(cfg)
        echo_path = tmp_path / "echo.json"
        echo = {k: v for k, v in report.config.items() if k != "flags"}
        echo_path.write_text(json.dumps(echo))
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

    def test_bad_config_exits_two(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("d = 1\nell0 = 0\nn = 10\nm = 10\n")
        assert main(["select", "--config", str(path)]) == 2
        assert main(["select", "--config", str(tmp_path / "missing.cfg")]) == 2

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
        proc = subprocess.run(
            [sys.executable, "-m", "sphattn.cli", "select", "--config", cfg, "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["kind"] == "channel_selection"
