"""Experiment runners: channel-selection trials, training runs, sweeps.

The runners (run_channel_selection_trials, calibrate_epsilon0,
run_training_run, run_risk_sweep, run_kernel_convergence) each check their
inputs, then hand a per-trial worker and an aggregate function to one report
builder, which runs the trials (on config.threads threads), raises
AllSeedsFailedError when no trial succeeded, and builds the RunReport.

Seed discipline: trial k of grid point g in stream s draws from
numpy's SeedSequence(base_seed, spawn_key=(s, g, k)), with one stream id per
experiment kind.  The derivation is counter-based, so enlarging num_seeds or
appending grid points never changes earlier trials, and trials can run in
any order or in parallel with identical results.  Reports echo their full
config; feeding the echo back reproduces the report byte for byte (wall
clock is kept out of the serialized form for that reason).

The kernel gap's empirical kernel comes from _paired_kernel, which picks
its route in harmonics: the monomial expansion's factors where their
rounding bound allows, the Gegenbauer walk otherwise.  A training trial
forms the directions' Gram once: when train took the factored path, its
kernel gap reads the trainer's Gram on that route.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .complexity import mc_risk
from .config import ConfigError, ExperimentConfig
from .harmonics import _dims, _paired_kernel, gegenbauer_weighted_sum, sample_sphere
from .kernels import oracle_weights
# one_step_second_layer and one_step_channel_weights are not called here; the
# names stay bound because perfbench/tracer.py wraps them in this module.
from .selection import (  # noqa: F401
    EmptySelectionError,
    one_step_channel_weights,
    one_step_second_layer,
    one_step_updates,
    select_channels,
)
from .targets import gen_dataset, make_target
from .training import DivergenceError, predict, train

__all__ = [
    "AllSeedsFailedError",
    "RunReport",
    "derive_seed",
    "run_channel_selection_trials",
    "calibrate_epsilon0",
    "run_training_run",
    "run_risk_sweep",
    "run_kernel_convergence",
    "emit_report",
]

# Stream ids keeping the experiment kinds on disjoint seed streams.
STREAM_SELECT = 0
STREAM_TRAIN = 1
STREAM_RISK = 2
STREAM_KERNEL = 3
STREAM_CALIBRATE = 9
# Sub-stream ids within a trial: its seeds are derive_seed(base, stream, g, k, sub).
SUB_TARGET, SUB_DATA, SUB_DIRECTIONS, SUB_MC, SUB_PAIRS = 0, 1, 2, 3, 7


class AllSeedsFailedError(RuntimeError):
    """Every trial of a run failed numerically; there is nothing to report."""


def derive_seed(base_seed: int, *key: int) -> np.random.SeedSequence:
    """Counter-based child seed for (stream, grid point, trial, ...)."""
    return np.random.SeedSequence(base_seed, spawn_key=tuple(int(k) for k in key))


@dataclass
class RunReport:
    """Per-seed records plus aggregates; aggregates are recomputable from records."""

    kind: str
    config: dict
    per_seed: list
    aggregates: dict
    version: str = __version__
    wall_clock_seconds: float = 0.0  # informational only, never serialized

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "config": self.config,
            "per_seed": self.per_seed,
            "aggregates": self.aggregates,
            "version": self.version,
        }


def _report(kind: str, config: ExperimentConfig, worker, keys: list, aggregate,
            failure: str | None = None) -> RunReport:
    """Run worker(key) for every key and report the records and aggregate(records).

    Record order follows `keys` regardless of scheduling.  With `failure`
    given, a run in which no record is ok raises AllSeedsFailedError(failure).
    """
    t0 = time.perf_counter()
    if config.threads <= 1:
        records = [worker(k) for k in keys]
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            records = list(pool.map(worker, keys))
    if failure is not None and not any(r["ok"] for r in records):
        raise AllSeedsFailedError(failure)
    return RunReport(
        kind=kind,
        config=config.echo(),
        per_seed=records,
        aggregates=aggregate(records),
        wall_clock_seconds=time.perf_counter() - t0,
    )


def _fit_loglog_slope(x, y):
    """Least-squares slope of log(y) on log(x) with its standard error."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope = float(coef[0])
    dof = lx.size - 2
    if dof > 0 and res.size:
        s2 = float(res[0]) / dof
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        stderr = math.sqrt(s2 / sxx) if sxx > 0 else float("nan")
    else:
        stderr = float("nan")
    return slope, stderr


def _trial_inputs(cfg: ExperimentConfig, stream: int, g: int, k: int, n: int):
    """Target, n-sample dataset and m directions of trial (stream, g, k)."""
    target_seed, data_seed, q_seed = (derive_seed(cfg.base_seed, stream, g, k, sub)
                                      for sub in (SUB_TARGET, SUB_DATA, SUB_DIRECTIONS))
    target = make_target(cfg.d, cfg.ell0, cfg.coeffs, target_seed)
    dataset = gen_dataset(target, n, cfg.sigma0, data_seed)
    return target, dataset, sample_sphere(cfg.scalar("m"), cfg.d, q_seed)


def _channel_split(tau_raw, ell0: int) -> dict:
    """Smallest informative and largest redundant |raw weight| of one trial."""
    informative = tau_raw[: ell0 + 1]
    redundant = tau_raw[ell0 + 1 :]
    return {
        "min_informative": float(np.min(informative)),
        "max_redundant_abs": float(np.max(np.abs(redundant))) if redundant.size else 0.0,
    }


# --- channel selection --------------------------------------------------------


def _selection_trial(cfg: ExperimentConfig, stream: int, k: int) -> dict:
    _, dataset, Q = _trial_inputs(cfg, stream, 0, k, cfg.scalar("n"))
    rec = {"trial": k}
    try:
        result = select_channels(dataset, Q, cfg.L, cfg.epsilon0)
        rec.update(
            ok=True,
            ell_hat=result.ell_hat,
            mask=[bool(v) for v in result.mask],
            tau_raw=[float(v) for v in result.tau_raw],
            success=bool(result.ell_hat == cfg.ell0),
        )
        tau_raw = result.tau_raw
    except EmptySelectionError as exc:
        rec.update(
            ok=False,
            failure="empty_selection",
            tau_raw=[float(v) for v in exc.tau_raw],
            success=False,
        )
        tau_raw = exc.tau_raw
    rec.update(_channel_split(tau_raw, cfg.ell0))
    rec["gap"] = rec["min_informative"] - rec["max_redundant_abs"]
    return rec


def _selection_aggregates(records: list) -> dict:
    taus = np.array([r["tau_raw"] for r in records])
    return {
        "num_trials": len(records),
        "num_failed": sum(1 for r in records if not r["ok"]),
        "success_rate": float(np.mean([r["success"] for r in records])),
        "gap_positive_rate": float(np.mean([r["gap"] > 0 for r in records])),
        "tau_raw_mean": [float(v) for v in taus.mean(axis=0)],
        "tau_raw_min": [float(v) for v in taus.min(axis=0)],
        "tau_raw_max": [float(v) for v in taus.max(axis=0)],
    }


def run_channel_selection_trials(config: ExperimentConfig) -> RunReport:
    """Repeat stage one over independent trials and report recovery statistics."""
    if config.epsilon0 is None:
        raise ConfigError("channel-selection trials need epsilon0 (see calibrate-eps0)")
    return _report(
        "channel_selection",
        config,
        lambda k: _selection_trial(config, STREAM_SELECT, k),
        list(range(config.num_seeds)),
        _selection_aggregates,
        "channel selection failed in every trial",
    )


def _calibration_trial(cfg: ExperimentConfig, k: int) -> dict:
    _, dataset, Q = _trial_inputs(cfg, STREAM_CALIBRATE, 0, k, cfg.scalar("n"))
    _, tau_raw = one_step_updates(dataset, Q, cfg.L)
    rec = {"trial": k, "tau_raw": [float(v) for v in tau_raw]}
    rec.update(_channel_split(tau_raw, cfg.ell0))
    return rec


def calibrate_epsilon0(config: ExperimentConfig) -> RunReport:
    """Measure the informative/redundant gap on a held-out seed stream.

    Reports per-trial min informative and max redundant raw weights and a
    recommended epsilon0 placing the threshold 2*epsilon0 halfway across the
    mean gap.  Runs on a stream disjoint from run_channel_selection_trials
    so the calibration never sees the evaluation trials.
    """

    def aggregate(records):
        mean_min_inf = float(np.mean([r["min_informative"] for r in records]))
        mean_max_red = float(np.mean([r["max_redundant_abs"] for r in records]))
        usable = mean_min_inf > mean_max_red
        return {
            "mean_min_informative": mean_min_inf,
            "mean_max_redundant_abs": mean_max_red,
            "mean_gap": mean_min_inf - mean_max_red,
            "gap_positive_rate": float(
                np.mean([r["min_informative"] > r["max_redundant_abs"] for r in records])
            ),
            "recommended_epsilon0": (mean_min_inf + mean_max_red) / 4.0 if usable else None,
        }

    return _report(
        "calibrate_epsilon0",
        config,
        lambda k: _calibration_trial(config, k),
        list(range(config.num_seeds)),
        aggregate,
    )


# --- stage-two training and risk ----------------------------------------------

ENVELOPE_FIT_STEP = 10
KERNEL_GAP_PAIRS = 64


def _kernel_gap(X_a, X_b, Q, tau, d: int, gram=None) -> float:
    """Max |empirical - population| kernel deviation over paired points.

    The empirical kernel's mean over the directions is
    sum_k tau_k^2 / N(d, k) P_k (Funk-Hecke), so channels that tau drops,
    gapped or not, are compared with 0.  gram, when given, is stage two's
    middle matrix for these Q and tau, handed to _paired_kernel.
    """
    k_hat = _paired_kernel(X_a, X_b, Q, tau, gram)
    tau = np.asarray(tau, dtype=float)
    weights = tau**2 / _dims(d, tau.size - 1)
    k_pop = gegenbauer_weighted_sum(np.sum(X_a * X_b, axis=1), d, weights)
    return float(np.max(np.abs(k_hat - k_pop)))


def _training_trial(cfg: ExperimentConfig, stream: int, g: int, k: int, n: int) -> dict:
    target, dataset, Q = _trial_inputs(cfg, stream, g, k, n)
    rec = {"trial": k, "n": n, "m": cfg.scalar("m")}
    try:
        if cfg.channels == "select":
            if cfg.epsilon0 is None:
                raise ConfigError("channels = select needs epsilon0")
            selection = select_channels(dataset, Q, cfg.L, cfg.epsilon0)
            tau, ell_hat = selection.tau_final, selection.ell_hat
        else:
            tau, ell_hat = oracle_weights(cfg.d, cfg.ell0), cfg.ell0
        T = cfg.steps_for(n)
        state, trace = train(dataset, Q, tau, cfg.eta, T)
        risk, stderr = mc_risk(
            lambda X: predict(state.a, X, Q, tau),
            target,
            cfg.num_mc_samples,
            derive_seed(cfg.base_seed, stream, g, k, SUB_MC),
        )
        clean = np.asarray(trace.clean_loss)
        rec.update(
            ok=True,
            ell_hat=int(ell_hat),
            T=T,
            final_train_mse=float(trace.loss[-1]),
            final_loss=float(clean[-1]),
            risk=float(risk),
            risk_stderr=float(stderr),
        )
        # envelope: does C/(eta*t), pinned at the fit step, dominate the
        # clean empirical loss over the rest of the trace?
        if T >= ENVELOPE_FIT_STEP:
            C = cfg.eta * ENVELOPE_FIT_STEP * float(clean[ENVELOPE_FIT_STEP])
            ts = np.arange(ENVELOPE_FIT_STEP, T + 1)
            bound = C / (cfg.eta * ts)
            rec["envelope_C"] = C
            rec["envelope_ok"] = bool(np.all(clean[ts] <= bound * (1.0 + 1e-9)))
        else:
            rec["envelope_C"] = None
            rec["envelope_ok"] = None
        # kernel concentration sanity: deviation on held-out pairs should sit
        # well below the risk being measured (gap^2 <= risk / 10 heuristic)
        pairs = sample_sphere(2 * KERNEL_GAP_PAIRS, cfg.d,
                              derive_seed(cfg.base_seed, stream, g, k, SUB_PAIRS))
        gram = None if trace.factors is None else trace.factors.M
        gap = _kernel_gap(pairs[:KERNEL_GAP_PAIRS], pairs[KERNEL_GAP_PAIRS:], Q, tau, cfg.d, gram)
        rec["kernel_gap"] = gap
        rec["kernel_gap_ok"] = bool(gap * gap <= 0.1 * max(risk, 1e-300))
    except (EmptySelectionError, DivergenceError) as exc:
        rec.update(ok=False, failure=type(exc).__name__, message=str(exc))
    return rec


def _training_aggregates(records: list) -> dict:
    """The aggregates shared by training runs and risk sweeps."""
    good = [r for r in records if r["ok"]]
    envelope = [r["envelope_ok"] for r in good if r["envelope_ok"] is not None]
    return {
        "num_trials": len(records),
        "num_failed": len(records) - len(good),
        "envelope_rate": float(np.mean(envelope)) if envelope else None,
        "kernel_gap_ok_rate": float(np.mean([r["kernel_gap_ok"] for r in good])),
    }


def run_training_run(config: ExperimentConfig) -> RunReport:
    """Train at a single (n, m) over independent seeds; report loss and risk."""
    n = config.scalar("n")

    def aggregate(records):
        good = [r for r in records if r["ok"]]
        return {
            **_training_aggregates(records),
            "median_final_loss": float(statistics.median(r["final_loss"] for r in good)),
            "median_risk": float(statistics.median(r["risk"] for r in good)),
        }

    return _report(
        "training_run",
        config,
        lambda k: _training_trial(config, STREAM_TRAIN, 0, k, n),
        list(range(config.num_seeds)),
        aggregate,
        "training failed in every trial",
    )


def run_risk_sweep(config: ExperimentConfig) -> RunReport:
    """Risk versus sample size on an n grid; fits the log-log slope."""
    n_grid = config.grid("n", min_points=4)
    if max(n_grid) < 10 * min(n_grid):
        raise ConfigError(f"n grid must span at least one decade, got {n_grid}")

    def aggregate(records):
        medians = []
        for n in n_grid:
            risks = [r["risk"] for r in records if r["ok"] and r["n"] == n]
            medians.append(float(statistics.median(risks)) if risks else None)
        fit_n = [n for n, md in zip(n_grid, medians) if md is not None and md > 0]
        fit_r = [md for md in medians if md is not None and md > 0]
        slope, stderr = (
            _fit_loglog_slope(fit_n, fit_r) if len(fit_r) >= 2 else (float("nan"), float("nan"))
        )
        return {
            **_training_aggregates(records),
            "n_grid": n_grid,
            "median_risk_per_n": medians,
            "slope": slope,
            "slope_stderr": stderr,
        }

    return _report(
        "risk_sweep",
        config,
        lambda gk: _training_trial(config, STREAM_RISK, gk[0], gk[1], n_grid[gk[0]]),
        [(g, k) for g in range(len(n_grid)) for k in range(config.num_seeds)],
        aggregate,
        "training failed in every trial of the sweep",
    )


# --- kernel concentration -------------------------------------------------------

KERNEL_CONV_PAIRS = 200
PAIR_STREAM_TAG = 255


def run_kernel_convergence(config: ExperimentConfig) -> RunReport:
    """Sup deviation between empirical and population kernels versus width m.

    Uses one fixed set of random point pairs for the whole run, redraws the
    random directions per (m, seed), and fits the log-log slope of the
    median sup deviation against m.
    """
    m_grid = config.grid("m", min_points=3)
    ell_hat = config.ell0
    tau = oracle_weights(config.d, ell_hat)
    pair_seq = derive_seed(config.base_seed, STREAM_KERNEL, PAIR_STREAM_TAG)
    pairs = sample_sphere(2 * KERNEL_CONV_PAIRS, config.d, pair_seq)
    X_a, X_b = pairs[:KERNEL_CONV_PAIRS], pairs[KERNEL_CONV_PAIRS:]

    def trial(gk):
        g, k = gk
        m = m_grid[g]
        q_seq = derive_seed(config.base_seed, STREAM_KERNEL, g, k)
        Q = sample_sphere(m, config.d, q_seq)
        gap = _kernel_gap(X_a, X_b, Q, tau, config.d)
        return {"trial": k, "m": m, "ok": True, "sup_error": gap}

    def aggregate(records):
        medians = [
            float(statistics.median(r["sup_error"] for r in records if r["m"] == m))
            for m in m_grid
        ]
        slope, stderr = _fit_loglog_slope(m_grid, medians)
        return {
            "num_trials": len(records),
            "num_failed": 0,
            "m_grid": m_grid,
            "median_sup_error_per_m": medians,
            "slope": slope,
            "slope_stderr": stderr,
        }

    keys = [(g, k) for g in range(len(m_grid)) for k in range(config.num_seeds)]
    return _report("kernel_convergence", config, trial, keys, aggregate)


# --- output ---------------------------------------------------------------------


def emit_report(report: RunReport, path, format: str = "json") -> None:
    """Write a report as canonical JSON or a flat per-seed CSV table.

    Serialization is deterministic: keys are sorted, floats use shortest
    round-trip repr, and no wall-clock or timestamp ever enters the file, so
    identical configs and seeds give byte-identical files.
    """
    if format == "json":
        payload = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
        with open(path, "w") as fh:
            fh.write(payload)
            fh.write("\n")
        return
    if format == "csv":
        keys: list = []
        for rec in report.per_seed:
            for key in rec:
                if key not in keys:
                    keys.append(key)
        keys.sort(key=lambda k: (k != "trial", k))
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(keys)
            for rec in report.per_seed:
                row = []
                for key in keys:
                    val = rec.get(key, "")
                    if val is None:
                        val = ""
                    elif isinstance(val, (list, dict, bool)):
                        val = json.dumps(val, sort_keys=True)
                    elif isinstance(val, float):
                        val = repr(val)
                    row.append(val)
                writer.writerow(row)
        return
    raise ConfigError(f"unknown output format {format!r}")
