"""Experiment runners: channel-selection trials, training runs, sweeps.

Seed discipline: trial k of grid point g in stream s draws from
numpy's SeedSequence(base_seed, spawn_key=(s, g, k)), with one stream id per
experiment kind.  The derivation is counter-based, so enlarging num_seeds or
appending grid points never changes earlier trials, and trials can run in
any order or in parallel with identical results.  Reports echo their full
config; feeding the echo back reproduces the report byte for byte (wall
clock is kept out of the serialized form for that reason).
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
from .harmonics import gegenbauer_weighted_sum, sample_sphere
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
# Sub-stream ids within a trial.
SUB_TARGET, SUB_DATA, SUB_DIRECTIONS, SUB_MC = 0, 1, 2, 3


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


def _jsonable(obj):
    if isinstance(obj, float):
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    return obj


def _run_trials(worker, keys: list, threads: int) -> list:
    """Run worker(key) for every key; output order follows `keys` regardless
    of scheduling."""
    if threads <= 1:
        return [worker(k) for k in keys]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, keys))


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
    """Seeds, target, n-sample dataset and m directions of trial (stream, g, k)."""
    kids = derive_seed(cfg.base_seed, stream, g, k).spawn(4)
    target = make_target(cfg.d, cfg.ell0, cfg.coeffs, kids[SUB_TARGET])
    dataset = gen_dataset(target, n, cfg.sigma0, kids[SUB_DATA])
    Q = sample_sphere(cfg.scalar("m"), cfg.d, kids[SUB_DIRECTIONS])
    return kids, target, dataset, Q


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
    _, _, dataset, Q = _trial_inputs(cfg, stream, 0, k, cfg.scalar("n"))
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


def _selection_aggregates(cfg: ExperimentConfig, records: list) -> dict:
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
    t0 = time.perf_counter()
    records = _run_trials(
        lambda k: _selection_trial(config, STREAM_SELECT, k),
        list(range(config.num_seeds)),
        config.threads,
    )
    if all(not r["ok"] for r in records):
        raise AllSeedsFailedError("channel selection failed in every trial")
    return RunReport(
        kind="channel_selection",
        config=config.echo(),
        per_seed=_jsonable(records),
        aggregates=_selection_aggregates(config, records),
        wall_clock_seconds=time.perf_counter() - t0,
    )


def _calibration_trial(cfg: ExperimentConfig, k: int) -> dict:
    _, _, dataset, Q = _trial_inputs(cfg, STREAM_CALIBRATE, 0, k, cfg.scalar("n"))
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
    t0 = time.perf_counter()
    records = _run_trials(
        lambda k: _calibration_trial(config, k), list(range(config.num_seeds)), config.threads
    )
    mean_min_inf = float(np.mean([r["min_informative"] for r in records]))
    mean_max_red = float(np.mean([r["max_redundant_abs"] for r in records]))
    usable = mean_min_inf > mean_max_red
    recommended = (mean_min_inf + mean_max_red) / 4.0 if usable else None
    aggregates = {
        "mean_min_informative": mean_min_inf,
        "mean_max_redundant_abs": mean_max_red,
        "mean_gap": mean_min_inf - mean_max_red,
        "gap_positive_rate": float(
            np.mean([r["min_informative"] > r["max_redundant_abs"] for r in records])
        ),
        "recommended_epsilon0": recommended,
    }
    return RunReport(
        kind="calibrate_epsilon0",
        config=config.echo(),
        per_seed=_jsonable(records),
        aggregates=aggregates,
        wall_clock_seconds=time.perf_counter() - t0,
    )


# --- stage-two training and risk ----------------------------------------------

ENVELOPE_FIT_STEP = 10
KERNEL_GAP_PAIRS = 64


def _kernel_gap(X_a, X_b, Q, tau, ell_hat: int, d: int) -> float:
    """Max |empirical - population| kernel deviation over paired points."""
    dots_q_a = gegenbauer_weighted_sum(X_a @ Q.T, d, tau)
    dots_q_b = gegenbauer_weighted_sum(X_b @ Q.T, d, tau)
    k_hat = np.sum(dots_q_a * dots_q_b, axis=1) / Q.shape[0]
    k_pop = gegenbauer_weighted_sum(
        np.sum(X_a * X_b, axis=1), d, np.ones(ell_hat + 1)
    )
    return float(np.max(np.abs(k_hat - k_pop)))


def _training_trial(cfg: ExperimentConfig, stream: int, g: int, k: int, n: int) -> dict:
    kids, target, dataset, Q = _trial_inputs(cfg, stream, g, k, n)
    rec = {"trial": k, "n": n, "m": cfg.scalar("m")}
    try:
        if cfg.channels == "select":
            if cfg.epsilon0 is None:
                raise ConfigError("channels = select needs epsilon0")
            selection = select_channels(dataset, Q, cfg.L, cfg.epsilon0)
            tau, ell_hat = selection.tau_final, selection.ell_hat
        else:
            tau, ell_hat = oracle_weights(cfg.d, cfg.ell0, cfg.L), cfg.ell0
        T = cfg.steps_for(n)
        state, trace = train(dataset, Q, tau, cfg.eta, T, lowrank=cfg.lowrank)
        risk, stderr = mc_risk(
            lambda X: predict(state.a, X, Q, tau),
            target,
            cfg.num_mc_samples,
            kids[SUB_MC],
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
        pair_seq = derive_seed(cfg.base_seed, stream, g, k, 7)
        pairs = sample_sphere(2 * KERNEL_GAP_PAIRS, cfg.d, pair_seq)
        gap = _kernel_gap(
            pairs[:KERNEL_GAP_PAIRS], pairs[KERNEL_GAP_PAIRS:], Q, tau, ell_hat, cfg.d
        )
        rec["kernel_gap"] = gap
        rec["kernel_gap_ok"] = bool(gap * gap <= 0.1 * max(risk, 1e-300))
    except (EmptySelectionError, DivergenceError) as exc:
        rec.update(ok=False, failure=type(exc).__name__, message=str(exc))
    return rec


def run_training_run(config: ExperimentConfig) -> RunReport:
    """Train at a single (n, m) over independent seeds; report loss and risk."""
    t0 = time.perf_counter()
    n = config.scalar("n")
    records = _run_trials(
        lambda k: _training_trial(config, STREAM_TRAIN, 0, k, n),
        list(range(config.num_seeds)),
        config.threads,
    )
    good = [r for r in records if r["ok"]]
    if not good:
        raise AllSeedsFailedError("training failed in every trial")
    envelope = [r["envelope_ok"] for r in good if r["envelope_ok"] is not None]
    aggregates = {
        "num_trials": len(records),
        "num_failed": len(records) - len(good),
        "median_final_loss": float(statistics.median(r["final_loss"] for r in good)),
        "median_risk": float(statistics.median(r["risk"] for r in good)),
        "envelope_rate": float(np.mean(envelope)) if envelope else None,
        "kernel_gap_ok_rate": float(np.mean([r["kernel_gap_ok"] for r in good])),
    }
    return RunReport(
        kind="training_run",
        config=config.echo(),
        per_seed=_jsonable(records),
        aggregates=aggregates,
        wall_clock_seconds=time.perf_counter() - t0,
    )


def run_risk_sweep(config: ExperimentConfig) -> RunReport:
    """Risk versus sample size on an n grid; fits the log-log slope."""
    t0 = time.perf_counter()
    n_grid = config.grid("n", min_points=4)
    if max(n_grid) < 10 * min(n_grid):
        raise ConfigError(f"n grid must span at least one decade, got {n_grid}")
    keys = [(g, k) for g in range(len(n_grid)) for k in range(config.num_seeds)]
    records = _run_trials(
        lambda gk: _training_trial(config, STREAM_RISK, gk[0], gk[1], n_grid[gk[0]]),
        keys,
        config.threads,
    )
    good = [r for r in records if r["ok"]]
    if not good:
        raise AllSeedsFailedError("training failed in every trial of the sweep")
    medians = []
    for n in n_grid:
        risks = [r["risk"] for r in good if r["n"] == n]
        medians.append(float(statistics.median(risks)) if risks else None)
    fit_n = [n for n, md in zip(n_grid, medians) if md is not None and md > 0]
    fit_r = [md for md in medians if md is not None and md > 0]
    slope, stderr = (
        _fit_loglog_slope(fit_n, fit_r) if len(fit_r) >= 2 else (float("nan"), float("nan"))
    )
    envelope = [r["envelope_ok"] for r in good if r["envelope_ok"] is not None]
    aggregates = {
        "num_trials": len(records),
        "num_failed": len(records) - len(good),
        "n_grid": n_grid,
        "median_risk_per_n": medians,
        "slope": slope,
        "slope_stderr": stderr,
        "envelope_rate": float(np.mean(envelope)) if envelope else None,
        "kernel_gap_ok_rate": float(np.mean([r["kernel_gap_ok"] for r in good])),
    }
    return RunReport(
        kind="risk_sweep",
        config=config.echo(),
        per_seed=_jsonable(records),
        aggregates=aggregates,
        wall_clock_seconds=time.perf_counter() - t0,
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
    t0 = time.perf_counter()
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
        gap = _kernel_gap(X_a, X_b, Q, tau, ell_hat, config.d)
        return {"trial": k, "m": m, "ok": True, "sup_error": gap}

    keys = [(g, k) for g in range(len(m_grid)) for k in range(config.num_seeds)]
    records = _run_trials(trial, keys, config.threads)
    medians = [
        float(statistics.median(r["sup_error"] for r in records if r["m"] == m))
        for m in m_grid
    ]
    slope, stderr = _fit_loglog_slope(m_grid, medians)
    aggregates = {
        "num_trials": len(records),
        "num_failed": 0,
        "m_grid": m_grid,
        "median_sup_error_per_m": medians,
        "slope": slope,
        "slope_stderr": stderr,
    }
    return RunReport(
        kind="kernel_convergence",
        config=config.echo(),
        per_seed=_jsonable(records),
        aggregates=aggregates,
        wall_clock_seconds=time.perf_counter() - t0,
    )


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
