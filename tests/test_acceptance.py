"""End-to-end acceptance criteria at their stated scales and tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criterion 5 exercises the pinned channel-selection regime as
stated; see the line it prints for the measured rates.
"""

import json
import time

import numpy as np
import pytest

import d2_explicit
from test_training import force_path
from sphattn import (
    critical_radius,
    empirical_gram,
    feature_matrix,
    gegenbauer_all,
    gen_dataset,
    gram_spectrum,
    make_target,
    normalized_gram,
    one_step_channel_weights,
    one_step_second_layer,
    oracle_weights,
    population_gram,
    population_spectrum,
    sample_sphere,
    train,
)
from sphattn.cli import main
from sphattn.config import ExperimentConfig
from sphattn.experiments import (
    calibrate_epsilon0,
    run_channel_selection_trials,
    run_risk_sweep,
)


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"\nACCEPTANCE {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}", flush=True)
    return ok


def test_criterion_01_polynomial_exactness():
    t0 = time.perf_counter()
    grid = np.linspace(-1, 1, 1000)
    vals3 = gegenbauer_all(grid, 3, 4)
    legendre = [
        np.ones_like(grid),
        grid,
        (3 * grid**2 - 1) / 2,
        (5 * grid**3 - 3 * grid) / 2,
        (35 * grid**4 - 30 * grid**2 + 3) / 8,
    ]
    err3 = max(np.max(np.abs(vals3[k] - legendre[k])) for k in range(5))
    theta = np.arccos(grid)
    vals2 = gegenbauer_all(grid, 2, 10)
    err2 = max(np.max(np.abs(vals2[k] - np.cos(k * theta))) for k in range(11))
    rng = np.random.default_rng(0)
    bounded = all(
        np.max(np.abs(gegenbauer_all(rng.uniform(-1, 1, 10_000), d, 12))) <= 1 + 1e-12
        for d in (2, 3, 5, 8)
    )
    dt = time.perf_counter() - t0
    ok = err3 <= 1e-12 and err2 <= 1e-12 and bounded and dt < 1.0
    assert _report(
        1, ok, f"polynomial exactness: legendre err {err3:.2e}, chebyshev err {err2:.2e}, "
        f"bounded {bounded}, {dt:.2f}s"
    )


def test_criterion_02_addition_theorem_equivalence():
    t0 = time.perf_counter()
    n = m = 200
    L, ell_hat = 4, 3
    target = make_target(2, 1, [1.0, 1.0], 2025)
    ds = gen_dataset(target, n, 0.3, 2026)
    Q = sample_sphere(m, 2, 2027)
    tau = oracle_weights(2, ell_hat)

    def rel(a, b):
        return np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b)

    errs = [
        rel(population_gram(ds.S, Q, ell_hat), d2_explicit.population_gram_explicit(ds.S, Q, ell_hat)),
        rel(empirical_gram(ds.S, None, Q, tau), d2_explicit.empirical_gram_explicit(ds.S, ds.S, Q, tau)),
    ]
    a1 = one_step_second_layer(ds, Q, L)
    tau_raw = one_step_channel_weights(ds, Q, a1, L)
    a1_ref, tau_ref = d2_explicit.one_step_explicit(ds.S, ds.y, Q, L)
    errs += [rel(a1, a1_ref), rel(tau_raw, tau_ref)]
    dt = time.perf_counter() - t0
    ok = max(errs) <= 1e-10 and dt < 10.0
    assert _report(2, ok, f"addition-theorem equivalence: max rel err {max(errs):.2e}, {dt:.2f}s")


def test_criterion_03_exact_gd_dynamics(monkeypatch):
    t0 = time.perf_counter()
    n, m, d, eta, T = 200, 2000, 4, 0.1, 200
    target = make_target(d, 2, [1.0, 1.0, 1.0], 3001)
    ds = gen_dataset(target, n, 0.3, 3002)
    Q = sample_sphere(m, d, 3003)
    tau = oracle_weights(d, 2)
    force_path(monkeypatch, False)  # the m x n loop, checked against K_n
    state, trace = train(ds, Q, tau, eta, T)
    K_n = normalized_gram(empirical_gram(ds.S, None, Q, tau), n)
    norm_y = np.linalg.norm(ds.y)
    u = -ds.y.copy()
    worst = 0.0
    for t in range(T + 1):
        worst = max(worst, abs(np.linalg.norm(u) - trace.residual_norm[t]) / norm_y)
        u = u - eta * (K_n @ u)
    # also compare the full final residual vector, not only its norm
    yhat = feature_matrix(ds.S, Q, tau).T @ state.a
    from sphattn import closed_form_residual

    final_err = np.linalg.norm((yhat - ds.y) - closed_form_residual(K_n, ds.y, eta, T)) / norm_y
    dt = time.perf_counter() - t0
    ok = worst <= 1e-8 and final_err <= 1e-8 and dt < 30.0
    assert _report(
        3, ok, f"exact GD dynamics: worst per-step err {worst:.2e}, final vector err "
        f"{final_err:.2e}, {dt:.2f}s"
    )


def test_criterion_04_finite_rank_spectrum():
    t0 = time.perf_counter()
    n = 300
    X = sample_sphere(n, 3, 4001)
    vals = gram_spectrum(normalized_gram(population_gram(X, None, 2), n))
    above = int(np.sum(vals > 1e-6 * vals[0]))
    dt = time.perf_counter() - t0
    ok = above <= 9 and dt < 5.0
    assert _report(4, ok, f"finite-rank spectrum: {above} eigenvalues above cutoff (rank 9), {dt:.2f}s")


def test_criterion_05_channel_selection_recovery():
    """Pinned regime: d=8, ell0=2, L=4, c=[1,1,1], sigma0=0.1, n=m=4000,
    20 seeds, threshold calibrated on a held-out seed stream."""
    t0 = time.perf_counter()
    base = {
        "d": 8,
        "ell0": 2,
        "L": 4,
        "coeffs": [1.0, 1.0, 1.0],
        "sigma0": 0.1,
        "n": 4000,
        "m": 4000,
        "base_seed": 0,
    }
    cal = calibrate_epsilon0(ExperimentConfig.from_sources({**base, "num_seeds": 8}, {}))
    eps0 = cal.aggregates["recommended_epsilon0"]
    if eps0 is None:
        # no separating threshold exists; fall back to one that at least
        # retains the informative channels
        eps0 = cal.aggregates["mean_min_informative"] / 4.0
    report = run_channel_selection_trials(
        ExperimentConfig.from_sources({**base, "num_seeds": 20, "epsilon0": eps0}, {})
    )
    succ = report.aggregates["success_rate"]
    gap = report.aggregates["gap_positive_rate"]
    dt = time.perf_counter() - t0
    ok = succ >= 0.9 and gap >= 0.9 and dt < 300.0
    assert _report(
        5, ok, f"channel-selection recovery: success rate {succ:.2f}, positive-gap rate "
        f"{gap:.2f}, eps0 {eps0:.4g}, {dt:.0f}s"
    )


@pytest.fixture(scope="module")
def risk_sweep_report():
    cfg = ExperimentConfig.from_sources(
        {
            "d": 6,
            "ell0": 1,
            "coeffs": [1.0, 4.0],
            "sigma0": 0.5,
            "m": 8000,
            "n": [500, 1000, 2000, 4000, 8000],
            "eta": 0.8,
            "T": "auto",
            "num_seeds": 10,
            "num_mc_samples": 20000,
            "base_seed": 0,
        },
        {},
    )
    t0 = time.perf_counter()
    report = run_risk_sweep(cfg)
    report.wall_clock_seconds = time.perf_counter() - t0
    return report


def test_criterion_06_risk_rate(risk_sweep_report):
    agg = risk_sweep_report.aggregates
    dt = risk_sweep_report.wall_clock_seconds
    ok = -1.25 <= agg["slope"] <= -0.75 and dt < 900.0
    assert _report(
        6, ok, f"risk rate: slope {agg['slope']:.3f} +/- {agg['slope_stderr']:.3f}, medians "
        f"{['%.2e' % v for v in agg['median_risk_per_n']]}, {dt:.0f}s"
    )


def test_criterion_07_training_loss_envelope(risk_sweep_report):
    # per seed: the envelope pinned at step 10 must hold for every n in its grid
    by_trial = {}
    for rec in risk_sweep_report.per_seed:
        if rec["ok"] and rec["envelope_ok"] is not None:
            by_trial.setdefault(rec["trial"], []).append(rec["envelope_ok"])
    rate = float(np.mean([all(v) for v in by_trial.values()]))
    ok = rate >= 0.9
    assert _report(7, ok, f"training-loss envelope: per-seed rate {rate:.2f} (folded into criterion 6)")


def test_criterion_08_kernel_concentration():
    t0 = time.perf_counter()
    from sphattn.experiments import run_kernel_convergence

    cfg = ExperimentConfig.from_sources(
        {"d": 4, "ell0": 2, "m": [1000, 4000, 16000], "n": 10, "num_seeds": 10, "base_seed": 0},
        {},
    )
    report = run_kernel_convergence(cfg)
    slope = report.aggregates["slope"]
    dt = time.perf_counter() - t0
    ok = -0.65 <= slope <= -0.35 and dt < 300.0
    assert _report(8, ok, f"kernel concentration: slope {slope:.3f}, {dt:.0f}s")


def test_criterion_09_critical_radius_closed_form():
    t0 = time.perf_counter()
    eps = critical_radius(population_spectrum(3, 2, 900), 1.0)
    err = abs(eps**2 - 0.01)
    dt = time.perf_counter() - t0
    ok = err <= 1e-10 and dt < 1.0
    assert _report(9, ok, f"critical radius closed form: |eps^2 - 0.01| = {err:.2e}, {dt:.2f}s")


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    select_cfg = {
        "d": 4, "ell0": 0, "L": 2, "n": 300, "m": 300,
        "sigma0": 0.0, "epsilon0": 0.25, "num_seeds": 3, "base_seed": 11,
    }
    train_cfg = {
        "d": 3, "ell0": 1, "n": 120, "m": 240, "eta": 0.5, "sigma0": 0.2,
        "num_seeds": 2, "num_mc_samples": 1000, "base_seed": 12,
    }
    sweep_cfg = {**train_cfg, "n": [30, 60, 120, 300], "num_seeds": 2}
    kconv_cfg = {"d": 3, "ell0": 1, "m": [50, 100, 200], "n": 5, "num_seeds": 2, "base_seed": 13}
    curve_cfg = {"d": 3, "ell0": 2, "n": 400, "sigma0": 1.0, "base_seed": 14}
    jobs = [
        ("select", select_cfg, "json"),
        ("select", select_cfg, "csv"),
        ("train", train_cfg, "json"),
        ("risk-sweep", sweep_cfg, "json"),
        ("kernel-conv", kconv_cfg, "json"),
        ("calibrate-eps0", select_cfg, "json"),
        ("complexity-curve", curve_cfg, "csv"),
    ]
    identical = True
    for i, (cmd, cfg, fmt) in enumerate(jobs):
        cfg_path = tmp_path / f"cfg{i}.json"
        cfg_path.write_text(json.dumps(cfg))
        outs = []
        for run in range(2):
            out = tmp_path / f"out{i}_{run}.{fmt}"
            code = main(
                [cmd, "--config", str(cfg_path), "--format", fmt, "--out", str(out)]
            )
            assert code == 0, (cmd, code)
            outs.append(out.read_bytes())
        if outs[0] != outs[1]:
            identical = False
            print(f"  non-identical output for {cmd} ({fmt})")
    dt = time.perf_counter() - t0
    ok = identical and dt < 120.0
    assert _report(10, ok, f"CLI determinism: all subcommands byte-identical {identical}, {dt:.0f}s")
