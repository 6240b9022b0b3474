"""Command-line entry point.

Subcommands: select, train, risk-sweep, kernel-conv, calibrate-eps0,
complexity-curve.  Every config key is settable from a config file
(--config, flat key-value or JSON) and from the command line, with the
command line winning.  The flags are generated from the config's fields
(underscores become dashes, --seed sets base_seed) and their values parse
as in a flat config file.  Exit codes: 0 success, 2 configuration error,
3 numerical failure in every seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .complexity import (
    critical_radius,
    empirical_spectrum_from_points,
    kernel_complexity,
    population_spectrum,
)
from .config import ConfigError, ExperimentConfig, _parse_value, parse_config_file
from .experiments import (
    AllSeedsFailedError,
    RunReport,
    calibrate_epsilon0,
    derive_seed,
    emit_report,
    run_channel_selection_trials,
    run_kernel_convergence,
    run_risk_sweep,
    run_training_run,
)
from .harmonics import cumulative_dim, harmonic_dim, sample_sphere

# empirical_spectrum, population_complexity, normalized_gram and population_gram
# are not called here; the names stay bound because perfbench/tracer.py wraps
# them in this module.
from .complexity import empirical_spectrum, population_complexity  # noqa: F401
from .kernels import normalized_gram, population_gram  # noqa: F401

STREAM_COMPLEXITY = 4


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="config file (flat key=value or JSON)")
    for name in ExperimentConfig.field_names():
        flag = "--seed" if name == "base_seed" else "--" + name.replace("_", "-")
        sub.add_argument(flag, dest=name, help=f"sets config key {name}")


def _overrides(args: argparse.Namespace) -> dict:
    """Flag values parsed as in a flat config file; --out stays a path string."""
    return {
        key: val if key == "out" else _parse_value(val)
        for key in ExperimentConfig.field_names()
        if (val := getattr(args, key)) is not None
    }


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    return ExperimentConfig.from_sources(file_values, _overrides(args))


def _complexity_curve(config: ExperimentConfig) -> tuple[RunReport, list]:
    """Complexity curves plus both critical radii for (d, ell_hat=ell0, n)."""
    n = config.scalar("n")
    d, ell_hat = config.d, config.ell0
    if config.sigma0 <= 0:
        raise ConfigError("complexity-curve needs sigma0 > 0")
    X = sample_sphere(n, d, derive_seed(config.base_seed, STREAM_COMPLEXITY, 0, 0))
    emp = empirical_spectrum_from_points(X, ell_hat)
    pop = population_spectrum(d, ell_hat, n)
    lam_min_pos = 1.0 / harmonic_dim(d, ell_hat)
    eps_grid = np.geomspace(np.sqrt(lam_min_pos) / 100.0, np.sqrt(float(ell_hat + 1)) * 10.0, 50)
    rows = [(float(e), kernel_complexity(emp, float(e)), kernel_complexity(pop, float(e)))
            for e in eps_grid]
    radius_emp = critical_radius(emp, config.sigma0)
    radius_pop = critical_radius(pop, config.sigma0)
    report = RunReport(
        kind="complexity_curve",
        config=config.echo(),
        per_seed=[],
        aggregates={
            "empirical_critical_radius_sq": radius_emp**2,
            "population_critical_radius_sq": radius_pop**2,
            "rank": cumulative_dim(d, ell_hat),
        },
    )
    return report, rows


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sphattn",
        description="Channel-attention kernel experiments on the unit sphere",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, hlp in [
        ("select", "channel-selection recovery trials"),
        ("train", "single training run with loss trace and Monte Carlo risk"),
        ("risk-sweep", "risk versus sample size on an n grid"),
        ("kernel-conv", "empirical-kernel concentration versus width"),
        ("calibrate-eps0", "measure the raw-weight gap and suggest epsilon0"),
        ("complexity-curve", "complexity curves and critical radii"),
    ]:
        _add_common(subs.add_parser(name, help=hlp))
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        config = _build_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "select":
            report = run_channel_selection_trials(config)
        elif args.command == "train":
            report = run_training_run(config)
        elif args.command == "risk-sweep":
            report = run_risk_sweep(config)
        elif args.command == "kernel-conv":
            report = run_kernel_convergence(config)
        elif args.command == "calibrate-eps0":
            report = calibrate_epsilon0(config)
        else:
            report, rows = _complexity_curve(config)
            if config.out:
                from .complexity import complexity_curve_csv

                complexity_curve_csv(
                    [r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows], config.out
                )
            print(json.dumps(report.to_json_dict()["aggregates"], sort_keys=True, indent=2))
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AllSeedsFailedError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    if config.out:
        try:
            emit_report(report, config.out, config.format)
        except OSError as exc:
            print(f"cannot write {config.out!r}: {exc}", file=sys.stderr)
            return 2
    else:
        print(json.dumps(report.to_json_dict(), sort_keys=True, indent=2))
    summary = {k: v for k, v in report.aggregates.items() if not isinstance(v, list)}
    print(f"[{report.kind}] {json.dumps(summary, sort_keys=True)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
