"""The three benchmark workloads, each driven through the public sphattn API.

A workload turns a pool key (a base seed) into one timed iteration and checks
its outputs.  The pools and their reference outputs live in reference.json;
a run's seed only chooses the order in which the pool is walked, so every
input the benchmark feeds the program has a stored reference.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

from sphattn import cli, experiments
from sphattn.config import ExperimentConfig

# Outputs must match the stored reference to within RTOL times the largest
# magnitude in the compared vector (plus ATOL).  Reordered floating-point sums
# move results by ~1e-14 relative; a changed estimator moves them far more.
RTOL = 1e-8
ATOL = 1e-15

REFERENCE = Path(__file__).with_name("reference.json")


def close(values, ref) -> bool:
    values, ref = list(values), list(ref)
    if len(values) != len(ref):
        return False
    scale = max((abs(r) for r in ref), default=0.0)
    return all(
        math.isfinite(v) and abs(v - r) <= RTOL * scale + ATOL for v, r in zip(values, ref)
    )


class Workload:
    """One iteration per pool key; used as a context manager around the run."""

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def summary(self, outs: list) -> dict:
        return {}


class SelectD8(Workload):
    """Criterion-5 regime: calibrate epsilon0, then channel-selection trials."""

    # a calibration trial has no span of its own; it starts with make_target
    trial_roots = ("experiments.trial", "targets.make_target")
    base = {
        "d": 8, "ell0": 2, "L": 4, "coeffs": [1.0, 1.0, 1.0],
        "sigma0": 0.1, "n": 4000, "m": 4000, "threads": 1,
    }
    calibrate_seeds = 1
    select_seeds = 3
    pool = list(range(16))

    def warm_up(self) -> None:
        self._run({**self.base, "n": 400, "m": 400}, 0)

    def _run(self, base: dict, seed: int) -> dict:
        base = {**base, "base_seed": seed}
        cal = experiments.calibrate_epsilon0(
            ExperimentConfig.from_sources({**base, "num_seeds": self.calibrate_seeds})
        )
        # the criterion-5 rule: fall back when no separating threshold exists
        eps0 = cal.aggregates["recommended_epsilon0"]
        if eps0 is None:
            eps0 = cal.aggregates["mean_min_informative"] / 4.0
        sel = experiments.run_channel_selection_trials(
            ExperimentConfig.from_sources(
                {**base, "num_seeds": self.select_seeds, "epsilon0": eps0}
            )
        )
        return {
            "calibrate_tau_raw": [r["tau_raw"] for r in cal.per_seed],
            "select_tau_raw": [r["tau_raw"] for r in sel.per_seed],
            "select_ok": [r["ok"] for r in sel.per_seed],
            "success": [r["success"] for r in sel.per_seed],
        }

    def iteration(self, key: int) -> dict:
        return self._run(self.base, key)

    def trials(self, out: dict) -> int:
        return len(out["calibrate_tau_raw"]) + len(out["select_tau_raw"])

    def check(self, out: dict, ref: dict) -> tuple:
        """(attempted, failed): one per trial; a trial fails on error or mismatch."""
        failed = sum(
            not close(t, r) for t, r in zip(out["calibrate_tau_raw"], ref["calibrate_tau_raw"])
        )
        failed += sum(
            not (ok and close(t, r))
            for t, r, ok in zip(out["select_tau_raw"], ref["select_tau_raw"], out["select_ok"])
        )
        return self.trials(out), failed

    def reference(self, out: dict) -> dict:
        return {k: out[k] for k in ("calibrate_tau_raw", "select_tau_raw")}

    def summary(self, outs: list) -> dict:
        success = [s for out in outs for s in out["success"]]
        return {"success_rate": sum(success) / len(success), "success_base": len(success)}


class SweepD6(Workload):
    """Criterion-6 regime: the risk sweep over n with oracle channels."""

    trial_roots = ("experiments.trial",)
    base = {
        "d": 6, "ell0": 1, "coeffs": [1.0, 4.0], "sigma0": 0.5, "m": 8000,
        "n": [500, 1000, 2000, 4000, 8000], "eta": 0.8, "T": "auto",
        "num_seeds": 1, "num_mc_samples": 20000, "threads": 1,
    }
    pool = list(range(8))

    def warm_up(self) -> None:
        small = {"m": 1000, "n": [100, 200, 500, 1000], "num_mc_samples": 2000, "base_seed": 0}
        experiments.run_risk_sweep(ExperimentConfig.from_sources({**self.base, **small}))

    def iteration(self, key: int) -> dict:
        cfg = ExperimentConfig.from_sources({**self.base, "base_seed": key})
        rep = experiments.run_risk_sweep(cfg)
        recs = rep.per_seed
        return {
            "n": [r["n"] for r in recs],
            "ok": [r["ok"] for r in recs],
            "risk": [r.get("risk", math.nan) for r in recs],
            "final_loss": [r.get("final_loss", math.nan) for r in recs],
            "slope": rep.aggregates["slope"],
        }

    def trials(self, out: dict) -> int:
        return len(out["n"])

    def check(self, out: dict, ref: dict) -> tuple:
        """(attempted, failed): one per trial plus one for the fitted slope."""
        failed = sum(
            not (ok and close([risk], [r_risk]) and close([loss], [r_loss]))
            for ok, risk, loss, r_risk, r_loss in zip(
                out["ok"], out["risk"], out["final_loss"], ref["risk"], ref["final_loss"]
            )
        )
        failed += out["n"] != ref["n"]
        failed += not close([out["slope"]], [ref["slope"]])
        return self.trials(out) + 1, failed

    def reference(self, out: dict) -> dict:
        return {k: out[k] for k in ("n", "risk", "final_loss", "slope")}

    def summary(self, outs: list) -> dict:
        return {"slopes": [out["slope"] for out in outs]}


class CliSmall(Workload):
    """Criterion-10 jobs at their test sizes, each run twice through cli.main."""

    trial_roots = ("cli.main",)
    select = {"d": 4, "ell0": 0, "L": 2, "n": 300, "m": 300,
              "sigma0": 0.0, "epsilon0": 0.25, "num_seeds": 3, "base_seed": 11}
    train = {"d": 3, "ell0": 1, "n": 120, "m": 240, "eta": 0.5, "sigma0": 0.2,
             "num_seeds": 2, "num_mc_samples": 1000, "base_seed": 12}
    jobs = [
        ("select", select, "json"),
        ("select", select, "csv"),
        ("train", train, "json"),
        ("risk-sweep", {**train, "n": [30, 60, 120, 300], "num_seeds": 2}, "json"),
        ("kernel-conv", {"d": 3, "ell0": 1, "m": [50, 100, 200], "n": 5,
                         "num_seeds": 2, "base_seed": 13}, "json"),
        ("calibrate-eps0", select, "json"),
        ("complexity-curve", {"d": 3, "ell0": 2, "n": 400, "sigma0": 1.0,
                              "base_seed": 14}, "csv"),
    ]
    repeats = 2
    # the pool key is added to each job's base seed
    pool = list(range(16))

    def __enter__(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        for key in self.pool:
            for i, (_cmd, cfg, _fmt) in enumerate(self.jobs):
                cfg = {**cfg, "base_seed": cfg["base_seed"] + key}
                (self.workdir / f"cfg{key}_{i}.json").write_text(json.dumps(cfg))
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def warm_up(self) -> None:
        self.iteration(self.pool[0])

    def iteration(self, key: int) -> dict:
        codes, paths = [], []
        for i, (cmd, _cfg, fmt) in enumerate(self.jobs):
            for rep in range(self.repeats):
                out = self.workdir / f"out{i}_{rep}.{fmt}"
                argv = [cmd, "--config", str(self.workdir / f"cfg{key}_{i}.json"),
                        "--format", fmt, "--out", str(out)]
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                    codes.append(cli.main(argv))
                paths.append((out, stdout.getvalue()))
        return {"codes": codes, "outputs": paths}

    def trials(self, out: dict) -> int:
        return len(out["codes"])

    def check(self, out: dict, ref) -> tuple:
        """(attempted, failed): one per invocation; a repeat fails if its exit
        code is non-zero or its output differs in any byte from the first run."""
        failed = 0
        for j in range(0, len(out["codes"]), self.repeats):
            first = None
            for code, (path, stdout) in zip(
                out["codes"][j:j + self.repeats], out["outputs"][j:j + self.repeats]
            ):
                data = (path.read_bytes() if path.is_file() else None, stdout)
                first = data if first is None else first
                failed += code != 0 or data[0] is None or data != first
        return self.trials(out), failed

    def reference(self, out: dict) -> dict:
        # checked against its own repeat; the entry only records a clean run
        return {}


WORKLOADS = {"select-d8": SelectD8, "sweep-d6": SweepD6, "cli-small": CliSmall}
