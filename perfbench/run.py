"""Run one sphattn benchmark workload and print its metrics.

    python3 perfbench/run.py --workload select-d8 --seed 1 --seconds 30 --trace 0

Runs one workload in this process through the public sphattn API, checks its
outputs against perfbench/reference.json and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are the end-to-end ones (trials_per_s,
peak_rss_mb, setup_s); with --trace 1 they are the per-layer ones from
perfbench/tracer.py, measured on iterations that alternate untraced and
traced passes over the same inputs.  ``--workload all`` runs every workload
in its own process and prints a table.

Each run also writes perfbench/out/<workload>-seed<seed>-trace<t>.json with
the machine and provenance record, per-iteration times and the checks, and in
traced runs the spans themselves.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before NumPy loads and inherited by the set-up probes.
# With OpenBLAS's default of one thread per core, its idle worker spins: a
# sweep-d6 iteration then burns about twice its wall time in CPU for a few
# percent of speed, and on a shared host the run measures its neighbours.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("select-d8", "sweep-d6", "cli-small")

# Set-up is timed in this many fresh interpreters, spread over the run so the
# median does not rest on one moment of a machine whose speed drifts.
SETUP_REPEATS = 7
# Import NumPy and sphattn, then one BLAS call that loads and initialises the BLAS.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy as np
import sphattn
a = np.full((512, 512), 0.5)
(a @ a).sum()
print(time.perf_counter() - t0)
"""


def measure_setup(times: list, upto: int) -> None:
    """Append set-up times of fresh interpreters, in seconds, until `upto`."""
    while len(times) < upto:
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))


def _openblas():
    """(threads, config string) of the OpenBLAS that NumPy loaded, or Nones."""
    import ctypes

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and cfg is not None:
                threads.restype = ctypes.c_int
                cfg.restype = ctypes.c_char_p
                return threads(), cfg().decode()
    return None, None


def _git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, env=env,
        )
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "sphattn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads, config = _openblas()
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": threads, "config": config},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        # derived from array shapes, not measured
        "computed": ["training.feature_matrix.bytes"],
    }


def run_workload(args) -> int:
    if not (SRC / "sphattn" / "__init__.py").is_file():
        print(f"benchmark: no sphattn sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sphattn

    if Path(sphattn.__file__).resolve().parent != SRC / "sphattn":
        print(f"benchmark: imported sphattn from {sphattn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import tracer
    import workloads

    reference = json.loads(workloads.REFERENCE.read_text())[args.workload]
    keys = sorted(int(k) for k in reference)
    order = [keys[i] for i in np.random.default_rng(args.seed).permutation(len(keys))]
    setup: list = []
    measure_setup(setup, 1)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"

    attempted = failed = 0
    measured = 0.0
    outs, walls, pairs = [], [], []

    def timed(wl, key, traced):
        nonlocal attempted, failed, measured
        with trace.installed() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            out = wl.iteration(key)
            dt = time.perf_counter() - t0
        measured += dt
        a, f = wl.check(out, reference[str(key)])
        attempted += a
        failed += f
        outs.append(out)
        return wl.trials(out), dt, f

    with workloads.WORKLOADS[args.workload](workdir) as wl:
        trace = tracer.Tracer(wl.trial_roots) if args.trace else None
        wl.warm_up()
        j = 0
        while True:
            key = order[j % len(order)]
            if trace is None:
                trials, dt, _ = timed(wl, key, False)
                walls.append({"key": key, "trials": trials, "s": dt})
            else:
                # alternate which pass goes first so warm caches favour neither
                first = j % 2 == 1
                r1 = timed(wl, key, first)
                r2 = timed(wl, key, not first)
                untraced, traced = (r2, r1) if first else (r1, r2)
                pairs.append({"key": key, "trials": traced[0], "untraced_s": untraced[1],
                              "traced_s": traced[1], "traced_failed": traced[2]})
            j += 1
            due = 1 + int(SETUP_REPEATS * measured / args.seconds)
            measure_setup(setup, min(SETUP_REPEATS, due))
            # never stop short: a sweep-d6 iteration takes over half the run
            if measured >= args.seconds:
                break
        summary = wl.summary(outs)
    measure_setup(setup, SETUP_REPEATS)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record = {"provenance": provenance(args.workload, args.seed), "setup_s_samples": setup,
              "rtol": workloads.RTOL, "atol": workloads.ATOL, **summary}
    if trace is None:
        # the median iteration, so a burst of load on the shared host moves
        # the figure only if it covers most of the run
        rate = statistics.median(w["trials"] / w["s"] for w in walls)
        metrics = {
            "trials_per_s": {"value": rate, "unit": "trials/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        record["iterations"] = walls
    else:
        wall = sum(p["traced_s"] for p in pairs)
        metrics = tracer.layer_metrics(
            trace.spans, len(pairs), wall, sum(p["untraced_s"] for p in pairs),
            trials=sum(p["trials"] for p in pairs),
            failed=sum(p["traced_failed"] for p in pairs),
        )
        record["pairs"] = pairs
        record["train_paths"] = tracer.train_paths(trace.spans)
        record["spans"] = trace.records()
    record.update(attempted=attempted, failed=failed, fail_rate=failed / attempted,
                  metrics=metrics)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    for key, val in record["provenance"].items():
        print(f"# {key}: {json.dumps(val)}")
    for key, val in summary.items():
        print(f"# {key}: {json.dumps(val)}")
    if trace is not None and record["train_paths"]:
        paths: dict = {}
        for p in record["train_paths"]:
            key = f"n={p['n']} {p['path']}"
            paths[key] = paths.get(key, 0) + 1
        factor = [sp[6] for sp in trace.spans if sp[0] == "training.factor"]
        print(f"# train calls by n and path: {json.dumps(paths)}")
        print(f"# training.factor ok/attempts: {sum(a['ok'] for a in factor)}/{len(factor)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_rate = {failed / attempted:.6g} ratio (base: {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; a table of the end-to-end metrics."""
    rows, status = [], 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        rows.append((name, result))
    for name, result in rows:
        cells = [f"{k} {m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items()]
        rate = result["failed"] / result["attempted"]
        cells.append(f"fail_rate {rate:.3g} ratio (base {result['attempted']})")
        print(f"{name:10s} " + " | ".join(cells))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
