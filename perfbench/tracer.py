"""Call-site tracing of the sphattn layers, installed from outside the package.

Every traced function is wrapped where its caller looks it up at call time:
the module-level name in the calling module (``selection.gegenbauer_weighted_sum``,
``training._try_factor``, ...).  Nothing under ``src/`` is edited; the wrappers
are installed for one traced pass and the original names are put back after.

Each call records one span: name, start, end, parent span and trial id, plus a
few counts read from the arguments (entries, points, steps).  Spans stay in
memory and are written out once at the end of the run.  A span's self time is
its duration minus the durations of its wrapped child calls; the calls run on
one thread, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

import numpy as np

from sphattn import cli, complexity, config, experiments, kernels, selection, targets, training


def _rows(x) -> int:
    return int(np.shape(x)[0]) if np.ndim(x) else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _gws_attrs(args, kwargs, result):
    entries = int(np.size(args[0]))
    degrees = int(np.size(_arg(args, kwargs, 2, "weights"))) - 1
    return {"entries": entries, "entry_degrees": entries * degrees}


def _activation_attrs(args, kwargs, result):
    return {"entries": _rows(args[0]) * _rows(args[1])}


def _feature_attrs(args, kwargs, result):
    # computed from the shapes: Z is m x n float64
    return {"bytes": 8 * _rows(args[0]) * _rows(args[1])}


def _factor_attrs(args, kwargs, result):
    return {"ok": int(result is not None)}


def _train_attrs(args, kwargs, result):
    return {"T": int(_arg(args, kwargs, 4, "T"))}


def _predict_attrs(args, kwargs, result):
    return {"points": _rows(args[1])}


def _mc_attrs(args, kwargs, result):
    return {"samples": int(_arg(args, kwargs, 2, "num_samples"))}


def _spectrum_attrs(args, kwargs, result):
    return {"n": _rows(args[0])}


def _training_trial_attrs(args, kwargs, result):
    return {"n": int(_arg(args, kwargs, 4, "n")), "ok": int(bool(result.get("ok")))}


# (module whose global name is replaced, name, span name, attribute reader)
CALL_SITES = [
    (kernels, "gegenbauer_weighted_sum", "harmonics.gws", _gws_attrs),
    (selection, "gegenbauer_weighted_sum", "harmonics.gws", _gws_attrs),
    (experiments, "gegenbauer_weighted_sum", "harmonics.gws", _gws_attrs),
    (experiments, "sample_sphere", "harmonics.sample_sphere", None),
    (targets, "sample_sphere", "harmonics.sample_sphere", None),
    (complexity, "sample_sphere", "harmonics.sample_sphere", None),
    (cli, "sample_sphere", "harmonics.sample_sphere", None),
    (experiments, "make_target", "targets.make_target", None),
    (experiments, "gen_dataset", "targets.gen_dataset", None),
    (targets, "eval_target", "targets.eval_target", None),
    (complexity, "eval_target", "targets.eval_target", None),
    (experiments, "select_channels", "selection.select_channels", None),
    (selection, "one_step_second_layer", "selection.a1", None),
    (experiments, "one_step_second_layer", "selection.a1", None),
    (selection, "one_step_channel_weights", "selection.tau_raw", None),
    (experiments, "one_step_channel_weights", "selection.tau_raw", None),
    (selection, "threshold_channels", "selection.threshold", None),
    (kernels, "activation_matrix", "kernels.activation_matrix", _activation_attrs),
    (training, "activation_matrix", "kernels.activation_matrix", _activation_attrs),
    (cli, "population_gram", "kernels.population_gram", None),
    (cli, "normalized_gram", "kernels.normalized_gram", None),
    # complexity.empirical_spectrum imports gram_spectrum from kernels per call
    (kernels, "gram_spectrum", "kernels.gram_spectrum", _spectrum_attrs),
    (experiments, "train", "training.train", _train_attrs),
    (training, "feature_matrix", "training.feature_matrix", _feature_attrs),
    (training, "_try_factor", "training.factor", _factor_attrs),
    (experiments, "predict", "training.predict", _predict_attrs),
    (experiments, "mc_risk", "complexity.mc_risk", _mc_attrs),
    (cli, "critical_radius", "complexity.critical_radius", None),
    (cli, "empirical_spectrum", "complexity.empirical_spectrum", None),
    (cli, "kernel_complexity", "complexity.kernel_complexity", None),
    (cli, "population_complexity", "complexity.population_complexity", None),
    (experiments, "_selection_trial", "experiments.trial", None),
    (experiments, "_training_trial", "experiments.trial", _training_trial_attrs),
    (experiments, "_kernel_gap", "experiments.kernel_gap", None),
    (cli, "emit_report", "experiments.emit_report", None),
    (cli, "parse_config_file", "config.parse_config_file", None),
    (cli, "main", "cli.main", None),
] + [
    (mod, name, "experiments.run", None)
    for mod in (experiments, cli)
    for name in (
        "calibrate_epsilon0",
        "run_channel_selection_trials",
        "run_training_run",
        "run_risk_sweep",
        "run_kernel_convergence",
    )
]


class Tracer:
    """Span stack and span store for one traced run.

    ``trial_roots`` names the spans that start a benchmark trial.  A root
    opened outside any other open root starts a new trial id; later spans
    under the same parent keep that id until the next root opens or the
    parent closes, so the calls of one calibration pass share the id of the
    ``make_target`` call that starts it.
    """

    def __init__(self, trial_roots):
        self.trial_roots = frozenset(trial_roots)
        # one list per span: name, start_ns, end_ns, parent, trial, child_ns, attrs
        self.spans: list = []
        self._stack: list = []
        self._open_roots = 0
        self._trial = None
        self._trial_owner = None
        self._next_trial = 0

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        if name in self.trial_roots:
            if self._open_roots == 0:
                self._trial = self._next_trial
                self._trial_owner = parent
                self._next_trial += 1
            self._open_roots += 1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._trial, 0, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, attrs) -> None:
        end = time.perf_counter_ns()
        span = self.spans[idx]
        span[2] = end
        span[6] = attrs
        self._stack.pop()
        parent = span[3]
        if parent is not None:
            self.spans[parent][5] += end - span[1]
        if span[0] in self.trial_roots:
            self._open_roots -= 1
        if self._trial_owner == idx:
            self._trial = None
            self._trial_owner = None

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx, {"error": type(exc).__name__})
                raise
            self._close(idx, attrs(args, kwargs, result) if attrs else None)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Replace every call-site name with its traced wrapper, then restore."""
        saved = []
        try:
            for mod, name, span, attrs in CALL_SITES:
                fn = getattr(mod, name)
                saved.append((mod, name, fn))
                setattr(mod, name, self.wrap(span, fn, attrs))
            raw = config.ExperimentConfig.__dict__["from_sources"]
            saved.append((config.ExperimentConfig, "from_sources", raw))
            config.ExperimentConfig.from_sources = classmethod(
                self.wrap("config.from_sources", raw.__func__)
            )
            yield self
        finally:
            for owner, name, fn in reversed(saved):
                setattr(owner, name, fn)

    def records(self) -> list:
        """Spans as JSON-ready dicts, times in ns from the first span."""
        t0 = self.spans[0][1] if self.spans else 0
        return [
            {
                "name": name,
                "start_ns": start - t0,
                "end_ns": end - t0,
                "parent": parent,
                "trial": trial,
                "self_ns": end - start - child,
                **({"attrs": attrs} if attrs else {}),
            }
            for name, start, end, parent, trial, child, attrs in self.spans
        ]


MODULES = ("harmonics", "kernels", "targets", "selection", "training",
           "complexity", "experiments", "cli", "config")

# name -> unit; the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = {
    "harmonics.gws.s": "s",
    "harmonics.gws.calls": "count",
    "harmonics.gws.entries": "count",
    "harmonics.gws.entry_degrees": "count",
    "harmonics.gws.ns_per_entry": "ns",
    "harmonics.gws.ns_per_entry_degree": "ns",
    "harmonics.sample_sphere.s": "s",
    "targets.gen_dataset.s": "s",
    "targets.eval_target.s": "s",
    "selection.a1.s": "s",
    "selection.tau_raw.s": "s",
    "selection.threshold.s": "s",
    "kernels.activation_matrix.s": "s",
    "kernels.activation_matrix.entries": "count",
    "kernels.population_gram.s": "s",
    "kernels.gram_spectrum.s": "s",
    "kernels.gram_spectrum.n": "count",
    "training.feature_matrix.s": "s",
    "training.feature_matrix.bytes": "bytes",
    "training.factor.s": "s",
    "training.factor.attempts": "count",
    "training.factor.ok": "count",
    "training.path.plain": "count",
    "training.path.factored": "count",
    "training.gd_loop.s": "s",
    "training.gd_steps": "count",
    "training.gd_loop.us_per_step": "us",
    "training.predict.s": "s",
    "training.predict.points": "count",
    "complexity.mc_risk.s": "s",
    "complexity.mc_risk.self_s": "s",
    "complexity.mc_risk.samples": "count",
    "complexity.critical_radius.s": "s",
    "experiments.trial.self_s": "s",
    "experiments.kernel_gap.s": "s",
    "experiments.emit_report.s": "s",
    "experiments.trials": "count",
    "experiments.failed": "count",
    "cli.main.self_s": "s",
    "config.from_sources.s": "s",
    **{f"{mod}.self_s": "s" for mod in MODULES},
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.self_sum_s": "s",
    "trace.gap_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(spans: list, iterations: int, wall_s: float, untraced_wall_s: float,
                  trials: int, failed: int) -> dict:
    """Fold spans into the PER_LAYER values (zero for layers that never ran).

    Times, counts and bytes are per traced iteration, so they do not grow
    with the number of iterations that fit in the run; ns and us values are
    ratios of the totals.
    """
    total, own, count, sums = Counter(), Counter(), Counter(), Counter()
    module_self = Counter(dict.fromkeys(MODULES, 0))
    for name, start, end, _parent, _trial, child, attrs in spans:
        total[name] += end - start
        own[name] += end - start - child
        count[name] += 1
        module_self[name.split(".", 1)[0]] += end - start - child
        for key, val in (attrs or {}).items():
            if key != "error":
                sums[f"{name}.{key}"] += val
    factored = len(_factored_trains(spans))
    gws_s = total["harmonics.gws"] / 1e9
    gd_s = own["training.train"] / 1e9
    entries = sums["harmonics.gws.entries"]
    entry_degrees = sums["harmonics.gws.entry_degrees"]
    steps = sums["training.train.T"]
    self_sum = sum(module_self.values()) / 1e9

    def s(name):
        return total[name] / 1e9

    values = {
        "harmonics.gws.s": gws_s,
        "harmonics.gws.calls": count["harmonics.gws"],
        "harmonics.gws.entries": entries,
        "harmonics.gws.entry_degrees": entry_degrees,
        "harmonics.gws.ns_per_entry": gws_s * 1e9 / entries if entries else 0.0,
        "harmonics.gws.ns_per_entry_degree": (
            gws_s * 1e9 / entry_degrees if entry_degrees else 0.0
        ),
        "harmonics.sample_sphere.s": s("harmonics.sample_sphere"),
        "targets.gen_dataset.s": s("targets.gen_dataset"),
        "targets.eval_target.s": s("targets.eval_target"),
        "selection.a1.s": s("selection.a1"),
        "selection.tau_raw.s": s("selection.tau_raw"),
        "selection.threshold.s": s("selection.threshold"),
        "kernels.activation_matrix.s": s("kernels.activation_matrix"),
        "kernels.activation_matrix.entries": sums["kernels.activation_matrix.entries"],
        "kernels.population_gram.s": s("kernels.population_gram"),
        "kernels.gram_spectrum.s": s("kernels.gram_spectrum"),
        "kernels.gram_spectrum.n": sums["kernels.gram_spectrum.n"],
        "training.feature_matrix.s": s("training.feature_matrix"),
        "training.feature_matrix.bytes": sums["training.feature_matrix.bytes"],
        "training.factor.s": s("training.factor"),
        "training.factor.attempts": count["training.factor"],
        "training.factor.ok": sums["training.factor.ok"],
        "training.path.plain": count["training.train"] - factored,
        "training.path.factored": factored,
        "training.gd_loop.s": gd_s,
        "training.gd_steps": steps,
        "training.gd_loop.us_per_step": gd_s * 1e6 / steps if steps else 0.0,
        "training.predict.s": s("training.predict"),
        "training.predict.points": sums["training.predict.points"],
        "complexity.mc_risk.s": s("complexity.mc_risk"),
        "complexity.mc_risk.self_s": own["complexity.mc_risk"] / 1e9,
        "complexity.mc_risk.samples": sums["complexity.mc_risk.samples"],
        "complexity.critical_radius.s": s("complexity.critical_radius"),
        "experiments.trial.self_s": own["experiments.trial"] / 1e9,
        "experiments.kernel_gap.s": s("experiments.kernel_gap"),
        "experiments.emit_report.s": s("experiments.emit_report"),
        "experiments.trials": trials,
        "experiments.failed": failed,
        "cli.main.self_s": own["cli.main"] / 1e9,
        "config.from_sources.s": s("config.from_sources"),
        **{f"{mod}.self_s": module_self[mod] / 1e9 for mod in MODULES},
        "trace.spans": len(spans),
        "trace.wall_s": wall_s,
        "trace.self_sum_s": self_sum,
        "trace.gap_s": wall_s - self_sum,
        "trace.untraced_wall_s": untraced_wall_s,
        "trace.overhead_s": wall_s - untraced_wall_s,
    }
    return {
        name: {"value": values[name] if unit in ("ns", "us") else values[name] / iterations,
               "unit": unit}
        for name, unit in PER_LAYER.items()
    }


def _factored_trains(spans: list) -> set:
    """Indices of `train` spans whose factorization passed verification."""
    return {
        sp[3] for sp in spans if sp[0] == "training.factor" and sp[6] and sp[6].get("ok")
    }


def train_paths(spans: list) -> list:
    """Per traced `train` call: trial id, sample count n, steps and path taken."""
    factored = _factored_trains(spans)
    out = []
    for idx, (name, _start, _end, parent, trial, _child, attrs) in enumerate(spans):
        if name != "training.train":
            continue
        trial_attrs = spans[parent][6] if parent is not None else None
        out.append({
            "trial": trial,
            "n": (trial_attrs or {}).get("n"),
            "T": (attrs or {}).get("T"),
            "path": "factored" if idx in factored else "plain",
        })
    return out
