"""The benchmark tracer's call sites still name live attributes of the package,
a traced run reaches them, the three benchmark workloads reproduce their stored
reference outputs, README.md names the public surface, and every demo runs."""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer

    return tracer


def test_tracer_call_sites_resolve(tracer):
    missing = [
        f"{mod.__name__}.{name}"
        for mod, name, _span, _attrs in tracer.CALL_SITES
        if not callable(getattr(mod, name, None))
    ]
    assert not missing, f"tracer call sites no longer resolve: {missing}"


def _unused_imports(path: Path) -> set:
    """Names the module at path imports but never reads (from __future__ aside)."""
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_unused_imports_are_tracer_call_sites(tracer):
    # a name a module imports without using is there for the tracer to wrap;
    # when a call site is retired, the import it leaves behind fails here
    sites = {(mod.__name__.rsplit(".", 1)[1], name) for mod, name, *_ in tracer.CALL_SITES}
    unused = {
        (path.stem, name)
        for path in (ROOT / "src" / "sphattn").glob("*.py") if path.stem != "__init__"
        for name in _unused_imports(path)
    }
    assert unused, "no tracer-only import found: is the scan still reading the modules?"
    assert not unused - sites, f"imported but never used: {sorted(unused - sites)}"


def test_harmonic_dims_have_one_vector():
    # N(d, 0..L) is harmonics._dims; a comprehension over harmonic_dim anywhere
    # else in a module builds a second copy of it
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    sites, definitions = set(), 0
    for path in (ROOT / "src" / "sphattn").glob("*.py"):
        for stmt in ast.parse(path.read_text()).body:
            if path.name == "harmonics.py" and getattr(stmt, "name", None) == "_dims":
                definitions += 1
                continue
            for comp in ast.walk(stmt):
                if isinstance(comp, comprehensions):
                    sites |= {
                        f"{path.name}:{node.lineno}" for node in ast.walk(comp)
                        if isinstance(node, ast.Call)
                        and "harmonic_dim" in (getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None))
                    }
    assert definitions == 1, "harmonics._dims not found: is the scan still reading the modules?"
    assert not sites, f"harmonic_dim called in a comprehension: {sorted(sites)}"


def _defaulted_public_parameters() -> dict:
    """{(function, parameter): position or None} over the defaulted parameters
    of the module-level functions each module lists in __all__."""
    found = {}
    for path in (ROOT / "src" / "sphattn").glob("*.py"):
        public = getattr(importlib.import_module(f"sphattn.{path.stem}"), "__all__", ())
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name in public:
                args = stmt.args
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                found |= {(stmt.name, arg.arg): i for i, arg in enumerate(positional) if i >= first}
                found |= {(stmt.name, arg.arg): None
                          for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default}
    return found


def test_public_defaults_have_callers():
    # a defaulted parameter of a public function that no call in the package
    # or the demos passes is a knob only the tests turn; calls in tests do not count
    defaulted = _defaulted_public_parameters()
    assert defaulted, "no defaulted public parameter found: is the scan still reading the modules?"
    passed = set()
    for path in [*(ROOT / "src" / "sphattn").glob("*.py"), *(ROOT / "demos").glob("*.py")]:
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                passed |= {(name, kw.arg) for kw in call.keywords}
                passed |= {(name, i) for i in range(len(call.args))}
    uncalled = sorted(key for key, i in defaulted.items() if not {key, (key[0], i)} & passed)
    assert not uncalled, f"public defaults no caller sets: {uncalled}"


def test_traced_risk_sweep_records_every_layer(tracer, tmp_path, capsys):
    from sphattn import cli

    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({"d": 3, "ell0": 1, "n": [30, 60, 120, 300], "m": 60,
                               "num_seeds": 1, "num_mc_samples": 200}))
    with tracer.Tracer(("cli.main",)).installed() as t:
        code = cli.main(["risk-sweep", "--config", str(cfg), "--out", str(tmp_path / "r.json")])
    assert code == 0
    names = {span[0] for span in t.spans}
    expected = {"cli.main", "config.parse_config_file", "experiments.run", "experiments.trial",
                "experiments.kernel_gap", "training.train", "training.factor",
                "experiments.emit_report"}
    assert expected <= names, f"spans never recorded: {sorted(expected - names)}"
    # d = 3, ell0 = 1 takes the factors at every n, so a trainer that stops
    # going through _try_factor, or fails it, shows here
    factor = [span[6] for span in t.spans if span[0] == "training.factor"]
    assert len(factor) == 4 and all(attrs["ok"] == 1 for attrs in factor)


@pytest.mark.parametrize("name", ["sweep-d6", "select-d8", "cli-small"])
def test_benchmark_outputs_match_the_reference(tracer, name, tmp_path):
    # the workload's own check against perfbench/reference.json, on pool key 0:
    # a change that moves a benchmark output shows here, not only in a run;
    # entered as the benchmark enters it (cli-small writes its job configs)
    import workloads

    reference = json.loads(workloads.REFERENCE.read_text())[name]["0"]
    with workloads.WORKLOADS[name](tmp_path / name) as workload:
        attempted, failed = workload.check(workload.iteration(0), reference)
    assert attempted > 0 and failed == 0


def test_readme_names_the_public_surface():
    readme = (ROOT / "README.md").read_text()
    tour = readme.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for row in tour.splitlines():
        cells = row.strip().strip("|").split("|")
        module = re.fullmatch(r"\s*`(sphattn\.\w+)`\s*", cells[0])
        # one module per row; the config / cli row lists no names
        if len(cells) == 2 and module:
            rows[module[1]] = re.findall(r"`(\w+)`", cells[1])
    assert set(rows) == {
        f"sphattn.{m}" for m in
        ("harmonics", "kernels", "targets", "selection", "training", "complexity", "experiments")
    }
    named = [(mod, name) for mod, names in rows.items() for name in names]
    # dotted names elsewhere in the text, e.g. under "Output formats"
    named += re.findall(r"`(sphattn\.\w+)\.(\w+)`", readme)
    missing = [
        f"{mod}.{name}" for mod, name in named
        if not hasattr(importlib.import_module(mod), name)
        or name not in importlib.import_module(mod).__all__
    ]
    assert not missing, f"README names these, but they are not public: {missing}"
    # and the other way: each module's row lists its whole __all__, which
    # holds every name the package root re-exports
    unlisted = [
        f"{mod}.{name}" for mod, names in rows.items()
        for name in importlib.import_module(mod).__all__ if name not in names
    ]
    assert not unlisted, f"these are public, but the library tour omits them: {unlisted}"
    toured = {name for names in rows.values() for name in names}
    root = importlib.import_module("sphattn")
    reexported = {
        name for name, value in vars(root).items()
        if not name.startswith("_") and not isinstance(value, type(root))
    }
    assert reexported <= toured, f"the root exports these untoured: {reexported - toured}"


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
