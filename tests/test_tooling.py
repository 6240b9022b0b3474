"""The benchmark tracer's call sites still name live attributes of the package,
and a traced run reaches them."""

import json
from pathlib import Path

import pytest


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    return tracer


def test_tracer_call_sites_resolve(tracer):
    missing = [
        f"{mod.__name__}.{name}"
        for mod, name, _span, _attrs in tracer.CALL_SITES
        if not callable(getattr(mod, name, None))
    ]
    assert not missing, f"tracer call sites no longer resolve: {missing}"


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
                "experiments.kernel_gap", "training.train", "experiments.emit_report"}
    assert expected <= names, f"spans never recorded: {sorted(expected - names)}"
