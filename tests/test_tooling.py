"""The benchmark tracer's call sites still name live attributes of the package."""

from pathlib import Path


def test_tracer_call_sites_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import tracer

    missing = [
        f"{mod.__name__}.{name}"
        for mod, name, _span, _attrs in tracer.CALL_SITES
        if not callable(getattr(mod, name, None))
    ]
    assert not missing, f"tracer call sites no longer resolve: {missing}"
