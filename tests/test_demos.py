"""The demos run end to end and every exported name resolves, so neither can rot."""

import importlib.util
from pathlib import Path

import pytest

import elastosim

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{script[:-3]}", DEMOS / script)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    if hasattr(demo, "OUT"):
        monkeypatch.setattr(demo, "OUT", tmp_path / "out")
    demo.main()
    assert capsys.readouterr().out.strip()
    if hasattr(demo, "OUT"):
        assert any((tmp_path / "out").iterdir()), f"{script} wrote nothing to OUT"


def test_every_export_resolves():
    missing = [name for name in elastosim.__all__ if not hasattr(elastosim, name)]
    assert not missing
