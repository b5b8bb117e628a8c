"""The demos run end to end and every exported name resolves, so neither can rot."""

import importlib.util
from pathlib import Path

import pytest

import elastosim
from elastosim.cli import EXIT_OK, cli_main

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def load_demo(script):
    spec = importlib.util.spec_from_file_location(f"demo_{script[:-3]}", DEMOS / script)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return demo


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    demo = load_demo(script)
    if hasattr(demo, "OUT"):
        monkeypatch.setattr(demo, "OUT", tmp_path / "out")
    demo.main()
    assert capsys.readouterr().out.strip()
    if hasattr(demo, "OUT"):
        assert any((tmp_path / "out").iterdir()), f"{script} wrote nothing to OUT"


def test_beam_demo_and_cli_write_the_same_slender_table(tmp_path, monkeypatch, capsys):
    # Both read the one table of validation beams in elastosim.beam.
    demo = load_demo("beam_validation.py")
    monkeypatch.setattr(demo, "OUT", tmp_path / "demo")
    demo.run("slender")
    assert cli_main(["validate-beam", "--slender", "--out", str(tmp_path / "cli")]) == EXIT_OK
    table = "beam_convergence.csv"
    assert (tmp_path / "demo" / table).read_bytes() == (tmp_path / "cli" / table).read_bytes()


def test_every_export_resolves():
    missing = [name for name in elastosim.__all__ if not hasattr(elastosim, name)]
    assert not missing
