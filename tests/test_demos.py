"""Every demo script imports what it uses; its ``__main__`` guard keeps the runs out."""

import runpy
from pathlib import Path

import pytest

_DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("path", _DEMOS, ids=[p.stem for p in _DEMOS])
def test_demo_loads(path, capsys):
    assert "section" in runpy.run_path(str(path), run_name="demo")
    assert capsys.readouterr().out == ""
