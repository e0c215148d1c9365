"""Every demo script imports what it uses; its ``__main__`` guard keeps the runs out.
The README's library tour runs as written."""

import re
import runpy
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", _DEMOS, ids=[p.stem for p in _DEMOS])
def test_demo_loads(path, capsys):
    assert "section" in runpy.run_path(str(path), run_name="demo")
    assert capsys.readouterr().out == ""


def test_pattern_covering_census_runs(capsys):
    demo = runpy.run_path(str(_ROOT / "demos" / "pattern_covering.py"), run_name="demo")
    demo["exact_census"]()
    out = capsys.readouterr().out
    assert "attains the shared-cover bound: [(1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]" in out
    assert "(1,2) = [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2)]" in out
    assert "MISMATCH" not in out


def test_readme_tour_runs():
    (tour,) = re.findall(r"```python\n(.*?)```", (_ROOT / "README.md").read_text(), re.DOTALL)
    exec(compile(tour, "README.md", "exec"), {})
