"""Let the ``python -m threshold_lab`` subprocesses the tests start import the
in-tree package, as ``pythonpath`` in pyproject.toml does for the tests."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)
