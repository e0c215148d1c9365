"""Let the ``python -m threshold_lab`` subprocesses the tests start import the
in-tree package, as ``pythonpath`` in pyproject.toml does for the tests, and
count the process pools a test opens."""

import concurrent.futures
import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
)


@pytest.fixture
def opened(monkeypatch):
    """The ``max_workers`` of every pool opened during the test, in a process
    that may use two CPUs, so a 2-wide pool is as wide on any box."""
    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    # analysis imports the pool class from concurrent.futures when it opens one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    return opened
