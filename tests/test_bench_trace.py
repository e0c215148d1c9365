"""The benchmark's trace mode over the chunked trials: ``bench/layers.py``
wraps each ``*_trial`` attribute and reads its first argument as a Philox
generator, so every wrapped name keeps that signature, and a traced line
prints what the untraced one prints."""

import inspect
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(_BENCH))

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from threshold_lab import cli  # noqa: E402

# one line a workload, each of chunked trials: union-free, design and Sidon
_LINES = {"packing": "unionfree-20", "covering": "design-cover", "scan": "scan-sidon"}


def test_every_wrapped_trial_takes_a_stream_first():
    for module, attr, _ in layers._WRAPPED:
        if attr.endswith("_trial"):
            assert next(iter(inspect.signature(getattr(module, attr)).parameters)) == "stream"


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("workload", list(_LINES))
def test_a_traced_line_prints_the_untraced_bytes(workload, workers):
    [line] = [line for line in WORKLOADS[workload] if line.name == _LINES[workload]]
    argv = line.argv + ("--seed", "3", "--workers", str(workers))
    code, _, plain = run._in_process(argv, cli.main)
    tracer = layers.Tracer()
    with tracer.installed(line.name):
        traced_code, _, traced = run._in_process(argv, tracer.call_main)
    assert code == traced_code == 0
    assert traced == plain and plain
