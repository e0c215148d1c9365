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

# case -> (workload, line): the four models whose trials run in chunks,
# union-free, perm, design and Sidon
_LINES = {"packing": ("packing", "unionfree-20"), "perm-pack": ("packing", "perm-pack"),
          "covering": ("covering", "design-cover"), "scan": ("scan", "scan-sidon")}


def test_every_wrapped_trial_takes_a_stream_first():
    tracer, chunked = layers.Tracer(), []
    for module, attr, name in layers._WRAPPED:
        if attr.endswith("_trial"):
            fn = getattr(module, attr)
            assert next(iter(inspect.signature(fn).parameters)) == "stream"
            # the wrapper keeps the chunk form that ``map_trials`` runs
            if hasattr(fn, "chunk"):
                assert tracer.recorder.wrap(name, fn).chunk is fn.chunk
                chunked.append(name)
    assert len(chunked) == 6


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", list(_LINES))
def test_a_traced_line_prints_the_untraced_bytes(case, workers):
    workload, name = _LINES[case]
    [line] = [line for line in WORKLOADS[workload] if line.name == name]
    argv = line.argv + ("--seed", "3", "--workers", str(workers))
    code, _, plain = run._in_process(argv, cli.main)
    tracer = layers.Tracer()
    with tracer.installed(line.name):
        traced_code, _, traced = run._in_process(argv, tracer.call_main)
    assert code == traced_code == 0
    assert traced == plain and plain
