"""Tests of the benchmark's own checker, span arithmetic and counters.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import pytest  # noqa: E402

from threshold_lab import cli  # noqa: E402
from threshold_lab.rng import derive_stream  # noqa: E402

import checker  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from spans import Recorder, Span, self_times, tail  # noqa: E402
from workloads import WORKLOADS, WHY  # noqa: E402

DESIGN = tuple("design --n 8 --k 3 --t 2 --lambda 1 --mode pack --p 0.05 --trials 200".split())
SCAN = tuple(("scan --experiment unionfree --n 8 --lo 0.001 --hi 0.5 --tol 0.05"
              " --trials-per-eval 100").split())


def _cli_text(argv, seed=5, call=cli.main):
    code, _, text = run._in_process(tuple(argv) + ("--seed", str(seed), "--workers", "1"), call)
    assert code == 0
    return text


def test_checker_accepts_real_outputs():
    assert checker.check_output(DESIGN, 5, _cli_text(DESIGN)) == (200, [])
    trials, problems = checker.check_output(SCAN, 5, _cli_text(SCAN))
    assert problems == [] and trials % 100 == 0 and trials >= 300


def test_checker_rejects_truncated_csv():
    text = _cli_text(DESIGN)
    _, problems = checker.check_output(DESIGN, 5, text[:-4])
    assert problems


def test_checker_rejects_wrong_row_count():
    text = _cli_text(DESIGN)
    dropped = "".join(text.splitlines(keepends=True)[:-1])
    _, problems = checker.check_output(DESIGN, 5, dropped)
    assert any("trial indices" in p for p in problems)


def test_checker_rejects_worker_byte_mismatch():
    text = _cli_text(DESIGN)
    other = text[:-2] + ("1" if text[-2] == "0" else "0") + "\n"  # flip the last prop_holds
    _, problems = checker.check_pair(DESIGN, 5, text, other)
    assert any("differ" in p for p in problems)


def test_checker_rejects_mean_far_from_reference():
    text = _cli_text(DESIGN)
    head = text.splitlines()[:2]
    rows = [f"{i},9,0" for i in range(200)]
    _, problems = checker.check_output(DESIGN, 5, "\n".join(head + rows) + "\n")
    assert any("SE from exact" in p for p in problems)


def test_mean_is_not_checked_on_few_trials():
    # one trial can hold a large cluster of overfull t-sets; a single sample
    # says nothing about the mean
    argv = DESIGN[:-1] + ("1",)
    head = _cli_text(argv).splitlines()[:2]
    assert checker.check_output(argv, 5, "\n".join(head + ["0,11,0"]) + "\n") == (1, [])


def test_checker_rejects_header_that_does_not_echo_the_seed():
    _, problems = checker.check_output(DESIGN, 6, _cli_text(DESIGN, seed=5))
    assert any("seed" in p for p in problems)


def test_checker_rejects_p_half_outside_bracket():
    text = _cli_text(SCAN)
    lines = text.splitlines()
    head = lines[0].split(" p_half=")[0] + " p_half=0.9 seed=5"
    _, problems = checker.check_output(SCAN, 5, "\n".join([head] + lines[1:]) + "\n")
    assert any("p_half" in p for p in problems)


def test_mean_check_standard_error_does_not_vanish_at_all_zero_samples():
    assert checker.mean_problem([0.0] * 100, 0.01, 0.01) is None
    assert checker.mean_problem([0.0] * 100, 5.0, 5.0) is not None


def test_waiting_mean_matches_closed_forms():
    # N=2, lam=1 gives 3; N=3, lam=1 gives 3 H_3 = 5.5
    assert checker.waiting_mean(2, 1) == pytest.approx(3.0, rel=1e-9)
    assert checker.waiting_mean(3, 1) == pytest.approx(5.5, rel=1e-9)


def test_self_times_on_nested_spans():
    spans = [
        Span("root", 0.0, 10.0, -1, "a"),
        Span("a", 1.0, 4.0, 0, "a"),
        Span("a.child", 2.0, 3.0, 1, "a"),
        Span("b", 5.0, 9.0, 0, "a"),
        Span("c", 8.0, 10.5, 0, "a"),  # overlaps b and runs past its parent
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 5, 2.0, 1.0, 4.0, 2.5])


def test_recorder_nests_spans_by_call():
    rec = Recorder()
    inner = rec.wrap("inner", lambda: sum(range(1000)))
    outer = rec.wrap("outer", lambda: inner() + inner())
    outer()
    assert [(s.name, s.parent) for s in rec.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    selfs = self_times(rec.spans)
    total = rec.spans[0].end - rec.spans[0].start
    assert sum(selfs) == pytest.approx(total)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(i) for i in range(1000)]
    assert tail(values) == 989.0
    assert tail(values[:100]) == 89.0
    assert tail(values[:19]) == 0.0


def test_philox_words_counts_64_bit_draws():
    for n in (0, 1, 5, 1 << 12):
        stream = derive_stream(3, 4)
        stream.random(n)
        assert layers.philox_words(stream) == n


def test_tracer_counts_and_restores_module_attributes():
    argv = tuple("balls --boxes 100 --lambda 1 --balls 50 --trials 3".split())
    before = layers.balls.throw_balls
    tracer = layers.Tracer()
    with tracer.installed("balls"):
        text = _cli_text(argv, call=tracer.call_main)
    assert layers.balls.throw_balls is before
    assert checker.check_output(argv, 5, text)[1] == []
    assert tracer.counts["rng.throw_balls.balls"] == 150
    assert tracer.counts["trials"] == 3 and tracer.counts["rng.words_drawn"] > 0
    names = [s.name for s in tracer.recorder.spans]
    assert names.count("rng.derive_stream") == 3 and names[0] == "cli.main"


def test_every_setup_line_passes_the_checker():
    for workload, lines in WORKLOADS.items():
        for line in lines:
            text = _cli_text(line.setup)
            assert checker.check_output(line.setup, 5, text)[1] == [], (workload, line.name)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert set(WHY) == set(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in layers.PER_LAYER.items()}


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "packing", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
