"""threshold-lab benchmark: real CLI command lines at 1 and 2 workers.

    python3 bench/run.py --workload packing --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One process runs the workload's command lines one after another
(a closed loop with one client).

``--trace 0`` measures end to end.  It first runs every line's set-up
command (``--trials 1``, ``--workers 1``) five times and reports the median
sum as ``setup_s``.  It then runs passes over the lines, each line at
``--workers 1`` and ``--workers 2``, line by line until a full pass is
done and ``--seconds`` have passed, and sums each line's median.  Every
output is checked (see ``checker.py``).

``--trace 1`` runs the same lines in this process through
``threshold_lab.cli.main``, with the layer functions wrapped (see
``layers.py``), and reports the per-layer metrics.

``--workload all`` runs every workload in turn and prints each metric by
name with its unit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
stamped with the git sha, core count, affinity and versions, is written to
``.bench_build/bench/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median
from typing import NamedTuple

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"
SETUP_REPS = 5
IMPORT_REPS = 3

# name -> (unit, better)
END_TO_END = {
    "wall_w1_s": ("s", "lower"),
    "wall_w2_s": ("s", "lower"),
    "trials_per_s_w1": ("1/s", "higher"),
    "trials_per_s_w2": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "cpu_s": ("s", "lower"),
}


class Run(NamedTuple):
    code: int
    wall: float
    cpu: float
    maxrss_kb: int
    text: str


def line_seed(seed: int, workload: str, line: int, tag: str) -> int:
    """The CLI seed of one line in one pass, a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{workload}/{line}/{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


class Runner:
    """Runs CLI command lines through ``launcher.py`` and tallies failures.

    Create it before importing numpy, so the launcher starts small.
    """

    def __init__(self):
        WORK.mkdir(parents=True, exist_ok=True)
        (WORK / "tmp").mkdir(exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k != "THRESHOLD_LAB_WORKERS"}
        self.env["PYTHONPATH"] = str(SRC)
        self.env["TMPDIR"] = str(WORK / "tmp")
        self.launcher = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=self.env, cwd=ROOT)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()

    def run(self, argv, tag: str = "out") -> Run:
        """Run one command line and read back its output."""
        out_path, err_path = WORK / f"{tag}.csv", WORK / f"{tag}.err"
        cmd = [sys.executable, "-m", "threshold_lab", *argv]
        self.launcher.stdin.write(json.dumps([cmd, str(out_path), str(err_path)]) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        return Run(reply["code"], reply["wall"], reply["cpu"], reply["maxrss_kb"],
                   out_path.read_text())

    def record(self, name: str, attempts: int, code: int, problems: list[str]) -> None:
        self.attempted += attempts
        if code != 0:
            problems = [f"exit code {code}"] + problems
        if problems:
            self.failed += attempts
            self.problems += [f"{name}: {p}" for p in problems]
            for p in problems:
                print(f"FAILED {name}: {p}", file=sys.stderr)


def _arg(seed: int, workers: int) -> tuple[str, ...]:
    return ("--seed", str(seed), "--workers", str(workers))


def _another_pass(start: float, done: int, seconds: float) -> bool:
    """Whether a pass at the mean pass time still ends within ``seconds``."""
    elapsed = time.perf_counter() - start
    return done == 0 or elapsed * (done + 1) / done <= seconds


def end_to_end(runner: Runner, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from checker import check_output, check_pair

    lines = WORKLOADS[workload]
    setup = []
    for rep in range(SETUP_REPS):
        total = 0.0
        for i, line in enumerate(lines):
            s = line_seed(seed, workload, i, f"setup{rep}")
            run = runner.run(line.setup + _arg(s, 1))
            total += run.wall
            runner.record(f"{line.name} setup", 1, run.code, check_output(line.setup, s, run.text)[1])
        setup.append(total)

    passes = []
    walls: dict[tuple[str, int], list[float]] = {}
    cpu: dict[str, list[float]] = {}
    trials = {}
    peak_kb = 0
    start = time.perf_counter()
    step = 0
    # round-robin over the lines, one line at both worker counts per step,
    # until a full pass is done and --seconds have passed
    while step < len(lines) or time.perf_counter() - start < seconds:
        k, i = divmod(step, len(lines))
        line = lines[i]
        if i == 0:
            passes.append({})
        s = line_seed(seed, workload, i, f"pass{k}")
        order = (1, 2) if k % 2 == 0 else (2, 1)
        runs = {w: runner.run(line.argv + _arg(s, w), f"w{w}") for w in order}
        trials[line.name], problems = check_pair(line.argv, s, runs[1].text, runs[2].text)
        runner.record(line.name, 2, max(runs[1].code, runs[2].code, key=abs), problems)
        for w, run in runs.items():
            walls.setdefault((line.name, w), []).append(run.wall)
            peak_kb = max(peak_kb, run.maxrss_kb)
        cpu.setdefault(line.name, []).append(runs[1].cpu + runs[2].cpu)
        passes[k][line.name] = {"seed": s, "w1_s": runs[1].wall, "w2_s": runs[2].wall}
        step += 1

    # sums of per-line medians, so one slow run of one line moves little
    wall = {w: sum(median(walls[line.name, w]) for line in lines) for w in (1, 2)}
    total_trials = sum(trials.values())
    metrics = {
        "wall_w1_s": wall[1],
        "wall_w2_s": wall[2],
        "trials_per_s_w1": total_trials / wall[1],
        "trials_per_s_w2": total_trials / wall[2],
        "setup_s": median(setup),
        "peak_rss_mb": peak_kb * 1024 / 1e6,
        "cpu_s": sum(median(v) for v in cpu.values()),
    }
    return metrics, {"setup_s": setup, "passes": passes}


def _in_process(argv, call) -> tuple[int, float, str]:
    """Run ``call(argv)`` as the CLI would run in a fresh process; return
    (exit code, wall s, stdout text)."""
    from layers import fresh_process_caches

    fresh_process_caches()
    buffer = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = call(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed line, not a failed benchmark
        traceback.print_exc()
        code = 1
    return code, time.perf_counter() - start, buffer.getvalue()


def _import_s(runner: Runner) -> float:
    walls = []
    for _ in range(IMPORT_REPS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import threshold_lab"], env=runner.env,
                       cwd=ROOT, check=True)
        walls.append(time.perf_counter() - start)
    return median(walls)


def per_layer(runner: Runner, workload: str, seed: int, seconds: float, tag: str) -> tuple[dict, dict]:
    from threshold_lab import cli

    from checker import check_output, check_pair
    from layers import Tracer, pass_metrics

    lines = WORKLOADS[workload]
    import_s = _import_s(runner)
    passes = []
    start = time.perf_counter()
    while _another_pass(start, len(passes), seconds):
        w1, w2 = Tracer(), Tracer()
        traced_s = untraced_s = 0.0
        output_bytes = 0
        for i, line in enumerate(lines):
            # the same seeds on every pass, so counts repeat exactly
            s = line_seed(seed, workload, i, "pass0")
            argv1, argv2 = line.argv + _arg(s, 1), line.argv + _arg(s, 2)
            code, wall, text = _in_process(argv1, cli.main)
            untraced_s += wall
            runner.record(f"{line.name} in-process", 1, code, check_output(line.argv, s, text)[1])
            with w1.installed(line.name):
                code1, wall, text1 = _in_process(argv1, w1.call_main)
            traced_s += wall
            with w2.installed(line.name):
                code2, _, text2 = _in_process(argv2, w2.call_main)
            runner.record(f"{line.name} traced", 2, max(code1, code2, key=abs),
                          check_pair(line.argv, s, text1, text2)[1])
            output_bytes += len(text1.encode())
        passes.append(pass_metrics(w1, w2, traced_s, untraced_s, import_s, output_bytes))
        if len(passes) == 1:
            w1.recorder.dump(WORK / f"spans-{tag}-w1.json")
            w2.recorder.dump(WORK / f"spans-{tag}-w2.json")
    metrics = {name: median(p[name] for p in passes) for name in passes[0]}
    return metrics, {"passes": passes}


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for entry in packed.read_text().splitlines():
            if entry.endswith(" " + name):
                return entry.split()[0]
    return "unknown"


def stamp() -> dict:
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def run_workload(runner: Runner, workload: str, seed: int, seconds: float, trace: int) -> dict:
    tag = f"{workload}-seed{seed}-trace{trace}"
    if trace:
        from layers import PER_LAYER

        values, detail = per_layer(runner, workload, seed, seconds, tag)
        metrics = {name: {"value": values[name], "unit": PER_LAYER[name][0]} for name in PER_LAYER}
        absent = sorted(n for n, (_, kind) in PER_LAYER.items() if kind != "computed" and not values[n])
        kinds = {name: kind for name, (_, kind) in PER_LAYER.items()}
        detail.update(kinds=kinds, absent_on_this_workload=absent)
        if absent:
            print(f"{workload}: not exercised by this workload (reported as 0): {', '.join(absent)}",
                  file=sys.stderr)
    else:
        values, detail = end_to_end(runner, workload, seed, seconds)
        metrics = {name: {"value": values[name], "unit": END_TO_END[name][0]} for name in END_TO_END}
    record = {
        "stamp": stamp(), "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "lines": [{"name": l.name, "argv": " ".join(l.argv), "why": l.why}
                  for l in WORKLOADS[workload]],
        "metrics": metrics, "problems": runner.problems, **detail,
    }
    (WORK / f"result-{tag}.json").write_text(json.dumps(record, indent=1))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "threshold_lab" / "__init__.py").is_file():
        print(f"error: no threshold_lab package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be one of: all, {', '.join(WORKLOADS)}")
    if args.seed < 0 or args.seconds < 1:
        parser.error("need --seed >= 0 and --seconds >= 1")

    runner = Runner()
    try:
        runner.run(("--version",), "warmup")  # compile the package once, untimed
        print(json.dumps(stamp()))
        result = {}
        for name in names:
            attempted, failed = runner.attempted, runner.failed
            metrics = run_workload(runner, name, args.seed, args.seconds, args.trace)
            attempts = runner.attempted - attempted
            print(f"{name}: failed_frac {(runner.failed - failed) / max(attempts, 1):.4f} "
                  f"({runner.failed - failed} of {attempts} command lines)")
            for metric, entry in metrics.items():
                print(f"{name}  {metric:40s} {entry['value']:.6g} {entry['unit']}")
            prefix = f"{name}." if len(names) > 1 else ""
            result.update({prefix + metric: entry for metric, entry in metrics.items()})
    finally:
        runner.close()
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
