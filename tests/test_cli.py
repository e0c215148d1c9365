import gc
import hashlib
import json
import multiprocessing
import os
import shlex
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from threshold_lab import analysis, cli, perms
from threshold_lab.cli import main


def _run(argv):
    return main(argv)


def test_balls_happy_path(tmp_path):
    out = tmp_path / "w.csv"
    code = _run(
        "balls --boxes 1000 --lambda 2 --waiting --trials 5 --seed 7".split()
        + ["--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# threshold-lab v")
    assert "seed=7" in lines[0]
    assert lines[1] == "trial,T"
    assert len(lines) == 7


def test_balls_overfull_mode(tmp_path):
    out = tmp_path / "x.csv"
    code = _run(
        "balls --boxes 100 --lambda 1 --balls 40 --trials 4 --seed 1".split()
        + ["--out", str(out)]
    )
    assert code == 0
    assert out.read_text().splitlines()[1] == "trial,X"


def test_design_runs_past_n_30(tmp_path):
    # only the memory budget limits n
    out = tmp_path / "d.csv"
    assert _run("design --n 40 --k 4 --t 2 --mode cover --r 0 --trials 2".split()
                + ["--out", str(out)]) == 0
    assert out.read_text().splitlines()[1] == "trial,X,prop_holds"


def test_perm_runs_at_n_10_without_its_level(tmp_path):
    # r = -1000 clamps p to 0: no rank is drawn, so no level of S_10 is
    # built, and all 10! patterns are undercovered
    out = tmp_path / "p.csv"
    builds = perms._pattern_level.cache_info().misses
    assert _run("perm cover --n 10 --r -1000 --trials 1 --workers 1".split()
                + ["--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == ["trial,X,prop_holds", "0,3628800,0"]
    assert perms._pattern_level.cache_info().misses == builds


def test_design_requires_p_or_r():
    with pytest.raises(SystemExit) as err:
        _run("design --n 10 --k 4 --t 2 --mode cover --trials 2".split())
    assert err.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as err:
        _run("balls --boxes 10 --nonsense 3".split())
    assert err.value.code == 2


def test_sidon_enum_run(tmp_path):
    out = tmp_path / "b.csv"
    code = _run("sidon enum-bhg --n 20 --h 2 --g 1 --l 4".split() + ["--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,l,count"
    assert lines[2] == "20,4,525"


def test_sidon_enum_budget_exit_1(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code = _run("sidon enum-bhg --n 9000 --h 2 --g 1 --l 3".split() + ["--out", str(out)])
    assert code == 1
    assert not out.exists()  # no partial output on failure
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        "balls --boxes 10 --lambda 1 --balls 100000000000000 --trials 1",
        "balls --boxes 1000000000000 --lambda 1 --waiting --trials 2 --workers 2",
    ],
)
def test_balls_memory_budget_exit_1(tmp_path, capsys, args):
    # the draws are sized in bytes before they are allocated
    _assert_budget_exit_1(tmp_path, capsys, args)


@pytest.mark.parametrize(
    "args",
    [
        "unionfree --n 24 --p 0.001 --trials 1",
        "unionfree --n 24 --p 0.001 --trials 2 --workers 2",
        "unionfree --n 30 --p 0.9 --trials 1",
        "design --n 24 --k 12 --t 6 --mode cover --p 0.5 --trials 1",
        "design --n 24 --k 12 --t 6 --mode pack --p 0.001 --trials 2 --workers 2",
        "design --n 100000 --k 100000 --t 99999 --mode cover --r 0 --trials 1",
        "design --n 2000 --k 1999 --t 1998 --mode cover --r 0 --trials 1",
        "sidon basis --n 2000000000 --h 2 --g 2 --alpha 0.5 --A 0 --trials 1",
        "sidon check --n 1000000000 --h 3 --g 1 --k 2000 --trials 2 --workers 2",
        "sidon check --n 100000000 --h 2 --g 1 --k 50000000 --trials 1",
    ],
)
def test_table_memory_budget_exit_1(tmp_path, capsys, args):
    # the union matrix of ~16800 members, a 0.9 selection of 2^30
    # ranks, the 2704156 x 924 incidence table, the 10^10 positions
    # of a 1 x 10^5 one, the 1998 gather passes over a 2000 x 1999 one,
    # a 4*10^9-bin pair-sum table, ~1.3*10^9 tuple sums and a selection of
    # ~5*10^7 of 10^8 indices are sized in bytes before they are allocated
    _assert_budget_exit_1(tmp_path, capsys, args)


def test_sidon_multiplicity_priced_before_the_draw(tmp_path, capsys):
    # the ~5*10^13 tuple sums of 10^7 elements were refused only once 10^7
    # ranks had been drawn; pricing the cheaper count of the selection's
    # floor refuses them first
    tracemalloc.start()
    try:
        _assert_budget_exit_1(tmp_path, capsys, "sidon check --n 1000000000000000 --h 2 --g 1"
                                                " --k 10000000 --trials 1 --workers 1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert _run("sidon check --n 20000000 --h 2 --g 1 --k 5 --trials 1 --workers 1".split()
                + ["--out", str(tmp_path / "few.csv")]) == 0


def _assert_budget_exit_1(tmp_path, capsys, args):
    out = tmp_path / "never.csv"
    assert _run(args.split() + ["--out", str(out)]) == 1
    assert not out.exists()
    stderr = capsys.readouterr().err
    assert "memory budget" in stderr and "Traceback" not in stderr


@pytest.mark.parametrize("line", ["unionfree --n 8 --p 0.01 --trials 6 --seed 3",
                                  "balls --boxes 5 --lambda 1 --balls 10 --trials 2 --seed 3"])
def test_json_mirrors_csv(tmp_path, line):
    csv_out = tmp_path / "a.csv"
    json_out = tmp_path / "a.json"
    args = line.split()
    assert _run(args + ["--out", str(csv_out)]) == 0
    assert _run(args + ["--out", str(json_out), "--format", "json"]) == 0
    payload = json.loads(json_out.read_text())
    lines = csv_out.read_text().splitlines()
    assert payload["columns"] == lines[1].split(",")
    assert len(payload["rows"]) == len(lines) - 2
    for row, line in zip(payload["rows"], lines[2:]):
        assert [str(int(v)) for v in row] == line.split(",")
    assert payload["seed"] == 3


def test_identical_invocations_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = "design --n 10 --k 3 --t 2 --mode cover --r 1 --trials 20 --seed 11".split()
    assert _run(args + ["--out", str(a)]) == 0
    assert _run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_worker_count_does_not_change_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = "sidon check --n 500 --h 2 --g 1 --k 6 --trials 30 --seed 5".split()
    assert _run(args + ["--out", str(a), "--workers", "1"]) == 0
    assert _run(args + ["--out", str(b), "--workers", "3"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_happy_path(tmp_path):
    out = tmp_path / "scan.csv"
    code = _run(
        (
            "scan --experiment unionfree --n 8 --lo 0.002 --hi 0.2 "
            "--tol 0.02 --trials-per-eval 60 --seed 2"
        ).split()
        + ["--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "param,trials,successes,estimate,ci_low,ci_high"
    assert "p_half=" in lines[0]
    params = [float(l.split(",")[0]) for l in lines[2:]]
    assert params == sorted(params)


def test_scan_inverted_bracket_exit_1(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = _run(
        (
            "scan --experiment unionfree --n 8 --lo 0.15 --hi 0.6 "
            "--tol 0.05 --trials-per-eval 40 --seed 2"
        ).split()
        + ["--out", str(out)]
    )
    assert code == 1
    assert not out.exists()
    assert "straddle" in capsys.readouterr().err


def test_verify_exit_zero(capsys):
    assert _run(["verify"]) == 0
    report = capsys.readouterr().out.splitlines()
    assert report[1] == "check,n,ok,observed,bound"
    assert "cover-count,6,1,37,37" in report
    assert all(line.split(",")[2] == "1" for line in report[2:])


def test_verify_lemmas_honours_out_and_format(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert _run("perm verify-lemmas --max-n 3 --format json".split() + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(out.read_text())
    assert payload["command"] == "perm verify-lemmas"
    assert payload["columns"] == ["check", "n", "ok", "observed", "bound"]
    assert ["joint-covers", 3, True, 4, 4] in payload["rows"]
    assert len(payload["rows"]) == 4 + 2 * 2  # cover counts n = 1..4, joints n = 2..3


def test_verify_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(perms, "verify_cover_counts", lambda max_n: [(1, False, 3, 2)])
    assert _run(["verify"]) == 1
    assert "cover-count,1,0,3,2" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "args",
    [
        "scan --experiment design-cover --n 10 --k 3 --t 2 --lo 0.02 --hi 0.5 "
        "--tol 0.02 --trials-per-eval 60 --seed 4",
        "sidon scan --n 2000 --h 2 --g 1 --lo 2 --hi 60 --tol 2 --trials-per-eval 60 --seed 4",
    ],
    ids=["design-cover", "sidon"],
)
def test_scan_worker_count_does_not_change_bytes(tmp_path, args):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(args.split() + ["--out", str(a), "--workers", "1"]) == 0
    assert _run(args.split() + ["--out", str(b), "--workers", "2"]) == 0
    assert a.read_bytes() == b.read_bytes()


_CHECK = "sidon check --n 500 --h 2 --g 1 --k 6 --trials 30"
_SCAN = "scan --experiment unionfree --n 8 --lo 0.002 --hi 0.2"
_SIDON_SCAN = "sidon scan --n 500 --h 2 --g 1 --lo 2 --hi 20"


@pytest.fixture
def no_trials(monkeypatch):
    """Fail the test if any trial runs."""

    def refuse(*args, **kwargs):
        raise AssertionError("trials ran before the usage error")

    monkeypatch.setattr(cli, "map_trials", refuse)
    monkeypatch.setattr(cli, "threshold_bisect", refuse)


@pytest.mark.parametrize(
    "args",
    [
        f"{_CHECK} --seed -1",
        f"{_CHECK} --seed {2**64}",
        f"{_CHECK} --workers 0",
        f"{_CHECK} --out {{tmp}}/missing/f.csv",
        f"{_CHECK} --out {{tmp}}",
        f"{_CHECK} --out ''",
        f"{_SCAN} --tol 0 --trials-per-eval 60",
        f"{_SIDON_SCAN} --tol 0 --trials-per-eval 60",
        f"{_SCAN} --tol 0.02 --trials-per-eval 0",
        f"{_SCAN} --tol 0.02 --trials-per-eval 60 --target 1.5",
        f"{_SCAN} --tol 0.02 --trials-per-eval 60 --target -0.2",
        f"{_SCAN} --tol 0.02 --trials-per-eval 60 --target nan",
        f"{_SIDON_SCAN} --tol 1 --trials-per-eval 0",
        # a tolerance is finite, as JSON has no infinity
        f"{_SCAN} --tol inf --trials-per-eval 60 --format json",
        f"{_SIDON_SCAN} --tol inf --trials-per-eval 60 --format json",
        "sidon enum-bhg --n 20 --h 2 --g 1 --l 0",
        "sidon enum-bhg --n 20 --h 2 --g 1 --l -1",
        "perm verify-lemmas --max-n 2 --max-n-cover -3",
        "perm verify-lemmas --max-n 9",
        "perm verify-lemmas --max-n 2 --max-n-cover 10",
        "sidon basis --n 1000 --h 2 --g 0 --alpha 0.5 --trials 3",
        # an offset on the threshold curve is finite, as JSON has no nan or infinity
        "design --n 14 --k 4 --t 2 --mode cover --r nan --trials 3",
        "perm cover --n 5 --lambda 1 --r nan --trials 2",
        "design --n 14 --k 4 --t 2 --mode cover --r inf --trials 3 --format json",
        "design --n 14 --k 4 --t 2 --mode cover --r -inf --trials 3 --format json",
        "perm cover --n 3 --r inf --trials 1 --format json",
        "perm cover --n 3 --r -inf --trials 1 --format json",
        # perms stop at n = 10, whose level of S_10 takes 218 MB
        "perm cover --n 11 --r -1000 --trials 1",
        "perm pack --n 2 --p 0.1 --trials 1",
        # float64 Gamma draws stop resolving the waiting time's spread
        "balls --boxes 3 --lambda 4294967297 --waiting --trials 1",
        # counts past 2^53, refused before C(10^6, 5*10^5) is computed
        "design --n 1000000 --k 500000 --t 1 --mode pack --p 0.1 --trials 1",
        "scan --experiment design-cover --n 1000000 --k 500000 --t 1 --lo 0.002 --hi 0.2"
        " --tol 0.02 --trials-per-eval 60",
        # past unionfree's ground-set cap
        "unionfree --n 63 --p 0.001 --trials 2",
        "scan --experiment unionfree --n 63 --lo 0.002 --hi 0.2 --tol 0.02 --trials-per-eval 60",
    ],
)
def test_usage_errors_exit_2_before_any_trial(tmp_path, capsys, no_trials, args):
    with pytest.raises(SystemExit) as err:
        _run(shlex.split(args.format(tmp=tmp_path)))
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "error:" in stderr and "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, value", [
    ("design --n 10 --k 3 --t 2 --mode cover --trials 5 --r", "-1e-3"),
    ("sidon basis --n 200 --h 2 --g 2 --alpha 0.5 --trials 3 --A", "-2e0"),
], ids=["design", "sidon-basis"])
def test_a_negative_number_in_exponent_form_is_a_value(tmp_path, command, value):
    # Python 3.11's argparse reads -1e-3, unlike -0.001, as an unknown option
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(command.split() + [value, "--workers", "1", "--out", str(a)]) == 0
    argv = command.split()
    argv[-1] += f"={value}"
    assert _run(argv + ["--workers", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args, command", [
    ("unionfree --n 63 --p 0.1 --trials 2", "unionfree"),
    (f"{_CHECK} --out {{tmp}}", "sidon check"),
], ids=["handler", "common"])
def test_usage_errors_print_the_commands_usage(tmp_path, capsys, no_trials, args, command):
    with pytest.raises(SystemExit) as err:
        _run(args.format(tmp=tmp_path).split())
    assert err.value.code == 2
    assert f"usage: threshold-lab {command} " in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--k 3", "--t 9", "--lambda 7", "--lambda 1"])
def test_a_unionfree_scan_refuses_design_flags(capsys, no_trials, flag):
    with pytest.raises(SystemExit) as err:
        _run(f"{_SCAN} --tol 0.05 --trials-per-eval 40 {flag}".split())
    assert err.value.code == 2
    assert f"{flag.split()[0]} applies to design scans only" in capsys.readouterr().err


def test_a_design_scan_defaults_to_lambda_1(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("scan --experiment design-pack --n 8 --k 3 --t 2 --lo 0.001 --hi 0.5 --tol 0.05"
            " --trials-per-eval 60 --seed 5 --workers 1").split()
    assert _run(args + ["--out", str(a)]) == 0
    assert _run(args + ["--lambda", "1", "--out", str(b)]) == 0
    assert " lambda=1 " in a.read_text().splitlines()[0]
    assert a.read_bytes() == b.read_bytes()


def test_default_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
    args = cli.build_parser().parse_args(_CHECK.split())
    cli._check_common(args, args.command_parser)
    assert args.workers == 3


def test_default_workers_without_cpu_affinity(tmp_path, monkeypatch, opened):
    # where os has no sched_getaffinity (macOS, Windows), the CPU count is the
    # default worker count and caps the pool; a free pool makes the run fork
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(analysis, "_POOL_START_S", 0.0)
    args = "unionfree --n 8 --p 0.05 --trials 12 --seed 3".split()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(args + ["--out", str(a)]) == 0
    assert opened == [2]
    assert _run(args + ["--out", str(b), "--workers", "1"]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("args", [
    "unionfree --n 8 --p 0.05 --trials 12 --seed 3",
    "scan --experiment unionfree --n 8 --lo 0.002 --hi 0.2 --tol 0.05 --trials-per-eval 40"
    " --seed 2",
], ids=["trials", "scan"])
def test_a_pooled_run_leaves_no_process_behind(tmp_path, monkeypatch, opened, args):
    # a free pool stands in for costly trials, so every run of the rest forks
    monkeypatch.setattr(analysis, "_POOL_START_S", 0.0)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(args.split() + ["--out", str(a), "--workers", "2"]) == 0
    assert opened and set(opened) == {2}
    assert multiprocessing.active_children() == []
    assert _run(args.split() + ["--out", str(b), "--workers", "1"]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("exists", [True, False], ids=["target", "dangling"])
def test_out_through_a_symlink_replaces_its_target(tmp_path, exists):
    target = tmp_path / "real" / "out.csv"
    target.parent.mkdir()
    if exists:
        target.write_text("old\n")
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    assert _run(_BALLS.split() + ["--out", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target
    assert target.read_text().startswith("# threshold-lab v")
    assert list(target.parent.iterdir()) == [target]  # no temp file left beside it


def test_out_to_a_fifo_writes_through(tmp_path):
    regular, fifo = tmp_path / "out.csv", tmp_path / "fifo"
    assert _run(_BALLS.split() + ["--out", str(regular)]) == 0
    os.mkfifo(fifo)
    read = []
    # a daemon, so a run that never opens the FIFO cannot hold the suite open
    reader = threading.Thread(target=lambda: read.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert _run(_BALLS.split() + ["--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert read == [regular.read_bytes()]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(tmp_path.iterdir()) == [fifo, regular]


# every public name the package exported by eager import, by defining module
_EXPORTED = {
    "analysis": "EULER_GAMMA MonteCarloSummary ThresholdScan binomial_tail "
                "gumbel_sup_distance loglog_slope map_trials poisson_tv_distance run_trials "
                "threshold_bisect wilson_interval",
    "balls": "OccupancyState count_overfull normalize_waiting_time packing_threshold_n "
             "waiting_time waiting_time_mean",
    "designs": "DesignParams covering_threshold_p deficiency_count expected_deficient "
               "overfull_count packing_threshold_p",
    "errors": "BracketError BudgetExceededError",
    "perms": "packing_threshold_bounds",
    "rng": "bernoulli_ranks derive_stream throw_balls",
    "sidon": "basis_threshold_p count_equal_sum_tuples representation_counts "
             "sidon_threshold_k",
    "unionfree": "count_union_collisions janson_delta_bound "
                 "union_obstacle_bruteforce union_obstacle_count wuf_threshold_p",
}
_BALLS = "balls --boxes 10 --balls 5 --trials 1 --workers 1"


def _python(*args, env=None) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_package_import_is_lazy_and_keeps_every_name():
    _python("-c", f"""
import importlib, sys
import threshold_lab
assert "numpy" not in sys.modules, "import threshold_lab loaded numpy"
listed, star = dir(threshold_lab), {{}}
exec("from threshold_lab import *", star)
for module, names in {_EXPORTED!r}.items():
    defining = importlib.import_module("threshold_lab." + module)
    assert getattr(threshold_lab, module) is defining, module
    for name in names.split():
        assert getattr(threshold_lab, name) is getattr(defining, name), name
        assert name in listed and star[name] is getattr(defining, name), name
""")


# the console script's target, "module:function", as pyproject.toml declares it
_SCRIPT_MODULE, _SCRIPT_FUNCTION = next(
    line.split('"')[1] for line in (Path(__file__).resolve().parents[1] / "pyproject.toml")
    .read_text().splitlines() if line.startswith("threshold-lab = ")).split(":")
# each entry point as its launcher runs it, in a fresh interpreter
_ENTRY_POINTS = {
    "python -m": "runpy.run_module('threshold_lab', run_name='__main__', alter_sys=True)",
    "console script":
        f"sys.exit(importlib.import_module({_SCRIPT_MODULE!r}).{_SCRIPT_FUNCTION}())",
}


def _run_entry(entry: str, report: str, tmp_path, env=None, argv=_BALLS) -> list[str]:
    """Words of ``report``'s output after an ``argv`` run through ``entry``."""
    code = (f"import gc, importlib, os, runpy, sys\ntry:\n    {_ENTRY_POINTS[entry]}\n"
            f"except SystemExit as done:\n    assert done.code == 0\nprint({report})")
    argv = [*argv.split(), "--out", str(tmp_path / "out.csv")]
    return _python("-c", code, *argv, env=env).stdout.split()


@pytest.mark.parametrize("argv, used", [
    (_BALLS, "balls"),
    ("scan --experiment unionfree --n 8 --lo 0.002 --hi 0.2 --tol 0.05 --trials-per-eval 60"
     " --seed 2 --workers 1", "unionfree"),
], ids=["balls", "scan-unionfree"])
def test_a_run_imports_only_what_its_command_uses(tmp_path, argv, used):
    # read from sys.modules: -X importtime does not list a submodule that
    # ``from . import name`` loads
    loaded = set(_run_entry("python -m", "*sys.modules", tmp_path, argv=argv))
    assert {"numpy", f"threshold_lab.{used}"} <= loaded
    unused = {"concurrent.futures", "json"} | {
        f"threshold_lab.{m}" for m in ("balls", "designs", "perms", "sidon", "unionfree")
        if m != used}
    assert not loaded & unused


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_entry_points_freeze_the_heap_before_exit(tmp_path, entry):
    # so the interpreter's collections at exit skip what the run left
    assert _run_entry(entry, "gc.get_freeze_count() > 0", tmp_path) == ["True"]


def test_an_in_process_run_leaves_the_heap_unfrozen(tmp_path):
    frozen = gc.get_freeze_count()
    assert _run(_BALLS.split() + ["--out", str(tmp_path / "out.csv")]) == 0
    assert gc.get_freeze_count() == frozen


@pytest.mark.parametrize("caller", [None, "3"], ids=["unset", "caller-set"])
@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_entry_points_pin_blas_to_one_thread(tmp_path, entry, caller):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    report = "os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task'))"
    setting, threads = _run_entry(entry, report, tmp_path, env)
    assert setting == (caller or "1")
    if caller is None:
        assert threads == "1"  # numpy loaded, and no OpenBLAS thread was started


@pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
def test_entry_points_map_no_openssl(tmp_path, entry):
    # numpy.random would load _hashlib, and so libcrypto, through secrets and hmac
    report = ("any(lib in line for line in open('/proc/self/maps') for lib in ('libcrypto', 'libssl')),"
              " sys.modules['_hashlib'] is None,"
              " importlib.import_module('hashlib').sha256(b'').hexdigest()")
    assert _run_entry(entry, report, tmp_path) == [
        "False", "True", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"]


def test_importing_the_cli_changes_no_process_state():
    # the entry points set both before numpy loads; a module that imports
    # the CLI keeps its environment and OpenSSL's digests
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    _python("-c", """
import os, sys, types
import threshold_lab.cli
import hashlib
assert "OPENBLAS_NUM_THREADS" not in os.environ
assert isinstance(sys.modules["_hashlib"], types.ModuleType)
assert hasattr(hashlib, "scrypt")
""", env=env)


def test_an_in_process_run_keeps_a_loaded_hashlib(tmp_path):
    argv = [*_BALLS.split(), "--out", str(tmp_path / "out.csv")]
    _python("-c", f"""
import sys
import _hashlib
from threshold_lab.cli import main
assert main({argv!r}) == 0
assert sys.modules["_hashlib"] is _hashlib
""")


# sha256 of each line's output bytes at --workers 1; a sampler change that
# moves any of them updates the digest here and logs the output change
_GOLDEN = [
    ("balls --boxes 100 --lambda 1 --balls 40 --trials 5 --seed 1",
     "e721a283e37049ba2636e880174de773720aa7a7b7dc1081fd90cbbf00e4d832"),
    ("balls --boxes 1000 --lambda 2 --waiting --trials 5 --seed 7",
     "356c85a02f62c05f44fe13daa357f7c37261b3dcd45a9e22e69f4c6e0a58c1d8"),
    ("balls --boxes 50 --lambda 3 --waiting --trials 4 --seed 8 --format json",
     "5c68ee5b7046ec2960e7a20fa630c3f6656322b9b3e7b653d255a64dbcce2025"),
    ("design --n 10 --k 3 --t 2 --mode cover --r 1 --trials 20 --seed 11",
     "9672b58818c850f6686c094c1d78c9c7be0d5ade6030872eb5f187517c5e4d3b"),
    ("design --n 9 --k 4 --t 2 --lambda 2 --mode cover --p 0.2 --trials 10 --seed 13",
     "14c40ec0b99226dc0674903045a23101e568e98ade9ff94c9f2b1720849c5ed8"),
    ("design --n 10 --k 4 --t 2 --lambda 2 --mode pack --p 0.05 --trials 20 --seed 12"
     " --format json",
     "2a8934eed1056655b245fe70ae828cb65323e4da351f78a4f31d6f71d10e605e"),
    ("sidon check --n 500 --h 2 --g 1 --k 6 --trials 30 --seed 5",
     "418bda49ec9427587b6ac31c1aef931b750c2cef9b9d7e09b1c06ed0e6c94e98"),
    ("sidon check --n 200 --h 3 --g 1 --k 5 --trials 10 --seed 6 --format json",
     "6c74e48d8c772a5615b3d155b17b6f766f1addd96424fc268c1ceaff289fff6f"),
    ("sidon basis --n 200 --h 2 --g 2 --alpha 0.5 --A 0 --trials 10 --seed 3",
     "c1aad333b5e658e097f205fdaf622feff8c55986ea2c897f563bbdf14e8d2cdc"),
    # about 600 elements a trial, so the pair sums cross two row blocks
    ("sidon basis --n 10000 --h 2 --g 2 --alpha 0.5 --A 0 --trials 3 --seed 14",
     "809a8d98bb83a0c3c5c81547357205b99b44dc72efcf7392bd6d3cb35c956454"),
    ("sidon enum-bhg --n 20 --h 2 --g 1 --l 4 --format json",
     "8061d9de22041b7add61346414c2c4e13d6357872be03ccef96aef329655eec6"),
    ("sidon scan --n 2000 --h 2 --g 1 --lo 2 --hi 60 --tol 2 --trials-per-eval 60 --seed 4",
     "ec896c30c59d86c6424dc4d8bb5b914b6f6f00e72afaacbf0f08ad1260dda912"),
    ("perm verify-lemmas --max-n 3",
     "12769b994d653e42f8eb09ca46c83954f37ad80be16b0a09a25f56cb00886d57"),
    ("perm verify-lemmas --max-n 3 --max-n-cover 2 --format json",
     "951d8bebb6e0bfa715aa818725156ffde73cd0f781347735e08c23d67fc730e6"),
    ("perm cover --n 5 --lambda 1 --r 0 --trials 10 --seed 8",
     "d2d48717aa4fc8d55af8f9b44dc1c6712cb7501e5ccd32629559333728374cb6"),
    ("perm pack --n 5 --lambda 1 --p 0.02 --trials 10 --seed 9 --format json",
     "2348699d9dd3d550cf36a81f281c44e79a13520770d991f259c4781595f4eeea"),
    # about 71k selected rows of 9 ranks a trial, so the count crosses ten blocks
    ("perm cover --n 8 --lambda 2 --r 0 --trials 2 --seed 15",
     "48f207be0acdf64a4ff9ada74eaf1f6b76b5dba692871e1e21d9215c10c9d19d"),
    # uint32 rows of S_10 derived from the uint16 level of S_9
    ("perm pack --n 9 --lambda 1 --p 0.0005 --trials 2 --seed 17",
     "80da4f7f8bc0ac0482825b6e27aa5c49422b1ad89f61ababe864a48b56b1e2c5"),
    ("unionfree --n 8 --p 0.01 --trials 6 --seed 3",
     "b94a97bc68ac2a26e807b887f436a2afdedaae6df7c2cea29908c6a770e3d673"),
    ("unionfree --n 4 --p 0.3 --trials 5 --exact-obstacles --seed 2 --format json",
     "83d25372c9ac86f3db1322758c7ae30cdbf49c1c41e8654ee5240c3d1fe2cfd5"),
    ("scan --experiment unionfree --n 8 --lo 0.002 --hi 0.2 --tol 0.02 --trials-per-eval 60"
     " --seed 2",
     "f6521406ab30e31f69a447b5508e3a402f06a805ca9263aedbbe94516247033c"),
    ("scan --experiment design-cover --n 10 --k 3 --t 2 --lo 0.02 --hi 0.5 --tol 0.02"
     " --trials-per-eval 60 --seed 4 --format json",
     "aa58bfe313dff542355a0b4fb1a75e617d7f6363f7c90f26385ff94d0d007477"),
    ("scan --experiment design-pack --n 8 --k 3 --t 2 --lo 0.001 --hi 0.5 --tol 0.05"
     " --trials-per-eval 60 --seed 5",
     "9d53fda9007f8b5e9eca618485a5d9a0baeca515e485467d137ae09b53981fc9"),
    ("verify --format json",
     "b11d06fab11691f4dbb7fb575173c791220ee3a11afd75bbcc8c8eafadd60478"),
    # the census at h = 3 and at g = 2
    ("sidon enum-bhg --n 40 --h 3 --g 1 --l 5",
     "850e26c72ab830f1c26f185b37f24ecd1403ea4597f24c2f856faf8a5f56da13"),
    ("sidon enum-bhg --n 60 --h 2 --g 2 --l 5",
     "c957e569f5008f248cd388e309fbc6498deeef33a465beb359096ca74494c24b"),
    # past h(g+1) distinct values, answered without the census its budget refuses
    ("sidon enum-bhg --n 9000 --h 2 --g 1 --l 99",
     "ab87cbd420976a7b1fbb4e174e0bbff8cad25329622ca7d73398c36ee89b02f3"),
]


@pytest.mark.parametrize("args, digest", _GOLDEN, ids=range(len(_GOLDEN)))
def test_output_bytes_match_recorded_digests(tmp_path, args, digest):
    out = tmp_path / "out"
    assert _run(args.split() + ["--workers", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args
