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
    # the union matrix of ~16800 members, the complement of a 0.1 selection
    # from 2^30 ranks, the 2704156 x 924 incidence table, the 10^10 positions
    # of a 1 x 10^5 one, the 1998 gather passes over a 2000 x 1999 one,
    # a 4*10^9-bin pair-sum table, ~1.3*10^9 tuple sums and a selection of
    # ~5*10^7 of 10^8 indices are sized in bytes before they are allocated
    _assert_budget_exit_1(tmp_path, capsys, args)


def _assert_budget_exit_1(tmp_path, capsys, args):
    out = tmp_path / "never.csv"
    assert _run(args.split() + ["--out", str(out)]) == 1
    assert not out.exists()
    stderr = capsys.readouterr().err
    assert "memory budget" in stderr and "Traceback" not in stderr


def test_json_mirrors_csv(tmp_path):
    csv_out = tmp_path / "a.csv"
    json_out = tmp_path / "a.json"
    args = "unionfree --n 8 --p 0.01 --trials 6 --seed 3".split()
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
     "f186b2576bdf2cedb99f87d4b2356ca6793de7165be1c2ff6d921ccb182d536e"),
    ("balls --boxes 1000 --lambda 2 --waiting --trials 5 --seed 7",
     "7b75a7d83ea85bc2aa93c9ff264d826a99694905699287804e6f2b23985077f4"),
    ("balls --boxes 50 --lambda 3 --waiting --trials 4 --seed 8 --format json",
     "69c43735d0921e556d3bb0603f6aed80b6bb914d49800445e017f6062a0d4154"),
    ("design --n 10 --k 3 --t 2 --mode cover --r 1 --trials 20 --seed 11",
     "c481159d943db584ac7665d42a1f42484c2243a88fecb9800d8c2d7425ee032c"),
    ("design --n 9 --k 4 --t 2 --lambda 2 --mode cover --p 0.2 --trials 10 --seed 13",
     "99b36ad13c043d49d7fe50ea59896e8608a3f17527ed12c2d0e5d6c3400a382e"),
    ("design --n 10 --k 4 --t 2 --lambda 2 --mode pack --p 0.05 --trials 20 --seed 12"
     " --format json",
     "f17d957dbaf27d2ed4c4bf4596ce79a099a491efff1a0af6a38f6cae2d64bc36"),
    ("sidon check --n 500 --h 2 --g 1 --k 6 --trials 30 --seed 5",
     "1a934f26446abb79e007e8816cff412b4f638ec6cfedbfdb184fb22448d09161"),
    ("sidon check --n 200 --h 3 --g 1 --k 5 --trials 10 --seed 6 --format json",
     "808226ea2223b1ce2fa82748a540654fee4d8f9437a2e85085ff0c62354fec9d"),
    ("sidon basis --n 200 --h 2 --g 2 --alpha 0.5 --A 0 --trials 10 --seed 3",
     "1476a7c97d656dda4490c59de5c04f8f22a48a5672fa0fb0be8abc76af6e54f8"),
    # about 600 elements a trial, so the pair sums cross two row blocks
    ("sidon basis --n 10000 --h 2 --g 2 --alpha 0.5 --A 0 --trials 3 --seed 14",
     "0a7c530010ef3f5c41a31f2e0765ee2193789e83e08e1d6083a28568dd7aa0a9"),
    ("sidon enum-bhg --n 20 --h 2 --g 1 --l 4 --format json",
     "1fd8a7a735e4e94c74c2701dfa798277d662ae73e68103ccacfa7ba2a080a217"),
    ("sidon scan --n 2000 --h 2 --g 1 --lo 2 --hi 60 --tol 2 --trials-per-eval 60 --seed 4",
     "ab89ac383005de82479377f8b2e6d52ef224b56df0429f3d70997d6769dd2854"),
    ("perm verify-lemmas --max-n 3",
     "0645c2663c179ae984fed457a946bb43e1a388b6bb64e0f39593f4e2e25bf0de"),
    ("perm verify-lemmas --max-n 3 --max-n-cover 2 --format json",
     "466b777852e00a014fed6341c849b6e73adb55b9f1302110dabe64253cd7be4e"),
    ("perm cover --n 5 --lambda 1 --r 0 --trials 10 --seed 8",
     "75319a478a04876acd999632867470bc4711d1203dc49b969597a4cb19e8074d"),
    ("perm pack --n 5 --lambda 1 --p 0.02 --trials 10 --seed 9 --format json",
     "27f1948af7d98f08d0e5a97f786424deccfce3ad30b56b71a58e104df418790f"),
    # about 71k selected rows of 9 ranks a trial, so the count crosses ten blocks
    ("perm cover --n 8 --lambda 2 --r 0 --trials 2 --seed 15",
     "e488801400b830b5db928862109680586a5525c536d9a490edd8a441c8b6de2a"),
    # uint32 rows of S_10 derived from the uint16 level of S_9
    ("perm pack --n 9 --lambda 1 --p 0.0005 --trials 2 --seed 17",
     "b16222978eddbcf44f0ff7d37702b601d1438e45419837cce3b80e025784eef2"),
    ("unionfree --n 8 --p 0.01 --trials 6 --seed 3",
     "cbbc8372bfe422984ce7f22f8f58ebe4dd3dbe7203c1f905472743efe6e5502f"),
    ("unionfree --n 4 --p 0.3 --trials 5 --exact-obstacles --seed 2 --format json",
     "0b30f2fa459720ea2ba4b5211f6e9db678e78ae76223513be4d44fd8f10e891b"),
    ("scan --experiment unionfree --n 8 --lo 0.002 --hi 0.2 --tol 0.02 --trials-per-eval 60"
     " --seed 2",
     "684cc2fc0e6925f50f995407983415a3e29a5c96867ec1cb286b7023a3a8203a"),
    ("scan --experiment design-cover --n 10 --k 3 --t 2 --lo 0.02 --hi 0.5 --tol 0.02"
     " --trials-per-eval 60 --seed 4 --format json",
     "4f0c15060703b58d6594678be049d974c186f0ec5b917fdfbcd3047d4694a0c9"),
    ("scan --experiment design-pack --n 8 --k 3 --t 2 --lo 0.001 --hi 0.5 --tol 0.05"
     " --trials-per-eval 60 --seed 5",
     "80026754c2421def31f2244182226011913e66fee69ce5cb443c423bee60c8aa"),
    ("verify --format json",
     "755f13ddbae84508e02b5cf00f70d8ee30037070f55ff3c0dadce4d16c0702d6"),
    # the census at h = 3 and at g = 2
    ("sidon enum-bhg --n 40 --h 3 --g 1 --l 5",
     "037a110504b23e59e48431b271b5e880d4a8d0b6ca3c21d21b2213170c6872e5"),
    ("sidon enum-bhg --n 60 --h 2 --g 2 --l 5",
     "677a16c8fd8687567172d3a91df8c22785839c2a597475a37730035638117266"),
]


@pytest.mark.parametrize("args, digest", _GOLDEN, ids=range(len(_GOLDEN)))
def test_output_bytes_match_recorded_digests(tmp_path, args, digest):
    out = tmp_path / "out"
    assert _run(args.split() + ["--workers", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, args
