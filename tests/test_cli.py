import json
import os

import pytest

from threshold_lab import cli
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


def test_design_rejects_large_n():
    with pytest.raises(SystemExit) as err:
        _run("design --n 40 --k 4 --t 2 --mode cover --r 0 --trials 2".split())
    assert err.value.code == 2


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
    report = capsys.readouterr().out
    assert "all checks passed" in report
    assert "cover-count n=6: PASS" in report


def test_env_var_workers(tmp_path, monkeypatch):
    monkeypatch.setenv("THRESHOLD_LAB_WORKERS", "2")
    a = tmp_path / "a.csv"
    args = "unionfree --n 6 --p 0.05 --trials 10 --seed 1".split()
    assert _run(args + ["--out", str(a)]) == 0
    monkeypatch.setenv("THRESHOLD_LAB_WORKERS", "1")
    b = tmp_path / "b.csv"
    assert _run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


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
        f"{_SCAN} --tol 0 --trials-per-eval 60",
        f"{_SIDON_SCAN} --tol 0 --trials-per-eval 60",
        f"{_SCAN} --tol 0.02 --trials-per-eval 0",
        f"{_SIDON_SCAN} --tol 1 --trials-per-eval 0",
    ],
)
def test_usage_errors_exit_2_before_any_trial(tmp_path, capsys, no_trials, args):
    with pytest.raises(SystemExit) as err:
        _run(args.format(tmp=tmp_path).split())
    assert err.value.code == 2
    stderr = capsys.readouterr().err
    assert "error:" in stderr and "Traceback" not in stderr
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", ["abc", "0", "-2"])
def test_bad_env_workers_exit_2(tmp_path, capsys, monkeypatch, no_trials, value):
    monkeypatch.setenv("THRESHOLD_LAB_WORKERS", value)
    with pytest.raises(SystemExit) as err:
        _run(_CHECK.split() + ["--out", str(tmp_path / "a.csv")])
    assert err.value.code == 2
    assert "THRESHOLD_LAB_WORKERS" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_default_workers_follow_cpu_affinity(monkeypatch):
    monkeypatch.delenv("THRESHOLD_LAB_WORKERS", raising=False)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5})
    assert cli._default_workers() == 3
