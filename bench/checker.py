"""Output checks for one threshold-lab command line.

No check compares against golden bytes: a sampler that is equal in law to
the current one still passes.  What is checked:

- the header echoes every parameter given on the command line and the seed;
- the rows number the trials 0..T-1 and each is complete;
- ``prop_holds`` agrees with the reported count;
- the mean of X or T lies within ``SIGMAS`` standard errors of its exact
  expectation, where one is known;
- a scan's probes are well formed and ``p_half`` lies in the bracket;
- the bytes at ``--workers 1`` and ``--workers 2`` are identical.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

import numpy as np

from threshold_lab import __version__
from threshold_lab.analysis import binomial_tail
from threshold_lab.designs import DesignParams, expected_deficient

SIGMAS = 6.0
# the mean is checked from this many trials up: below it, clustered counts
# (two selected sets sharing several targets) and the skewed waiting time
# leave the sample mean too far from normal for a 6-SE rule
MIN_MEAN_TRIALS = 20

_SUBCOMMANDS = ("sidon", "perm")
_KV = re.compile(r"(\w+)=(\S+)")
_SCAN_COLUMNS = ["param", "trials", "successes", "estimate", "ci_low", "ci_high"]


def parse_argv(argv) -> tuple[str, dict[str, str]]:
    """Split a command line into its command and a flag -> value map."""
    argv = list(argv)
    n_words = 2 if argv[0] in _SUBCOMMANDS else 1
    command = " ".join(argv[:n_words])
    flags: dict[str, str] = {}
    rest = argv[n_words:]
    i = 0
    while i < len(rest):
        name = rest[i][2:]
        if i + 1 < len(rest) and not rest[i + 1].startswith("--"):
            flags[name] = rest[i + 1]
            i += 2
        else:
            flags[name] = "1"
            i += 1
    return command, flags


def _same(a: str, b: str) -> bool:
    try:
        return float(a) == float(b)
    except ValueError:
        return a == b


@lru_cache(maxsize=None)
def waiting_mean(n_boxes: int, lam: int) -> float:
    """Exact mean lam-coverage waiting time, N * int_0^inf 1 - (1 - P(Poi(x) < lam))^N dx.

    Evaluated by Simpson's rule on a grid fine enough that the quadrature
    error is far below any standard error this benchmark meets.
    """
    x_max = math.log(n_boxes) + (lam - 1) * math.log(math.log(n_boxes + 2) + lam + 40) + 45
    x = np.linspace(0.0, x_max, 200_001)
    terms = np.zeros_like(x)
    term = np.ones_like(x)
    for j in range(lam):
        if j:
            term = term * x / j
        terms += term
    with np.errstate(divide="ignore"):
        q = np.exp(-x + np.log(terms))
        f = -np.expm1(n_boxes * np.log1p(-np.minimum(q, 1.0)))
    h = x[1] - x[0]
    integral = h / 3 * (f[0] + f[-1] + 4 * f[1:-1:2].sum() + 2 * f[2:-1:2].sum())
    return n_boxes * float(integral)


def mean_problem(values, ref: float, var_floor: float) -> str | None:
    """Flag a sample mean more than SIGMAS standard errors from ``ref``.

    The variance behind the standard error is at least ``var_floor`` (the
    reference variance where one is known) and at least 1/T, so it never
    vanishes when every sample is 0.
    """
    t = len(values)
    mean = math.fsum(values) / t
    s2 = math.fsum((v - mean) ** 2 for v in values) / (t - 1) if t > 1 else 0.0
    se = math.sqrt(max(s2, var_floor, 1.0 / t) / t)
    if abs(mean - ref) > SIGMAS * se:
        return f"mean {mean:.6g} is {abs(mean - ref) / se:.1f} SE from exact {ref:.6g}"
    return None


def _reference(command: str, params: dict[str, str]) -> tuple[float, float] | None:
    """Exact mean of the reported value and a variance floor, when known."""
    num = {k: float(v) for k, v in params.items() if _is_number(v)}
    if command == "balls":
        n, lam = int(num["boxes"]), int(num["lambda"])
        if params["mode"] == "waiting":
            # N^2 pi^2/6 is the limiting variance of T (Gumbel law of T/N)
            return waiting_mean(n, lam), math.pi ** 2 / 6 * n * n
        m = int(num["balls"])
        ref = n * binomial_tail(m, 1.0 / n, lam + 1, m) if m > lam else 0.0
        return ref, ref
    if command == "design":
        dp = DesignParams(int(num["n"]), int(num["k"]), int(num["t"]), int(num["lambda"]))
        p = num["p"]
        if params["mode"] == "cover":
            ref = expected_deficient(dp, p)
        else:
            m = dp.supersets_per_tset
            ref = dp.n_tsets * binomial_tail(m, p, dp.lam + 1, m) if m > dp.lam else 0.0
        return ref, ref
    if command in ("perm cover", "perm pack"):
        n, lam, p = int(num["n"]), int(num["lambda"]), num["p"]
        covers = n * n + 1
        if command == "perm cover":
            tail = binomial_tail(covers, p, 0, lam - 1)
        else:
            tail = binomial_tail(covers, p, lam + 1, covers) if covers > lam else 0.0
        ref = math.factorial(n) * tail
        return ref, ref
    return None


def _is_number(v: str) -> bool:
    try:
        float(v)
    except ValueError:
        return False
    return True


def _check_header(line: str, command: str, flags: dict[str, str], seed: int) -> tuple[dict, list]:
    problems = []
    prefix = f"# threshold-lab v{__version__} cmd={command} "
    if not line.startswith(prefix):
        return {}, [f"header does not start with {prefix!r}"]
    params = dict(_KV.findall(line[len(prefix):]))
    if params.get("seed") != str(seed):
        problems.append(f"header seed {params.get('seed')} != {seed}")
    for flag, value in flags.items():
        if flag == "waiting":
            if params.get("mode") != "waiting":
                problems.append("header mode is not waiting")
            continue
        key = flag.replace("-", "_")
        if key not in params or not _same(params[key], value):
            problems.append(f"header {key}={params.get(key)} does not echo --{flag} {value}")
    return params, problems


def check_output(argv, seed: int, text: str) -> tuple[int, list[str]]:
    """Check one CSV output; return (trials it reports, problems found)."""
    command, flags = parse_argv(argv)
    if not text.endswith("\n"):
        return 0, ["output does not end with a newline (truncated)"]
    lines = text.splitlines()
    if len(lines) < 3:
        return 0, [f"output has {len(lines)} lines, too few for a header and a row"]
    params, problems = _check_header(lines[0], command, flags, seed)
    if not params:
        return 0, problems
    columns = lines[1].split(",")
    rows = [row.split(",") for row in lines[2:]]
    if any(len(row) != len(columns) for row in rows):
        return 0, problems + ["a row has the wrong number of fields"]
    try:
        table = {c: [float(row[i]) for row in rows] for i, c in enumerate(columns)}
    except ValueError:
        return 0, problems + ["a field is not a number"]
    if command in ("scan", "sidon scan"):
        trials, scan_problems = _check_scan(table, params)
        return trials, problems + scan_problems
    trials = int(params["trials"])
    if table.get("trial") != [float(i) for i in range(trials)]:
        problems.append(f"expected trial indices 0..{trials - 1} in {len(rows)} rows")
        return 0, problems
    value_col = next((c for c in ("X", "T", "max_rep_count") if c in table), None)
    if value_col is None:
        return 0, problems + [f"no X, T or max_rep_count column in {columns}"]
    values = table[value_col]
    if "prop_holds" in table:
        problems += _check_holds(command, params, values, table["prop_holds"])
    ref = _reference(command, params)
    if ref is not None and trials >= MIN_MEAN_TRIALS:
        problem = mean_problem(values, *ref)
        if problem:
            problems.append(problem)
    return trials, problems


def _check_holds(command: str, params: dict, values, holds) -> list[str]:
    if any(h not in (0.0, 1.0) for h in holds):
        return ["prop_holds is not 0/1"]
    if command == "sidon basis":
        # the window minimum is not reported, but holding needs a max of at least g
        g = float(params["g"])
        bad = sum(1 for v, h in zip(values, holds) if h and v < g)
    elif command == "sidon check":
        g = float(params["g"])
        bad = sum(1 for v, h in zip(values, holds) if bool(h) != (v <= g))
    else:
        bad = sum(1 for v, h in zip(values, holds) if bool(h) != (v == 0))
    return [f"prop_holds disagrees with {command} counts in {bad} rows"] if bad else []


def _check_scan(table: dict, params: dict) -> tuple[int, list[str]]:
    if list(table) != _SCAN_COLUMNS:
        return 0, [f"scan columns {list(table)} are not {_SCAN_COLUMNS}"]
    problems = []
    lo, hi, tpe = float(params["lo"]), float(params["hi"]), int(params["trials_per_eval"])
    p_half = float(params["p_half"])
    if not lo <= p_half <= hi:
        problems.append(f"p_half {p_half} outside the bracket [{lo}, {hi}]")
    probes = table["param"]
    if len(probes) < 3 or min(probes) != lo or max(probes) != hi:
        problems.append("scan rows do not include both bracket ends and a midpoint")
    for trials, successes, estimate in zip(table["trials"], table["successes"], table["estimate"]):
        if trials != tpe or not 0 <= successes <= trials or estimate != successes / trials:
            problems.append("a probe row is inconsistent")
            break
    return int(sum(table["trials"])), problems


def check_pair(argv, seed: int, w1_text: str, w2_text: str) -> tuple[int, list[str]]:
    """Check the --workers 1 output and that --workers 2 wrote the same bytes."""
    trials, problems = check_output(argv, seed, w1_text)
    if w1_text != w2_text:
        problems.append("--workers 1 and --workers 2 outputs differ")
    return trials, problems
