"""Command-line front end: experiment dispatch, seeding, CSV/JSON emission.

One process runs one experiment and writes one table.  Every output carries
a header recording the package version, the full parameter set, and the
master seed, which is sufficient to replay the run; the worker count is
deliberately omitted since it never affects the output bytes.

Each command is one entry of ``_EXPERIMENTS``: its help, flags and kind, and
a function that checks the flags against each other and returns the header
parameters plus the work: ``(columns, trial)`` for fixed trials,
``make_trial`` for a bisection, ``(columns, rows)`` for an exhaustive table.
A model module is imported by the experiments that use it.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
import tempfile
from functools import partial
from typing import Callable, NamedTuple, NoReturn

from . import __version__
from .analysis import _usable_cpus, map_trials, threshold_bisect
from .errors import BracketError, BudgetExceededError

def _number_in(kind: type, low: float, high: float = math.inf, *, above=False, below=False):
    """argparse ``type``: an int or float in [low, high], open at low when ``above``
    and at high when ``below``; nan lies in no interval."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__}: {text!r}") from None
        if not (low < value if above else low <= value) or not (
                value < high if below else value <= high):
            raise argparse.ArgumentTypeError(f"must lie in {'(' if above else '['}{low}, "
                                             f"{high}{')' if below else ']'}, got {value}")
        return value

    return parse


_positive_int = _number_in(int, 1)
_finite_float = _number_in(float, -math.inf, above=True, below=True)
_positive_float = _number_in(float, 0.0, above=True, below=True)
_probability = _number_in(float, 0.0, 1.0)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_number_in(int, 0, 2**64 - 1), default=0,
                        help="master seed, a 64-bit unsigned integer (default 0)")
    parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="trial parallelism (default: usable CPU count)")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")


def _check_common(args, parser: argparse.ArgumentParser) -> None:
    """Resolve the worker count and vet --out before any trial runs."""
    if args.workers is None:
        args.workers = _usable_cpus()
    if args.out is not None:
        if not args.out:
            parser.error("--out: empty path")
        if not os.path.isdir(os.path.dirname(os.path.realpath(args.out))):
            parser.error(f"--out {args.out}: its directory does not exist")
        if os.path.isdir(args.out):
            parser.error(f"--out {args.out}: is a directory")


_COUNT_COLUMNS = ["trial", "X", "prop_holds"]
_REP_COLUMNS = ["trial", "max_rep_count", "prop_holds"]
_CHECK_COLUMNS = ["check", "n", "ok", "observed", "bound"]
_SCAN_COLUMNS = ["param", "trials", "successes", "estimate", "ci_low", "ci_high"]


def _balls(args):
    from . import balls
    if args.waiting == (args.n_balls is not None):
        raise ValueError("give exactly one of --balls or --waiting")
    params = {"boxes": args.boxes, "lambda": args.lam}
    if args.waiting:
        if args.lam > balls.MAX_WAITING_LAM:
            raise ValueError(f"--waiting needs --lambda <= {balls.MAX_WAITING_LAM}")
        params.update(mode="waiting", trials=args.trials)
        trial = partial(balls.waiting_trial, n_boxes=args.boxes, lam=args.lam)
        return params, ["trial", "T"], trial
    params.update(mode="balls", balls=args.n_balls, trials=args.trials)
    trial = partial(balls.overfull_trial, n_boxes=args.boxes, lam=args.lam, n_balls=args.n_balls)
    return params, ["trial", "X"], trial


def _design_trial(args, cover: bool):
    """The design's sizes, and p -> its deficiency (``cover``) or overfull trial."""
    from . import designs
    dp = designs.DesignParams(args.n, args.k, args.t, args.lam)
    trial = designs.deficiency_trial if cover else designs.overfull_trial
    return dp, lambda p: partial(trial, params=dp, p=p)


def _design(args):
    from . import designs
    dp, make_trial = _design_trial(args, args.mode == "cover")
    if (args.p is None) == (args.r is None):
        raise ValueError("give exactly one of --p or --r")
    if args.mode == "pack" and args.p is None:
        raise ValueError("pack mode needs an explicit --p")
    p = designs.covering_threshold_p(dp, args.r) if args.p is None else args.p
    params = {"n": args.n, "k": args.k, "t": args.t, "lambda": args.lam,
              "mode": args.mode, "p": p, "trials": args.trials}
    if args.r is not None:
        params["r"] = args.r
    return params, _COUNT_COLUMNS, make_trial(p)


def _sidon_trial(args):
    """k -> the bounded-multiplicity trial at membership probability k/n."""
    from . import sidon
    return lambda k: partial(sidon.bh_g_trial, n=args.n, h=args.h, g=args.g, p=k / args.n)


def _sidon_check(args):
    trial = _sidon_trial(args)(args.k)
    p = trial.keywords["p"]
    if not 0.0 <= p <= 1.0:
        raise ValueError("--k must lie in [0, n]")
    params = {"n": args.n, "h": args.h, "g": args.g, "k": args.k, "p": p, "trials": args.trials}
    return params, _REP_COLUMNS, trial


def _sidon_basis(args):
    from . import sidon
    p = sidon.basis_threshold_p(args.n, args.h, args.g, args.alpha, args.a_shift)
    params = {"n": args.n, "h": args.h, "g": args.g, "alpha": args.alpha,
              "A": args.a_shift, "p": p, "trials": args.trials}
    trial = partial(sidon.truncated_basis_trial, n=args.n, h=args.h, g=args.g,
                    alpha=args.alpha, p=p)
    return params, _REP_COLUMNS, trial


def _sidon_enum(args):
    from . import sidon
    count = (sidon.count_equal_sum_tuples(args.n, args.h, args.g)[args.l]
             if args.l <= args.h * (args.g + 1) else 0)  # no tuple system uses more values
    params = {"n": args.n, "h": args.h, "g": args.g, "l": args.l}
    return params, ["n", "l", "count"], [(args.n, args.l, count)]


def _sidon_scan(args):
    """Bisect over the cardinality scale k; membership probability k/n."""
    if not 0 <= args.lo < args.hi <= args.n:
        raise ValueError("need 0 <= --lo < --hi <= n")
    return {"n": args.n, "h": args.h, "g": args.g}, _sidon_trial(args)


def _checks(max_n: int, max_n_cover: int):
    """One row per exhaustive cover-count and joint-cover check."""
    from . import perms
    params = {"max_n": max_n, "max_n_cover": max_n_cover}
    rows = [("cover-count", n, passed, worst, expected)
            for n, passed, worst, expected in perms.verify_cover_counts(max_n_cover)]
    for n, nb_ok, nb_max, joint_ok, joint_max in perms.verify_joint_bounds(max_n):
        rows.append(("neighborhood", n, nb_ok, nb_max, n**3))
        rows.append(("joint-covers", n, joint_ok, joint_max, 4))
    return params, _CHECK_COLUMNS, rows


def _perm_cover(args):
    from . import perms
    p = perms.covering_threshold_p(args.n, args.lam, args.r)
    params = {"n": args.n, "lambda": args.lam, "r": args.r, "p": p, "trials": args.trials}
    return params, _COUNT_COLUMNS, partial(perms.cover_trial, n=args.n, lam=args.lam, p=p)


def _perm_pack(args):
    from . import perms
    params = {"n": args.n, "lambda": args.lam, "p": args.p, "trials": args.trials}
    return params, _COUNT_COLUMNS, partial(perms.pack_trial, n=args.n, lam=args.lam, p=args.p)


def _union_trial(n: int):
    from . import unionfree
    if not 1 <= n <= unionfree._MAX_GROUND:
        raise ValueError(f"need 1 <= --n <= {unionfree._MAX_GROUND}")
    return lambda p: partial(unionfree.union_collision_trial, n=n, p=p)


def _unionfree(args):
    from . import unionfree
    trial = _union_trial(args.n)(args.p)
    params = {"n": args.n, "p": args.p, "trials": args.trials}
    if args.exact_obstacles:
        params["obstacles_formula"] = unionfree.union_obstacle_count(args.n)
        if args.n <= 4:
            params["obstacles_exact"] = unionfree.union_obstacle_bruteforce(args.n)
    return params, _COUNT_COLUMNS, trial


def _scan(args):
    """Bisect over the selection probability p."""
    if not args.lo < args.hi:
        raise ValueError("need 0 <= --lo < --hi <= 1")
    params = {"experiment": args.experiment, "n": args.n}
    if args.experiment == "unionfree":
        for flag, value in (("--k", args.k), ("--t", args.t), ("--lambda", args.lam)):
            if value is not None:
                raise ValueError(f"{flag} applies to design scans only")
        return params, _union_trial(args.n)
    if args.k is None or args.t is None:
        raise ValueError("design scans need --k and --t")
    args.lam = 1 if args.lam is None else args.lam
    params.update({"k": args.k, "t": args.t, "lambda": args.lam})
    return params, _design_trial(args, args.experiment == "design-cover")[1]


class _Parser(argparse.ArgumentParser):
    """Reads a negative number in any float form, such as -1e-3, as a value,
    which Python 3.11's argparse reads as an unknown option unless like -1.5."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


class _Experiment(NamedTuple):
    help: str
    flags: dict[str, dict]
    kind: str  # "trials", "bisect" or "table"
    run: Callable


def _req(type_, **kw) -> dict:
    return {"type": type_, "required": True, **kw}


_TRIALS = {"--trials": _req(_positive_int)}
_LAMBDA = {"--lambda": {"dest": "lam", "type": _positive_int, "default": 1}}
_NHG = {"--n": _req(_positive_int), "--h": _req(_number_in(int, 2)), "--g": _req(_positive_int)}
_PERM_N = {"--n": _req(_number_in(int, 3, 10))}
_BISECT = {"--target": {"type": _number_in(float, 0.0, 1.0, above=True, below=True),
                       "default": 0.5}, "--tol": _req(_positive_float),
           "--trials-per-eval": _req(_positive_int)}
_GROUPS = {"sidon": "bounded-multiplicity sums and truncated bases",
           "perm": "pattern containment between adjacent sizes"}

_EXPERIMENTS = {
    "balls": _Experiment("overfull boxes and coverage waiting times", {
        "--boxes": _req(_positive_int), **_LAMBDA, **_TRIALS,
        "--balls": {"dest": "n_balls", "type": _number_in(int, 0), "default": None,
                    "help": "throw this many balls; report overfull count"},
        "--waiting": {"action": "store_true", "help": "report coverage waiting time"},
    }, "trials", _balls),
    "design": _Experiment("k-subset families covering/packing t-subsets", {
        "--n": _req(int), "--k": _req(int), "--t": _req(int), **_LAMBDA,
        "--mode": {"choices": ("cover", "pack"), "required": True},
        "--r": {"type": _finite_float, "help": "offset on the covering threshold curve"},
        "--p": {"type": _probability, "default": None, "help": "explicit selection probability"},
        **_TRIALS,
    }, "trials", _design),
    "sidon check": _Experiment("bounded-multiplicity property under Bernoulli membership", {
        **_NHG, "--k": _req(float, help="cardinality scale; membership probability is k/n"),
        **_TRIALS,
    }, "trials", _sidon_check),
    "sidon basis": _Experiment("truncated-basis property at an offset on its threshold curve", {
        "--n": _req(int), "--h": _req(int), "--g": _req(_positive_int), "--alpha": _req(float),
        "--A": {"dest": "a_shift", "type": float, "default": 0.0}, **_TRIALS,
    }, "trials", _sidon_basis),
    "sidon enum-bhg": _Experiment("exhaustive equal-sum tuple-system count", {
        **_NHG, "--l": _req(_positive_int),
    }, "table", _sidon_enum),
    "sidon scan": _Experiment("bisect the bounded-multiplicity transition over k", {
        **_NHG, "--lo": _req(float, help="bracket low end (k scale)"),
        "--hi": _req(float, help="bracket high end (k scale)"), **_BISECT,
    }, "bisect", _sidon_scan),
    "perm verify-lemmas": _Experiment("exhaustive cover-count and joint-cover checks", {
        "--max-n": {"type": _number_in(int, 2, 8), "default": 5},
        "--max-n-cover": {"type": _number_in(int, 1, 9), "default": None,
                          "help": "cover-count check size (default max-n + 1)"},
    }, "table", lambda args: _checks(
        args.max_n, args.max_n + 1 if args.max_n_cover is None else args.max_n_cover)),
    "perm cover": _Experiment("covering transition at an offset r", {
        **_PERM_N, **_LAMBDA, "--r": _req(_finite_float), **_TRIALS,
    }, "trials", _perm_cover),
    "perm pack": _Experiment("packing trials at explicit p", {
        **_PERM_N, **_LAMBDA, "--p": _req(_probability), **_TRIALS,
    }, "trials", _perm_pack),
    "unionfree": _Experiment("union collisions over random subfamilies of a power set", {
        "--n": _req(int), "--p": _req(_probability), **_TRIALS,
        "--exact-obstacles": {"action": "store_true",
                              "help": "also report the exhaustive obstacle census (n <= 4)"},
    }, "trials", _unionfree),
    "scan": _Experiment("bisect a transition in selection probability", {
        "--experiment": {"choices": ("design-cover", "design-pack", "unionfree"),
                         "required": True},
        "--n": _req(int), "--k": {"type": int, "default": None},
        "--t": {"type": int, "default": None},
        "--lambda": {**_LAMBDA["--lambda"], "default": None},
        "--lo": _req(_probability), "--hi": _req(_probability), **_BISECT,
    }, "bisect", _scan),
    "verify": _Experiment("run the exhaustive verification suite at default budgets", {},
                          "table", lambda args: _checks(5, 6)),
}


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="threshold-lab", description="packing/covering threshold experiments")
    top.add_argument("--version", action="version", version=f"threshold-lab {__version__}")
    sub = top.add_subparsers(dest="command", required=True)
    groups = {}
    for name, experiment in _EXPERIMENTS.items():
        group, _, leaf = name.rpartition(" ")
        if group and group not in groups:
            groups[group] = sub.add_parser(group, help=_GROUPS[group]).add_subparsers(
                dest=f"{group}_command", required=True)
        p = (groups[group] if group else sub).add_parser(leaf, help=experiment.help)
        for flag, kw in experiment.flags.items():
            p.add_argument(flag, **kw)
        _add_common(p)
        p.set_defaults(experiment_name=name, command_parser=p)
    return top


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(args, command: str, params: dict, columns: list[str], rows: list[tuple]) -> None:
    if args.format == "csv":
        kv = " ".join(f"{k}={v}" for k, v in params.items())
        lines = [f"# threshold-lab v{__version__} cmd={command} {kv} seed={args.seed}",
                 ",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        import json
        payload = {"version": __version__, "command": command, "params": params,
                   "seed": args.seed, "columns": columns, "rows": [list(row) for row in rows]}
        text = json.dumps(payload, indent=None, separators=(",", ":")) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    if os.path.exists(args.out) and not os.path.isfile(args.out):
        # a FIFO or a device cannot be replaced by a rename: write through
        with open(args.out, "w") as fh:
            fh.write(text)
        return
    # atomic: never leave partial output behind; a symlink keeps pointing at
    # its target, which is written in the target's directory
    target = os.path.realpath(args.out)
    fd, tmp = tempfile.mkstemp(prefix=".threshold-lab-", dir=os.path.dirname(target))
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def _rows(args, kind: str, params: dict, work: tuple) -> tuple[list[str], list[tuple]]:
    """Run the experiment's work; return its columns and rows."""
    if kind == "table":
        return work
    if kind == "trials":
        columns, trial = work
        results = map_trials(trial, args.trials, args.seed, args.workers)
        # a trial returns T or (X, holds); a row keeps as many fields as there are columns
        return columns, [((i, *r) if isinstance(r, tuple) else (i, r))[: len(columns)]
                         for i, r in enumerate(results)]
    [make_trial] = work
    scan = threshold_bisect(make_trial, args.lo, args.hi, target=args.target, workers=args.workers,
                            trials_per_eval=args.trials_per_eval, tol=args.tol, seed=args.seed)
    params.update({"lo": args.lo, "hi": args.hi, "target": args.target, "tol": args.tol,
                   "trials_per_eval": args.trials_per_eval, "p_half": scan.p_half})
    rows = [(param, s.trials, s.successes, s.estimate, s.ci_low, s.ci_high)
            for param, s in scan.rows]
    return _SCAN_COLUMNS, rows


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # usage errors print the usage of the command that was parsed
    parser = args.command_parser
    _check_common(args, parser)
    name = args.experiment_name
    experiment = _EXPERIMENTS[name]
    try:
        try:
            params, *work = experiment.run(args)
        except ValueError as exc:
            parser.error(str(exc))
        columns, rows = _rows(args, experiment.kind, params, work)
    except (BudgetExceededError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(args, name, params, columns, rows)
    # an exhaustive table of checks fails when any of its checks does
    return 0 if "ok" not in columns or all(row[columns.index("ok")] for row in rows) else 1


def entry() -> NoReturn:
    """``python -m threshold_lab`` and the ``threshold-lab`` script: run
    ``main`` and exit with its code.  The heap is frozen first, so the
    interpreter's collections at exit walk none of the objects the run
    left (numpy's among them); atexit handlers and the stdio flush still run.
    """
    code = main()
    gc.freeze()
    sys.exit(code)
