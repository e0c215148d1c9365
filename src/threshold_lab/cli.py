"""Command-line front end: experiment dispatch, seeding, CSV/JSON emission.

One process runs one experiment and writes one table.  Every output carries
a header recording the package version, the full parameter set, and the
master seed, which is sufficient to replay the run; the worker count is
deliberately omitted since it never affects the output bytes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from functools import partial

from . import __version__
from .analysis import map_trials, threshold_bisect
from .errors import BracketError, BudgetExceededError
from . import balls, designs, perms, sidon, unionfree

_FORMAT_CHOICES = ("csv", "json")


def _int_in(low: int, high: float = math.inf):
    """argparse ``type`` for an integer in ``[low, high]``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}], got {value}")
        return value

    return parse


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


_positive_int = _int_in(1)


def _default_workers() -> int:
    """THRESHOLD_LAB_WORKERS if set, else the CPUs this process may run on."""
    env = os.environ.get("THRESHOLD_LAB_WORKERS")
    if env:
        return _positive_int(env)
    return len(os.sched_getaffinity(0))


def _prop_trial(stream, fn, **kw) -> bool:
    """Adapter: run a (value, holds) trial and keep the boolean."""
    return fn(stream, **kw)[1]


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_int_in(0, 2**64 - 1), default=0,
                        help="master seed, a 64-bit unsigned integer (default 0)")
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=None,
        help="trial parallelism (default: THRESHOLD_LAB_WORKERS or usable CPU count)",
    )
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--format", choices=_FORMAT_CHOICES, default="csv")


def _check_common(args, parser: argparse.ArgumentParser) -> None:
    """Resolve the worker count and vet --out before any trial runs."""
    if args.workers is None:
        try:
            args.workers = _default_workers()
        except argparse.ArgumentTypeError as exc:
            parser.error(f"THRESHOLD_LAB_WORKERS {exc}")
    if args.out is not None:
        if not os.path.isdir(os.path.dirname(os.path.abspath(args.out))):
            parser.error(f"--out {args.out}: its directory does not exist")
        if os.path.isdir(args.out):
            parser.error(f"--out {args.out}: is a directory")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="threshold-lab",
        description="packing/covering threshold experiments",
    )
    top.add_argument("--version", action="version", version=f"threshold-lab {__version__}")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("balls", help="overfull boxes and coverage waiting times")
    p.add_argument("--boxes", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=1)
    p.add_argument("--trials", type=int, required=True)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--balls", dest="n_balls", type=int, help="throw this many balls; report overfull count")
    mode.add_argument("--waiting", action="store_true", help="report coverage waiting time")
    _add_common(p)

    p = sub.add_parser("design", help="k-subset families covering/packing t-subsets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=1)
    p.add_argument("--mode", choices=("cover", "pack"), required=True)
    p.add_argument("--r", type=float, default=None, help="offset on the covering threshold curve")
    p.add_argument("--p", type=float, default=None, help="explicit selection probability")
    p.add_argument("--trials", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("sidon", help="bounded-multiplicity sums and truncated bases")
    sidon_sub = p.add_subparsers(dest="sidon_command", required=True)

    q = sidon_sub.add_parser("check", help="bounded-multiplicity property under Bernoulli membership")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--h", type=int, required=True)
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--k", type=float, required=True, help="cardinality scale; membership probability is k/n")
    q.add_argument("--trials", type=int, required=True)
    _add_common(q)

    q = sidon_sub.add_parser("basis", help="truncated-basis property at an offset on its threshold curve")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--h", type=int, required=True)
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--alpha", type=float, required=True)
    q.add_argument("--A", dest="a_shift", type=float, default=0.0)
    q.add_argument("--trials", type=int, required=True)
    _add_common(q)

    q = sidon_sub.add_parser("enum-bhg", help="exhaustive equal-sum tuple-system count")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--h", type=int, required=True)
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--l", type=int, required=True)
    _add_common(q)

    q = sidon_sub.add_parser("scan", help="bisect the bounded-multiplicity transition over k")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--h", type=int, required=True)
    q.add_argument("--g", type=int, required=True)
    q.add_argument("--lo", type=float, required=True, help="bracket low end (k scale)")
    q.add_argument("--hi", type=float, required=True, help="bracket high end (k scale)")
    q.add_argument("--target", type=float, default=0.5)
    q.add_argument("--tol", type=_positive_float, required=True)
    q.add_argument("--trials-per-eval", type=_positive_int, required=True)
    _add_common(q)

    p = sub.add_parser("perm", help="pattern containment between adjacent sizes")
    perm_sub = p.add_subparsers(dest="perm_command", required=True)

    q = perm_sub.add_parser("verify-lemmas", help="exhaustive cover-count and joint-cover checks")
    q.add_argument("--max-n", type=int, default=5)
    q.add_argument("--max-n-cover", type=int, default=None, help="cover-count check size (default max-n + 1)")
    _add_common(q)

    q = perm_sub.add_parser("cover", help="covering transition at an offset r")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--lambda", dest="lam", type=int, default=1)
    q.add_argument("--r", type=float, required=True)
    q.add_argument("--trials", type=int, required=True)
    _add_common(q)

    q = perm_sub.add_parser("pack", help="packing trials at explicit p")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--lambda", dest="lam", type=int, default=1)
    q.add_argument("--p", type=float, required=True)
    q.add_argument("--trials", type=int, required=True)
    _add_common(q)

    p = sub.add_parser("unionfree", help="union collisions over random subfamilies of a power set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--exact-obstacles", action="store_true",
                   help="also report the exhaustive obstacle census (n <= 4)")
    _add_common(p)

    p = sub.add_parser("scan", help="bisect a transition in selection probability")
    p.add_argument("--experiment", choices=("design-cover", "design-pack", "unionfree"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=int, default=1)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, required=True)
    p.add_argument("--target", type=float, default=0.5)
    p.add_argument("--tol", type=_positive_float, required=True)
    p.add_argument("--trials-per-eval", type=_positive_int, required=True)
    _add_common(p)

    p = sub.add_parser("verify", help="run the exhaustive verification suite at default budgets")
    _add_common(p)

    return top


def _meta_line(command: str, params: dict, seed: int) -> str:
    kv = " ".join(f"{k}={v}" for k, v in params.items())
    return f"# threshold-lab v{__version__} cmd={command} {kv} seed={seed}"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _emit(args, command: str, params: dict, columns: list[str], rows: list[tuple]) -> None:
    if args.format == "csv":
        lines = [_meta_line(command, params, args.seed), ",".join(columns)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        payload = {
            "version": __version__,
            "command": command,
            "params": params,
            "seed": args.seed,
            "columns": columns,
            "rows": [list(row) for row in rows],
        }
        text = json.dumps(payload, indent=None, separators=(",", ":")) + "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    # atomic: never leave partial output behind
    directory = os.path.dirname(os.path.abspath(args.out)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".threshold-lab-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, args.out)
    except BaseException:
        os.unlink(tmp)
        raise


def _scan_rows(scan) -> list[tuple]:
    return [
        (param, s.trials, s.successes, s.estimate, s.ci_low, s.ci_high)
        for param, s in scan.rows
    ]


_SCAN_COLUMNS = ["param", "trials", "successes", "estimate", "ci_low", "ci_high"]


def _run_balls(args, parser) -> int:
    if args.boxes < 1 or args.lam < 1 or args.trials < 1:
        parser.error("need --boxes >= 1, --lambda >= 1, --trials >= 1")
    if args.waiting:
        fn = partial(balls.waiting_trial, n_boxes=args.boxes, lam=args.lam)
        results = map_trials(fn, args.trials, args.seed, args.workers)
        params = {"boxes": args.boxes, "lambda": args.lam, "mode": "waiting", "trials": args.trials}
        _emit(args, "balls", params, ["trial", "T"], list(enumerate(results)))
    else:
        if args.n_balls < 0:
            parser.error("--balls must be non-negative")
        fn = partial(balls.overfull_trial, n_boxes=args.boxes, lam=args.lam, n_balls=args.n_balls)
        results = map_trials(fn, args.trials, args.seed, args.workers)
        params = {"boxes": args.boxes, "lambda": args.lam, "mode": "balls",
                  "balls": args.n_balls, "trials": args.trials}
        _emit(args, "balls", params, ["trial", "X"], [(i, x) for i, (x, _) in enumerate(results)])
    return 0


def _run_design(args, parser) -> int:
    try:
        dp = designs.DesignParams(args.n, args.k, args.t, args.lam)
    except ValueError as exc:
        parser.error(str(exc))
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    if (args.p is None) == (args.r is None):
        parser.error("give exactly one of --p or --r")
    if args.mode == "pack" and args.p is None:
        parser.error("pack mode needs an explicit --p")
    if args.p is not None:
        if not 0.0 <= args.p <= 1.0:
            parser.error("--p must lie in [0, 1]")
        p = args.p
    else:
        p = designs.covering_threshold_p(dp, args.r, clamp=True)
    trial = designs.deficiency_trial if args.mode == "cover" else designs.overfull_trial
    fn = partial(trial, params=dp, p=p)
    results = map_trials(fn, args.trials, args.seed, args.workers)
    params = {"n": args.n, "k": args.k, "t": args.t, "lambda": args.lam,
              "mode": args.mode, "p": p, "trials": args.trials}
    if args.r is not None:
        params["r"] = args.r
    rows = [(i, x, holds) for i, (x, holds) in enumerate(results)]
    _emit(args, "design", params, ["trial", "X", "prop_holds"], rows)
    return 0


def _run_sidon(args, parser) -> int:
    if args.sidon_command == "enum-bhg":
        if args.n < 1 or args.h < 2 or args.g < 1:
            parser.error("need --n >= 1, --h >= 2, --g >= 1")
        count = sidon.count_equal_sum_tuples(args.n, args.h, args.g, args.l)
        params = {"n": args.n, "h": args.h, "g": args.g, "l": args.l}
        _emit(args, "sidon enum-bhg", params, ["n", "l", "count"],
              [(args.n, args.l, count)])
        return 0
    if args.sidon_command == "check":
        if args.n < 1 or args.h < 2 or args.g < 1 or args.trials < 1:
            parser.error("need --n >= 1, --h >= 2, --g >= 1, --trials >= 1")
        p = args.k / args.n
        if not 0.0 <= p <= 1.0:
            parser.error("--k must lie in [0, n]")
        fn = partial(sidon.bh_g_trial, n=args.n, h=args.h, g=args.g, p=p)
        results = map_trials(fn, args.trials, args.seed, args.workers)
        params = {"n": args.n, "h": args.h, "g": args.g, "k": args.k, "p": p,
                  "trials": args.trials}
        rows = [(i, top, holds) for i, (top, holds) in enumerate(results)]
        _emit(args, "sidon check", params, ["trial", "max_rep_count", "prop_holds"], rows)
        return 0
    if args.sidon_command == "basis":
        if args.trials < 1:
            parser.error("--trials must be at least 1")
        try:
            p = sidon.basis_threshold_p(args.n, args.h, args.g, args.alpha, args.a_shift)
        except ValueError as exc:
            parser.error(str(exc))
        fn = partial(sidon.truncated_basis_trial, n=args.n, h=args.h, g=args.g,
                     alpha=args.alpha, p=p)
        results = map_trials(fn, args.trials, args.seed, args.workers)
        params = {"n": args.n, "h": args.h, "g": args.g, "alpha": args.alpha,
                  "A": args.a_shift, "p": p, "trials": args.trials}
        rows = [(i, top, holds) for i, (top, holds) in enumerate(results)]
        _emit(args, "sidon basis", params, ["trial", "max_rep_count", "prop_holds"], rows)
        return 0
    # scan over the cardinality scale k
    if args.n < 1 or args.h < 2 or args.g < 1:
        parser.error("need --n >= 1, --h >= 2, --g >= 1")
    if not 0 <= args.lo < args.hi <= args.n:
        parser.error("need 0 <= --lo < --hi <= n")

    def make_trial(k):
        return partial(_prop_trial, fn=sidon.bh_g_trial, n=args.n, h=args.h,
                       g=args.g, p=k / args.n)

    scan = threshold_bisect(
        make_trial, args.lo, args.hi, target=args.target,
        trials_per_eval=args.trials_per_eval, tol=args.tol, seed=args.seed,
        increasing=False, workers=args.workers,
    )
    params = {"n": args.n, "h": args.h, "g": args.g, "lo": args.lo, "hi": args.hi,
              "target": args.target, "tol": args.tol,
              "trials_per_eval": args.trials_per_eval, "p_half": scan.p_half}
    _emit(args, "sidon scan", params, _SCAN_COLUMNS, _scan_rows(scan))
    return 0


def _run_perm(args, parser) -> int:
    if args.perm_command == "verify-lemmas":
        max_n = args.max_n
        max_n_cover = args.max_n_cover if args.max_n_cover is not None else max_n + 1
        if max_n < 2 or max_n > 6 or max_n_cover > 7:
            parser.error("verification budgets: 2 <= --max-n <= 6, --max-n-cover <= 7")
        return _verify_report(max_n_cover, max_n)
    if not 3 <= args.n <= 9:
        parser.error("sampled transitions support 3 <= n <= 9")
    if args.lam < 1 or args.trials < 1:
        parser.error("need --lambda >= 1 and --trials >= 1")
    if args.perm_command == "cover":
        p = perms.covering_threshold_p(args.n, args.lam, args.r, clamp=True)
        fn = partial(perms.cover_trial, n=args.n, lam=args.lam, p=p)
        params = {"n": args.n, "lambda": args.lam, "r": args.r, "p": p, "trials": args.trials}
        command = "perm cover"
    else:
        if not 0.0 <= args.p <= 1.0:
            parser.error("--p must lie in [0, 1]")
        fn = partial(perms.pack_trial, n=args.n, lam=args.lam, p=args.p)
        params = {"n": args.n, "lambda": args.lam, "p": args.p, "trials": args.trials}
        command = "perm pack"
    results = map_trials(fn, args.trials, args.seed, args.workers)
    rows = [(i, x, holds) for i, (x, holds) in enumerate(results)]
    _emit(args, command, params, ["trial", "X", "prop_holds"], rows)
    return 0


def _run_unionfree(args, parser) -> int:
    if not 1 <= args.n <= 24:
        parser.error("need 1 <= --n <= 24")
    if not 0.0 <= args.p <= 1.0:
        parser.error("--p must lie in [0, 1]")
    if args.trials < 1:
        parser.error("--trials must be at least 1")
    fn = partial(unionfree.union_collision_trial, n=args.n, p=args.p)
    results = map_trials(fn, args.trials, args.seed, args.workers)
    params = {"n": args.n, "p": args.p, "trials": args.trials}
    if args.exact_obstacles:
        params["obstacles_formula"] = unionfree.union_obstacle_count(args.n)
        if args.n <= 4:
            params["obstacles_exact"] = unionfree.union_obstacle_bruteforce(args.n)
    rows = [(i, x, holds) for i, (x, holds) in enumerate(results)]
    _emit(args, "unionfree", params, ["trial", "X", "prop_holds"], rows)
    return 0


def _run_scan(args, parser) -> int:
    if not 0.0 <= args.lo < args.hi <= 1.0:
        parser.error("need 0 <= --lo < --hi <= 1")
    params = {"experiment": args.experiment, "n": args.n}
    if args.experiment == "unionfree":
        if not 1 <= args.n <= 24:
            parser.error("need 1 <= --n <= 24")

        def make_trial(p):
            return partial(_prop_trial, fn=unionfree.union_collision_trial, n=args.n, p=p)

        increasing = False
    else:
        if args.k is None or args.t is None:
            parser.error("design scans need --k and --t")
        try:
            dp = designs.DesignParams(args.n, args.k, args.t, args.lam)
        except ValueError as exc:
            parser.error(str(exc))
        params.update({"k": args.k, "t": args.t, "lambda": args.lam})
        trial = (designs.deficiency_trial if args.experiment == "design-cover"
                 else designs.overfull_trial)
        increasing = args.experiment == "design-cover"

        def make_trial(p):
            return partial(_prop_trial, fn=trial, params=dp, p=p)

    scan = threshold_bisect(
        make_trial, args.lo, args.hi, target=args.target,
        trials_per_eval=args.trials_per_eval, tol=args.tol, seed=args.seed,
        increasing=increasing, workers=args.workers,
    )
    params.update({"lo": args.lo, "hi": args.hi, "target": args.target,
                   "tol": args.tol, "trials_per_eval": args.trials_per_eval,
                   "p_half": scan.p_half})
    _emit(args, "scan", params, _SCAN_COLUMNS, _scan_rows(scan))
    return 0


def _verify_report(max_n_cover: int, max_n_joint: int) -> int:
    ok = True
    for n, passed, worst, expected in perms.verify_cover_counts(max_n_cover):
        status = "PASS" if passed else "FAIL"
        if not passed:
            ok = False
        print(f"cover-count n={n}: {status} (every pattern has {expected} covers; saw {worst})")
    for n, nb_ok, nb_max, joint_ok, joint_max in perms.verify_joint_bounds(max_n_joint):
        status = "PASS" if nb_ok else "FAIL"
        if not nb_ok:
            ok = False
        print(f"neighborhood n={n}: {status} (max {nb_max} <= {n ** 3})")
        status = "PASS" if joint_ok else "FAIL"
        if not joint_ok:
            ok = False
        print(f"joint-covers n={n}: {status} (max {joint_max} <= 4)")
    print("verification:", "all checks passed" if ok else "FAILURES detected")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_common(args, parser)
    try:
        if args.command == "balls":
            return _run_balls(args, parser)
        if args.command == "design":
            return _run_design(args, parser)
        if args.command == "sidon":
            return _run_sidon(args, parser)
        if args.command == "perm":
            return _run_perm(args, parser)
        if args.command == "unionfree":
            return _run_unionfree(args, parser)
        if args.command == "scan":
            return _run_scan(args, parser)
        if args.command == "verify":
            return _verify_report(6, 5)
    except (BudgetExceededError, BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
