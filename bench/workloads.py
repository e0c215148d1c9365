"""The benchmark's workloads: fixed lists of threshold-lab command lines.

Each line is run as ``python -m threshold_lab <argv> --seed S --workers W``
at W = 1 and W = 2.  ``setup`` is the line's set-up probe: the same command
at ``--trials 1`` or, for a scan, the single-point command at its ``--lo``.
Trial counts are sized so one pass over a workload (every line at both
worker counts) takes several seconds on a 2-core box, which leaves room for
a few passes per run.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Line:
    name: str
    argv: tuple[str, ...]
    setup: tuple[str, ...]
    why: str


def _line(name: str, argv: str, setup: str, why: str) -> Line:
    return Line(name, tuple(argv.split()), tuple(setup.split()), why)


WORKLOADS: dict[str, tuple[Line, ...]] = {
    "packing": (
        _line(
            "balls-overfull",
            "balls --boxes 1000000 --lambda 1 --balls 1000 --trials 300",
            "balls --boxes 1000000 --lambda 1 --balls 1000 --trials 1",
            "bincount over 10^6 boxes to place 1000 balls",
        ),
        _line(
            "design-pack",
            "design --n 14 --k 4 --t 2 --lambda 1 --mode pack --p 0.002 --trials 4000",
            "design --n 14 --k 4 --t 2 --lambda 1 --mode pack --p 0.002 --trials 1",
            "tiny trials, so per-trial stream derivation is a large share",
        ),
        _line(
            "unionfree-20",
            "unionfree --n 20 --p 1e-05 --trials 60",
            "unionfree --n 20 --p 1e-05 --trials 1",
            "2^20 coin flips to select about 10 sets",
        ),
        _line(
            "unionfree-14",
            "unionfree --n 14 --p 0.0031622776601683794 --trials 400",
            "unionfree --n 14 --p 0.0031622776601683794 --trials 1",
            "bound by the pure-Python union-collision predicate",
        ),
        _line(
            "sidon-check",
            "sidon check --n 1000000 --h 2 --g 1 --k 32 --trials 16",
            "sidon check --n 1000000 --h 2 --g 1 --k 32 --trials 1",
            "10^6 flips and a 2*10^6-bin pair-sum table per trial",
        ),
        _line(
            "perm-pack",
            "perm pack --n 7 --lambda 1 --p 0.002 --trials 400",
            "perm pack --n 7 --lambda 1 --p 0.002 --trials 1",
            "sparse selection over the 40320-row n=7 pattern table",
        ),
    ),
    "covering": (
        _line(
            "balls-waiting-1e4",
            "balls --boxes 10000 --lambda 2 --waiting --trials 200",
            "balls --boxes 10000 --lambda 2 --waiting --trials 1",
            "2-coverage waiting time of 10^4 boxes",
        ),
        _line(
            "balls-waiting-1e6",
            "balls --boxes 1000000 --lambda 2 --waiting --trials 2",
            "balls --boxes 1000000 --lambda 2 --waiting --trials 1",
            "2-coverage waiting time of 10^6 boxes, about 0.4 s a trial",
        ),
        _line(
            "design-cover",
            "design --n 20 --k 5 --t 2 --lambda 2 --mode cover --r 0 --trials 400",
            "design --n 20 --k 5 --t 2 --lambda 2 --mode cover --r 0 --trials 1",
            "dense selection over the 15504-row incidence table",
        ),
        _line(
            "perm-cover",
            "perm cover --n 8 --lambda 2 --r 0 --trials 30",
            "perm cover --n 8 --lambda 2 --r 0 --trials 1",
            "362880-row pattern table build and dense bincount",
        ),
        _line(
            "sidon-basis",
            "sidon basis --n 10000 --h 2 --g 2 --alpha 0.5 --A 0 --trials 100",
            "sidon basis --n 10000 --h 2 --g 2 --alpha 0.5 --A 0 --trials 1",
            "dense selection, so pair-sum tables of about 600 elements",
        ),
    ),
    "scan": (
        _line(
            "scan-design-cover",
            "scan --experiment design-cover --n 20 --k 5 --t 2 --lambda 2"
            " --lo 0.001 --hi 0.02 --tol 0.0005 --trials-per-eval 300",
            "design --n 20 --k 5 --t 2 --lambda 2 --mode cover --p 0.001 --trials 1",
            "each probe opens a pool whose workers rebuild the incidence table",
        ),
        _line(
            "scan-sidon",
            "sidon scan --n 10000 --h 2 --g 1 --lo 2 --hi 50 --tol 0.5 --trials-per-eval 200",
            "sidon check --n 10000 --h 2 --g 1 --k 2 --trials 1",
            "nine probes of the bounded-multiplicity property over k",
        ),
        _line(
            "scan-unionfree",
            "scan --experiment unionfree --n 12 --lo 1e-4 --hi 1e-2 --tol 2.5e-4"
            " --trials-per-eval 400",
            "unionfree --n 12 --p 1e-4 --trials 1",
            "short predicate-bound probes, so pool start-up shows at 2 workers",
        ),
    ),
}

WHY = {
    "packing": "sparse at-most-lambda selections from large universes at their packing thresholds",
    "covering": "dense at-least-lambda selections over big tables, and waiting times to N=10^6",
    "scan": "stochastic bisection: many short probes, each opening its own process pool",
}
