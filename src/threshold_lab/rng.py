"""Deterministic random-stream management and elementary sampling primitives.

Every Monte Carlo experiment in this package draws one stream per trial,
derived as a pure function of ``(master seed, trial index)``.  Trials can
therefore be replayed or scheduled across any number of workers without
changing a single output bit.
"""

from __future__ import annotations

import numpy as np

from .errors import check_budget

__all__ = [
    "bernoulli_ranks",
    "derive_stream",
    "throw_balls",
]

_U64 = (1 << 64) - 1


def derive_stream(master: int, trial_index: int,
                  reuse: np.random.Generator | None = None) -> np.random.Generator:
    """Return the counter-based generator for one trial.

    The stream is keyed by the 128-bit value ``master << 64 | trial_index``,
    so distinct trial indices give statistically independent Philox streams
    and reconstruction in another process yields the identical sequence.
    Integer draws from the returned generator use Lemire-style rejection,
    not modulo reduction, so uniform sampling is unbiased.  ``reuse``, a
    generator from an earlier call, is re-keyed in place and returned; a
    fresh one is keyed the same way.
    """
    master = int(master)
    trial_index = int(trial_index)
    if not 0 <= master <= _U64:
        raise ValueError("master seed must be a 64-bit unsigned integer")
    if not 0 <= trial_index <= _U64:
        raise ValueError("trial_index must be a 64-bit unsigned integer")
    if reuse is None:
        reuse = np.random.Generator(np.random.Philox(0))
    reuse.bit_generator.state = {  # key words [index, master], counter 0, buffer empty
        "bit_generator": "Philox", "state": {"counter": (0,) * 4, "key": (trial_index, master)},
        "buffer": (0,) * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return reuse


def bernoulli_ranks(
    universe_size: int, p: float, stream: np.random.Generator
) -> np.ndarray:
    """Sorted int64 indices of ``[universe_size]``, each kept independently
    with probability p: a Binomial(universe_size, p) size, then that many
    distinct uniform ranks (Devroye 1986, ch. XII), the law of one coin per
    index at O(p * universe_size) draws.  Above p = 1/2 the dropped indices
    are drawn at 1 - p instead.  The bytes the selection allocates are
    checked against the memory budget once the size is drawn."""
    if universe_size < 0:
        raise ValueError("universe_size must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    q = min(p, 1.0 - p)
    size = int(stream.binomial(universe_size, q))
    # numpy's choice draws into a hash set of at most 2.4 * size + 1 int64
    # slots or, once size passes U/20 at U > 10000 (numpy 2.4), shuffles an
    # int64 arange of the whole universe, charged here from U/50 on; the sort
    # copies the choice, and the complement adds a mask and the ranks it keeps
    shuffled = size > universe_size // 50
    check_budget(36 * size + 8 + (8 * universe_size if shuffled else 0)
                 + (9 * universe_size - 8 * size if p > 0.5 else 0),
                 f"selection arrays for {size} of {universe_size} indices")
    ranks = np.sort(stream.choice(universe_size, size, replace=False, shuffle=False))
    if p <= 0.5:
        return ranks
    kept = np.ones(universe_size, dtype=bool)
    kept[ranks] = False
    return np.flatnonzero(kept)


def throw_balls(
    n_balls: int, n_boxes: int, stream: np.random.Generator
) -> np.ndarray:
    """Throw ``n_balls`` balls into ``n_boxes`` boxes uniformly and independently.

    Returns the box index of every ball in throw order.
    """
    if n_boxes < 1:
        raise ValueError("n_boxes must be at least 1")
    if n_balls < 0:
        raise ValueError("n_balls must be non-negative")
    return stream.integers(0, n_boxes, size=n_balls)
