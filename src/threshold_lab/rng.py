"""Deterministic random-stream management and elementary sampling primitives.

Every Monte Carlo experiment in this package draws one stream per trial,
derived as a pure function of ``(master seed, trial index)``.  Trials can
therefore be replayed or scheduled across any number of workers without
changing a single output bit.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import check_budget

__all__ = [
    "bernoulli_blocks",
    "bernoulli_ranks",
    "derive_stream",
    "selection_floor",
    "throw_balls",
]

_U64 = (1 << 64) - 1

# ranks that ``bernoulli_ranks`` draws and keeps a block at a time
_RANK_BLOCK = 1 << 12


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
    with probability p: the blocks of ``bernoulli_blocks`` at ``_RANK_BLOCK``
    ranks, joined.  The memory budget is checked on the running total before
    each block is kept and, before any draw, on ``selection_floor``."""
    drawn = bernoulli_blocks(universe_size, p, stream, _RANK_BLOCK)
    # the blocks kept and their join, 16 bytes a rank, and the next block as
    # it is drawn, which traces under 16 bytes a rank of the cap
    check_budget(16 * selection_floor(universe_size, p) + 24 * _RANK_BLOCK,
                 f"selection arrays for about {round(p * universe_size)} of "
                 f"{universe_size} indices")
    blocks, total = [], 0
    for block in drawn:
        total += len(block)
        check_budget(16 * total + 24 * _RANK_BLOCK,
                     f"selection arrays for {total} of {universe_size} indices")
        blocks.append(block)
    return np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)


def bernoulli_blocks(
    universe_size: int, p: float, stream: np.random.Generator, block: int
) -> Iterator[np.ndarray]:
    """The indices ``bernoulli_ranks`` keeps, in order, as non-empty sorted
    int64 arrays of at most ``block`` each.  Below p = 1/3 they are running
    sums of Geometric(p) gaps, drawn a block of gaps at a time (Devroye 1986,
    ch. XII), the law of one coin per index at O(p U) draws; the gaps are one
    sequence, so the indices do not depend on ``block``.  From p = 1/3, where
    numpy draws a gap by sequential search rather than by inversion, they are
    one uniform coin per index, a window of ``block`` indices at a time."""
    if not 0 <= universe_size <= 1 << 63:
        raise ValueError("universe_size must lie in [0, 2^63]")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if block < 1:
        raise ValueError("block must be at least 1")
    if p < 1 / 3:
        return _gap_sums(universe_size, p, stream, block) if p > 0 else iter(())
    return _coins(universe_size, p, stream, block)


def selection_floor(universe_size: int, p: float) -> int:
    """A size 10 standard deviations and 34 below the mean of a Bernoulli(p)
    selection of ``[universe_size]``, which the selection falls short of with
    a chance under 2e-22 (Bernstein's inequality): budgets priced at it
    refuse a selection before it is drawn."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    mean = p * universe_size
    return int(max(0.0, mean - 10 * math.sqrt(mean * (1.0 - p)) - 34))


def _gap_sums(universe: int, p: float, stream: np.random.Generator,
              block: int) -> Iterator[np.ndarray]:
    """Running sums of Geometric(p) gaps, less one, while below ``universe``:
    about p U + 4 sqrt(p U) + 16 gaps at a time, at most ``block``."""
    end = 0  # one past the last index kept
    while end < universe:
        mean = p * (universe - end)
        ranks = stream.geometric(p, min(block, int(mean + 4 * math.sqrt(mean)) + 16))
        ranks[0] -= 1
        # summed in place in uint64: gaps are below 2^63 and the universe at
        # most 2^63, so no sum up to the first past the universe wraps, though
        # later ones may
        sums = ranks.view(np.uint64)
        sums[0] += end
        np.cumsum(sums, out=sums)
        past = sums >= universe
        kept = int(past.argmax())
        if not past[kept]:
            kept = len(ranks)
        if kept:
            yield ranks[:kept]
        if kept < len(ranks):
            return
        end = int(ranks[-1]) + 1


def _coins(universe: int, p: float, stream: np.random.Generator,
           block: int) -> Iterator[np.ndarray]:
    """The indices of ``[universe]`` whose uniform coin falls below p, a
    window of ``block`` indices at a time; at p = 1, every index, undrawn."""
    for a in range(0, universe, block):
        width = min(block, universe - a)
        ranks = np.arange(width) if p == 1 else np.flatnonzero(stream.random(width) < p)
        ranks += a
        if len(ranks):
            yield ranks


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
