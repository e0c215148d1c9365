"""Deterministic random-stream management and elementary sampling primitives.

Every Monte Carlo experiment in this package draws one generator per trial,
derived as a pure function of ``(master seed, trial index)``.  Trials can
therefore be replayed or scheduled across any number of workers without
changing a single output bit.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "bernoulli_ranks",
    "derive_stream",
    "IndexSubset",
    "sample_bernoulli_subset",
    "sample_uniform_subset",
    "throw_balls",
]

_U64 = (1 << 64) - 1


def derive_stream(master: int, trial_index: int) -> np.random.Generator:
    """Return the counter-based generator for one trial.

    The stream is keyed by the 128-bit value ``master << 64 | trial_index``,
    so distinct trial indices give statistically independent Philox streams
    and reconstruction in another process yields the identical sequence.
    Integer draws from the returned generator use Lemire-style rejection,
    not modulo reduction, so uniform sampling is unbiased.
    """
    master = int(master)
    trial_index = int(trial_index)
    if not 0 <= master <= _U64:
        raise ValueError("master seed must be a 64-bit unsigned integer")
    if not 0 <= trial_index <= _U64:
        raise ValueError("trial_index must be a 64-bit unsigned integer")
    return np.random.Generator(np.random.Philox(key=(master << 64) | trial_index))


class IndexSubset:
    """A subset of ``{0, ..., universe_size - 1}`` with O(1) membership tests."""

    def __init__(self, universe_size: int, mask: np.ndarray):
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (universe_size,):
            raise ValueError("mask length must equal universe_size")
        self.universe_size = universe_size
        self.mask = mask
        self._indices: np.ndarray | None = None

    @property
    def indices(self) -> np.ndarray:
        if self._indices is None:
            self._indices = np.nonzero(self.mask)[0]
        return self._indices

    def __len__(self) -> int:
        return int(self.mask.sum())

    def __contains__(self, index: int) -> bool:
        return 0 <= index < self.universe_size and bool(self.mask[index])

    def __iter__(self):
        return iter(self.indices)

    def __repr__(self) -> str:
        return f"IndexSubset(universe_size={self.universe_size}, size={len(self)})"


def bernoulli_ranks(
    universe_size: int, p: float, stream: np.random.Generator
) -> np.ndarray:
    """Sorted int64 indices of ``[universe_size]``, each kept independently
    with probability p: a Binomial(universe_size, p) size, then that many
    distinct uniform ranks (Devroye 1986, ch. XII), the law of one coin per
    index at O(p * universe_size) draws.  Above p = 1/2 the dropped indices
    are drawn at 1 - p instead."""
    if universe_size < 0:
        raise ValueError("universe_size must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    q = min(p, 1.0 - p)
    size = int(stream.binomial(universe_size, q))
    ranks = np.sort(stream.choice(universe_size, size, replace=False, shuffle=False))
    if p <= 0.5:
        return ranks
    kept = np.ones(universe_size, dtype=bool)
    kept[ranks] = False
    return np.flatnonzero(kept)


def sample_bernoulli_subset(
    universe_size: int, p: float, stream: np.random.Generator
) -> IndexSubset:
    """Include each index of ``[universe_size]`` independently with probability p."""
    ranks = bernoulli_ranks(universe_size, p, stream)
    mask = np.zeros(universe_size, dtype=bool)
    mask[ranks] = True
    return IndexSubset(universe_size, mask)


def sample_uniform_subset(
    universe_size: int, k: int, stream: np.random.Generator
) -> np.ndarray:
    """Draw a uniformly random k-subset of ``{0, ..., universe_size - 1}``.

    Partial-shuffle sampling; returns the chosen indices sorted ascending.
    """
    if not 0 <= k <= universe_size:
        raise ValueError("need 0 <= k <= universe_size")
    picked = stream.choice(universe_size, size=k, replace=False)
    return np.sort(picked)


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
