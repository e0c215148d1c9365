"""Chunked trials: each chunk form returns, trial by trial, what its one-trial
function returns on ``derive_stream(seed, i)``, and stays within its budget."""

import tracemalloc
from functools import partial
from math import comb, factorial

import numpy as np
import pytest

import oracles
from test_rng import _GAP_CASES, _oracle
from threshold_lab import analysis, designs, perms, sidon, unionfree
from threshold_lab.analysis import _SELECT_BLOCK, map_trials
from threshold_lab.rng import _RANK_BLOCK, bernoulli_chunk, derive_stream, first_block

_DESIGN = designs.DesignParams(9, 4, 2, 2)


def _coverage_cap(universe, width, n_bins, p):
    """The trials of a coverage chunk: as many first gap blocks as fit
    ``_SELECT_BLOCK`` values and as many tables ``_SELECT_BLOCK`` entries."""
    step = _SELECT_BLOCK // width
    return max(1, min(step // first_block(universe, p, step), _SELECT_BLOCK // n_bins))


def _union_cap(n, p):
    return max(1, _SELECT_BLOCK // first_block(1 << n, p, _RANK_BLOCK) ** 2)


def _sidon_cap(n, h, p):
    size = first_block(n, p, _RANK_BLOCK)
    return max(1, _SELECT_BLOCK // min(comb(size + h - 1, h), h * n + 1))


# (trial, keywords, trials a chunk): a design, a perm and a union-free trial
# near their transitions, and Sidon sets counted by their tuple sums at h = 2
# and 3 (in int64 past 2^31 at n = 10^15) and by the table (dense sets of
# [60] at h = 3), beside sets of both
_CASES = {
    "design-cover": (designs.deficiency_trial, dict(params=_DESIGN, p=0.05),
                     _coverage_cap(126, 6, 36, 0.05)),
    "design-pack": (designs.overfull_trial, dict(params=_DESIGN, p=0.05),
                    _coverage_cap(126, 6, 36, 0.05)),
    "perm-cover": (perms.cover_trial, dict(n=5, lam=1, p=0.1),
                   _coverage_cap(720, 6, 121, 0.1)),
    "perm-pack": (perms.pack_trial, dict(n=6, lam=1, p=0.01),
                  _coverage_cap(5040, 7, 721, 0.01)),
    "unionfree": (unionfree.union_collision_trial, dict(n=10, p=0.008), _union_cap(10, 0.008)),
    "unionfree-62": (unionfree.union_collision_trial, dict(n=62, p=1e-17),
                     _union_cap(62, 1e-17)),
    "unionfree-m40": (unionfree.union_collision_trial, dict(n=13, p=0.006),
                      _union_cap(13, 0.006)),
    "sidon-h2": (sidon.bh_g_trial, dict(n=10_000, h=2, g=1, p=0.002),
                 _sidon_cap(10_000, 2, 0.002)),
    "sidon-h3": (sidon.bh_g_trial, dict(n=10_000, h=3, g=1, p=0.001),
                 _sidon_cap(10_000, 3, 0.001)),
    "sidon-1e15": (sidon.bh_g_trial, dict(n=10**15, h=2, g=1, p=3e-14),
                   _sidon_cap(10**15, 2, 3e-14)),
    "sidon-table": (sidon.bh_g_trial, dict(n=60, h=3, g=2, p=0.3), _sidon_cap(60, 3, 0.3)),
    "sidon-both": (sidon.bh_g_trial, dict(n=40, h=2, g=2, p=0.25), _sidon_cap(40, 2, 0.25)),
}


def _one_by_one(trial, seed, indices, kwargs):
    return [trial(derive_stream(seed, i), **kwargs) for i in indices]


def _assert_chunk_matches(trial, kwargs, seed, indices):
    got = trial.chunk(seed, indices, **kwargs)
    assert got == _one_by_one(trial, seed, indices, kwargs)
    assert all(type(x) is int and type(holds) is bool for x, holds in got)


@pytest.mark.parametrize("case", list(_CASES))
def test_chunks_match_their_trials_one_by_one(case):
    # a chunk of one trial, a chunk at the cap, and a range across two caps
    trial, kwargs, cap = _CASES[case]
    assert cap > 1
    for indices in (range(5, 6), range(0, cap), range(3, 4 + 2 * cap)):
        _assert_chunk_matches(trial, kwargs, 41, indices)


def test_cases_reach_their_paths():
    # masks above bit 32, families of 40 members and more, and Sidon sets on
    # both sides of the tuple-sum rule
    masks, sizes = bernoulli_chunk(1 << 62, 1e-17, 41, range(40), 100, derive_stream(0, 0))
    assert masks.max() >= 1 << 61 and sizes.min() >= 0
    sizes = bernoulli_chunk(1 << 13, 0.006, 41, range(20), 100, derive_stream(0, 0))[1]
    assert sizes.min() >= 30 and sizes.max() >= 40
    for case, summed in (("sidon-h2", {True}), ("sidon-h3", {True}), ("sidon-table", {False}),
                         ("sidon-both", {False, True})):
        _, kwargs, _ = _CASES[case]
        n, h, p = kwargs["n"], kwargs["h"], kwargs["p"]
        paths = set()
        for i in range(30):
            els = oracles.gap_bernoulli_ranks(n, p, derive_stream(41, i))
            if els:
                paths.add(comb(len(els) + h - 1, h) <= h * (els[-1] + 1) + 1)
        assert summed <= paths, case


@pytest.mark.parametrize("case", ["design-cover", "perm-pack", "unionfree", "sidon-h2"])
@pytest.mark.parametrize("p", [0.0, 0.4, 1.0], ids=["p0", "coins", "p1"])
def test_chunks_at_the_ends_of_p(case, p):
    # no selection, one coin an index from p = 1/3, and every index
    trial, kwargs, _ = _CASES[case]
    kwargs = dict(kwargs, p=p)
    if case.startswith("unionfree"):
        kwargs["n"] = 5
    elif case.startswith("sidon"):
        kwargs["n"] = 30
    _assert_chunk_matches(trial, kwargs, 42, range(0, 9))


@pytest.mark.parametrize("case", ["design-pack", "perm-cover", "unionfree", "unionfree-62",
                                  "sidon-h2", "sidon-both"])
def test_rows_short_of_the_universe_go_on_alone(monkeypatch, case):
    # a first block of as many gaps as the mean selection falls short of the
    # universe in about half the rows, which then run on their own streams
    universes = []

    def mean_block(universe, p, block):
        universes.append(universe)
        return min(block, max(1, round(p * universe)))

    for module in (analysis, unionfree, sidon):
        monkeypatch.setattr(module, "first_block", mean_block)
    trial, kwargs, _ = _CASES[case]
    _assert_chunk_matches(trial, kwargs, 43, range(0, 25))
    universe, p = universes[0], kwargs["p"]
    size = mean_block(universe, p, 1 << 20)
    counts = bernoulli_chunk(universe, p, 43, range(25), size, derive_stream(0, 0))[1]
    assert (counts < 0).any() and (counts >= 0).any()


@pytest.mark.parametrize("n, p", _GAP_CASES)
@pytest.mark.parametrize("size", [1, 3, 64])
def test_bernoulli_chunk_rows_match_their_oracle(n, p, size):
    # every row whose first gaps reach the universe keeps the same stream's
    # indices; a row short of it, and every row from p = 1/3, counts -1
    ranks, counts = bernoulli_chunk(n, p, 89, range(4, 10), size, derive_stream(0, 0))
    assert ranks.dtype == np.int64 and len(counts) == 6
    rows = np.split(ranks, np.cumsum(np.maximum(counts, 0))[:-1])
    for i, count, row in zip(range(4, 10), counts.tolist(), rows):
        expect = list(_oracle(p)(n, p, derive_stream(89, i)))
        if count < 0:
            assert (p >= 1 / 3 or len(expect) >= size) and len(row) == 0
        else:
            assert count == len(expect) < size
            assert row.tolist() == expect


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", ["design-cover", "unionfree", "sidon-both"])
def test_map_trials_keys_chunks_by_index(monkeypatch, opened, case, workers):
    # a free pool takes the trials after the first two in ranges of its own
    # split; results stay keyed by trial index
    monkeypatch.setattr(analysis, "_POOL_START_S", 0.0)
    trial, kwargs, _ = _CASES[case]
    assert map_trials(partial(trial, **kwargs), 37, 44, workers) == _one_by_one(
        trial, 44, range(37), kwargs)
    assert opened == ([2] if workers == 2 else [])


@pytest.mark.parametrize("case", list(_CASES))
def test_a_chunk_stays_within_its_budget(monkeypatch, case):
    # the bytes a chunk at the cap asks the budget for bound the traced peak
    # of counting it, its tables built by a chunk before, and its matrix of
    # first gap blocks is part of that peak
    trial, kwargs, cap = _CASES[case]
    asked, sizes = [], []

    def draw(universe, p, seed, indices, size, stream):
        sizes.append(size)
        return bernoulli_chunk(universe, p, seed, indices, size, stream)

    for module in (analysis, unionfree, sidon):
        monkeypatch.setattr(module, "check_budget", lambda nbytes, what: asked.append(nbytes))
        monkeypatch.setattr(module, "bernoulli_chunk", draw)
    trial.chunk(45, range(cap), **kwargs)
    asked.clear()
    tracemalloc.start()
    try:
        trial.chunk(45, range(cap, 2 * cap), **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 8 * cap * sizes[-1] < peak <= max(asked)


def test_perm_cover_at_n_8_streams_one_trial_a_chunk():
    # a selection past one block of values is no chunk: each trial streams
    p = perms.covering_threshold_p(8, 2, 0.0)
    step = _SELECT_BLOCK // 9
    assert first_block(factorial(9), p, step) == step
    _assert_chunk_matches(perms.cover_trial, dict(n=8, lam=2, p=p), 46, range(2))
