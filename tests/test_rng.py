import numpy as np
import pytest
from scipy import stats

import oracles
from threshold_lab import designs, perms, sidon, unionfree
from threshold_lab.rng import (
    IndexSubset,
    bernoulli_ranks,
    derive_stream,
    sample_bernoulli_subset,
    sample_uniform_subset,
    throw_balls,
)


def test_same_key_same_sequence():
    a = derive_stream(42, 0).random(1000)
    b = derive_stream(42, 0).random(1000)
    assert np.array_equal(a, b)


def test_distinct_trial_indices_differ():
    a = derive_stream(42, 0).random(1000)
    b = derive_stream(42, 1).random(1000)
    assert not np.array_equal(a, b)


def test_reconstruction_is_stateless():
    first = derive_stream(42, 7)
    first.random(123)  # arbitrary consumption does not leak into a rebuild
    again = derive_stream(42, 7)
    assert np.array_equal(derive_stream(42, 7).random(50), again.random(50))


def test_distinct_masters_differ():
    assert not np.array_equal(
        derive_stream(1, 0).random(100), derive_stream(2, 0).random(100)
    )


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        derive_stream(3, -1)
    with pytest.raises(ValueError):
        derive_stream(-1, 0)
    with pytest.raises(ValueError):
        derive_stream(1 << 64, 0)


def test_bernoulli_p_zero_and_one():
    rng = derive_stream(5, 0)
    assert len(sample_bernoulli_subset(10, 0.0, rng)) == 0
    assert len(sample_bernoulli_subset(10, 1.0, rng)) == 10


def test_bernoulli_rejects_bad_p():
    rng = derive_stream(5, 0)
    with pytest.raises(ValueError):
        sample_bernoulli_subset(10, -0.1, rng)
    with pytest.raises(ValueError):
        sample_bernoulli_subset(10, 1.1, rng)


def test_bernoulli_mean_cardinality():
    # mean subset size over 200 trials within 3 sigma of N p
    n, p, trials = 10**6, 0.3, 200
    sizes = [len(sample_bernoulli_subset(n, p, derive_stream(11, i))) for i in range(trials)]
    se = np.sqrt(n * p * (1 - p) / trials)
    assert abs(np.mean(sizes) - n * p) < 3 * se


def test_index_subset_interface():
    sub = sample_bernoulli_subset(50, 0.4, derive_stream(9, 0))
    members = list(sub)
    assert len(members) == len(sub)
    assert all(m in sub for m in members)
    assert -1 not in sub and 50 not in sub
    assert sorted(members) == members


def test_index_subset_shape_check():
    with pytest.raises(ValueError):
        IndexSubset(5, np.zeros(4, dtype=bool))


def _binomial_pvalue(sizes: np.ndarray, n: int, p: float) -> float:
    """Chi-square goodness of fit of selection sizes against Binomial(n, p)."""
    trials = len(sizes)
    pmf = stats.binom.pmf(np.arange(n + 1), n, p)
    expected = trials * pmf
    # merge low-expectation tails so every bin has expected count >= 5
    keep = np.nonzero(expected >= 5)[0]
    lo, hi = keep[0], keep[-1]
    obs = np.array(
        [np.sum(sizes < lo)]
        + [np.sum(sizes == j) for j in range(lo, hi + 1)]
        + [np.sum(sizes > hi)]
    )
    exp = np.array(
        [expected[:lo].sum()] + list(expected[lo : hi + 1]) + [expected[hi + 1 :].sum()]
    )
    return stats.chisquare(obs, exp * obs.sum() / exp.sum())[1]


def test_cardinality_is_binomial():
    # chi-square goodness of fit at N=50, p=0.2 over 1e4 trials, alpha=1e-3
    n, p, trials = 50, 0.2, 10_000
    sizes = np.array(
        [len(sample_bernoulli_subset(n, p, derive_stream(77, i))) for i in range(trials)]
    )
    assert _binomial_pvalue(sizes, n, p) > 1e-3


# (universe, p): ranks drawn sparsely (Floyd), by a partial shuffle, and as
# the complement of a draw at 1 - p
_PATHS = [(20_000, 0.001), (50, 0.3), (50, 0.8)]


@pytest.mark.parametrize("n, p", _PATHS)
def test_bernoulli_ranks_size_is_binomial(n, p):
    sizes = np.array([len(bernoulli_ranks(n, p, derive_stream(78, i))) for i in range(10_000)])
    assert _binomial_pvalue(sizes, n, p) > 1e-3


@pytest.mark.parametrize("n, p", _PATHS)
def test_bernoulli_ranks_inclusion_is_uniform(n, p):
    # every index is kept Binomial(trials, p) times; the standardized squares
    # of the n independent counts sum to about chi-square with n degrees
    trials = 20_000 if n == 20_000 else 4_000
    hits = np.zeros(n, dtype=np.int64)
    for i in range(trials):
        hits[bernoulli_ranks(n, p, derive_stream(79, i))] += 1
    stat = np.sum((hits - trials * p) ** 2) / (trials * p * (1 - p))
    assert stats.chi2.sf(stat, n) > 1e-3
    assert stats.chi2.cdf(stat, n) > 1e-3


def test_bernoulli_ranks_edges():
    rng = derive_stream(80, 0)
    assert bernoulli_ranks(10, 0.0, rng).tolist() == []
    assert bernoulli_ranks(10, 1.0, rng).tolist() == list(range(10))
    for p in (0.0, 0.3, 1.0):
        empty = bernoulli_ranks(0, p, rng)
        assert len(empty) == 0 and empty.dtype == np.int64
    for p in (0.01, 0.5, 0.9):
        ranks = bernoulli_ranks(30_000, p, rng)
        assert ranks.dtype == np.int64
        assert np.all(np.diff(ranks) > 0) and ranks[0] >= 0 and ranks[-1] < 30_000
    for p in (-0.1, 1.1, float("nan")):
        with pytest.raises(ValueError):
            bernoulli_ranks(10, p, rng)
    with pytest.raises(ValueError):
        bernoulli_ranks(-1, 0.5, rng)


def _two_sample_pvalue(a, b) -> float:
    """Chi-square homogeneity of two integer samples, with rare values merged
    into cells of at least 20 pooled draws."""
    values, counts = np.unique(np.concatenate([a, b]), return_counts=True)
    # walk the values in order, closing a cell once it holds 20 pooled draws
    cell_of, cell, filled = np.zeros(len(values), dtype=np.int64), 0, 0
    for j, c in enumerate(counts):
        cell_of[j] = cell
        filled += c
        if filled >= 20:
            cell, filled = cell + 1, 0
    if filled:  # fold a short last cell into the one before it
        cell_of[cell_of == cell] = max(cell - 1, 0)
    table = np.array(
        [np.bincount(cell_of[np.searchsorted(values, s)], minlength=cell_of[-1] + 1)
         for s in (a, b)]
    )
    assert table.shape[1] >= 3, "X must spread over several cells to be tested"
    return stats.chi2_contingency(table)[1]


@pytest.mark.parametrize(
    "fast, oracle, kwargs",
    [
        (unionfree.union_collision_trial, oracles.union_collision_trial, dict(n=8, p=0.03)),
        (designs.deficiency_trial, oracles.design_deficiency_trial,
         dict(params=designs.DesignParams(9, 4, 2), p=0.08)),
        (designs.deficiency_trial, oracles.design_deficiency_trial,
         dict(params=designs.DesignParams(9, 4, 2, lam=14), p=0.7)),
        (perms.pack_trial, oracles.perm_pack_trial, dict(n=5, lam=1, p=0.02)),
        (sidon.bh_g_trial, oracles.bh_g_trial, dict(n=2000, h=2, g=1, p=0.01)),
    ],
    ids=["unionfree-8", "design-9-4-2", "design-9-4-2-complement", "perm-5", "sidon-2000"],
)
def test_trial_law_matches_dense_oracle(fast, oracle, kwargs):
    trials = 2000
    xs = [fast(derive_stream(81, i), **kwargs)[0] for i in range(trials)]
    ys = [oracle(derive_stream(82, i), **kwargs)[0] for i in range(trials)]
    assert _two_sample_pvalue(xs, ys) > 1e-3


def test_throw_balls_edges():
    rng = derive_stream(1, 0)
    assert len(throw_balls(0, 5, rng)) == 0
    assert np.all(throw_balls(10**5, 1, rng) == 0)
    with pytest.raises(ValueError):
        throw_balls(5, 0, rng)


def test_throw_balls_uniform_concentration():
    # each box within 5 sigma of n/N at n=1e5, N=10
    n, boxes = 10**5, 10
    counts = np.bincount(throw_balls(n, boxes, derive_stream(13, 0)), minlength=boxes)
    sigma = np.sqrt(n * 0.1 * 0.9)
    assert np.all(np.abs(counts - n / boxes) < 5 * sigma)


def test_uniform_subset():
    rng = derive_stream(2, 0)
    sub = sample_uniform_subset(100, 12, rng)
    assert len(sub) == 12 and len(np.unique(sub)) == 12
    assert sub.min() >= 0 and sub.max() < 100
    assert np.array_equal(sub, np.sort(sub))
    with pytest.raises(ValueError):
        sample_uniform_subset(5, 6, rng)
