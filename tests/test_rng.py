import tracemalloc

import numpy as np
import pytest
from scipy import stats

import oracles
from threshold_lab import designs, perms, sidon, unionfree
from threshold_lab.errors import BudgetExceededError
from threshold_lab.rng import bernoulli_blocks, bernoulli_ranks, derive_stream, throw_balls


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


# (master, trial_index) pairs, the 64-bit edges included
_REKEY_PAIRS = [(0, 0), (0, 1), (1, 0), (42, 7), (7, 42), (2**64 - 1, 0), (0, 2**64 - 1),
                (2**64 - 1, 2**64 - 1)]


def _every_trial_draw(stream) -> list:
    """One of each draw method the trials use, each on both of its code paths."""
    return [
        stream.random(3),
        stream.geometric(0.01, size=5), stream.geometric(0.4, size=5),  # inversion, search
        stream.integers(0, 1000, size=5), stream.integers(0, 2**40, size=3),  # 32-, 64-bit words
        stream.standard_gamma(2.0, size=4), stream.standard_gamma(0.5, size=4),
        stream.poisson(3.5), stream.poisson(1e4),
    ]


def test_rekeyed_stream_draws_what_a_fresh_one_draws():
    stream = derive_stream(99, 99)
    for master, index in _REKEY_PAIRS:
        # leave the generator dirty from its last key: a cached binomial setup,
        # half of a 64-bit word held back, and a partly read 4-word block
        stream.binomial(7, 0.4)
        while not stream.bit_generator.state["has_uint32"]:
            stream.integers(0, 2**32, dtype=np.uint32)
        while not 0 < stream.bit_generator.state["buffer_pos"] < 4:
            stream.random()
        assert derive_stream(master, index, stream) is stream
        fresh = np.random.Generator(np.random.Philox(key=master << 64 | index))
        for got, want in zip(_every_trial_draw(stream), _every_trial_draw(fresh)):
            assert np.array_equal(got, want), (master, index)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        derive_stream(3, -1)
    with pytest.raises(ValueError):
        derive_stream(-1, 0)
    with pytest.raises(ValueError):
        derive_stream(1 << 64, 0)


def test_bernoulli_mean_cardinality():
    # mean subset size over 200 trials within 3 sigma of N p
    n, p, trials = 10**6, 0.3, 200
    sizes = [len(bernoulli_ranks(n, p, derive_stream(11, i))) for i in range(trials)]
    se = np.sqrt(n * p * (1 - p) / trials)
    assert abs(np.mean(sizes) - n * p) < 3 * se


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
        [len(bernoulli_ranks(n, p, derive_stream(77, i))) for i in range(trials)]
    )
    assert _binomial_pvalue(sizes, n, p) > 1e-3


# (universe, p): a sparse draw, a dense one, and one coin per index
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


# (universe, p): a sparse draw, dense draws over several blocks, coin
# windows over several blocks, a small universe, and one coin window
@pytest.mark.parametrize("n, p", [(10**6, 0.005), (10**6, 0.03), (10**6, 0.06), (10**6, 0.9),
                                  (5000, 0.6), (4096, 0.9)])
def test_bernoulli_ranks_stays_within_its_budget(monkeypatch, n, p):
    asked = []
    monkeypatch.setattr("threshold_lab.rng.check_budget", lambda nbytes, what: asked.append(nbytes))
    bernoulli_ranks(n, p, derive_stream(83, 0))
    tracemalloc.start()
    try:
        ranks = bernoulli_ranks(n, p, derive_stream(83, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ranks.nbytes < peak <= asked[-1]


def test_bernoulli_ranks_budget_refuses_before_the_whole_selection(monkeypatch):
    monkeypatch.setattr("threshold_lab.errors.MAX_ARRAY_BYTES", 1 << 20)
    # 1 MiB holds 59392 ranks at 16 bytes beside one block being drawn: about
    # 5000 of 10^6 ranks fit; about 61000 (10 standard deviations and 34 below
    # that, 58573) are refused on their running total; half of 10^7 (40 MB of
    # ranks) is refused before any draw
    assert len(bernoulli_ranks(10**6, 0.005, derive_stream(84, 0))) > 4000
    for n, p, drawn in ((10**6, 0.061, True), (10**7, 0.5, False)):
        stream = derive_stream(84, 0)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="memory budget"):
                bernoulli_ranks(n, p, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert (stream.random() != derive_stream(84, 0).random()) == drawn


# (trial, arguments): with 1 MiB of budget each selection fits, about 3300
# members of 2^16, 10^4 of 2*10^4 and 10^4 of 10^6, but the tables it would be
# counted in do not, even at ``selection_floor`` elements
@pytest.mark.parametrize("trial, kwargs", [
    (unionfree.union_collision_trial, dict(n=16, p=0.05)),
    (sidon.bh_g_trial, dict(n=20_000, h=2, g=1, p=0.5)),
    (sidon.truncated_basis_trial, dict(n=10**6, h=2, g=1, alpha=0.5, p=0.01)),
], ids=["unionfree", "sidon-check", "sidon-basis"])
def test_trial_tables_are_priced_before_the_draw(monkeypatch, trial, kwargs):
    monkeypatch.setattr("threshold_lab.errors.MAX_ARRAY_BYTES", 1 << 20)
    stream = derive_stream(94, 0)
    with pytest.raises(BudgetExceededError, match="tables"):
        trial(stream, **kwargs)
    assert stream.random() == derive_stream(94, 0).random()


# (universe, p): gap sums below p = 1/3, dense and sparse, gaps past 2^63
# (U = 2^62 at p = 2^-60 draws about 28 gaps of 2^60 to keep 4 ranks, and at
# 5e-324 numpy's geometric clamps each gap to 2^63 - 1); coins from p = 1/3
# on, up to p = 1 - 2^-53; and the ends of p
_GAP_CASES = [(0, 0.3), (1, 0.5), (7, 0.2), (100, 0.3), (100, 1 / 3), (100, 0.5), (100, 0.7),
              (300, 0.98), (20_000, 0.001), (2**62, 2.0**-55), (2**62, 2.0**-60),
              (2**62, 5e-324), (50, 1 - 2.0**-53), (10, 0.0), (10, 1.0)]


def _oracle(p):
    """The same stream's selection one gap at a time in Python integers,
    which cannot wrap, below p = 1/3, and one coin per index from it."""
    return oracles.gap_bernoulli_ranks if p < 1 / 3 else oracles.dense_bernoulli_ranks


@pytest.mark.parametrize("n, p", _GAP_CASES)
def test_bernoulli_ranks_match_their_oracle(n, p):
    for i in range(3):
        ranks = bernoulli_ranks(n, p, derive_stream(85, i))
        assert ranks.dtype == np.int64
        assert ranks.tolist() == list(_oracle(p)(n, p, derive_stream(85, i)))


@pytest.mark.parametrize("n, p", _GAP_CASES)
@pytest.mark.parametrize("block", [1, 2, 3])
def test_bernoulli_blocks_cross_every_block_edge(n, p, block):
    # blocks of 1-3 ranks, or windows of 1-3 indices from 1/3: every block
    # edge falls between two ranks, and the blocks join to the whole draw
    blocks = list(bernoulli_blocks(n, p, derive_stream(86, 0), block))
    assert all(0 < len(b) <= block and b.dtype == np.int64 for b in blocks)
    joined = np.concatenate(blocks) if blocks else np.empty(0, dtype=np.int64)
    assert joined.tolist() == list(_oracle(p)(n, p, derive_stream(86, 0)))


def test_bernoulli_ranks_at_the_ends_of_p_draw_nothing():
    # p of 0 and 1 keep nothing and everything, and an empty universe keeps
    # nothing, without drawing from the stream
    stream = derive_stream(87, 0)
    assert bernoulli_ranks(10, 0.0, stream).tolist() == []
    assert bernoulli_ranks(10, 1.0, stream).tolist() == list(range(10))
    for p in (0.0, 0.3, 1 - 2.0**-53, 1.0):
        assert bernoulli_ranks(0, p, stream).tolist() == []
    assert stream.random() == derive_stream(87, 0).random()


def test_bernoulli_ranks_size_at_2_to_62():
    # U = 2^62 at p = 2^-55: a first block of 189 gaps (128 + 4 * sqrt(128) +
    # 16) sums to about 6.8e18, 4 sigma from it 8.8e18, near 2^63; the size
    # is Binomial(2^62, 2^-55), within 4 standard errors of 128 on average
    sizes = np.array([len(bernoulli_ranks(2**62, 2.0**-55, derive_stream(88, i)))
                      for i in range(400)])
    assert abs(sizes.mean() - 128) < 4 * np.sqrt(128 / 400)


def test_subset_frequencies_match_independent_coins():
    # every subset S of [6] is drawn with probability p^|S| (1 - p)^(6 - |S|);
    # subsets expected fewer than 5 times are pooled into one cell
    n, draws = 6, 6000
    weight = np.array([bin(s).count("1") for s in range(1 << n)])
    stream = None
    for p in (0.1, 0.5, 0.9):
        seen = np.zeros(1 << n, dtype=np.int64)
        for i in range(draws):
            stream = derive_stream(89, i, stream)
            seen[np.bitwise_or.reduce(1 << bernoulli_ranks(n, p, stream), initial=0)] += 1
        expected = draws * p**weight * (1 - p) ** (n - weight)
        rare = expected < 5
        obs = np.append(seen[~rare], seen[rare].sum()) if rare.any() else seen
        exp = np.append(expected[~rare], expected[rare].sum()) if rare.any() else expected
        assert stats.chisquare(obs, exp)[1] > 1e-3, p


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
    ids=["unionfree-8", "design-9-4-2", "design-9-4-2-coins", "perm-5", "sidon-2000"],
)
def test_trial_law_matches_dense_oracle(fast, oracle, kwargs):
    trials = 2000
    xs = [fast(derive_stream(81, i), **kwargs)[0] for i in range(trials)]
    ys = [oracle(derive_stream(82, i), **kwargs)[0] for i in range(trials)]
    assert _two_sample_pvalue(xs, ys) > 1e-3


# (universe, p) of each bench line that selects, and of the set-up lines of
# the scans: design pack and cover, unionfree at n = 20, 14 and 12, Sidon
# check and basis, perm pack and cover
_BENCH_SELECTIONS = [
    (1001, 0.002), (15504, designs.covering_threshold_p(designs.DesignParams(20, 5, 2, 2), 0)),
    (15504, 0.001), (1 << 20, 1e-5), (1 << 14, 10**-3.5), (1 << 12, 1e-4),
    (10**6, 32 / 10**6), (10**4, 2 / 10**4), (10_001, sidon.basis_threshold_p(10**4, 2, 2, 0.5, 0)),
    (40320, 0.002), (362880, perms.covering_threshold_p(8, 2, 0)),
]


def _selection_statistics(select, n, p, seed, draws):
    """Size, first rank (n when nothing is kept) and the gaps between the
    first 200 ranks of each of ``draws`` selections."""
    sizes, firsts, gaps = [], [], []
    stream = None
    for i in range(draws):
        ranks = np.asarray(select(n, p, stream := derive_stream(seed, i, stream)))
        sizes.append(len(ranks))
        firsts.append(ranks[0] if len(ranks) else n)
        gaps.append(np.diff(ranks[:200]))
    return sizes, firsts, np.concatenate(gaps)


@pytest.mark.parametrize("n, p", _BENCH_SELECTIONS, ids=lambda v: f"{v:g}")
def test_selection_law_matches_dense_coins(n, p):
    # two-sample tests against one coin per index; the dense draw costs about
    # 4 ns an index, so the largest universes get fewer draws
    draws = max(50, min(600, 2 * 10**7 // n))
    fast = _selection_statistics(bernoulli_ranks, n, p, 90, draws)
    dense = _selection_statistics(oracles.dense_bernoulli_ranks, n, p, 91, draws)
    for name, a, b in zip(("size", "first rank", "gaps"), fast, dense):
        assert _two_sample_pvalue(a, b) > 1e-3, name


@pytest.mark.parametrize("p", [1 / 3, 0.45, 0.7, 0.9], ids=lambda v: f"{v:.3g}")
def test_coins_match_the_old_gap_law(p):
    # from p = 1/3 one coin per index replaced the gaps of 0.2.0 (at
    # q = min(p, 1 - p), the skipped indices above 1/2): the same law
    n, draws = 200, 2000
    coins = _selection_statistics(bernoulli_ranks, n, p, 92, draws)
    gaps = _selection_statistics(oracles.gap_bernoulli_ranks, n, p, 93, draws)
    for name, a, b in zip(("size", "first rank", "gaps"), coins, gaps):
        assert _two_sample_pvalue(a, b) > 1e-3, name


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

