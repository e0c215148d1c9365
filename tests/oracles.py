"""Slow, obviously correct references that the fast paths are tested against.
Each trial here takes the same arguments as its counterpart in the package
and selects with one coin per object of the universe, or throws one ball at a
time; the package's own selection is also drawn one gap at a time, in Python
integers.  The counters and tables loop over pairs and subsets one at a time.  The
cover sets are built by value insertion, and the Sidon predicates read the
counts that the package's trials compute.  The pairs that make up a union
are enumerated from its determining maps, the count behind
``unionfree.union_obstacle_count``.  The one-shot waiting time holds all its
Gamma draws at once.  The equal-sum census tests every combination of each
sum's tuples, and at (h, g) = (2, 1) also has closed forms."""

from collections import Counter, defaultdict
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial

import numpy as np

from threshold_lab import designs, sidon, unionfree
from threshold_lab.errors import BudgetExceededError
from threshold_lab.rng import bernoulli_ranks

# largest pattern size the set-based neighborhood enumerates
_MAX_NEIGHBORHOOD_N = 6
# largest union size whose 3^k determining maps are enumerated
_MAX_DETERMINING_K = 13
# rows of ordered pair sums formed at a time, apart from the blocks of the
# code under test
_ORACLE_PAIR_BLOCK = 100


def dense_bernoulli_ranks(universe_size, p, stream):
    """Indices kept by one independent p-coin per index of ``[universe_size]``."""
    return np.nonzero(stream.random(universe_size) < p)[0]


def gap_bernoulli_ranks(universe_size, p, stream):
    """``rng.bernoulli_ranks`` below p = 1/3, and the law of its 0.2.0 sampler
    at every p, from one Geometric(q) gap at a time, q = min(p, 1 - p), summed
    as Python integers: the indices the gaps reach below ``universe_size`` or,
    above p = 1/2, every other index."""
    q, reached, at = min(p, 1 - p), [], -1
    while q > 0 and (at := at + int(stream.geometric(q))) < universe_size:
        reached.append(at)
    if p > 0.5:
        reached = sorted(set(range(universe_size)) - set(reached))
    return reached


def count_union_collisions(family):
    """Count the member pairs of each union, then list the pairs of only the
    unions that repeat: a union class of c pairs gives C(c, 2) pairings, less
    those sharing a member (two distinct pairs share at most one)."""
    masks = list(family)
    if len(set(masks)) != len(masks):
        raise ValueError("family contains duplicate members")
    classes = Counter(a | b for a, b in combinations(masks, 2))
    repeated = {u for u, c in classes.items() if c > 1}
    member_uses = Counter()
    for a, b in combinations(masks, 2):
        if a | b in repeated:
            member_uses[a | b, a] += 1
            member_uses[a | b, b] += 1
    return (sum(c * (c - 1) // 2 for c in classes.values())
            - sum(u * (u - 1) // 2 for u in member_uses.values()))


def union_collisions_bruteforce(family):
    """Every unordered pair of member-pairs, counted when the unions agree and
    the four sets are distinct."""
    pairs = list(combinations(family, 2))
    total = 0
    for (a, b), (c, d) in combinations(pairs, 2):
        if (a | b) == (c | d) and len({a, b, c, d}) == 4:
            total += 1
    return total


def determining_pairs(u_mask: int) -> list[tuple[int, int]]:
    """All unordered pairs {R, S} with R u S = U, from maps U -> {0, 1, 2}.

    Each element of U lands in R only, S only, or both; non-constant maps
    modulo the R/S swap give (3^k - 3) / 2 distinct pairs for |U| = k.
    Pairs come back as (smaller mask, larger mask).
    """
    if u_mask < 0:
        raise ValueError("u_mask must be non-negative")
    elements = [e for e in range(u_mask.bit_length()) if u_mask >> e & 1]
    k = len(elements)
    if k > _MAX_DETERMINING_K:
        raise BudgetExceededError(f"3^{k} determining maps exceed the budget")
    if k == 0:
        return []
    codes = np.arange(3**k, dtype=np.int64)
    r_masks = np.zeros(3**k, dtype=np.int64)
    s_masks = np.zeros(3**k, dtype=np.int64)
    for j, e in enumerate(elements):
        digit = (codes // 3**j) % 3
        r_masks += (digit != 1) << e
        s_masks += (digit != 0) << e
    # keep one map per swap pair; R < S also drops the all-0 and all-2
    # constants, and the all-1 constant (R empty) is excluded explicitly
    keep = (r_masks < s_masks) & (codes != (3**k - 1) // 2)
    return list(zip(r_masks[keep].tolist(), s_masks[keep].tolist()))


def is_weakly_union_free(family):
    """True when no four distinct members satisfy A u B = C u D; stops at the first."""
    masks = list(family)
    if len(set(masks)) != len(masks):
        raise ValueError("family contains duplicate members")
    classes = defaultdict(list)
    for a, b in combinations(masks, 2):
        if any(len({a, b, c, d}) == 4 for c, d in classes[a | b]):
            return False
        classes[a | b].append((a, b))
    return True


def colex_rank(sub):
    """Colexicographic rank of a sorted subset of non-negative integers."""
    return sum(comb(e, i + 1) for i, e in enumerate(sub))


def coverage_incidence(n, k, t):
    """Row i lists the colex ranks of the t-subsets inside the i-th lex k-subset."""
    rows = [[colex_rank(sub) for sub in combinations(c, t)] for c in combinations(range(n), k)]
    return np.asarray(rows, dtype=np.int64)


def _mask(members):
    return sum(1 << e for e in members)


def tset_profile(ranks, n, k, t):
    """Coverage count of every t-subset of [n], in colex order: how many of the
    k-subsets at the given lex ranks contain it, tested mask against mask."""
    kmasks = [_mask(c) for c in combinations(range(n), k)]
    chosen = [kmasks[r] for r in ranks]
    tmasks = [_mask(s) for s in sorted(combinations(range(n), t), key=lambda s: s[::-1])]
    return np.array([sum(m & tm == tm for m in chosen) for tm in tmasks], dtype=np.int64)


def _check_perm(perm: tuple[int, ...]) -> None:
    if sorted(perm) != list(range(1, len(perm) + 1)):
        raise ValueError(f"{perm!r} is not a permutation of 1..{len(perm)}")


def covering_set(pi: tuple[int, ...]) -> set[tuple[int, ...]]:
    """All permutations of [n+1] covering pi, built by value insertion.

    For each value v in [n+1], lift the entries of pi at or above v, then
    place v at each of the n+1 positions; deduplication leaves n^2 + 1
    distinct covers.
    """
    _check_perm(pi)
    n = len(pi)
    out: set[tuple[int, ...]] = set()
    for v in range(1, n + 2):
        lifted = tuple(e + 1 if e >= v else e for e in pi)
        for pos in range(n + 1):
            out.add(lifted[:pos] + (v,) + lifted[pos:])
    return out


def joint_covers(
    pi: tuple[int, ...], pi2: tuple[int, ...]
) -> set[tuple[int, ...]]:
    """Permutations of [n+1] covering both distinct patterns."""
    if len(pi) != len(pi2):
        raise ValueError("patterns must have equal length")
    if pi == pi2:
        raise ValueError("patterns must be distinct")
    return covering_set(pi) & covering_set(pi2)


def delete_and_flatten(rho, position):
    """Remove the entry at 1-based ``position`` and flatten onto [m-1]: every
    remaining entry larger than the removed value drops by one."""
    m = len(rho)
    if not 1 <= position <= m:
        raise ValueError(f"position must lie in [1, {m}]")
    removed = rho[position - 1]
    return tuple(e - 1 if e > removed else e for i, e in enumerate(rho) if i != position - 1)


def covers(rho, pi):
    """True when some single deletion of rho flattens to pi."""
    if len(rho) != len(pi) + 1:
        raise ValueError("rho must be exactly one entry longer than pi")
    return any(delete_and_flatten(rho, i) == pi for i in range(1, len(rho) + 1))


def joint_cover_neighborhood(pi):
    """All patterns other than pi sharing a cover with pi, by deleting each
    entry of each cover in turn."""
    n = len(pi)
    if n > _MAX_NEIGHBORHOOD_N:
        raise BudgetExceededError(f"set-based neighborhood capped at n = {_MAX_NEIGHBORHOOD_N}")
    out = {delete_and_flatten(rho, i) for rho in covering_set(pi) for i in range(1, n + 2)}
    out.discard(pi)
    return out


def lex_rank(perm):
    """Lexicographic rank of a permutation of [m] among all m! permutations."""
    m = len(perm)
    return sum(
        sum(1 for j in range(i + 1, m) if perm[j] < perm[i]) * factorial(m - 1 - i)
        for i in range(m)
    )


def lex_unrank(rank, m):
    """Permutation of [m] at the given lexicographic rank."""
    if not 0 <= rank < factorial(m):
        raise ValueError("rank out of range")
    pool = list(range(1, m + 1))
    out = []
    for i in range(m, 0, -1):
        idx, rank = divmod(rank, factorial(i - 1))
        out.append(pool.pop(idx))
    return tuple(out)


def lex_perms(m):
    """The permutations of {0, ..., m-1} in lex order and their Lehmer codes
    c_j = #{k > j : rho_k < rho_j}, as int8 arrays with one row per position
    and one column per permutation.  Block f of either is f above the block
    for m-1, whose permutations have their values >= f lifted by one."""
    perms_, codes = np.zeros((0, 1), dtype=np.int8), np.zeros((0, 1), dtype=np.int8)
    for k in range(1, m + 1):
        first = np.repeat(np.arange(k, dtype=np.int8), perms_.shape[1])[None, :]
        lifted = np.tile(perms_, k)
        perms_ = np.vstack([first, lifted + (lifted >= first)])
        codes = np.vstack([first, np.tile(codes, k)])
    return perms_, codes


def lehmer_pattern_rank_table(n):
    """The pattern table of S_{n+1}, ``perms._pattern_rows`` of every rank
    with one row each, from each row's Lehmer code, one int32 column per
    deletion, each row sorted and its repeats replaced by n!."""
    rho, codes = lex_perms(n + 1)
    weights = np.array([factorial(n - 1 - j) for j in range(n)], dtype=np.int32)
    table = np.empty(codes.T.shape, dtype=np.int32)
    for i in range(n + 1):
        # deleting entry i keeps the parent's Lehmer digits, less one left of
        # i where rho_i < rho_j, and moves those right of i one place left
        rank = np.zeros(len(table), dtype=np.int32)
        for j in range(i):
            rank += (codes[j] - (rho[i] < rho[j])) * weights[j]
        for j in range(i + 1, n + 1):
            rank += codes[j] * weights[j - 1]
        table[:, i] = rank
    table.sort(axis=1)
    dup = np.zeros_like(table, dtype=bool)
    dup[:, 1:] = table[:, 1:] == table[:, :-1]
    table[dup] = factorial(n)
    return table


@lru_cache(maxsize=2)
def grown_pattern_rank_table(n):
    """The pattern table of S_{n+1}, ``perms._pattern_rows`` of every rank
    with one row each, as a whole-table build: S_1 grown to
    S_{n+1} one size at a time, one row per permutation and block f of each
    size putting f in front of the size below with its values >= f lifted,
    then every deletion equal to the one left of it replaced by n!."""
    values = np.zeros((1, 1), dtype=np.int64)
    table = np.zeros((1, 1), dtype=np.int64)
    for m in range(1, n + 1):
        size, unit = factorial(m), factorial(m - 1)
        table = np.vstack([np.hstack([np.arange(size)[:, None], table + (f - (values < f)) * unit])
                           for f in range(m + 1)])
        if m < n:
            values = np.vstack([np.hstack([np.full((size, 1), f), values + (values >= f)])
                                for f in range(m + 1)])
    table[:, 1:][table[:, 1:] == table[:, :-1]] = factorial(n)
    return table.astype(np.min_scalar_type(factorial(n)))


def table_coverage_counts(stream, n, p):
    """``perms._coverage_counts`` from a gather of the whole pattern table
    at the same selection."""
    table = grown_pattern_rank_table(n)
    selected = table[bernoulli_ranks(len(table), p, stream)]
    return np.bincount(selected.ravel(), minlength=factorial(n) + 1)[:-1]


def joint_pair_keys(n):
    """a * n! + b for every pair of patterns a < b that one row of the
    Lehmer-built table covers together, one key per row and pair."""
    table = lehmer_pattern_rank_table(n).astype(np.int64)
    left, right = np.triu_indices(n + 1, 1)
    a, b = table[:, left], table[:, right]
    real = (a != factorial(n)) & (b != factorial(n))
    return (a * factorial(n) + b)[real]


def verify_cover_counts(max_n):
    """``perms.verify_cover_counts`` from the size of every pattern's covering set."""
    rows = []
    for n in range(1, max_n + 1):
        expected = n * n + 1
        sizes = {len(covering_set(p)) for p in permutations(range(1, n + 1))}
        rows.append((n, sizes == {expected}, max(sizes), expected))
    return rows


def verify_joint_bounds(max_n):
    """``perms.verify_joint_bounds`` from every pattern's neighborhood and the
    intersection of every pair of covering sets."""
    rows = []
    for n in range(2, max_n + 1):
        pats = list(permutations(range(1, n + 1)))
        max_nbhd = max(len(joint_cover_neighborhood(p)) for p in pats)
        cover_sets = [covering_set(p) for p in pats]
        max_joint = max(len(a & b) for a, b in combinations(cover_sets, 2))
        rows.append((n, max_nbhd <= n**3, max_nbhd, max_joint <= 4, max_joint))
    return rows


def count_undercovered(cover_family, n, lam):
    """Number of patterns of [n] covered by fewer than lam family members,
    from each member's set of single-deletion patterns."""
    hits = Counter()
    for rho in cover_family:
        hits.update({delete_and_flatten(rho, i) for i in range(1, n + 2)})
    return factorial(n) - sum(1 for c in hits.values() if c >= lam)


def union_collision_trial(stream, n, p):
    x = unionfree.count_union_collisions(dense_bernoulli_ranks(1 << n, p, stream).tolist())
    return x, x == 0


def design_deficiency_trial(stream, params, p):
    incidence = designs._coverage_incidence(params.n, params.k, params.t)
    selected = incidence[dense_bernoulli_ranks(len(incidence), p, stream)]
    profile = np.bincount(selected.ravel(), minlength=params.n_tsets)
    x = designs.deficiency_count(profile, params.lam)
    return x, x == 0


def perm_pack_trial(stream, n, lam, p):
    table = grown_pattern_rank_table(n)
    selected = table[dense_bernoulli_ranks(len(table), p, stream)]
    counts = np.bincount(selected.ravel(), minlength=factorial(n) + 1)[: factorial(n)]
    x = int(np.count_nonzero(counts > lam))
    return x, x == 0


def pair_representation_counts(elements):
    """``sidon.representation_counts(elements, 2)`` from every ordered pair sum,
    formed in row blocks: ordered counts plus the diagonal, halved."""
    els = np.sort(np.asarray(elements, dtype=np.int64))
    top = 2 * int(els[-1])
    ordered = np.zeros(top + 1, dtype=np.int64)
    for a in range(0, len(els), _ORACLE_PAIR_BLOCK):
        block = els[a : a + _ORACLE_PAIR_BLOCK]
        ordered += np.bincount((block[:, None] + els[None, :]).ravel(), minlength=top + 1)
    return (ordered + np.bincount(2 * els, minlength=top + 1)) // 2


def count_equal_sum_tuples(n, h, g, l):
    """``sidon.count_equal_sum_tuples(n, h, g)[l]``, 0 past its last entry
    l = h(g+1), by grouping the nondecreasing h-tuples of [n] by sum and
    testing every (g+1)-combination of each group."""
    by_sum = defaultdict(list)
    for tup in combinations_with_replacement(range(1, n + 1), h):
        by_sum[sum(tup)].append(tup)
    return sum(len(set().union(*combo)) == l
               for tuples in by_sum.values() for combo in combinations(tuples, g + 1))


def equal_sum_pairs_closed_form(n, l):
    """``sidon.count_equal_sum_tuples(n, 2, 1)[l]`` for l in {3, 4} in closed
    form.  l = 3: the systems a + b = 2c with a < c < b, floor((n-1)^2 / 4) of
    them.  l = 4: any two of the q(s) pairs a < b of [n] that sum to s, over
    every s, where q(s) = max(0, ceil(s/2) - max(1, s - n))."""
    if l == 3:
        return (n - 1) ** 2 // 4
    if l != 4:
        raise ValueError("closed forms for l = 3 and l = 4 only")
    return sum(comb(max(0, -(-s // 2) - max(1, s - n)), 2) for s in range(3, 2 * n))


def is_bh_g(elements, h: int, g: int) -> bool:
    """True when every sum value has at most g nondecreasing h-representations."""
    if g < 1:
        raise ValueError("g must be at least 1")
    return sidon._max_multiplicity(elements, h) <= g


def is_truncated_basis(
    elements, n: int, h: int, g: int, alpha: float
) -> bool:
    """True when every integer in [alpha*n, (h-alpha)*n] has at least g
    nondecreasing h-representations over ``elements``.

    Window endpoints are rounded inward (ceil low, floor high).
    """
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    if g < 1:
        raise ValueError("g must be at least 1")
    return bool(np.all(sidon._basis_window(elements, n, h, alpha) >= g))


def bh_g_trial(stream, n, h, g, p):
    elements = dense_bernoulli_ranks(n, p, stream) + 1
    top = int(sidon.representation_counts(elements, h).max()) if len(elements) else 0
    return top, top <= g


def waiting_time(n_boxes, lam, stream):
    """Throw balls one at a time until every box holds lam; return the count."""
    counts = [0] * n_boxes
    short = n_boxes  # boxes still holding fewer than lam
    thrown = 0
    while True:
        for box in stream.integers(0, n_boxes, size=4 * n_boxes).tolist():
            thrown += 1
            counts[box] += 1
            if counts[box] == lam:
                short -= 1
                if short == 0:
                    return thrown


def waiting_time_one_shot(n_boxes, lam, stream):
    """``balls.waiting_time`` with all N Gamma(lam) draws held at once."""
    g = stream.standard_gamma(lam, size=n_boxes)
    return n_boxes * lam + int(stream.poisson(max(n_boxes * g.max() - g.sum(), 0.0)))
