"""The forward-checking ordering search against the recursive search it
replaced, which stays here as the reference implementation: the same
orderings in the same order for every bound and restriction, never more
surviving prefixes, and no recursion limit on long inputs."""

import hashlib
import random
from collections import Counter, defaultdict

import pytest

from backedge.constructions import c3, chain, tt
from backedge.core import Digraph, Tournament, has_clique_in_mask, reverse
from backedge.gadgets import r5
from backedge.generation import canonical_tournaments
from backedge.solvers import SearchStats, iter_orderings_with_clique_at_most, omega

from labeled import labeled_count, labeled_tournament
from search_tree import surviving_prefixes


def reference_orderings(d, k, *, first_vertex=None, before=None, stats=None):
    """Recursive search that kills a branch only once a placement closes a
    (k+1)-clique of the backedge graph."""
    n = d.n
    if n == 0:
        yield ()
        return
    rows = d.rows
    cols = d.cols
    full = (1 << n) - 1
    badj = [0] * n
    seq = []
    blocked = 1 << before[1] if before is not None else 0
    node_count = 0

    def rec(placed):
        nonlocal node_count, blocked
        if placed == full:
            yield tuple(seq)
            return
        avail = full & ~placed & ~blocked
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            avail ^= low
            nb = rows[v] & placed
            if k == 2:
                bad = False
                m = nb
                while m:
                    lb = m & -m
                    if badj[lb.bit_length() - 1] & nb:
                        bad = True
                        break
                    m ^= lb
                if bad:
                    continue
            elif k == 1:
                if nb or cols[v] & ~placed & full:
                    continue
            elif has_clique_in_mask(badj, nb, k) is not None:
                continue
            node_count += 1
            badj[v] = nb
            m = nb
            while m:
                lb = m & -m
                badj[lb.bit_length() - 1] |= low
                m ^= lb
            seq.append(v)
            unblock = before is not None and v == before[0]
            if unblock:
                blocked = 0
            yield from rec(placed | low)
            if unblock:
                blocked = 1 << before[1]
            seq.pop()
            m = nb
            while m:
                lb = m & -m
                badj[lb.bit_length() - 1] &= ~low
                m ^= lb
            badj[v] = 0

    try:
        if first_vertex is not None:
            v = first_vertex
            if not blocked >> v & 1:
                node_count += 1
                seq.append(v)
                if before is not None and v == before[0]:
                    blocked = 0
                yield from rec(1 << v)
                seq.pop()
        else:
            yield from rec(0)
    finally:
        if stats is not None:
            stats.nodes += node_count


def assert_same_search(d, k, **options):
    ours, theirs = SearchStats(), SearchStats()
    got = list(iter_orderings_with_clique_at_most(d, k, stats=ours, **options))
    want = list(reference_orderings(d, k, stats=theirs, **options))
    assert got == want, (d, k, options)
    assert ours.nodes <= theirs.nodes, (d, k, options)


def restrictions(n, salt):
    """A first vertex, two before pairs and a first vertex with a before
    pair, picked from ``salt`` so that a sweep covers every vertex and pair
    role."""
    if n == 0:
        return []
    a = salt % n
    if n < 2:
        return [{"first_vertex": a}]
    b = (a + 1 + salt // n % (n - 1)) % n
    return [
        {"first_vertex": a},
        {"before": (a, b)},
        {"before": (b, a)},
        {"first_vertex": b, "before": (a, b)},
    ]


def random_tournament(n, rng):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
    return Tournament(n, tuple(rows))


def random_digraph(n, rng, p):
    """Each ordered pair an arc with probability p, independently: 2-cycles,
    non-adjacent pairs and acyclic draws all occur."""
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


@pytest.mark.parametrize("n", range(6))
def test_matches_reference_on_all_small_tournaments(n):
    for code in range(labeled_count(n)):
        t = labeled_tournament(n, code)
        restricted = restrictions(n, code)
        for k in range(1, 5):
            assert_same_search(t, k)
            if restricted:
                assert_same_search(t, k, **restricted[(code + k) % len(restricted)])


@pytest.mark.parametrize("n", range(6, 10))
def test_matches_reference_on_seeded_tournaments(n):
    rng = random.Random(8000 + n)
    for draw in range(3):
        t = random_tournament(n, rng)
        restricted = restrictions(n, draw)
        for k in range(1, 5):
            # at n >= 8 and k >= 3 the unrestricted lists run to hundreds of
            # thousands of orderings; the tightest restriction still covers k
            if n < 8 or k < 3:
                assert_same_search(t, k)
                for options in restricted:
                    assert_same_search(t, k, **options)
            else:
                assert_same_search(t, k, **restricted[-1])


@pytest.mark.parametrize("p", [0.15, 0.3, 0.5])
def test_matches_reference_on_seeded_digraphs(p):
    rng = random.Random(int(p * 100))
    for draw in range(15):
        d = random_digraph(3 + draw % 5, rng, p)
        for k in range(1, 5):
            assert_same_search(d, k)
            for options in restrictions(d.n, draw):
                assert_same_search(d, k, **options)


def test_long_transitive_inputs_need_no_recursion():
    res = omega(tt(1500))
    assert res.value == 1 and res.witness == tuple(range(1500))
    res = omega(reverse(tt(1500)))
    assert res.value == 1 and res.witness == tuple(reversed(range(1500)))


def test_stats_are_current_while_the_stream_is_held_open():
    stats = SearchStats()
    stream = iter_orderings_with_clique_at_most(r5(), 2, stats=stats)
    next(stream)
    assert stats.nodes == 5
    for _ in stream:
        pass
    assert stats.nodes == 140


def test_node_counts_are_pinned_over_every_small_class():
    # what a node counts is part of the search's contract: every class with
    # n <= 7 at k = 1, 2 (and 3 for n <= 6), plain, with vertex 0 first and
    # with 1 before 0, gives these totals and this digest of the streams
    stats = SearchStats()
    digest = hashlib.sha256()
    count = 0
    for n in range(1, 8):
        for t in canonical_tournaments(n):
            for k in (1, 2, 3) if n <= 6 else (1, 2):
                for options in ({}, {"first_vertex": 0}, {"before": (1, 0)}):
                    if "before" in options and n < 2:
                        continue
                    for ordering in iter_orderings_with_clique_at_most(t, k, stats=stats, **options):
                        digest.update(bytes(ordering))
                        count += 1
                    digest.update(b"|")
    assert (stats.nodes, count) == (1_067_123, 324_410)
    assert digest.hexdigest() == "42bf703c4706cf185a3a5836be1a5a6cc3595e80d64cb06ccbf2cbed567727ab"


def test_node_counts_are_pinned_with_both_restrictions_together():
    # every class with 3 <= n <= 6 at k = 1, 2 and 3, with vertex 0 first
    # and 2 before 1 at once: both enter as entries of the same kill tables
    stats = SearchStats()
    digest = hashlib.sha256()
    count = 0
    for n in range(3, 7):
        for t in canonical_tournaments(n):
            for k in (1, 2, 3):
                for ordering in iter_orderings_with_clique_at_most(
                        t, k, first_vertex=0, before=(2, 1), stats=stats):
                    digest.update(bytes(ordering))
                    count += 1
                digest.update(b"|")
    assert (stats.nodes, count) == (8_795, 2_873)
    assert digest.hexdigest() == "5750f7997c20ca32b58b03d7047dacc879495a7b618d6c5987eb831d275a6768"


def test_node_counts_are_pinned_at_k3_past_six_vertices(surrogate):
    # every ordering of W7 has clique number 3, so nothing is killed there;
    # a 3-cycle before it, with W7's vertex 0 (3 in the chain) first, kills
    # prefixes at k = 3
    stats = SearchStats()
    digest = hashlib.sha256()
    count = 0
    t = chain([c3(), surrogate])
    for ordering in iter_orderings_with_clique_at_most(t, 3, first_vertex=3, stats=stats):
        digest.update(bytes(ordering))
        count += 1
    assert (stats.nodes, count) == (149_887, 52_308)
    assert digest.hexdigest() == "bbada3ec4fa417b73c6469720347c14829c6961cec0bd83fb6232941d80a1e58"


def test_replays_longer_than_one_block_are_pinned():
    # four chained 3-cycles at k = 2: three two-vertex sets are each replayed
    # with 11,583 completions, so those replays cross 4,096-ordering blocks
    stats = SearchStats()
    digest = hashlib.sha256()
    count = 0
    for ordering in iter_orderings_with_clique_at_most(chain([c3()] * 4), 2, stats=stats):
        digest.update(bytes(ordering))
        count += 1
    assert (stats.nodes, count) == (415_626, 115_830)
    assert digest.hexdigest() == "918fbecd3483a027ac9728e2f9d15d7e301732a8ed45c965d2dbfaf83044b856"


@pytest.mark.slow
def test_replays_longer_than_one_block_match_the_reference():
    assert_same_search(chain([c3()] * 4), 2)


def test_before_needs_two_distinct_vertices():
    # r5 has 120 orderings at k = 5; (1, 1) used to filter out all of them
    with pytest.raises(ValueError, match="distinct"):
        list(iter_orderings_with_clique_at_most(r5(), 5, before=(1, 1)))


def completions_by_prefix(d, k, **options):
    """Each prefix of the reference stream's orderings, mapped to the suffixes
    completing it, in stream order."""
    completions = defaultdict(list)
    for ordering in reference_orderings(d, k, **options):
        for i in range(1, len(ordering)):
            completions[ordering[:i]].append(ordering[i:])
    return completions


def assert_subtree_depends_on_the_set_alone(d, k, **options):
    """The lemma behind the k <= 2 memo: kept prefixes with the same vertex
    set have the same completions, in the same order, and the same number
    of kept prefixes below them."""
    prefixes = surviving_prefixes(d, k, **options)
    stats = SearchStats()
    for _ in iter_orderings_with_clique_at_most(d, k, stats=stats, **options):
        pass
    assert stats.nodes == len(prefixes), (d, k, options)
    completions = completions_by_prefix(d, k, **options)
    below = Counter(p[:i] for p in prefixes for i in range(1, len(p)))
    subtrees = {}
    for p in prefixes:
        subtree = (completions[p], below[p])
        assert subtrees.setdefault(frozenset(p), subtree) == subtree, (d, k, options, p)


def before_restrictions(n, salt):
    return [options for options in restrictions(n, salt) if "before" in options]


@pytest.mark.parametrize("n", range(6))
def test_subtrees_depend_on_the_prefix_set_alone_on_all_small_tournaments(n):
    for code in range(labeled_count(n)):
        t = labeled_tournament(n, code)
        restricted = before_restrictions(n, code)
        for k in (1, 2):
            assert_subtree_depends_on_the_set_alone(t, k)
            if restricted:
                assert_subtree_depends_on_the_set_alone(t, k, **restricted[(code + k) % len(restricted)])


def test_subtrees_depend_on_the_prefix_set_alone_on_six_vertex_classes():
    # the lemma is invariant under relabeling, so the classes with every
    # restriction stand for the 32,768 labeled tournaments
    for salt, t in enumerate(canonical_tournaments(6)):
        for k in (1, 2):
            assert_subtree_depends_on_the_set_alone(t, k)
            for options in restrictions(6, salt):
                assert_subtree_depends_on_the_set_alone(t, k, **options)


@pytest.mark.parametrize("p", [0.15, 0.3, 0.5])
def test_subtrees_depend_on_the_prefix_set_alone_on_seeded_digraphs(p):
    rng = random.Random(int(p * 1000))
    for draw in range(15):
        d = random_digraph(3 + draw % 5, rng, p)
        for k in (1, 2):
            assert_subtree_depends_on_the_set_alone(d, k)
            for options in before_restrictions(d.n, draw):
                assert_subtree_depends_on_the_set_alone(d, k, **options)


def test_at_k3_the_order_of_the_prefix_matters():
    # (0, 1) places the backedge 1-0 and (1, 0) does not, so only after
    # (0, 1) do 2 then 3 close a 4-clique: k >= 3 gets no memo by vertex set
    t = reverse(tt(4))
    assert {(0, 1), (1, 0)} <= set(surviving_prefixes(t, 3))
    completions = completions_by_prefix(t, 3)
    assert completions[(0, 1)] == [(3, 2)]
    assert completions[(1, 0)] == [(2, 3), (3, 2)]
