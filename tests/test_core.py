import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backedge.constructions import amplifier, c3, tt
from backedge.core import (
    Digraph,
    Tournament,
    UndirectedGraph,
    _backedge_masks,
    backedge_graph,
    clique_number,
    contains_subtournament,
    directed_triangle,
    has_clique,
    has_clique_in_mask,
    induced,
    is_acyclic,
    is_forest,
    is_strong,
    ordering_clique_number,
    reverse,
    triangle_in_graph,
)
from backedge.gadgets import r5, var_base
from backedge.generation import canonical_tournaments

from helpers import directed_cycle
from labeled import labeled_count, labeled_tournament


def small_tournaments(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.builds(
            labeled_tournament,
            st.just(n),
            st.integers(min_value=0, max_value=labeled_count(n) - 1),
        )
    )


def orderings_of(t):
    return st.permutations(range(t.n)).map(tuple)


def small_digraphs(max_n=9):
    """Digraphs on 1..max_n vertices, pairs with both arcs (digons) included."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n).map(
            lambda rows: Digraph(n, tuple(row & ~(1 << u) for u, row in enumerate(rows)))
        )
    )


def test_tournament_validation():
    with pytest.raises(ValueError):
        Tournament(2, (0, 0))  # missing arc
    with pytest.raises(ValueError):
        Tournament(2, (2, 1))  # both arcs
    with pytest.raises(ValueError):
        Tournament(1, (1,))  # self-arc
    with pytest.raises(ValueError):
        Digraph(2, (4, 0))  # out of range
    with pytest.raises(ValueError, match="non-negative"):
        Digraph(-1, ())


def test_guards_on_empty_and_zero_size_inputs():
    with pytest.raises(ValueError, match="clique size must be positive"):
        has_clique(UndirectedGraph(1, (0,)), 0)
    with pytest.raises(ValueError, match="empty tournament is undefined"):
        is_strong(Tournament(0, ()))
    with pytest.raises(ValueError, match="positive"):
        canonical_tournaments(0)
    empty = induced(r5(), [])
    assert type(empty) is Tournament and empty == Tournament(0, ())
    assert contains_subtournament(r5(), Tournament(0, ())) == ()


def test_undirected_validation():
    cases = [
        (2, (2, 0), "edge (0,1) is not symmetric"),
        (3, (0, 0, 1), "edge (0,2) is not symmetric"),
        (1, (1,), "self-arc at vertex 0"),
        (2, (4, 0), "row 0 references a vertex >= 2"),
        (2, (2,), "expected 2 adjacency rows, got 1"),
    ]
    for n, rows, message in cases:
        with pytest.raises(ValueError) as info:
            UndirectedGraph(n, rows)
        assert str(info.value) == message
    # flipped bits of a symmetric graph: the error names the first
    # asymmetric pair (u, v), u < v
    rng = random.Random(2027)
    for _ in range(500):
        n = rng.randint(2, 12)
        rows = list(random_graph(rng, n).rows)
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(n), 2)
            rows[u] ^= 1 << v
        bad = [(u, v) for u, v in itertools.combinations(range(n), 2)
               if rows[u] >> v & 1 != rows[v] >> u & 1]
        if not bad:
            assert UndirectedGraph(n, tuple(rows)).rows == tuple(rows)
            continue
        with pytest.raises(ValueError) as info:
            UndirectedGraph(n, tuple(rows))
        assert str(info.value) == "edge ({},{}) is not symmetric".format(*bad[0])


def random_tournament(rng, n):
    pairs = itertools.combinations(range(n), 2)
    return Tournament.from_arcs(n, [(u, v) if rng.random() < 0.5 else (v, u) for u, v in pairs])


def test_backedge_graph_equals_the_checked_constructor():
    # backedge_graph takes its columns from its symmetric masks; the public
    # constructor transposes and compares, and must accept the same graph
    rng = random.Random(27)
    tournaments = [random_tournament(rng, rng.randint(0, 40)) for _ in range(120)]
    tournaments.append(amplifier(c3()).tournament)
    assert tournaments[-1].n == 315
    for t in tournaments:
        for _ in range(3):
            ordering = rng.sample(range(t.n), t.n)
            g = backedge_graph(t, ordering)
            checked = UndirectedGraph(t.n, g.rows)
            assert g == checked and g.cols == g.rows == checked.cols
            pos = {v: i for i, v in enumerate(ordering)}
            assert set(g.edges()) == {(min(u, v), max(u, v)) for u, v in t.arcs() if pos[u] > pos[v]}
    g = from_edges(5, [(0, 3), (4, 1), (3, 2)])
    assert g == UndirectedGraph(5, g.rows) and g.cols == g.rows
    assert list(g.edges()) == [(0, 3), (1, 4), (2, 3)] and g.edge_count() == 3


def test_reverse_swaps_rows_and_columns():
    rng = random.Random(28)
    digraphs = [random_tournament(rng, rng.randint(0, 40)) for _ in range(60)]
    digraphs += [random_digraph(rng, rng.randint(0, 40)) for _ in range(60)]
    digraphs += [amplifier(c3()).tournament, random_graph(rng, 30)]
    for d in digraphs:
        r = reverse(d)
        checked = type(d)(d.n, d.cols)
        assert type(r) is type(d) and r == checked and r.cols == checked.cols
        assert r.rows == d.cols and r.cols == d.rows
        assert reverse(r) == d


def test_backedge_graph_c3():
    g = backedge_graph(c3(), (0, 1, 2))
    assert list(g.edges()) == [(0, 2)]


def test_backedge_graph_var_base_identity():
    t = var_base().tournament
    g = backedge_graph(t, tuple(range(9)))
    assert triangle_in_graph(g) is None
    assert g.has_arc(2, 7)


def test_backedge_graph_tt3_identity_empty():
    g = backedge_graph(tt(3), (0, 1, 2))
    assert g.edge_count() == 0


def test_backedge_graph_length_mismatch():
    with pytest.raises(ValueError):
        backedge_graph(c3(), (0, 1))


def test_clique_number_edgeless_and_complete():
    assert clique_number(UndirectedGraph(5, (0,) * 5)) == 1
    full = from_edges(4, list(itertools.combinations(range(4), 2)))
    assert clique_number(full) == 4
    assert has_clique(full, 4) == (0, 1, 2, 3)
    assert has_clique(full, 5) is None


def test_clique_number_r5_identity_backedges():
    g = backedge_graph(r5(), tuple(range(5)))
    assert clique_number(g) == 2
    assert is_forest(g)


def test_clique_number_empty_graph_errors():
    with pytest.raises(ValueError):
        clique_number(UndirectedGraph(0, ()))
    with pytest.raises(ValueError, match="clique number of the empty graph is undefined"):
        ordering_clique_number(Tournament(0, ()), ())


@settings(max_examples=300)
@given(st.data())
def test_backedge_masks_match_a_per_pair_oracle(data):
    d = data.draw(small_digraphs())
    ordering = data.draw(orderings_of(d))
    pos = {v: i for i, v in enumerate(ordering)}
    # {u, v} is an edge iff the later of the two has an arc to the earlier
    expected = [sum(1 << u for u in range(d.n) if u != v and (
        d.has_arc(v, u) if pos[u] < pos[v] else d.has_arc(u, v))) for v in range(d.n)]
    assert _backedge_masks(d, ordering) == expected


@settings(max_examples=300)
@given(st.data())
def test_ordering_clique_number_equals_the_backedge_graphs(data):
    d = data.draw(small_digraphs())
    ordering = data.draw(orderings_of(d))
    assert ordering_clique_number(d, ordering) == clique_number(backedge_graph(d, ordering))


def test_ordering_clique_number_on_every_ordering_of_every_small_class():
    for n in range(1, 7):
        for t in canonical_tournaments(n):
            for ordering in itertools.permutations(range(n)):
                want = clique_number(backedge_graph(t, ordering))
                assert ordering_clique_number(t, ordering) == want, (t, ordering)


def test_has_clique_witness_is_clique():
    g = backedge_graph(var_base().tournament, (5, 7, 1, 8, 0, 2, 3, 4, 6))
    witness = has_clique(g, 2)
    assert witness is not None
    u, v = witness
    assert g.has_arc(u, v)


def test_is_transitive():
    assert directed_triangle(tt(4)) is None
    assert directed_triangle(c3()) is not None
    assert directed_triangle(r5()) is not None


def test_r5_has_directed_triangle_through_1_3_4():
    tri = directed_triangle(r5(), (1 << 1) | (1 << 3) | (1 << 4))
    assert tri is not None
    u, v, w = tri
    assert r5().has_arc(u, v) and r5().has_arc(v, w) and r5().has_arc(w, u)


def test_is_strong():
    assert is_strong(c3())
    assert not is_strong(tt(3))
    assert is_strong(r5())


def test_is_strong_matches_transitive_closure():
    # every labeled 5-vertex tournament, against a Warshall closure oracle
    n = 5
    for index in range(labeled_count(n)):
        t = labeled_tournament(n, index)
        reach = [[t.has_arc(u, v) or u == v for v in range(n)] for u in range(n)]
        for k in range(n):
            for u in range(n):
                if reach[u][k]:
                    for v in range(n):
                        reach[u][v] = reach[u][v] or reach[k][v]
        assert is_strong(t) == all(all(row) for row in reach), index


def test_is_forest_matches_union_find():
    # identity-ordering backedge graphs of every labeled 5-vertex tournament
    n = 5
    forests = 0
    for index in range(labeled_count(n)):
        g = backedge_graph(labeled_tournament(n, index), tuple(range(n)))
        root = list(range(n))

        def find(x):
            while root[x] != x:
                x = root[x]
            return x

        acyclic = True
        for u, v in g.edges():
            ru, rv = find(u), find(v)
            if ru == rv:
                acyclic = False
            root[ru] = rv
        forests += acyclic
        assert is_forest(g) == acyclic, index
    assert 0 < forests < labeled_count(n)


def kahn_is_acyclic(d, within=None):
    """Reference: repeatedly remove a vertex with no in-arc inside the mask."""
    mask = (1 << d.n) - 1 if within is None else within
    indeg = {u: (d.cols[u] & mask).bit_count() for u in range(d.n) if mask >> u & 1}
    queue = [u for u, deg in indeg.items() if deg == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in indeg:
            if d.has_arc(u, v):
                indeg[v] -= 1
                if indeg[v] == 0:
                    queue.append(v)
    return seen == len(indeg)


def branch_and_bound_clique_number(g):
    """Reference: grow cliques over vertex bitmasks, pruning any branch that
    cannot beat the best size found."""
    best = 1

    def grow(mask, size):
        nonlocal best
        while mask:
            if size + mask.bit_count() <= best:
                return
            low = mask & -mask
            mask ^= low
            best = max(best, size + 1)
            grow(g.rows[low.bit_length() - 1] & mask, size + 1)

    grow((1 << g.n) - 1, 0)
    return best


def random_digraph(rng, n):
    density = rng.choice((0.1, 0.2, 0.35, 0.6))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
    return Digraph.from_arcs(n, arcs)


def from_edges(n, edges):
    """The undirected graph on 0..n-1 with the given edges."""
    return UndirectedGraph.from_arcs(n, [arc for u, v in edges for arc in ((u, v), (v, u))])


def random_graph(rng, n):
    density = rng.choice((0.2, 0.5, 0.8))
    edges = [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density]
    return from_edges(n, edges)


def test_directed_cycle_matches_kahn():
    rng = random.Random(20241018)
    cyclic = acyclic = 0
    for trial in range(1200):
        n = rng.randint(1, 9)
        if trial % 2:
            d = labeled_tournament(n, rng.randrange(labeled_count(n)))
        else:
            d = random_digraph(rng, n)
        within = None if trial % 3 == 0 else rng.getrandbits(n)
        mask = (1 << n) - 1 if within is None else within
        cycle = directed_cycle(d, within)
        assert is_acyclic(d, within) == (cycle is None)
        assert (cycle is None) == kahn_is_acyclic(d, within), (d, within)
        if cycle is None:
            acyclic += 1
            continue
        cyclic += 1
        assert len(set(cycle)) == len(cycle) >= 2
        assert all(mask >> v & 1 for v in cycle)
        for u, v in zip(cycle, cycle[1:] + cycle[:1]):
            assert d.has_arc(u, v)
    assert cyclic > 300 and acyclic > 300


def test_clique_number_matches_branch_and_bound():
    rng = random.Random(20241018)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_graph(rng, n)
        assert clique_number(g) == branch_and_bound_clique_number(g)
    for _ in range(100):
        n = rng.randint(1, 9)
        t = labeled_tournament(n, rng.randrange(labeled_count(n)))
        g = backedge_graph(t, tuple(rng.sample(range(n), n)))
        assert clique_number(g) == branch_and_bound_clique_number(g)


def test_has_clique_in_mask_is_first_combination():
    rng = random.Random(20241018)
    for trial in range(400):
        n = rng.randint(1, 10)
        g = random_graph(rng, n)
        mask = 0 if trial % 10 == 0 else rng.getrandbits(n)
        inside = [v for v in range(n) if mask >> v & 1]
        for k in range(6):
            first = next(
                (
                    combo
                    for combo in itertools.combinations(inside, k)
                    if all(g.has_arc(u, v) for u, v in itertools.combinations(combo, 2))
                ),
                None,
            )
            assert has_clique_in_mask(g.rows, mask, k) == first, (g, mask, k)


def test_reverse_and_induced():
    rc3 = reverse(c3())
    assert contains_subtournament(rc3, c3()) is not None
    assert induced(tt(5), {0, 2, 4}) == tt(3)
    base = var_base().tournament
    assert reverse(reverse(base)) == base
    with pytest.raises(ValueError):
        induced(tt(3), [0, 5])


def test_contains_subtournament_basics():
    assert contains_subtournament(c3(), tt(2)) is not None
    assert contains_subtournament(tt(5), c3()) is None
    image = contains_subtournament(r5(), c3())
    assert image is not None


def test_contains_subtournament_witness_is_lexicographically_first():
    # brute force over every injection in lexicographic order
    rng = random.Random(11)
    for _ in range(150):
        hn, pn = rng.randint(1, 6), rng.randint(1, 4)
        host = labeled_tournament(hn, rng.randrange(labeled_count(hn)))
        pattern = labeled_tournament(pn, rng.randrange(labeled_count(pn)))
        first = next(
            (image for image in itertools.permutations(range(hn), pn)
             if all(pattern.has_arc(p, q) == host.has_arc(image[p], image[q])
                    for p in range(pn) for q in range(pn) if p != q)),
            None,
        )
        assert contains_subtournament(host, pattern) == first, (host, pattern)


def test_contains_subtournament_has_no_recursion_limit():
    assert contains_subtournament(tt(1500), tt(1200)) == tuple(range(1200))
    assert contains_subtournament(reverse(tt(1500)), tt(1200)) == tuple(range(1199, -1, -1))


@settings(max_examples=60)
@given(small_tournaments())
def test_pair_partition_forward_vs_backedge(t):
    ordering = tuple(range(t.n))
    g = backedge_graph(t, ordering)
    for u in range(t.n):
        for v in range(u + 1, t.n):
            forward = t.has_arc(u, v)
            assert g.has_arc(u, v) == (not forward)


@settings(max_examples=60)
@given(st.data())
def test_reversal_preserves_backedge_graph(data):
    t = data.draw(small_tournaments())
    ordering = data.draw(orderings_of(t))
    g1 = backedge_graph(t, ordering)
    g2 = backedge_graph(reverse(t), tuple(reversed(ordering)))
    assert g1.rows == g2.rows


@settings(max_examples=40)
@given(st.data())
def test_embedding_is_arc_preserving(data):
    host = data.draw(small_tournaments(max_n=6))
    pattern = data.draw(small_tournaments(max_n=4))
    image = contains_subtournament(host, pattern)
    if image is None:
        return
    assert len(set(image)) == pattern.n
    for p in range(pattern.n):
        for q in range(pattern.n):
            if p != q:
                assert pattern.has_arc(p, q) == host.has_arc(image[p], image[q])


@settings(max_examples=60)
@given(small_tournaments())
def test_transitivity_characterizations(t):
    transitive = directed_triangle(t) is None
    assert transitive == is_acyclic(t) == (contains_subtournament(t, c3()) is None)
    if transitive:
        topo = tuple(
            sorted(range(t.n), key=lambda v: t.rows[v].bit_count(), reverse=True)
        )
        assert clique_number(backedge_graph(t, topo)) <= 1
