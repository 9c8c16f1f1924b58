import math
import random
import time

import pytest

from backedge.constructions import (
    BuiltTournament,
    MaterializationRefused,
    SizingReport,
    amplifier,
    amplifier_route,
    amplifier_sizing,
    arrow,
    c3,
    chain,
    d_family,
    delta,
    lift,
    pi,
    pi_sizing,
    tt,
)
from backedge.core import (
    Digraph,
    Tournament,
    _transpose,
    backedge_graph,
    clique_number,
    contains_subtournament,
    directed_triangle,
    triangle_in_graph,
)
from backedge.gadgets import r5
from backedge.solvers import omega

from copy_arcs import cross_copy_backward_arcs
from labeled import labeled_count, labeled_tournament


def test_tt_and_c3():
    assert tt(0).n == 0
    assert tt(4).has_arc(0, 3) and not tt(4).has_arc(3, 0)
    assert directed_triangle(c3()) is not None
    assert delta(tt(1), tt(1), tt(1)).n == 3
    assert contains_subtournament(delta(tt(1), tt(1), tt(1)), c3()) is not None


def test_arrow():
    assert arrow(tt(1), tt(1)) == tt(2)
    assert arrow(tt(1), tt(2)) == tt(3)
    combined = arrow(c3(), c3())
    assert combined.n == 6
    assert combined.has_arc(0, 4)
    assert omega(combined).value == 2
    assert combined == chain([c3(), c3()])
    assert type(combined) is Tournament
    # one non-tournament block makes the whole chain a Digraph
    sparse = Digraph(2, (0, 0))
    assert arrow(c3(), sparse) == chain([c3(), sparse])
    mixed = chain([c3(), sparse, tt(2)])
    assert type(mixed) is Digraph and mixed.n == 7
    # delta is the chain of its parts with every part3 -> part1 arc flipped
    assert delta(c3(), sparse, tt(2)) == chain([c3(), sparse, tt(2)], [(_mask(range(5, 7)), _mask(range(3)))])


def _mask(vertices):
    return sum(1 << v for v in vertices)


def test_chain_flips_exactly_the_listed_pairs():
    base = chain([c3(), c3(), tt(2)])
    flips = {(4, 0), (7, 2), (6, 5)}
    flipped = chain([c3(), c3(), tt(2)], ((1 << w, 1 << u) for w, u in flips))
    assert type(flipped) is Tournament
    for u, v in base.arcs():
        assert flipped.has_arc(v, u) == ((v, u) in flips)


def _random_block(rng, n):
    if rng.random() < 0.5:
        return labeled_tournament(n, rng.randrange(labeled_count(n)))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
    return Digraph.from_arcs(n, arcs)


def test_chain_columns_match_the_transpose():
    # chain builds its columns from the blocks' columns and the flips; the
    # string transpose of its rows is the oracle
    rng = random.Random(20)
    for _ in range(400):
        blocks = [_random_block(rng, rng.randint(0, 6)) for _ in range(rng.randint(0, 5))]
        total = sum(b.n for b in blocks)
        firsts = [sum(b.n for b in blocks[:i]) for i in range(len(blocks))]
        pairs = []
        if total >= 2:
            for _ in range(rng.randint(0, 8)):
                w, u = rng.sample(range(total), 2)
                pairs.append((max(w, u), min(w, u)))
            pairs += pairs[:2]  # a pair flipped twice
            for b, first in zip(blocks, firsts):
                if b.n >= 2:  # a pair inside one block, either way round
                    pairs.append(tuple(first + v for v in rng.sample(range(b.n), 2)))
        built = chain(blocks, [(1 << w, 1 << u) for w, u in pairs])
        assert built.n == total
        assert built.cols == _transpose(built.rows, total), (blocks, pairs)
        assert type(built) is (
            Tournament if all(isinstance(b, Tournament) for b in blocks) else Digraph
        )


def test_chain_matches_a_pairwise_oracle():
    # random bicliques, overlapping one another, against the pair-by-pair
    # arc set: both directions of each covered pair toggle, once however
    # many bicliques cover it
    rng = random.Random(47)
    for _ in range(300):
        blocks = [_random_block(rng, rng.randint(0, 6)) for _ in range(rng.randint(0, 5))]
        total = sum(b.n for b in blocks)
        arcs, first = set(), 0
        for b in blocks:
            arcs |= {(first + u, first + v) for u, v in b.arcs()}
            arcs |= {(first + u, v) for u in range(b.n) for v in range(first + b.n, total)}
            first += b.n
        flips, covered = [], set()
        for _ in range(rng.randint(0, 4)):
            a = rng.getrandbits(total)
            b = rng.getrandbits(total) & ~a
            flips.append((a, b))
            covered |= {(u, v) for u in range(total) for v in range(total)
                        if (a >> u & 1 and b >> v & 1) or (b >> u & 1 and a >> v & 1)}
        built = chain(blocks, iter(flips))
        assert built.rows == Digraph.from_arcs(total, sorted(arcs ^ covered)).rows, (blocks, flips)
        assert built.cols == _transpose(built.rows, total)


@pytest.mark.parametrize("build", [lambda: pi(c3()), lambda: pi(r5()), lambda: amplifier(c3())])
def test_copy_construction_columns_match_the_transpose(build):
    t = build().tournament
    assert t.cols == _transpose(t.rows, t.n)


def test_chain_refuses_a_pair_flipped_onto_itself():
    with pytest.raises(ValueError, match="self-arc at vertex 1"):
        chain([c3(), c3()], [(1 << 1, 1 << 1)])
    # so is a vertex on both sides of a larger biclique
    with pytest.raises(ValueError, match="self-arc at vertex 1"):
        chain([c3(), c3()], [(_mask([1, 4]), _mask([0, 1]))])


def test_delta_numeric_shorthand():
    d = delta(tt(1), tt(2), c3())
    assert d.n == 6
    # part3 => part1
    assert d.has_arc(3, 0) and d.has_arc(0, 1)


def test_lift_counts_and_concat_ordering():
    lifted = lift(tt(2), c3())
    assert lifted.digraph.n == 1 + 2 + 3
    assert lifted.v == 0
    assert lifted.inner_span == (1, 3)
    assert lifted.outer_span == (3, 6)
    ordering = (1, 2, 3, 4, 5, 0)  # inner by its minimum ordering, outer, then v
    assert clique_number(backedge_graph(lifted.digraph, ordering)) == 2


def test_lift_concat_value_is_max_rule():
    for inner, outer, expected in [
        (tt(2), c3(), 2),
        (c3(), c3(), 3),
        (tt(1), tt(1), 2),
    ]:
        lifted = lift(inner, outer)
        inner_ord = omega(inner).witness
        outer_ord = omega(outer).witness
        ordering = (
            tuple(v + lifted.inner_span[0] for v in inner_ord)
            + tuple(v + lifted.outer_span[0] for v in outer_ord)
            + (lifted.v,)
        )
        value = clique_number(backedge_graph(lifted.digraph, ordering))
        assert value == expected
        assert expected == max(omega(inner).value + 1, omega(outer).value)


def test_amplifier_transitive_base():
    built = amplifier(tt(2))
    assert built.tournament == tt(4)
    assert built.layout is None
    assert clique_number(backedge_graph(built.tournament, built.ordering)) == 1


def test_amplifier_sizing_values():
    assert amplifier_sizing(3).total_vertices == 315
    assert amplifier_sizing(3).parameter("m") == 35
    report = amplifier_sizing(7)
    assert report.total_vertices == 49 * math.comb(43, 7)
    assert not report.materializable


def test_pi_sizing_values():
    assert pi_sizing(3).total_vertices == 63
    assert pi_sizing(3).parameter("m") == 10
    assert pi_sizing(3).parameter("label_universe") == 5


def test_amplifier_c3_structure():
    built = amplifier(c3())
    t, layout = built.tournament, built.layout
    assert t.n == 315
    assert len(layout.copies) == 105
    assert len(layout.subsets) == 35
    assert layout.label_universe == 7
    # per block, label subsets run over all 3-subsets exactly once
    for block in range(3):
        families = [c.family for c in layout.copies if c.block == block]
        assert sorted(families) == list(range(35))
    # every label map is a bijection onto its subset
    for copy in layout.copies:
        assert sorted(copy.psi) == sorted(layout.subsets[copy.family])
    # construction ordering has a triangle-free backedge graph
    g = backedge_graph(t, built.ordering)
    assert triangle_in_graph(g) is None
    assert g.edge_count() == 1680


def test_amplifier_no_reversal_inside_blocks():
    built = amplifier(c3())
    layout = built.layout
    copy_of = {}
    for idx, copy in enumerate(layout.copies):
        for v in copy.vertices():
            copy_of[v] = idx
    for w, u in cross_copy_backward_arcs(built.tournament, layout):
        ci, cj = copy_of[u], copy_of[w]
        assert ci < cj
        assert layout.copies[ci].block != layout.copies[cj].block
        assert layout.copies[ci].psi[u - layout.copies[ci].start] == \
            layout.copies[cj].psi[w - layout.copies[cj].start]


def test_amplifier_hitting_property_sampled():
    built = amplifier(c3())
    t = built.tournament
    rng = random.Random(20240901)
    full = (1 << t.n) - 1
    for _ in range(200):
        subset = rng.getrandbits(t.n)
        assert (
            directed_triangle(t, subset) is not None
            or directed_triangle(t, full & ~subset) is not None
        )


def test_amplifier_budget_refusal():
    with pytest.raises(MaterializationRefused) as exc:
        amplifier(c3(), vertex_budget=100)
    assert exc.value.report.total_vertices == 315


def test_amplifier_refuses_by_size_before_searching(monkeypatch):
    def no_search(t, **kwargs):
        raise AssertionError("omega must not run on an oversized base")

    monkeypatch.setattr("backedge.constructions.omega", no_search)
    with pytest.raises(MaterializationRefused):
        amplifier(delta(tt(4), tt(4), tt(4)))


def test_amplifier_route_sizes_what_amplifier_builds(monkeypatch):
    assert amplifier_route(c3()) == amplifier_sizing(3)
    assert amplifier(c3()).tournament.n == amplifier_route(c3()).total_vertices == 315
    report = amplifier_route(tt(3), vertex_budget=6)
    assert (report.total_vertices, report.materializable) == (6, True)
    assert amplifier(tt(3), vertex_budget=6).tournament.n == 6

    def no_search(t, **kwargs):
        raise AssertionError("omega must not run on an oversized base")

    # the short route is refused by the same sizing, before the base is searched
    monkeypatch.setattr("backedge.constructions.omega", no_search)
    with pytest.raises(MaterializationRefused) as refused:
        amplifier(tt(3), vertex_budget=5)
    assert refused.value.report == amplifier_route(tt(3), vertex_budget=5)
    assert not refused.value.report.materializable


def test_pi_c3_wiring(d2):
    t, layout = d2.tournament, d2.layout
    assert t.n == 63
    roles = [c.role for c in layout.copies]
    assert roles == ["A"] * 10 + ["B"] + ["C"] * 10
    a_copies = [c for c in layout.copies if c.role == "A"]
    c_copies = [c for c in layout.copies if c.role == "C"]
    b_copy = next(c for c in layout.copies if c.role == "B")
    # front and back copy j share the same label map
    for ai, cj in zip(a_copies, c_copies):
        assert ai.family == cj.family and ai.psi == cj.psi
    assert sorted(c.family for c in a_copies) == list(range(10))
    # wiring symmetry: arc back->front iff labels agree; B untouched
    flipped = 0
    for ai in a_copies:
        for cj in c_copies:
            for u in ai.vertices():
                for v in cj.vertices():
                    label_u = ai.psi[u - ai.start]
                    label_v = cj.psi[v - cj.start]
                    assert t.has_arc(v, u) == (label_u == label_v)
                    flipped += label_u == label_v
    assert flipped == 180
    for v in b_copy.vertices():
        for u in range(b_copy.start):
            assert t.has_arc(u, v)
        for w in range(b_copy.start + 3, 63):
            assert t.has_arc(v, w)


def test_pi_c3_certificate_ordering(d2):
    g = backedge_graph(d2.tournament, d2.ordering)
    assert triangle_in_graph(g) is None
    assert contains_subtournament(d2.tournament, c3()) is not None


def test_pi_reversed_count_formula(d2):
    flipped = cross_copy_backward_arcs(d2.tournament, d2.layout)
    assert len(flipped) == 5 * math.comb(4, 2) ** 2


def _back_to_front_arcs(built):
    """Arcs from a back copy into a front copy of a two-sided construction,
    counted as popcounts of each front vertex's column."""
    copies = built.layout.copies
    back = sum(((1 << c.size) - 1) << c.start for c in copies if c.role == "C")
    t = built.tournament
    return sum((t.cols[x] & back).bit_count() for c in copies if c.role == "A" for x in c.vertices())


def test_pi_r5_reverses_a_biclique_per_label():
    # 9 labels, each carried by 70 front and 70 back vertices
    assert _back_to_front_arcs(pi(r5())) == 9 * math.comb(8, 4) ** 2 == 44_100


@pytest.mark.slow
def test_pi_w7_materializes_quickly(surrogate):
    # 0.34 s on a 2-vCPU Xeon VM; listing and reversing its 11,099,088
    # flipped arcs one by one took 55 s
    started = time.monotonic()
    built = pi(surrogate)
    elapsed = time.monotonic() - started
    assert built.tournament.n == 24_031
    assert elapsed < 5, f"pi(W7) took {elapsed:.1f} s"
    assert _back_to_front_arcs(built) == 13 * math.comb(12, 6) ** 2 == 11_099_088


def test_d_family():
    assert d_family(1) == c3()
    d2t = d_family(2)
    assert isinstance(d2t, Tournament) and d2t.n == 63
    report = d_family(3)
    assert isinstance(report, SizingReport)
    assert report.parameter("n") == 63
    m = math.comb(125, 63)
    assert report.parameter("m") == m
    assert report.total_vertices == 63 * (2 * m + 1)
    assert not report.materializable
    with pytest.raises(ValueError):
        d_family(4)
    with pytest.raises(ValueError):
        d_family(0)


def test_built_result_shape():
    built = pi(c3())
    assert isinstance(built, BuiltTournament)
    payload = built.layout.to_dict()
    assert payload["label_universe"] == 5
    assert len(payload["copies"]) == 21
