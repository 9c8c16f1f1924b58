import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backedge.constructions import arrow, c3, delta, tt
from backedge.core import (
    BudgetExhausted,
    Digraph,
    Tournament,
    backedge_graph,
    clique_number,
    induced,
    is_acyclic,
    is_transitive,
    reverse,
)
from backedge.gadgets import clause_base, r5, var_base
from backedge.solvers import (
    Deadline,
    chi,
    chi_decide,
    enumerate_omega_orderings,
    forcing_holds,
    iter_orderings_with_clique_at_most,
    min_order_with_omega,
    minimum_ordering,
    omega,
    omega_by_enumeration,
    omega_decide,
)

from labeled import labeled_count, labeled_tournament

R5_FIRST_FIXED = [
    (0, 1, 2, 3, 4),
    (0, 1, 3, 2, 4),
    (0, 1, 3, 4, 2),
    (0, 2, 1, 3, 4),
    (0, 2, 3, 1, 4),
    (0, 2, 3, 4, 1),
    (0, 3, 1, 2, 4),
    (0, 3, 1, 4, 2),
    (0, 3, 4, 1, 2),
]


def small_tournaments(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.builds(
            labeled_tournament,
            st.just(n),
            st.integers(min_value=0, max_value=labeled_count(n) - 1),
        )
    )


def test_omega_decide_r5():
    assert not omega_decide(r5(), 1).decision
    res = omega_decide(r5(), 2)
    assert res.decision and res.witness == (0, 1, 2, 3, 4)


def test_omega_decide_var_base_identity_witness():
    res = omega_decide(var_base().tournament, 2)
    assert res.decision and res.witness == tuple(range(9))


def test_omega_known_values():
    assert omega(tt(7)).value == 1
    assert omega(c3()).value == 2
    assert omega(clause_base().tournament).value == 2
    assert omega(var_base().tournament).value == 2


def test_omega_witness_achieves_value():
    for t in (c3(), r5(), var_base().tournament):
        res = omega(t)
        assert clique_number(backedge_graph(t, res.witness)) == res.value


def test_enumerate_r5_orderings():
    assert list(iter_orderings_with_clique_at_most(r5(), 2, first_vertex=0)) == R5_FIRST_FIXED
    assert len(list(enumerate_omega_orderings(r5()))) == 45
    assert len(list(enumerate_omega_orderings(c3()))) == 6


def test_enumerate_matches_brute_force_small():
    rng = random.Random(7)
    for n in (3, 4, 5):
        for _ in range(8):
            t = labeled_tournament(n, rng.randrange(labeled_count(n)))
            value = omega(t).value
            expected = [
                perm
                for perm in itertools.permutations(range(n))
                if clique_number(backedge_graph(t, perm)) == value
            ]
            assert list(enumerate_omega_orderings(t)) == expected


def test_omega_transitive_iff_value_one():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        t = labeled_tournament(n, rng.randrange(labeled_count(n)))
        assert (omega(t).value == 1) == is_transitive(t)


def test_omega_invariances():
    rng = random.Random(13)
    for _ in range(15):
        n = rng.randint(2, 6)
        t = labeled_tournament(n, rng.randrange(labeled_count(n)))
        value = omega(t).value
        assert omega(reverse(t)).value == value
        perm = list(range(n))
        rng.shuffle(perm)
        relabeled = Tournament.from_arcs(
            n, [(perm[u], perm[v]) for u, v in t.arcs()]
        )
        assert omega(relabeled).value == value
        subset = [v for v in range(n) if rng.random() < 0.6]
        if subset:
            assert omega(induced(t, subset)).value <= value


def test_omega_agrees_with_enumeration_oracle():
    rng = random.Random(17)
    for n in (1, 2, 3, 4, 5):
        for code in range(labeled_count(n)) if n <= 4 else rng.sample(
            range(labeled_count(5)), 120
        ):
            t = labeled_tournament(n, code)
            assert omega(t).value == omega_by_enumeration(t)


def test_search_deadline():
    from backedge.solvers import iter_orderings_with_clique_at_most

    # a find-first search may finish before ever polling the deadline, but a
    # full enumeration over the 9-vertex gadget cannot
    with pytest.raises(BudgetExhausted):
        list(
            iter_orderings_with_clique_at_most(
                var_base().tournament, 2, deadline=Deadline(0)
            )
        )


def test_chi_small_values():
    assert chi(tt(9)).value == 1
    res = chi(c3())
    assert res.value == 2
    for cls in res.classes:
        mask = 0
        for v in cls:
            mask |= 1 << v
        assert is_acyclic(c3(), mask)


def test_chi_decide_validity_and_brute_force():
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randint(2, 6)
        t = labeled_tournament(n, rng.randrange(labeled_count(n)))
        value = chi(t).value
        # brute force: try all colorings with value-1 classes
        if value > 1:
            feasible = False
            for colors in itertools.product(range(value - 1), repeat=n):
                masks = [0] * (value - 1)
                for v, color in enumerate(colors):
                    masks[color] |= 1 << v
                if all(is_acyclic(t, m) for m in masks if m):
                    feasible = True
                    break
            assert not feasible
            assert not chi_decide(t, value - 1).decision
        witness = chi_decide(t, value)
        assert witness.decision
        for cls in witness.classes:
            mask = 0
            for v in cls:
                mask |= 1 << v
            assert is_acyclic(t, mask)


def test_chi_on_general_digraph_lazy_path():
    # 4-cycle digraph: no triangles, so cuts only arrive lazily
    cycle = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not chi_decide(cycle, 1).decision
    res = chi_decide(cycle, 2)
    assert res.decision
    assert chi(cycle).value == 2


def test_chi_random_digraphs_against_brute_force():
    rng = random.Random(37)

    def brute_chi(d):
        for k in range(1, d.n + 1):
            for colors in itertools.product(range(k), repeat=d.n):
                masks = [0] * k
                for v, color in enumerate(colors):
                    masks[color] |= 1 << v
                if all(is_acyclic(d, m) for m in masks if m):
                    return k
        raise AssertionError

    for _ in range(25):
        n = rng.randint(2, 6)
        arcs = []
        for u in range(n):
            for v in range(n):
                if u != v and rng.random() < 0.45:
                    arcs.append((u, v))
        d = Digraph.from_arcs(n, arcs)
        result = chi(d)
        assert result.value == brute_chi(d)
        for cls in result.classes:
            mask = 0
            for v in cls:
                mask |= 1 << v
            assert is_acyclic(d, mask)


def test_chi_deep_search_on_larger_tournaments():
    # big enough that refuting value-1 classes needs genuine conflict work
    rng = random.Random(43)
    for _ in range(3):
        n = 15
        code = rng.randrange(labeled_count(n))
        t = labeled_tournament(n, code)
        result = chi(t)
        assert result.value >= 2
        assert not chi_decide(t, result.value - 1).decision
        covered = 0
        for cls in result.classes:
            mask = 0
            for v in cls:
                mask |= 1 << v
            assert is_acyclic(t, mask)
            covered |= mask
        assert covered == (1 << n) - 1


def test_chi_decide_polls_the_deadline_while_seeding_cuts():
    # solve polls only every 256 conflicts; this call needs far fewer
    t = labeled_tournament(12, random.Random(29).randrange(labeled_count(12)))
    assert chi_decide(t, 2).conflicts < 256
    with pytest.raises(BudgetExhausted):
        chi_decide(t, 2, deadline=Deadline(0))


def test_chi_deterministic():
    t = arrow(c3(), c3())
    assert isinstance(t, Tournament)
    first = chi(t)
    second = chi(t)
    assert first == second
    assert first.value == 2


def test_chi_conflicts_sum_every_k_tried():
    rng = random.Random(53)
    refuted_work = 0
    for n in (12, 16, 20):
        t = labeled_tournament(n, rng.randrange(labeled_count(n)))
        result = chi(t)
        per_k = [chi_decide(t, k).conflicts for k in range(1, result.value + 1)]
        assert result.conflicts == sum(per_k)
        refuted_work += sum(per_k[:-1])
    # the refuted k carry conflicts, so the last k alone would undercount
    assert refuted_work > 0


def test_forcing_negative_control_with_triangle_companion():
    # single arc v->u plus u => triangle => v: companion lacks the hitting
    # property, so nothing forces u before v at clique bound 2
    arcs = [(1, 0), (0, 2), (0, 3), (0, 4), (2, 1), (3, 1), (4, 1), (2, 3), (3, 4), (4, 2)]
    d = Digraph.from_arcs(5, arcs)
    res = forcing_holds(d, 0, 1, 2)
    assert not res.holds and not res.vacuous
    counter = res.counterexample
    assert counter.index(1) < counter.index(0)
    assert clique_number(backedge_graph(d, counter)) <= 2


def test_forcing_vacuous_at_k1():
    arcs = [(1, 0), (0, 2), (0, 3), (0, 4), (2, 1), (3, 1), (4, 1), (2, 3), (3, 4), (4, 2)]
    d = Digraph.from_arcs(5, arcs)
    res = forcing_holds(d, 0, 1, 1)
    assert res.holds and res.vacuous


def test_forcing_bare_arc_not_vacuous():
    d = Digraph.from_arcs(2, [(0, 1)])
    res = forcing_holds(d, 0, 1, 1)
    assert res.holds and not res.vacuous
    with pytest.raises(ValueError):
        forcing_holds(d, 0, 0, 1)


def test_forcing_antisymmetry_unless_vacuous():
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(2, 5)
        t = labeled_tournament(n, rng.randrange(labeled_count(n)))
        k = rng.randint(1, 2)
        u, v = rng.sample(range(n), 2)
        fwd = forcing_holds(t, u, v, k)
        bwd = forcing_holds(t, v, u, k)
        if fwd.holds and bwd.holds:
            assert not omega_decide(t, k).decision
            assert fwd.vacuous and bwd.vacuous


def test_min_order_small_values():
    res = min_order_with_omega(1, 3)
    assert (res.n, res.witness) == (1, tt(1))
    res = min_order_with_omega(2, 4)
    assert res.n == 3
    assert omega(res.witness).value == 2
    assert min_order_with_omega(4, 4) is None


def test_min_order_three_needs_seven_vertices(surrogate):
    res = min_order_with_omega(3, 7)
    assert res.n == 7
    assert res.witness == surrogate
    assert res.witness.rows == (112, 73, 35, 21, 70, 26, 44)
    assert omega(surrogate).value == 3
    assert omega_by_enumeration(surrogate) == 3


@settings(max_examples=30, deadline=None)
@given(small_tournaments(max_n=5))
def test_enumerated_orderings_achieve_minimum(t):
    value = omega(t).value
    seen = list(enumerate_omega_orderings(t))
    assert seen == sorted(seen)
    for ordering in seen:
        assert clique_number(backedge_graph(t, ordering)) == value


def test_delta_lift_omega_examples():
    assert omega(arrow(c3(), c3())).value == 2
    assert omega(delta(tt(1), tt(1), tt(1))).value == 2


def test_omega_scales_on_near_transitive_inputs():
    # the bound-1 search must stay on topological prefixes; without that
    # prune these blow up exponentially
    from backedge.constructions import pi

    res = omega(reverse(tt(40)))
    assert res.value == 1 and res.witness == tuple(reversed(range(40)))
    assert list(enumerate_omega_orderings(tt(6))) == [tuple(range(6))]
    d2 = pi(c3()).tournament
    res = omega(d2)
    assert res.value == 2 and res.nodes == 63


def test_minimum_ordering_agrees_with_omega():
    rng = random.Random(2026)
    for n in range(1, 10):
        for _ in range(4):
            t = labeled_tournament(n, rng.randrange(labeled_count(n)))
            value = omega(t).value
            for ordering in enumerate_omega_orderings(t):
                res = minimum_ordering(t, list(ordering))
                assert (res.value, res.witness) == (value, ordering)


def test_minimum_ordering_rejects_non_minimum_and_non_permutations():
    t = r5()
    assert clique_number(backedge_graph(t, (0, 1, 2, 4, 3))) == 3 > omega(t).value
    with pytest.raises(ValueError, match="ordering does not achieve the minimum clique number"):
        minimum_ordering(t, (0, 1, 2, 4, 3))
    with pytest.raises(ValueError, match="not a permutation"):
        minimum_ordering(t, (0, 1, 2, 3))
    # a transitive ordering is minimum without any search
    res = minimum_ordering(tt(6), range(6))
    assert (res.value, res.witness, res.nodes) == (1, tuple(range(6)), 0)
