import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backedge import solvers
from backedge._sat import Solver
from backedge.constructions import amplifier, arrow, c3, delta, pi, tt
from backedge.core import (
    BudgetExhausted,
    Digraph,
    Tournament,
    _bits,
    backedge_graph,
    clique_number,
    induced,
    is_acyclic,
    is_transitive,
    reverse,
)
from backedge.gadgets import clause_base, r5, var_base
from backedge.generation import canonical_tournaments
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

from helpers import directed_cycle
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


def test_chi_on_a_chordless_four_cycle():
    # no triangles: the propagator forbids the 4-cycle as one clause
    cycle = Digraph.from_arcs(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert not chi_decide(cycle, 1).decision
    res = chi_decide(cycle, 2)
    assert res.decision
    assert chi(cycle).value == 2


def brute_chi(d):
    for k in range(1, d.n + 1):
        for colors in itertools.product(range(k), repeat=d.n):
            masks = [0] * k
            for v, color in enumerate(colors):
                masks[color] |= 1 << v
            if all(is_acyclic(d, m) for m in masks if m):
                return k
    raise AssertionError


def test_chi_random_digraphs_against_brute_force():
    rng = random.Random(37)
    for _ in range(25):
        n = rng.randint(2, 7)
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


def pin_only_chi_decide(d, k):
    """chi_decide's formula with vertex 0 pinned to class 0 as its only
    symmetry break: one class clause per vertex, the pin, all triangle cuts
    of a tournament up to 256 vertices, lazy cycle cuts.  Returns the
    verdict, the classes and the solver."""
    n = d.n
    if k == 1:
        ok = is_acyclic(d)
        return ok, (tuple(range(n)),) if ok else None, None
    if k >= n:
        return True, tuple((v,) for v in range(n)), None
    solver = Solver(n * k)
    for v in range(n):
        solver.add_clause([2 * (v * k + c) for c in range(k)])
    solver.add_clause([0])
    for c in range(1, k):
        solver.add_clause([2 * c + 1])
    if isinstance(d, Tournament) and n <= 256:
        # each triangle u -> v -> w -> u once, from its lowest vertex u
        for u, v, w in itertools.product(range(n), repeat=3):
            if u < min(v, w) and d.has_arc(u, v) and d.has_arc(v, w) and d.has_arc(w, u):
                for c in range(k):
                    solver.add_clause([2 * (x * k + c) + 1 for x in (u, v, w)])
    while True:
        model = solver.solve()
        if model is None:
            return False, None, solver
        color = [min(c for c in range(k) if model[v * k + c]) for v in range(n)]
        for c in range(k):
            cycle = directed_cycle(d, sum(1 << v for v in range(n) if color[v] == c))
            if cycle is not None:
                break
        if cycle is None:
            classes = tuple(
                tuple(v for v in range(n) if color[v] == c) for c in range(k) if c in color
            )
            return True, classes, solver
        solver.reset()
        for c in range(k):
            solver.add_clause([2 * (v * k + c) + 1 for v in cycle])


def assert_acyclic_partition(d, classes, k):
    assert len(classes) <= k
    assert sorted(v for cls in classes for v in cls) == list(range(d.n))
    for cls in classes:
        assert is_acyclic(d, sum(1 << v for v in cls))


def chi_against_pin_only(d):
    """chi of d, after checking chi_decide against the pin-only oracle for
    every k up to chi and one more (while k < n), witnesses included."""
    value = None
    for k in itertools.count(1):
        decision, classes, _ = pin_only_chi_decide(d, k)
        res = chi_decide(d, k)
        assert res.decision == decision, (d, k)
        if decision:
            assert_acyclic_partition(d, classes, k)
            assert_acyclic_partition(d, res.classes, k)
            value = value or k
            if k > value or k + 1 >= d.n:
                return value


def triangle_through_zero(d):
    return any(
        d.has_arc(0, a) and d.has_arc(a, b) and d.has_arc(b, 0)
        for a in range(1, d.n)
        for b in range(1, d.n)
    )


def source_zero(n, code):
    # vertex 0 beats every other vertex, so it lies on no directed triangle
    return labeled_tournament(n, code | (1 << (n - 1)) - 1)


def test_chi_decide_matches_pin_only_oracle_on_every_small_tournament():
    for n in range(1, 6):
        for code in range(labeled_count(n)):
            chi_against_pin_only(labeled_tournament(n, code))


def test_chi_decide_matches_pin_only_oracle_and_brute_force_on_classes_6_and_7():
    for n in (6, 7):
        values = [chi_against_pin_only(t) for t in canonical_tournaments(n)]
        assert values == [brute_chi(t) for t in canonical_tournaments(n)]
    # four 7-vertex tournaments need three acyclic classes (Neumann-Lara 1994)
    assert values.count(3) == 4


def test_chi_decide_matches_pin_only_oracle_on_seeded_tournaments():
    rng = random.Random(61)
    values = []
    for n in range(12, 25):
        for _ in range(2):
            code = rng.randrange(labeled_count(n))
            values.append(chi_against_pin_only(labeled_tournament(n, code)))
        # no triangle through vertex 0: symmetry broken on vertices 1 and 2
        values.append(chi_against_pin_only(source_zero(n, rng.randrange(labeled_count(n)))))
    # the refutations include k = 3
    assert max(values) == 4


def test_chi_decide_matches_pin_only_oracle_on_sparse_digraphs():
    rng = random.Random(67)
    digraphs = []
    for n in range(6, 15):
        for _ in range(4):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
            digraphs.append(Digraph.from_arcs(n, arcs))
    # tournaments as plain digraphs, whose triangles the oracle cuts lazily
    # instead of seeding them, with and without a triangle through vertex 0
    for n in (9, 11, 13):
        code = rng.randrange(labeled_count(n))
        digraphs.append(Digraph(n, labeled_tournament(n, code).rows))
        digraphs.append(Digraph(n, source_zero(n, code).rows))
    # digons make classes independent sets of a graph: triangle 3-4-5, 6
    # adjacent to 4 and 5, 7 to 3 and 5, and 0, 1, 2 to 6 and 7, so every
    # 3-partition puts 0, 1 and 2 in the class of 5, and 0 is on no triangle
    edges = [(3, 4), (4, 5), (3, 5), (6, 4), (6, 5), (7, 3), (7, 5)]
    edges += [(u, v) for u in (0, 1, 2) for v in (6, 7)]
    digraphs.append(Digraph.from_arcs(8, edges + [(v, u) for u, v in edges]))
    # denser digraphs, whose classes meet cycles of length 4 and up
    for _ in range(15):
        n, density = rng.randint(16, 32), rng.uniform(0.1, 0.4)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
        digraphs.append(Digraph.from_arcs(n, arcs))
    on_triangle = [triangle_through_zero(d) for d in digraphs]
    assert any(on_triangle) and not all(on_triangle)
    values = [chi_against_pin_only(d) for d in digraphs]
    assert max(values) >= 3


@pytest.mark.slow
def test_chi_decide_matches_pin_only_oracle_on_60_tournaments_22_to_24():
    rng = random.Random(71)
    for n in (22, 23, 24):
        for _ in range(20):
            chi_against_pin_only(labeled_tournament(n, rng.randrange(labeled_count(n))))


def spans_a_directed_cycle(d, vertices):
    """Do ``vertices`` carry a directed Hamiltonian cycle of d?"""
    first, *rest = vertices
    paths = {(1 << first, first)}  # (vertices used, end) of paths from first
    for _ in rest:
        paths = {(used | 1 << w, w) for used, v in paths for w in rest
                 if not used >> w & 1 and d.has_arc(v, w)}
    return any(d.has_arc(v, first) for _, v in paths)


def closing_cycle(d, members, u, w):
    """A shortest directed cycle through u and w inside the members, u and
    w, as a vertex list: a shortest path from u to w, then one back."""
    within = members | 1 << u | 1 << w

    def path(a, b):
        parent, frontier = {a: a}, [a]
        while frontier and b not in parent:
            reached = []
            for x in frontier:
                for y in range(d.n):
                    if within >> y & 1 and y not in parent and d.has_arc(x, y):
                        parent[y] = x
                        reached.append(y)
            frontier = reached
        if b not in parent:
            return None
        walk = [b]
        while walk[-1] != a:
            walk.append(parent[walk[-1]])
        return walk[::-1]

    there, back = path(u, w), path(w, u)
    return there + back[1:-1] if there and back else None


def _record_placements(monkeypatch):
    """Make chi_decide record each placement of u into class c as (the
    class's members and open mask before, its open mask after, u)."""
    made = []
    place = solvers._place

    def recording(rows, cols, members, opens, u, c):
        before = members[c], opens[c]
        place(rows, cols, members, opens, u, c)
        made.append((*before, opens[c], u))

    monkeypatch.setattr(solvers, "_place", recording)
    return made


def test_chi_decide_drops_only_vertices_closing_a_cycle_with_the_class(monkeypatch, d2):
    made = _record_placements(monkeypatch)
    rng = random.Random(73)
    digraphs = [d2.tournament, source_zero(14, rng.randrange(labeled_count(14)))]
    digraphs += [labeled_tournament(n, rng.randrange(labeled_count(n))) for n in (8, 16, 24)]
    digraphs.append(Digraph.from_arcs(9, [(v, (v + 1) % 9) for v in range(9)] + [(0, 4), (4, 0)]))
    for n in (10, 12):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.4]
        digraphs.append(Digraph.from_arcs(n, arcs))
    for _ in range(6):
        n, density = rng.randint(20, 40), rng.uniform(0.1, 0.4)
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
        digraphs.append(Digraph.from_arcs(n, arcs))
    lengths = {True: set(), False: set()}  # per kind: tournament or not
    for d in digraphs:
        for k in (2, 3):
            made.clear()
            res = chi_decide(d, k)
            assert res.decision == pin_only_chi_decide(d, k)[0], (d, k)
            for members, before, after, u in made:
                # u may join, and the open mask stays exact: w leaves it
                # exactly when w closes a directed cycle with the class and u
                assert before >> u & 1 and after >> u & 1
                grown = members | 1 << u
                for w in _bits(before & ~after):
                    cycle = closing_cycle(d, members, u, w)
                    assert cycle is not None and spans_a_directed_cycle(d, cycle), (d, k)
                    lengths[isinstance(d, Tournament)].add(len(cycle))
                for w in _bits(after & ~grown):
                    assert is_acyclic(d, grown | 1 << w), (d, k)
    assert lengths[True] == {3}
    assert {2, 3, 4} <= lengths[False]
    res = chi_decide(d2.tournament, 2)
    assert (res.decision, res.conflicts) == (False, 3)


def test_chi_decide_places_the_most_constrained_vertex_in_its_lowest_open_class(monkeypatch):
    # the rule read from the masks alone: among the vertices in no class,
    # the lowest with the fewest open classes (every empty class open to
    # all), tried in its open classes with members in order, then in one
    # empty class; the classes with members come first; the
    # clause-learning engine is never built
    branches = []
    branch = solvers._branch

    def recording(members, opens, free):
        v, choices = branch(members, opens, free)
        k = len(members)
        used = next((c for c in range(k) if not members[c]), k)
        assert not any(members[used:])
        counts = {
            u: sum(not members[c] or opens[c] >> u & 1 for c in range(k)) for u in _bits(free)
        }
        want = min(counts, key=lambda u: (counts[u], u))
        open_used = [c for c in range(used) if opens[c] >> want & 1]
        assert (v, choices) == (want, open_used + [used] * (used < k))
        # whether the rule passed over a lower free vertex or an empty class
        branches.append((want != min(counts), k - used > 1))
        return v, choices

    built = []
    monkeypatch.setattr(solvers, "_branch", recording)
    monkeypatch.setattr(Solver, "__init__", lambda self, n_vars: built.append(n_vars))
    rng = random.Random(83)
    digraphs = [labeled_tournament(n, rng.randrange(labeled_count(n))) for n in range(8, 25)]
    for n in range(8, 15):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
        digraphs.append(Digraph.from_arcs(n, arcs))
    for d in digraphs:
        for k in range(1, d.n):
            res = chi_decide(d, k)
            if res.decision:
                assert_acyclic_partition(d, res.classes, k)
                break
    assert built == []
    passed_over, skipped_empty = (sum(flags) for flags in zip(*branches))
    assert passed_over > 0 and skipped_empty > 0


def test_chi_decide_refutes_the_amplifier_after_three_dead_ends():
    # 315 vertices: every directed cycle of a tournament holds a directed
    # triangle, and a class drops each vertex that closes one with it
    res = chi_decide(amplifier(c3()).tournament, 2)
    assert (res.decision, res.classes, res.conflicts) == (False, None, 3)


def test_chi_decide_refutes_five_classes_of_a_200_vertex_tournament():
    # the input of the CLI budget tests, where six classes take about 10 s
    t = labeled_tournament(200, random.Random(13).randrange(labeled_count(200)))
    res = chi_decide(t, 5)
    assert (res.decision, res.classes, res.conflicts) == (False, None, 3066)


def test_chi_decide_forbids_a_chordless_four_cycle(monkeypatch):
    # the only cycle 1 -> 2 -> 3 -> 4 -> 1 holds no triangle; a class drops
    # the vertex that would close it, and no search below the root fails
    made = _record_placements(monkeypatch)
    d = Digraph.from_arcs(6, [(1, 2), (2, 3), (3, 4), (4, 1), (0, 1), (3, 5)])
    res = chi_decide(d, 2)
    assert (res.decision, res.conflicts) == (True, 0)
    cycles = {tuple(sorted(closing_cycle(d, members, u, w)))
              for members, before, after, u in made for w in _bits(before & ~after)}
    assert cycles == {(1, 2, 3, 4)}
    assert_acyclic_partition(d, res.classes, 2)
    # one class is refuted by the acyclicity test alone, with no placement
    made.clear()
    res = chi_decide(d, 1)
    assert (res.decision, res.conflicts, made) == (False, 0, [])


def paley(p):
    """The quadratic-residue tournament on p = 3 mod 4 vertices."""
    squares = {x * x % p for x in range(1, p)}
    return Tournament.from_arcs(p, [(u, v) for u in range(p) for v in range(p)
                                    if (v - u) % p in squares])


def test_chi_of_paley_tournaments():
    # the refutations below QR7, QR11 and QR19 are cross-checked by the
    # pin-only oracle; QR23 and QR31, where it takes 38 s and 6 s, are
    # pinned to the values of the clause-learning search chi_decide had
    for p, value in ((7, 3), (11, 4), (19, 4), (23, 5), (31, 5)):
        t = paley(p)
        res = chi(t)
        assert res.value == value, p
        assert_acyclic_partition(t, res.classes, value)
        if p < 23:
            assert not pin_only_chi_decide(t, value - 1)[0], p


def test_chi_of_the_amplifier_is_three():
    # amplifier(c3) hits c3: every subset or its complement holds a directed
    # triangle, so no two acyclic classes cover it (ROADMAP item 10)
    t = amplifier(c3()).tournament
    res = chi(t)
    assert res.value == 3
    assert_acyclic_partition(t, res.classes, 3)


def test_chi_of_pi_r5_is_one_more_than_chi_of_r5():
    """pi strictly raises chi on r5: 2 -> 3 (ROADMAP item 10).  The 1,265
    vertices take about 0.6 s on a 2-vCPU Xeon VM (k = 2 refuted in 0.05 s,
    k = 3 found in 0.43 s, best of 3)."""
    assert chi(r5()).value == 2
    t = pi(r5()).tournament
    res = chi(t)
    assert res.value == 3
    assert_acyclic_partition(t, res.classes, 3)


def test_chi_decide_with_one_class_is_acyclicity(monkeypatch):
    # one acyclicity test decides k = 1, after the deadline poll, and no
    # vertex is placed
    made = _record_placements(monkeypatch)
    tests = []
    monkeypatch.setattr(solvers, "is_acyclic", lambda d: tests.append(d) or is_acyclic(d))
    rng = random.Random(79)
    digraphs = [t for n in range(1, 7) for t in canonical_tournaments(n)]
    for n in range(2, 13):
        for _ in range(3):
            arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.15]
            digraphs.append(Digraph.from_arcs(n, arcs))
    # acyclic at 20 and 300 vertices, refuted on a 300-vertex tournament
    digraphs += [tt(20), tt(300), arrow(tt(297), c3())]
    verdicts = set()
    for d in digraphs:
        acyclic = is_acyclic(d)
        verdicts.add((acyclic, isinstance(d, Tournament)))
        classes = (tuple(range(d.n)),) if acyclic else None
        tests.clear()
        res = chi_decide(d, 1)
        assert (res.decision, res.classes, res.conflicts) == (acyclic, classes, 0), d
        if d.n == 1:  # one class per vertex, with no test
            continue
        assert tests == [d]
        with pytest.raises(BudgetExhausted):
            chi_decide(d, 1, deadline=Deadline(0))
    assert len(verdicts) == 4
    assert made == []


def test_chi_deep_search_on_larger_tournaments():
    # big enough that refuting value-1 classes needs genuine search
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


def test_chi_decide_polls_the_deadline_before_the_search(monkeypatch):
    # the search polls once per 1,024 branches taken and this call places
    # far fewer vertices, so only the poll before the search can stop it
    made = _record_placements(monkeypatch)
    t = labeled_tournament(12, random.Random(29).randrange(labeled_count(12)))
    chi_decide(t, 2)
    assert len(made) < 1024
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
    # the refuted k carry dead ends, so the last k alone would undercount
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


def test_forcing_rejects_vertices_outside_the_tournament():
    t = r5()
    for u, v in [(0, 9), (9, 0), (-1, 0), (0, 5)]:
        with pytest.raises(ValueError, match="out of range"):
            forcing_holds(t, u, v, 2)
    with pytest.raises(ValueError, match="vertex 5 out of range"):
        next(iter_orderings_with_clique_at_most(t, 2, before=(0, 5)))


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


def test_forcing_nodes_add_the_omega_decision_when_it_holds():
    # a holding claim costs the exhausted stream with v before u plus the
    # unconstrained decision that tells whether it is vacuous
    rng = random.Random(31)
    vacuous = proper = 0
    for _ in range(100):
        n = rng.randint(3, 8)
        t = labeled_tournament(n, rng.randrange(labeled_count(n)))
        k = rng.randint(1, 2)
        u, v = rng.sample(range(n), 2)
        res = forcing_holds(t, u, v, k)
        if not res.holds:
            continue
        stats = solvers.SearchStats()
        assert next(iter_orderings_with_clique_at_most(t, k, before=(v, u), stats=stats), None) is None
        assert res.nodes == stats.nodes + omega_decide(t, k).nodes
        vacuous += res.vacuous
        proper += not res.vacuous
    assert vacuous > 20 and proper > 3


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
