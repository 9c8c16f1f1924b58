"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time (run with -s to watch).  Tolerances are exact throughout."""

import itertools
import random
import time

from backedge.constructions import amplifier, c3, tt
from backedge.core import (
    BudgetExhausted,
    backedge_graph,
    clique_number,
    contains_subtournament,
    directed_triangle,
    induced,
    is_forest,
    triangle_in_graph,
)
from backedge.gadgets import r5, var_base, clause_base, verify_clause_base, verify_var_base
from backedge.generation import canonical_tournaments
from backedge.reduction import (
    assignment_from_ordering,
    build,
    ordering_from_assignment,
    parse_dimacs,
    verify_ordering,
)
from backedge.rulecheck import check_rules, validate_rule_witness
from backedge.solvers import (
    Deadline,
    chi_decide,
    enumerate_omega_orderings,
    forcing_holds,
    iter_orderings_with_clique_at_most,
    min_order_with_omega,
    omega,
    omega_by_enumeration,
)
from backedge.core import Digraph

from copy_arcs import cross_copy_backward_arcs
from labeled import labeled_count, labeled_tournament
from r5_rule_table import R5_RULE_TABLE

R5_EXPECTED_ORDERINGS = [
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


def _report(criterion, started, detail):
    elapsed = time.monotonic() - started
    print(f"\nACCEPTANCE {criterion}: PASS ({elapsed:.1f}s) - {detail}")
    return elapsed


def test_criterion_1_variable_gadget():
    started = time.monotonic()
    report = verify_var_base()
    assert report.omega_value == 2
    assert report.property_holds
    assert set(report.patterns) == {(True, False), (False, True)}
    # the two published orderings are minimum orderings realizing each polarity
    gadget = var_base()
    for cert in gadget.certified_orderings:
        g = backedge_graph(gadget.tournament, cert.ordering)
        assert clique_number(g) == 2
    assert gadget.certified("uv-forward").ordering == tuple(range(9))
    assert gadget.certified("wx-forward").ordering == (5, 7, 1, 8, 0, 2, 3, 4, 6)
    elapsed = _report(
        1, started,
        f"omega=2, {report.minimum_orderings} minimum orderings, XOR holds, "
        f"both polarities witnessed",
    )
    assert elapsed < 60


def test_criterion_2_clause_gadget():
    started = time.monotonic()
    report = verify_clause_base()
    assert report.omega_value == 2
    assert report.property_holds
    for i in range(3):
        for j in range(i + 1, 3):
            assert any(p[i] and p[j] for p in report.patterns)
    gadget = clause_base()
    expected = {
        "yz-backward": tuple(range(8)),
        "wx-backward": (3, 6, 4, 7, 0, 1, 5, 2),
        "uv-backward": (0, 1, 3, 5, 6, 4, 7, 2),
    }
    for name, ordering in expected.items():
        cert = gadget.certified(name)
        assert cert.ordering == ordering
        g = backedge_graph(gadget.tournament, ordering)
        assert clique_number(g) == 2
    elapsed = _report(
        2, started,
        f"omega=2, {report.minimum_orderings} minimum orderings, disjunction "
        f"holds, all pairwise-forward witnesses verbatim",
    )
    assert elapsed < 10


def test_criterion_3_circulant_rule_table():
    started = time.monotonic()
    t = r5()
    assert omega(t).value == 2
    fixed = list(iter_orderings_with_clique_at_most(t, 2, first_vertex=0))
    assert fixed == R5_EXPECTED_ORDERINGS
    assert len(list(enumerate_omega_orderings(t))) == 45
    assert is_forest(backedge_graph(t, (0, 1, 2, 3, 4)))
    report = check_rules(t, first_vertex=0)
    assert report.excluded
    assert len(report.cells) == 45
    assert all(not cell.all_rules_hold for cell in report.cells)
    for ordering1, x1, rule, named1 in R5_RULE_TABLE:
        ordering = tuple(v - 1 for v in ordering1)
        named = {} if named1 is None else {k: v - 1 for k, v in named1.items()}
        assert validate_rule_witness(t, ordering, x1 - 1, rule, named)
    elapsed = _report(
        3, started,
        "9 fixed-first orderings match, 45 total, identity backedge graph is "
        "a forest, all 45 cells violated, all 45 published witnesses revalidate",
    )
    assert elapsed < 10


def test_criterion_4_second_family_member(d2):
    started = time.monotonic()
    t, layout = d2.tournament, d2.layout
    # construction audit
    assert t.n == 63
    assert layout.subsets == tuple(
        sorted(itertools.combinations(range(5), 3), key=lambda s: tuple(reversed(s)))
    )
    for role in ("A", "C"):
        families = sorted(c.family for c in layout.copies if c.role == role)
        assert families == list(range(10))
    for copy in layout.copies:
        if copy.psi is not None:
            assert sorted(copy.psi) == sorted(layout.subsets[copy.family])
    flipped = cross_copy_backward_arcs(t, layout)
    assert len(flipped) == 180
    b_copy = next(c.vertices() for c in layout.copies if c.role == "B")
    for w, u in flipped:
        assert w not in b_copy
        assert u not in b_copy
    # minimum-value certificate: triangle-free ordering plus a contained triangle
    assert triangle_in_graph(backedge_graph(t, d2.ordering)) is None
    assert contains_subtournament(t, c3()) is not None

    # exhaustive 5-subset scan: no copy of the circulant
    pattern = r5()
    found = 0
    rows = t.rows
    for sub in itertools.combinations(range(63), 5):
        mask = 0
        for v in sub:
            mask |= 1 << v
        for v in sub:
            if (rows[v] & mask).bit_count() != 2:
                break
        else:
            if contains_subtournament(induced(t, sub), pattern) is not None:
                found += 1
    assert found == 0
    assert contains_subtournament(t, pattern) is None
    subset_done = time.monotonic()
    assert subset_done - started < 600

    # two acyclic classes cannot cover: the class-mask search refutes it,
    # with a 30-minute budget and a documented downgrade path
    try:
        res = chi_decide(t, 2, deadline=Deadline(1800))
        assert not res.decision
        chi_detail = f"2-class cover refuted by class search ({res.conflicts} dead ends)"
    except BudgetExhausted:
        chi_detail = (
            "2-class refutation budget exhausted; criterion downgraded to the "
            "documented structural certificate: the wiring audit above plus the "
            "strict-increase argument for the two-sided construction"
        )
    elapsed = _report(
        4, started,
        f"layout audit ok, 180 flipped arcs, middle copy untouched, "
        f"certificate ordering triangle-free, circulant absent by exhaustive "
        f"5-subset scan, {chi_detail}",
    )


def test_criterion_5_amplifier():
    started = time.monotonic()
    built = amplifier(c3())
    assert built.tournament.n == 315
    assert triangle_in_graph(backedge_graph(built.tournament, built.ordering)) is None
    rng = random.Random(20240901)
    full = (1 << 315) - 1
    hits = 0
    for _ in range(1000):
        subset = rng.getrandbits(315)
        if (
            directed_triangle(built.tournament, subset) is not None
            or directed_triangle(built.tournament, full & ~subset) is not None
        ):
            hits += 1
    assert hits == 1000
    assert amplifier(tt(2)).tournament == tt(4)
    elapsed = _report(
        5, started,
        "315 vertices, construction ordering triangle-free, 1000/1000 random "
        "subsets hit, transitive special case exact",
    )
    assert elapsed < 300


def test_criterion_6_reduction(surrogate):
    started = time.monotonic()
    assert surrogate.n <= 10
    formula = parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 -2 3 0\n")
    instance = build(formula, surrogate)
    satisfying = [
        tuple(map(bool, bits))
        for bits in itertools.product((0, 1), repeat=3)
        if formula.satisfies(tuple(map(bool, bits)))
    ]
    assert satisfying
    for assignment in satisfying:
        ordering = ordering_from_assignment(instance, assignment)
        report = verify_ordering(instance, ordering)
        assert report.k4_free and report.has_triangle
        assert assignment_from_ordering(instance, ordering) == assignment
    # structural audit
    bundles = instance.bundle_arcs()
    assert len(bundles) == 12 * len(formula.clauses)
    spans = (
        [b.span for b in instance.var_blocks]
        + [instance.separator_span]
        + [b.span for b in instance.clause_blocks]
    )
    assert spans == sorted(spans)
    for (s1, e1), (s2, e2) in itertools.combinations(spans, 2):
        for u in range(s1, e1):
            for v in range(s2, e2):
                assert instance.tournament.has_arc(v, u) == ((v, u) in bundles)
    elapsed = _report(
        6, started,
        f"{len(satisfying)} satisfying assignments all map to 4-clique-free "
        f"orderings with triangles and round-trip exactly; block order and "
        f"{len(bundles)} flipped arcs audited",
    )
    assert elapsed < 60


def test_criterion_7_forcing_negative_control():
    started = time.monotonic()
    # single arc v->u plus u => triangle => v, the triangle standing in for
    # a proper subset-hitting companion
    d = Digraph.from_arcs(
        5,
        [(1, 0), (0, 2), (0, 3), (0, 4), (2, 1), (3, 1), (4, 1), (2, 3), (3, 4), (4, 2)],
    )
    res = forcing_holds(d, 0, 1, 2)
    assert not res.holds and not res.vacuous
    counter = res.counterexample
    assert counter.index(1) < counter.index(0)
    assert clique_number(backedge_graph(d, counter)) <= 2
    elapsed = _report(
        7, started,
        f"forcing fails with verified counterexample {counter}",
    )
    assert elapsed < 1


def test_criterion_8_subword_bridge():
    started = time.monotonic()
    from backedge.solvers import omega_decide
    from backedge.subword import solve_pass, to_pass

    mismatches = 0
    for code in range(labeled_count(5)):
        t = labeled_tournament(5, code)
        solvable = solve_pass(to_pass(t)) is not None
        if solvable != omega_decide(t, 2).decision:
            mismatches += 1
    assert mismatches == 0
    elapsed = _report(
        8, started, "1024/1024 labeled 5-vertex tournaments agree, zero discrepancies"
    )
    assert elapsed < 60


def test_criterion_9_solver_cross_validation():
    started = time.monotonic()
    for n in range(1, 6):
        for code in range(labeled_count(n)):
            t = labeled_tournament(n, code)
            assert omega(t).value == omega_by_enumeration(t)
    rng = random.Random(20240901)
    for code in rng.sample(range(labeled_count(6)), 10_000):
        t = labeled_tournament(6, code)
        assert omega(t).value == omega_by_enumeration(t)
    first = min_order_with_omega(3, 7)
    # the same minimum-order search with the factorial oracle as the value
    second = next(
        t
        for n in range(1, 8)
        for t in canonical_tournaments(n)
        if omega_by_enumeration(t) == 3
    )
    assert first.n == second.n == 7
    assert first.witness == second
    assert contains_subtournament(first.witness, second) is not None
    elapsed = _report(
        9, started,
        "all labeled tournaments to n=5 plus 10000 sampled at n=6 agree; "
        "minimum-order search identical under both procedures at n=7",
    )
