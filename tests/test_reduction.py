import itertools
import json
import random

import pytest

from backedge.constructions import MaterializationRefused, arrow, c3, tt
from backedge.core import backedge_graph, clique_number, triangle_in_graph
from backedge.gadgets import _assemble, check_companion, clause_base, var_base
from backedge.solvers import omega
from backedge.reduction import (
    CnfFormula,
    OrderingReport,
    assignment_from_ordering,
    build,
    instance_from_dict,
    ordering_from_assignment,
    parse_dimacs,
    sizing,
    verify_ordering,
)

PHI = "c demo\np cnf 3 2\n1 2 3 0\n-1 -2 3 0\n"


@pytest.fixture(scope="module")
def instance(surrogate):
    return build(parse_dimacs(PHI), surrogate)


def all_assignments(n):
    return [tuple(map(bool, bits)) for bits in itertools.product((0, 1), repeat=n)]


def test_parse_dimacs_basic():
    formula = parse_dimacs("p cnf 3 1\n1 2 3 0\n")
    assert formula.variable_count == 3
    assert formula.clauses == (((0, True), (1, True), (2, True)),)


def test_parse_dimacs_comments_and_multiline():
    formula = parse_dimacs("c heading\nc more\np cnf 4 2\n1 -2 3 0 2 3 -4 0\n")
    assert len(formula.clauses) == 2


def test_parse_dimacs_rejects_duplicate_variable():
    with pytest.raises(ValueError, match="repeats a variable"):
        parse_dimacs("p cnf 2 1\n1 -1 2 0\n")


def test_parse_dimacs_rejects_wrong_width():
    with pytest.raises(ValueError, match="width"):
        parse_dimacs("p cnf 4 1\n1 2 3 4 0\n")
    with pytest.raises(ValueError, match="width"):
        parse_dimacs("p cnf 3 1\n1 2 0\n")


def test_parse_dimacs_skips_the_satlib_trailer():
    # SATLIB files such as uf20-91 end with a '%' line and then a lone '0'
    for tail in ("%\n0\n", "%\n0\n\n", "%\nc note\n\n 0 \n"):
        formula = parse_dimacs("p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n" + tail)
        assert formula.clauses == (((0, True), (1, False), (2, True)),
                                   ((0, False), (1, True), (2, True)))


def test_parse_dimacs_rejects_every_other_empty_clause():
    head = "p cnf 3 2\n1 -2 3 0\n-1 2 3 0\n"
    for text, message in [
        (head + "0\n", "line 4: clause of width 0, need 3"),
        (head + "%\n0\n0\n", "line 6: clause of width 0, need 3"),
        (head + "%\n0 0\n", "line 5: clause of width 0, need 3"),
        (head + "%\n1 2 3 0\n0\n", "line 6: clause of width 0, need 3"),
        # a clause pending at the '%' line keeps the '0' as its end
        ("p cnf 3 1\n1 2\n%\n0\n", "line 4: clause of width 2, need 3"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_dimacs(text)


def test_parse_dimacs_rejects_bad_header():
    with pytest.raises(ValueError, match="problem line"):
        parse_dimacs("p dimacs 3 1\n1 2 3 0\n")
    with pytest.raises(ValueError, match="before problem line"):
        parse_dimacs("1 2 3 0\n")
    with pytest.raises(ValueError, match="^line 3: second problem line$"):
        parse_dimacs("p cnf 3 1\n1 2 3 0\np cnf 5 1\n")


def test_formula_satisfies():
    formula = parse_dimacs(PHI)
    assert formula.satisfies((True, False, False))
    assert not formula.satisfies((True, True, False))


def test_sizing_formulas(surrogate):
    one = CnfFormula(3, (((0, True), (1, True), (2, True)),))
    assert sizing(one, 7).total_vertices == 3 * 17 + 7 + 16 == 74
    two = parse_dimacs(PHI)
    assert sizing(two, 7).total_vertices == 51 + 7 + 32 == 90


def test_build_vertex_count_and_bundles(instance, surrogate):
    w = surrogate.n
    assert instance.tournament.n == 3 * (10 + w) + w + 2 * (9 + w)
    assert len(instance.bundle_arcs()) == 12 * 2


def test_build_searches_companion_once(surrogate, monkeypatch):
    import backedge.gadgets

    calls = []

    def counting_omega(t, *args, **kwargs):
        if t == surrogate:
            calls.append(t)
        return omega(t, *args, **kwargs)

    monkeypatch.setattr(backedge.gadgets, "omega", counting_omega)
    build(parse_dimacs(PHI), surrogate)
    assert len(calls) == 1


def test_build_structural_audit(instance):
    t = instance.tournament
    bundles = instance.bundle_arcs()
    spans = (
        [b.span for b in instance.var_blocks]
        + [instance.separator_span]
        + [b.span for b in instance.clause_blocks]
    )
    assert spans == sorted(spans)
    assert spans[0][0] == 0 and spans[-1][1] == t.n
    for (s1, e1), (s2, e2) in itertools.combinations(spans, 2):
        for u in range(s1, e1):
            for v in range(s2, e2):
                backward = t.has_arc(v, u)
                assert backward == ((v, u) in bundles)


def test_build_rejects_bad_companion():
    with pytest.raises(ValueError, match="need 3"):
        build(parse_dimacs(PHI), c3())


def test_build_budget(surrogate):
    with pytest.raises(MaterializationRefused):
        build(parse_dimacs(PHI), surrogate, vertex_budget=50)


def test_roundtrip_all_satisfying(instance):
    formula = instance.formula
    for assignment in all_assignments(3):
        if not formula.satisfies(assignment):
            with pytest.raises(ValueError):
                ordering_from_assignment(instance, assignment)
            continue
        ordering = ordering_from_assignment(instance, assignment)
        report = verify_ordering(instance, ordering)
        assert report.k4_free and report.has_triangle
        assert assignment_from_ordering(instance, ordering) == assignment


def test_block_positions(instance):
    assignment = (True, False, True)
    ordering = ordering_from_assignment(instance, assignment)
    pos = {v: i for i, v in enumerate(ordering)}
    last_var = max(pos[v] for b in instance.var_blocks for v in range(*b.span))
    first_clause = min(
        pos[v] for b in instance.clause_blocks for v in range(*b.span)
    )
    assert last_var < first_clause


def test_swapping_landmark_endpoints_flips_one_variable(instance):
    ordering = list(ordering_from_assignment(instance, (True, False, True)))
    a, b = instance.var_blocks[0].f_plus
    ia, ib = ordering.index(a), ordering.index(b)
    ordering[ia], ordering[ib] = ordering[ib], ordering[ia]
    assert assignment_from_ordering(instance, tuple(ordering)) == (
        False,
        False,
        True,
    )


def test_adversarial_orderings_have_k4(instance):
    # flip both marked pairs of a bundle: variable 0 occurs positively in
    # clause 0, so order its block by the negative certified ordering and the
    # clause block by the ordering leaving its first landmark backward
    parts = []
    parts.extend(instance.var_blocks[0].ordering_false)
    for block in instance.var_blocks[1:]:
        parts.extend(block.ordering_true)
    parts.extend(instance.separator_ordering)
    parts.extend(instance.clause_blocks[0].orderings[0])
    parts.extend(instance.clause_blocks[1].orderings[2])
    report = verify_ordering(instance, tuple(parts))
    assert not report.k4_free

    # placing a clause block wholesale before the variable blocks also fails:
    # the unflipped chain arcs all point backward across that split
    swapped = (
        tuple(instance.clause_blocks[0].orderings[2])
        + tuple(v for v in range(instance.tournament.n)
                if v not in set(instance.clause_blocks[0].orderings[2]))
    )
    assert not verify_ordering(instance, swapped).k4_free


def test_verify_ordering_report_matches_separate_searches(instance):
    # the satisfying, the adversarial and the swapped ordering of the tests
    # above: one clique-number search gives the report that a clique-number
    # search plus a triangle search gave
    adversarial = []
    adversarial.extend(instance.var_blocks[0].ordering_false)
    for block in instance.var_blocks[1:]:
        adversarial.extend(block.ordering_true)
    adversarial.extend(instance.separator_ordering)
    adversarial.extend(instance.clause_blocks[0].orderings[0])
    adversarial.extend(instance.clause_blocks[1].orderings[2])
    first = tuple(instance.clause_blocks[0].orderings[2])
    swapped = first + tuple(v for v in range(instance.tournament.n) if v not in set(first))
    orderings = (
        ordering_from_assignment(instance, (True, False, True)),
        tuple(adversarial),
        swapped,
    )
    for ordering in orderings:
        graph = backedge_graph(instance.tournament, ordering)
        value = clique_number(graph)
        expected = OrderingReport(value < 4, triangle_in_graph(graph) is not None, value)
        assert verify_ordering(instance, ordering) == expected
        assert verify_ordering(instance, ordering).to_dict() == expected.to_dict()


def test_unreversed_chain_certified_ordering_is_k4_free(instance, surrogate):
    # the bare chain (no literal reversals) under concatenated certified
    # orderings: no cross-block backedges at all
    var_gadget = _assemble(var_base(), surrogate, check_companion(surrogate))
    clause_gadget = _assemble(clause_base(), surrogate, check_companion(surrogate))
    chain = var_gadget.tournament
    ordering = list(var_gadget.certified("uv-forward").ordering)
    for part in (surrogate, clause_gadget.tournament):
        offset = chain.n
        chain = arrow(chain, part)
        if part is surrogate:
            ordering.extend(v + offset for v in omega(surrogate).witness)
        else:
            ordering.extend(
                v + offset for v in clause_gadget.certified("yz-backward").ordering
            )
    report = verify_ordering(chain, tuple(ordering))
    assert report.k4_free
    assert clique_number(backedge_graph(chain, tuple(ordering))) == 3


def test_clause_permutation_landmark_correspondence(surrogate):
    # swapping two clauses cannot give literally isomorphic tournaments (the
    # chain between clause blocks is direction-rigid), but the instances agree
    # on every non-bundle arc and their bundles correspond under the
    # clause-position swap, which is what witness translation relies on
    base = build(parse_dimacs(PHI), surrogate)
    flipped = build(
        parse_dimacs("p cnf 3 2\n-1 -2 3 0\n1 2 3 0\n"), surrogate
    )
    n = base.tournament.n
    b0, b1 = base.clause_blocks[0].span, base.clause_blocks[1].span
    shift = b1[0] - b0[0]

    def swap_block(v):
        if b0[0] <= v < b0[1]:
            return v + shift
        if b1[0] <= v < b1[1]:
            return v - shift
        return v

    base_bundles = base.bundle_arcs()
    assert {(swap_block(c), a) for c, a in base_bundles} == flipped.bundle_arcs()
    touched = base_bundles | flipped.bundle_arcs()
    for u in range(n):
        for v in range(n):
            if u == v or (u, v) in touched or (v, u) in touched:
                continue
            assert base.tournament.has_arc(u, v) == flipped.tournament.has_arc(u, v)
    # the permuted instance is semantically interchangeable
    for assignment in all_assignments(3):
        if flipped.formula.satisfies(assignment):
            ordering = ordering_from_assignment(flipped, assignment)
            assert verify_ordering(flipped, ordering).k4_free
            assert assignment_from_ordering(flipped, ordering) == assignment


def test_instance_serialization_roundtrip(instance):
    data = instance.to_dict()
    rebuilt = instance_from_dict(data, instance.tournament)
    assert rebuilt == instance


def test_build_rejects_large_companion_of_wrong_value():
    with pytest.raises(ValueError, match="need 3"):
        build(parse_dimacs(PHI), tt(11))


def test_instance_from_dict_rejects_keys_to_dict_does_not_write(instance):
    # the gadget descriptor that older files carry is one such key
    extras = [
        ("gadget", {"size": 7, "omega_checked": True, "genuine": False}),
        ("comment", "hand-edited"),
    ]
    for key, value in extras:
        data = dict(instance.to_dict(), **{key: value})
        with pytest.raises(ValueError, match="landmarks do not describe this tournament"):
            instance_from_dict(data, instance.tournament)


def test_instance_from_dict_rejects_edited_or_foreign_landmarks(instance, surrogate):
    data = instance.to_dict()
    edits = [
        ("var_blocks", 0, "f_plus"),
        ("clause_blocks", 1, "landmarks"),
    ]
    for key, index, field in edits:
        edited = json.loads(json.dumps(data))
        edited[key][index][field].reverse()
        with pytest.raises(ValueError, match="landmarks do not describe this tournament"):
            instance_from_dict(edited, instance.tournament)
    edited = json.loads(json.dumps(data))
    edited["separator"]["note"] = "extra"
    with pytest.raises(ValueError, match="landmarks do not describe this tournament"):
        instance_from_dict(edited, instance.tournament)
    # another formula: of the same shape the rebuilt tournament differs, of
    # a larger one the landmarks name vertices this instance lacks
    same_shape = build(parse_dimacs("p cnf 3 2\n1 2 3 0\n-1 2 -3 0\n"), surrogate)
    larger = build(parse_dimacs("p cnf 4 3\n1 2 3 0\n-1 -2 4 0\n2 3 -4 0\n"), surrogate)
    assert same_shape.tournament.n == instance.tournament.n
    for t, foreign in (
        (instance.tournament, same_shape),
        (instance.tournament, larger),
        (larger.tournament, instance),
    ):
        with pytest.raises(ValueError, match="landmarks do not describe this tournament"):
            instance_from_dict(foreign.to_dict(), t)


# The lifted gadgets that build materializes do not keep the coupling of
# their bases, so the reduction's converse fails.  These three tests pin what
# the code builds today; each is expected to flip once the lift is sound.


def test_lifted_var_gadget_orders_both_marked_arcs_forward(surrogate):
    """Expected to flip once the lift keeps the variable base's coupling."""
    gadget = _assemble(var_base(), surrogate, check_companion(surrogate))
    ordering = (1, 2, 6, 4, 14, 11, 16, 7, 8, 3, 0, 5, 9, 12, 10, 15, 13)
    assert clique_number(backedge_graph(gadget.tournament, ordering)) == 3
    pos = {v: i for i, v in enumerate(ordering)}
    for name in ("uv", "wx"):
        a, b = gadget.arc(name)
        assert pos[a] < pos[b]


def test_lifted_clause_gadget_orders_all_marked_arcs_forward(surrogate):
    """Expected to flip once the lift keeps the clause base's coupling."""
    gadget = _assemble(clause_base(), surrogate, check_companion(surrogate))
    ordering = (5, 6, 8, 11, 10, 1, 2, 3, 12, 14, 13, 9, 0, 4, 7, 15)
    assert clique_number(backedge_graph(gadget.tournament, ordering)) == 3
    pos = {v: i for i, v in enumerate(ordering)}
    for name in ("uv", "wx", "yz"):
        a, b = gadget.arc(name)
        assert pos[a] < pos[b]


# a K4-free ordering of the 186-vertex instance of the eight sign patterns
ALL_SIGNS_ORDERING = """
1 2 6 4 14 11 16 7 8 3 0 5 9 12 10 15 20 21 22 24 28 30 27 17 26 23 33 36 13 37 41
32 25 18 19 29 43 40 48 31 38 34 35 39 45 47 56 54 55 66 71 42 46 44 53 50 49 51 58
79 62 65 63 52 57 59 73 60 64 61 72 80 82 85 69 84 75 76 77 86 88 87 92 68 70 67 83
74 94 95 98 78 81 89 96 102 99 97 101 103 100 105 107 111 118 90 114 109 117 120 116
91 115 128 130 136 132 93 104 106 108 110 112 113 119 129 121 122 144 124 137 133
123 125 126 127 131 143 140 134 135 145 150 149 152 151 159 162 147 166 138 154 156
146 139 158 161 141 142 148 153 160 163 169 165 177 155 157 167 168 164 172 184 170
171 180 174 175 176 179 185 183 182 178 173 181
"""


def test_unsatisfiable_formula_has_a_k4_free_ordering(surrogate):
    """Every sign pattern on variables 0, 1, 2 is a clause, so no assignment
    satisfies the formula, yet its instance has minimum 3.  Expected to flip
    once the lift is sound: the instance should then have no such ordering."""
    signs = itertools.product((True, False), repeat=3)
    formula = CnfFormula(3, tuple(tuple(zip((0, 1, 2), s)) for s in signs))
    assert not any(formula.satisfies(a) for a in all_assignments(3))
    instance = build(formula, surrogate)
    ordering = tuple(map(int, ALL_SIGNS_ORDERING.split()))
    assert instance.tournament.n == 186
    assert verify_ordering(instance, ordering) == OrderingReport(True, True, 3)
    assert assignment_from_ordering(instance, ordering) == (True, True, True)


def test_large_instance_verifies_k4_free(surrogate):
    # 100 variables and 500 clauses, each satisfied by a planted assignment,
    # make a 9,707-vertex instance
    rng = random.Random(1)
    assignment = tuple(rng.random() < 0.5 for _ in range(100))
    clauses = []
    while len(clauses) < 500:
        clause = tuple((v, rng.random() < 0.5) for v in rng.sample(range(100), 3))
        if any(assignment[v] == p for v, p in clause):
            clauses.append(clause)
    instance = build(CnfFormula(100, tuple(clauses)), surrogate)
    ordering = ordering_from_assignment(instance, assignment)
    assert instance.tournament.n == 9707
    assert verify_ordering(instance, ordering) == OrderingReport(True, True, 3)
    assert clique_number(backedge_graph(instance.tournament, ordering)) == 3
