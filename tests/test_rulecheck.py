import itertools
import random

import pytest

from backedge.constructions import c3, tt
from backedge.core import _backedge_masks, _bits, backedge_graph, components, is_strong
from backedge.generation import canonical_tournaments
from backedge.rulecheck import (
    CellResult,
    RuleReport,
    RuleWitness,
    _sweep,
    check_cell,
    check_rules,
    excluded_from_family,
    validate_rule_witness,
)
from backedge.solvers import enumerate_omega_orderings, iter_orderings_with_clique_at_most, omega

from labeled import labeled_count, labeled_tournament
from r5_rule_table import R5_RULE_TABLE


# The per-pivot rule evaluation that the one-sweep-per-ordering engine
# replaced, kept as its oracle: it recomputes the components of each side for
# every pivot and walks (v, u, w) triples.


def _rule2_violation(cols, left, right):
    """First a, b on the left with some c on the right beating both and some
    d on the right beating a but not b; c and d are the smallest such."""
    for a in _bits(left):
        for b in _bits(left & ~(1 << a)):
            cs = cols[a] & cols[b] & right
            ds = cols[a] & ~cols[b] & right
            if cs and ds:
                c = (cs & -cs).bit_length() - 1
                d = (ds & -ds).bit_length() - 1
                return RuleWitness(2, (("a", a), ("b", b), ("c", c), ("d", d)))
    return None


def _span_violation(rule, arcs, outer, inner, ordering, pos, adj):
    """Rules 3 and 4: some v of ``outer`` with ``arcs[v]`` holding u and w of
    ``inner``, u before w, both inside the span of one component of the
    backedge graph on ``inner``; a and b are that span's end vertices, taken
    from the first such component by smallest vertex."""
    spans = []
    for comp in components(adj, inner):
        at = [pos[y] for y in _bits(comp)]
        spans.append((min(at), max(at)))
    for v in _bits(outer):
        hits = arcs[v] & inner
        for u in _bits(hits):
            for w in _bits(hits):
                if pos[w] <= pos[u]:
                    continue
                for lo, hi in spans:
                    if lo <= pos[u] and pos[w] <= hi:
                        return RuleWitness(
                            rule,
                            (("a", ordering[lo]), ("b", ordering[hi]),
                             ("u", u), ("v", v), ("w", w)),
                        )
    return None


def oracle_cell(t, ordering, x):
    pos = [0] * t.n
    for i, v in enumerate(ordering):
        pos[v] = i
    adj = _backedge_masks(t.rows, ordering)
    left = 0
    for v in ordering[:pos[x]]:
        left |= 1 << v
    right = ((1 << t.n) - 1) & ~left
    found = (
        None if left else RuleWitness(1, ()),
        _rule2_violation(t.cols, left, right),
        _span_violation(3, t.rows, right, left, ordering, pos, adj),
        _span_violation(4, t.cols, left, right, ordering, pos, adj),
    )
    violations = [wit for wit in found if wit is not None]
    return CellResult(
        ordering,
        x,
        violations[0] if violations else None,
        tuple(wit.rule for wit in violations),
    )


def oracle_report(t, first_vertex=None):
    value = omega(t).value
    cells = tuple(
        oracle_cell(t, ordering, x)
        for ordering in iter_orderings_with_clique_at_most(t, value, first_vertex=first_vertex)
        for x in range(t.n)
    )
    excluded = all(not cell.all_rules_hold for cell in cells)
    return RuleReport(value, first_vertex, cells, excluded)


def strong_classes(n):
    return [t for t in canonical_tournaments(n) if is_strong(t)]


def test_rule_tables_match_the_oracle(circulant5, surrogate):
    cases = [(circulant5, None), (circulant5, 0), (surrogate, None)]
    for n in range(3, 7):
        for t in strong_classes(n):
            cases += [(t, first) for first in (None, *range(n))]
    rng = random.Random(53)
    sevens = []
    while len(sevens) < 20:
        t = labeled_tournament(7, rng.randrange(labeled_count(7)))
        if is_strong(t):
            sevens.append(t)
    cases += [(t, None) for t in sevens]
    for t, first in cases:
        assert check_rules(t, first).to_dict() == oracle_report(t, first).to_dict(), (t, first)


def test_published_cells_match_the_oracle(circulant5):
    for row in R5_RULE_TABLE:
        ordering, x, _, _ = to_zero_based(row)
        assert check_cell(circulant5, ordering, x) == oracle_cell(circulant5, ordering, x), row


@pytest.mark.slow
def test_rule_tables_match_the_oracle_on_every_strong_7_vertex_class():
    classes = strong_classes(7)
    assert len(classes) == 353
    for t in classes:
        assert check_rules(t).to_dict() == oracle_report(t).to_dict(), t


def to_zero_based(row):
    ordering1, x1, rule, named1 = row
    ordering = tuple(v - 1 for v in ordering1)
    named = {} if named1 is None else {k: v - 1 for k, v in named1.items()}
    return ordering, x1 - 1, rule, named


def test_published_cells_rule2_example(circulant5):
    cell = check_cell(circulant5, (0, 1, 2, 3, 4), 2)
    assert cell.witness.rule == 2
    assert cell.witness.named() == {"a": 0, "b": 1, "c": 4, "d": 3}


def test_rule1_exactly_when_pivot_first(circulant5):
    for ordering in iter_orderings_with_clique_at_most(circulant5, 2, first_vertex=0):
        for x in range(5):
            cell = check_cell(circulant5, ordering, x)
            assert (1 in cell.violated_rules) == (ordering[0] == x)


def test_published_table_revalidates(circulant5):
    assert len(R5_RULE_TABLE) == 45
    for row in R5_RULE_TABLE:
        ordering, x, rule, named = to_zero_based(row)
        assert validate_rule_witness(circulant5, ordering, x, rule, named), row
        cell = check_cell(circulant5, ordering, x)
        assert not cell.all_rules_hold
        assert rule in cell.violated_rules, (row, cell.violated_rules)


def test_check_rules_r5_excluded(circulant5):
    report = check_rules(circulant5, first_vertex=0)
    assert report.excluded
    assert len(report.cells) == 45
    assert {(cell.ordering, cell.pivot) for cell in report.cells} == {
        (tuple(v - 1 for v in row[0]), row[1] - 1) for row in R5_RULE_TABLE
    }


def test_quotient_and_full_run_agree(circulant5):
    fixed = check_rules(circulant5, first_vertex=0)
    full = check_rules(circulant5)
    assert fixed.excluded == full.excluded
    assert len(full.cells) == 45 * 5


def test_c3_not_excluded():
    report = check_rules(c3())
    assert not report.excluded
    # every pivot-last cell satisfies all four rules (the triangle is the
    # first family member, so some satisfying cell must exist)
    for cell in report.cells:
        if cell.ordering[-1] == cell.pivot:
            assert cell.all_rules_hold
    assert any(cell.all_rules_hold for cell in report.cells)
    assert not excluded_from_family(c3())


def test_non_strong_rejected():
    with pytest.raises(ValueError, match="strong"):
        check_rules(tt(2))


def test_check_cell_rejects_non_minimum_ordering(circulant5):
    with pytest.raises(ValueError, match="minimum"):
        check_cell(circulant5, (1, 0, 2, 3, 4), 2)


def test_returned_witnesses_revalidate(circulant5):
    report = check_rules(circulant5, first_vertex=0)
    for cell in report.cells:
        wit = cell.witness
        assert validate_rule_witness(
            circulant5, cell.ordering, cell.pivot, wit.rule, wit.named()
        )


def test_witnesses_revalidate_on_random_strong_tournaments():
    rng = random.Random(31)
    found = 0
    while found < 8:
        n = rng.randint(4, 6)
        t = labeled_tournament(n, rng.randrange(labeled_count(n)))
        from backedge.core import is_strong

        if not is_strong(t):
            continue
        found += 1
        report = check_rules(t)
        for cell in report.cells:
            if cell.witness is not None:
                assert validate_rule_witness(
                    t, cell.ordering, cell.pivot, cell.witness.rule,
                    cell.witness.named(),
                )


def test_path_predicate_matches_plain_union_find(circulant5):
    # independent connectivity oracle for the side-restricted backedge graph
    def connected_by_union_find(t, ordering, side, a, b):
        parent = {v: v for v in side}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        pos = {v: i for i, v in enumerate(ordering)}
        for i, u in enumerate(side):
            for v in side[i + 1:]:
                lo, hi = (u, v) if pos[u] < pos[v] else (v, u)
                if t.has_arc(hi, lo):
                    parent[find(u)] = find(v)
        return find(a) == find(b)

    t = circulant5
    for ordering in enumerate_omega_orderings(t):
        pos = {v: i for i, v in enumerate(ordering)}
        g = backedge_graph(t, ordering)
        _, _, prefix, suffix = _sweep(ordering, g.adj)
        for x in range(5):
            left = sorted(v for v in range(5) if pos[v] < pos[x])
            right = sorted(v for v in range(5) if pos[v] >= pos[x])
            for side, swept in ((left, prefix[pos[x]]), (right, suffix[pos[x]])):
                mask = sum(1 << v for v in side)
                comps = list(components(g.adj, mask))
                assert sum(comps) == mask
                smallest = [(c & -c).bit_length() - 1 for c in comps]
                assert smallest == sorted(smallest)
                # the sweep grows the same components, with their spans
                spans = []
                for c in comps:
                    at = [pos[v] for v in _bits(c)]
                    lo, hi = min(at), max(at)
                    spans.append((c, sum(1 << v for v in ordering[lo:hi + 1]), lo, hi))
                assert sorted(swept, key=lambda comp: comp[0] & -comp[0]) == spans
                for a in side:
                    for b in side:
                        together = any(c >> a & c >> b & 1 for c in comps)
                        assert together == connected_by_union_find(
                            t, ordering, side, a, b
                        )


def test_check_rules_searches_omega_once(circulant5, monkeypatch):
    import backedge.rulecheck
    import backedge.solvers

    calls = []
    real = backedge.solvers.omega

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(backedge.rulecheck, "omega", counting)
    monkeypatch.setattr(backedge.solvers, "omega", counting)
    assert check_rules(circulant5).excluded
    assert len(calls) == 1


def test_check_cell_proves_minimality_with_one_refutation(circulant5, monkeypatch):
    import backedge.solvers

    calls = {"omega": 0, "omega_decide": 0}

    def counting(name):
        real = getattr(backedge.solvers, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(backedge.solvers, name, counting(name))
    cell = check_cell(circulant5, (0, 1, 2, 3, 4), 2)
    assert cell.witness.rule == 2
    assert calls == {"omega": 0, "omega_decide": 1}


def test_r5_exclusion_consistent_with_embedding_search(circulant5, d2):
    from backedge.core import contains_subtournament

    assert excluded_from_family(circulant5, first_vertex=0)
    assert contains_subtournament(d2.tournament, circulant5) is None


def _naive_violated_rules(t, ordering, x):
    """Direct quantifier sweep over all vertex tuples; independent oracle."""
    pos = {v: i for i, v in enumerate(ordering)}
    px = pos[x]
    n = t.n
    left = [v for v in range(n) if pos[v] < px]
    right = [v for v in range(n) if pos[v] >= px]

    def connected(side, a, b):
        seen = {a}
        frontier = [a]
        while frontier:
            cur = frontier.pop()
            for w in side:
                if w in seen:
                    continue
                lo, hi = (cur, w) if pos[cur] < pos[w] else (w, cur)
                if t.has_arc(hi, lo):
                    seen.add(w)
                    frontier.append(w)
        return b in seen

    violated = set()
    if not left:
        violated.add(1)
    for a in left:
        for b in left:
            for c in right:
                for d in right:
                    if (
                        t.has_arc(c, a)
                        and t.has_arc(d, a)
                        and t.has_arc(c, b)
                        and not t.has_arc(d, b)
                        and b != a
                    ):
                        violated.add(2)
    for a in left:
        for u in left:
            for w in left:
                for b in left:
                    for v in right:
                        if (
                            pos[a] <= pos[u] < pos[w] <= pos[b]
                            and t.has_arc(v, u)
                            and t.has_arc(v, w)
                            and connected(left, a, b)
                        ):
                            violated.add(3)
    for v in left:
        for a in right:
            for u in right:
                for w in right:
                    for b in right:
                        if (
                            pos[a] <= pos[u] < pos[w] <= pos[b]
                            and t.has_arc(u, v)
                            and t.has_arc(w, v)
                            and connected(right, a, b)
                        ):
                            violated.add(4)
    return violated


def test_check_cell_matches_naive_oracle(circulant5):
    for t in (circulant5, c3()):
        for ordering in enumerate_omega_orderings(t):
            for x in range(t.n):
                cell = check_cell(t, ordering, x)
                assert set(cell.violated_rules) == _naive_violated_rules(
                    t, ordering, x
                ), (ordering, x)


def test_check_cell_matches_naive_oracle_random_strong():
    rng = random.Random(47)
    from backedge.core import is_strong

    checked = 0
    while checked < 5:
        n = rng.randint(4, 6)
        t = labeled_tournament(n, rng.randrange(labeled_count(n)))
        if not is_strong(t):
            continue
        checked += 1
        for ordering in enumerate_omega_orderings(t):
            for x in range(t.n):
                cell = check_cell(t, ordering, x)
                assert set(cell.violated_rules) == _naive_violated_rules(
                    t, ordering, x
                )


def _naive_first_witness(t, ordering, x):
    """The documented witness order, by direct search: the lowest violated
    rule; for rule 2 the smallest (a, b, c, d) by vertex id; for rules 3 and 4
    the smallest (v, u, w), with a and b the end vertices of the first
    component, by smallest vertex, whose span covers u and w."""
    pos = {v: i for i, v in enumerate(ordering)}
    left = [v for v in range(t.n) if pos[v] < pos[x]]
    right = [v for v in range(t.n) if pos[v] >= pos[x]]
    if not left:
        return 1, {}
    for a, b, c, d in itertools.product(left, left, right, right):
        if (
            a != b
            and t.has_arc(c, a)
            and t.has_arc(c, b)
            and t.has_arc(d, a)
            and not t.has_arc(d, b)
        ):
            return 2, {"a": a, "b": b, "c": c, "d": d}
    for rule, outer, inner, beats in (
        (3, right, left, t.has_arc),
        (4, left, right, lambda v, u: t.has_arc(u, v)),
    ):
        comps = []
        for v in inner:
            linked = [
                c for c in comps
                if any(t.has_arc(*((v, w) if pos[w] < pos[v] else (w, v))) for w in c)
            ]
            merged = sorted({v}.union(*linked))
            comps = [c for c in comps if c not in linked] + [merged]
        comps.sort()
        for v, u, w in itertools.product(outer, inner, inner):
            if pos[u] < pos[w] and beats(v, u) and beats(v, w):
                for comp in comps:
                    ends = sorted(comp, key=pos.get)
                    a, b = ends[0], ends[-1]
                    if pos[a] <= pos[u] and pos[w] <= pos[b]:
                        return rule, {"a": a, "b": b, "u": u, "v": v, "w": w}
    return None


def test_check_cell_witness_is_first_in_documented_order(circulant5):
    rng = random.Random(47)
    tournaments = [circulant5, c3()]
    while len(tournaments) < 7:
        n = rng.randint(4, 6)
        t = labeled_tournament(n, rng.randrange(labeled_count(n)))
        if is_strong(t):
            tournaments.append(t)
    for t in tournaments:
        for ordering in enumerate_omega_orderings(t):
            for x in range(t.n):
                wit = check_cell(t, ordering, x).witness
                got = None if wit is None else (wit.rule, wit.named())
                assert got == _naive_first_witness(t, ordering, x), (ordering, x)


def test_check_rules_on_value_three_tournament(surrogate):
    # rules also apply at minimum value 3; witnesses must still revalidate
    report = check_rules(surrogate)
    assert report.omega_value == 3
    assert report.cells
    for cell in report.cells:
        if cell.witness is not None:
            assert validate_rule_witness(
                surrogate, cell.ordering, cell.pivot, cell.witness.rule,
                cell.witness.named(),
            )
