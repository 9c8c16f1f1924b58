import gc
import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from backedge.constructions import c3, tt
from backedge.core import (
    BudgetExhausted,
    Tournament,
    _backedge_masks,
    _bits,
    backedge_graph,
    components,
    is_strong,
)
from backedge.generation import canonical_tournaments
from backedge.rulecheck import (
    CellResult,
    RuleReport,
    RuleWitness,
    _Cells,
    check_cell,
    check_rules,
    validate_rule_witness,
)
from backedge.solvers import (
    Deadline,
    enumerate_omega_orderings,
    iter_orderings_with_clique_at_most,
    omega,
)

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
    adj = _backedge_masks(t, ordering)
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


def orbit(t, f):
    """The images of f under the automorphisms of t, by trying all n!
    relabelings."""
    return {
        perm[f]
        for perm in itertools.permutations(range(t.n))
        if all(t.has_arc(perm[u], perm[v]) for u, v in t.arcs())
    }


def test_rule_tables_match_the_oracle(circulant5, surrogate):
    cases = [(circulant5, None), (circulant5, 0), (surrogate, None)]
    for n in range(3, 7):
        for t in strong_classes(n):
            # a fixed first vertex is refused unless t is vertex-transitive
            firsts = range(n) if len(orbit(t, 0)) == n else ()
            cases += [(t, first) for first in (None, *firsts)]
    rng = random.Random(53)
    sevens = []
    while len(sevens) < 20:
        t = labeled_tournament(7, rng.randrange(labeled_count(7)))
        if is_strong(t):
            sevens.append(t)
    cases += [(t, None) for t in sevens]
    for t, first in cases:
        assert check_rules(t, first).to_dict() == oracle_report(t, first).to_dict(), (t, first)


def test_rule_tables_match_the_oracle_and_check_cell_on_8_vertex_tournaments():
    rng = random.Random(8)
    tournaments = []
    while len(tournaments) < 3:
        t = labeled_tournament(8, rng.randrange(labeled_count(8)))
        if is_strong(t):
            tournaments.append(t)
    for t in tournaments:
        report = check_rules(t)
        assert report.to_dict() == oracle_report(t).to_dict(), t
        for cell in report.cells:
            assert check_cell(t, cell.ordering, cell.pivot) == cell, (t, cell)
    # the seeds give both verdicts
    assert {check_rules(t).excluded for t in tournaments} == {False, True}


def test_first_vertex_needs_an_automorphism_onto_every_vertex(circulant5):
    # with vertex 0 first, this tournament has no minimum ordering at all,
    # so a run fixing it would have no cells and call it excluded
    t5 = Tournament(5, (16, 9, 3, 21, 6))
    full = check_rules(t5)
    assert len(full.cells) == 230 and not full.excluded
    assert not list(iter_orderings_with_clique_at_most(t5, full.omega_value, first_vertex=0))
    with pytest.raises(ValueError, match="automorphism"):
        check_rules(t5, first_vertex=0)
    with pytest.raises(ValueError, match="out of range"):
        check_rules(circulant5, first_vertex=5)
    for f in range(5):
        report = check_rules(circulant5, first_vertex=f)
        assert report.excluded and len(report.cells) == 45
        assert report.to_dict() == oracle_report(circulant5, f).to_dict()
    refused = accepted = 0
    for n in range(3, 7):
        for t in strong_classes(n):
            full = check_rules(t)
            for f in range(n):
                if len(orbit(t, f)) == n:
                    accepted += 1
                    assert check_rules(t, f).excluded == full.excluded, (t, f)
                else:
                    refused += 1
                    with pytest.raises(ValueError, match="automorphism"):
                        check_rules(t, f)
    # c3 and r5 are the only vertex-transitive strong classes up to 6 vertices
    assert (accepted, refused) == (3 + 5, 4 + 5 * 5 + 35 * 6)


def test_every_first_vertex_is_accepted_or_refused_as_vertex_0_is(circulant5, surrogate):
    # orbits partition the vertices, so f's orbit is every vertex exactly
    # when vertex 0's is
    def accepts(t, f):
        try:
            check_rules(t, f)
        except ValueError as exc:
            assert "automorphism" in str(exc)
            return False
        return True

    cases = [t for n in range(1, 7) for t in strong_classes(n)] + [circulant5, surrogate]
    answers = [{accepts(t, f) for f in range(t.n)} for t in cases]
    assert all(len(answer) == 1 for answer in answers)
    # the 1-vertex class, c3, r5 (twice) and W7 are vertex-transitive
    assert answers.count({True}) == 5


class PollCounter(Deadline):
    """A deadline that counts its polls and expires at poll ``limit``."""

    def __init__(self, limit=None):
        super().__init__()
        self.limit, self.polls = limit, 0

    def check(self):
        self.polls += 1
        if self.polls == self.limit:
            raise BudgetExhausted(f"poll {self.polls}")


def test_check_rules_polls_its_deadline_for_every_ordering(circulant5, surrogate):
    for t in (circulant5, surrogate):
        counter = PollCounter()
        report = check_rules(t, deadline=counter)
        orderings = len(report.cells) // t.n
        assert counter.polls > orderings
        # a budget that runs out at any poll, the last included, stops the run
        for limit in (1, counter.polls - orderings, counter.polls // 2, counter.polls):
            with pytest.raises(BudgetExhausted):
                check_rules(t, deadline=PollCounter(limit))


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
    assert not check_rules(c3()).excluded


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
        # the components a fresh table keeps: on each prefix but the longest,
        # and on each suffix from position 2 on
        table = _Cells(t, 2)
        table.cells(ordering)
        swept, node = {}, table.suffixes
        for p in range(4, 1, -1):
            node = node[0][ordering[p]]
            swept[p, "right"] = node[1]
        for p in range(4):
            swept[p, "left"] = table.prefix[p]
        for p in range(5):
            for name in ("left", "right"):
                side = sorted(ordering[:p] if name == "left" else ordering[p:])
                mask = sum(1 << v for v in side)
                comps = list(components(g.rows, mask))
                assert sum(comps) == mask
                smallest = [(c & -c).bit_length() - 1 for c in comps]
                assert smallest == sorted(smallest)
                for a in side:
                    for b in side:
                        together = any(c >> a & c >> b & 1 for c in comps)
                        assert together == connected_by_union_find(
                            t, ordering, side, a, b
                        )
                if (p, name) not in swept:
                    continue
                # the pass grows the same components, with their spans
                spans = []
                for c in comps:
                    at = [pos[v] for v in _bits(c)]
                    lo, hi = min(at), max(at)
                    spans.append((c, sum(1 << v for v in ordering[lo:hi + 1]), lo, hi))
                comps_swept = swept[p, name]
                assert sorted(comps_swept, key=lambda comp: comp[0] & -comp[0]) == spans


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

    assert check_rules(circulant5, first_vertex=0).excluded
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


def _first_strong(n, seed):
    rng = random.Random(seed)
    while True:
        t = labeled_tournament(n, rng.randrange(labeled_count(n)))
        if is_strong(t):
            return t


# SHA-256 of json.dumps(check_rules(t).to_dict()), recorded when every cell
# built its own witness and violated-rules tuple
REPORT_DIGESTS = {
    "w7": "21ff48d02ccc143d17d0f1735995e813c28fc2170d324f8935b430bd3e0e21f8",
    "r5": "de24ec70a79bea3dee3aa58f95e6631bb008f53c453082360cd980ce3b6f4f5e",
    "strong7": "59e3b8f925b3a8612f58621c2dc9c682965284b01cb7bb572d33caed1005643f",
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_a_report_holds_one_record_per_distinct_value(name, surrogate, circulant5):
    # the seeded 7-vertex tournament is not excluded and holds every one of
    # the nine possible violated-rules tuples, () among them
    t = {"w7": surrogate, "r5": circulant5, "strong7": _first_strong(7, 7)}[name]
    report = check_rules(t)
    digest = hashlib.sha256(json.dumps(report.to_dict()).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[name]
    witnesses = [cell.witness for cell in report.cells if cell.witness is not None]
    assert len({id(w) for w in witnesses}) == len(set(witnesses))
    violated = [cell.violated_rules for cell in report.cells]
    assert len({id(v) for v in violated}) == len(set(violated)) <= 9
    assert not any(hasattr(record, "__dict__") for record in [*report.cells, *witnesses])


def test_a_cell_is_an_immutable_record_compared_by_value(circulant5):
    witness = RuleWitness(2, (("a", 0), ("b", 1), ("c", 4), ("d", 3)))
    cell = CellResult(ordering=(0, 1, 2, 3, 4), pivot=2, witness=witness, violated_rules=(2,))
    assert CellResult._fields == ("ordering", "pivot", "witness", "violated_rules")
    assert tuple(cell) == ((0, 1, 2, 3, 4), 2, witness, (2,))
    assert repr(cell) == (
        "CellResult(ordering=(0, 1, 2, 3, 4), pivot=2, witness=RuleWitness(rule=2, "
        "vertices=(('a', 0), ('b', 1), ('c', 4), ('d', 3))), violated_rules=(2,))"
    )
    with pytest.raises(AttributeError):
        cell.pivot = 3
    assert not cell.all_rules_hold
    assert cell._replace(witness=None, violated_rules=()).all_rules_hold
    # check_cell builds a cell of its own, equal to this one
    found = check_cell(circulant5, [0, 1, 2, 3, 4], 2)
    assert type(found) is CellResult
    assert found == cell and hash(found) == hash(cell) and found is not cell
    assert found != cell._replace(pivot=3)
    assert all(type(c) is CellResult for c in check_rules(circulant5).cells)


def test_a_retained_w7_report_holds_at_most_5_mb(surrogate):
    # 3.9 MB with a record per distinct value; a record per cell took 10 MB
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = check_rules(surrogate)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(report.cells) == 35280
    assert held <= 5_000_000, held


def test_check_rules_on_w7_peaks_at_most_6_mb(surrogate):
    # 5.5 MB (4.9 MB while cells had slots): 3.7 MB when every ordering was
    # evaluated alone, and the suffix records shared across orderings hold the
    # rest until the call returns; 7.0 MB while the records at position 1
    # were kept as well
    gc.collect()
    tracemalloc.start()
    try:
        check_rules(surrogate)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6_000_000, peak


def test_the_dict_form_of_the_w7_report_holds_at_most_10_mb(surrogate):
    # 7.7 MB with one dict per distinct witness and one list per ordering;
    # a dict per cell and witness use and a list per cell took 26.2 MB
    report = check_rules(surrogate)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        form = report.to_dict()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(form["cells"]) == 35280
    assert held <= 10_000_000, held


@pytest.mark.parametrize("first, second, triangle", [
    # the only triangle lies past the shared prefix (2,); its first placed
    # vertex has the smallest label, so the masks must keep later neighbours
    ((2, 3, 0, 1, 4), (2, 0, 4, 3, 1), {0, 3, 4}),
    # the only triangle holds vertex 0 of the shared prefix (0,)
    ((0, 1, 2, 3, 4), (0, 4, 2, 3, 1), {0, 3, 4}),
])
def test_check_rules_refuses_an_ordering_above_the_minimum(
    circulant5, monkeypatch, first, second, triangle
):
    import backedge.rulecheck

    def triangles(ordering):
        adj = backedge_graph(circulant5, ordering).rows
        return [{u, v, w} for u, v, w in itertools.combinations(range(5), 3)
                if adj[u] >> v & adj[u] >> w & adj[v] >> w & 1]

    assert omega(circulant5).value == 2
    assert triangles(first) == [] and triangles(second) == [triangle]

    def orderings(t, k, **kwargs):
        yield first
        yield second

    monkeypatch.setattr(backedge.rulecheck, "iter_orderings_with_clique_at_most", orderings)
    with pytest.raises(ValueError, match="does not achieve the minimum"):
        check_rules(circulant5)


def test_a_fresh_table_refuses_an_ordering_above_the_minimum(circulant5):
    # with no ordering before, every position past 0 is tested: (2, 3, 0, 1, 4)
    # is minimum, and in (0, 4, 2, 3, 1) vertex 3 closes the triangle {0, 3, 4}
    assert omega(circulant5).value == 2
    assert len(_Cells(circulant5, 2).cells((2, 3, 0, 1, 4))) == 5
    with pytest.raises(ValueError, match="does not achieve the minimum"):
        _Cells(circulant5, 2).cells((0, 4, 2, 3, 1))


def test_shared_suffix_records_give_the_cells_of_a_fresh_table(surrogate):
    # W7 and three 8-vertex tournaments of value 2, 1,941 orderings in all
    rng = random.Random(81)
    tournaments = [surrogate]
    while len(tournaments) < 4:
        t = labeled_tournament(8, rng.randrange(labeled_count(8)))
        if is_strong(t):
            tournaments.append(t)
    for t in tournaments:
        report = check_rules(t)
        orderings = [cell.ordering for cell in report.cells[::t.n]]
        for i, ordering in enumerate(orderings):
            fresh = _Cells(t, report.omega_value).cells(ordering)
            assert report.cells[i * t.n:(i + 1) * t.n] == tuple(fresh), (t, ordering)
        # some suffix recurs in orderings that are not adjacent
        last, reused = {}, False
        for i, ordering in enumerate(orderings):
            for p in range(1, t.n):
                reused = reused or i - last.get(ordering[p:], i) > 1
                last[ordering[p:]] = i
        assert reused, t


# SHA-256 over json.dumps(check_rules(t).to_dict()) of every strong class with
# at most 6 vertices, in the order of canonical_tournaments, recorded before
# the rules were evaluated in one pass per ordering
SMALL_CLASSES_DIGEST = "0db677a73d6fb18428346be7d0c6a5c383d0a766e07207957d8fb91d8b0a92cd"


def test_the_rule_tables_of_every_strong_class_up_to_6_vertices_are_pinned():
    digest, count = hashlib.sha256(), 0
    for n in range(1, 7):
        for t in strong_classes(n):
            digest.update(json.dumps(check_rules(t).to_dict()).encode())
            count += 1
    assert count == 44
    assert digest.hexdigest() == SMALL_CLASSES_DIGEST


def test_a_table_stores_no_record_that_is_never_read_again(surrogate):
    # two distinct orderings share at most n - 2 leading positions, and the
    # suffix from position 1 names one ordering, which the stream yields once
    t = surrogate
    table = _Cells(t, 3)
    for ordering in iter_orderings_with_clique_at_most(t, 3):
        table.cells(ordering)
        assert len(table.prefix) == t.n - 1
    level, depth = [table.suffixes], 0
    while any(node[0] for node in level):
        level = [child for node in level if node[0] for child in node[0].values()]
        depth += 1
    # the deepest records are the suffixes from position 2 on, whose
    # children would be those from position 1
    assert depth == t.n - 2
    assert all(node[0] is None for node in level)
