"""Rule engine deciding whether a strong tournament can embed into the
recursive two-sided family.

For a minimum ordering and a pivot vertex x, four structural rules must
all hold for the embedding to be possible; a tournament for which every
(minimum ordering, pivot) cell breaks some rule is excluded from the
whole family.

Rule shapes (positions relative to the ordering, x the pivot):
  1. some vertex precedes x;
  2. for a, b left of x and c, d at-or-right of x: arcs c->a, d->a, c->b
     force the arc d->b;
  3. no tuple a <= u < w <= b < x <= v with an a-b path in the backedge
     graph of the left side and both arcs v->u, v->w present;
  4. no tuple v < x <= a <= u < w <= b with an a-b path in the backedge
     graph of the right side and both arcs u->v, w->v present.

Each minimum ordering is swept once: a left-to-right pass grows the
components of the backedge graph on every prefix, a right-to-left pass on
every suffix, and each component keeps the mask of the vertices placed
inside its position span.  With a side as a vertex mask the rules become
mask tests: rule 2 looks for an a whose right in-neighbours ``cols[a] &
right`` the in-neighbours of some b split in two, and rules 3 and 4 for a v
whose arcs into the other side put two bits inside one span mask.  Only the
first violated rule of a cell builds its witness.

The orderings of one call share work.  Rule 2 depends only on the left
set, so its outcome is kept by left mask.  The prefix components, rule 3
and the first witness among rules 1-3 depend only on the ordering before
the pivot, and the ordering search yields orderings in lexicographic order,
so consecutive ones share long prefixes: only the pivot positions past the
shared prefix are evaluated again.  The suffix components and rule 4 depend
only on the ordering from the pivot on (spans are absolute positions), and
the k <= 2 search replays the same completions after many prefixes, so each
distinct ordered suffix is evaluated once per call; its record keeps rule
4's witness too, built when a cell first needs it.  The minimality check
grows from the shared prefix as well.  ``check_cell`` evaluates its
ordering the same way, from nothing.

A report holds one record per distinct value.  A call builds each distinct
witness once, keeping it by (rule, vertices) until the call returns, the
cells of one ordering share that ordering's tuple, and a cell's violated
rules are one of nine constant tuples.  Cells and witnesses have slots, not
a ``__dict__``.  The 35,280 cells of the 7-vertex value-3 tournament hold
760 witnesses, and its report takes 3.3 MB.

``check_rules(t, first_vertex=f)`` keeps only the orderings that start with
f.  Relabeling by an automorphism maps cells to cells, so this loses no
verdict when some automorphism maps f to each vertex; for any other
tournament it would drop cells, and the call is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    Deadline,
    Tournament,
    _bits,
    _orbit,
    check_ordering,
    has_clique_in_mask,
    is_strong,
)
from .solvers import iter_orderings_with_clique_at_most, minimum_ordering, omega


@dataclass(frozen=True, slots=True)
class RuleWitness:
    rule: int
    vertices: tuple[tuple[str, int], ...]

    def named(self) -> dict[str, int]:
        return dict(self.vertices)

    def to_dict(self) -> dict:
        return {"rule": self.rule, "vertices": dict(self.vertices)}


@dataclass(frozen=True, slots=True)
class CellResult:
    ordering: tuple[int, ...]
    pivot: int
    witness: Optional[RuleWitness]  # None when all four rules hold
    violated_rules: tuple[int, ...]

    @property
    def all_rules_hold(self) -> bool:
        return self.witness is None


@dataclass(frozen=True)
class RuleReport:
    omega_value: int
    first_vertex: Optional[int]
    cells: tuple[CellResult, ...]
    excluded: bool

    def to_dict(self) -> dict:
        """The JSON form.  Cells share one dict per distinct witness and one
        list per distinct ordering or violated-rules tuple, as the report
        shares its records; equal values give equal forms, so ``json.dumps``
        writes the same bytes as from a copy per cell."""
        forms: dict = {}

        def shared(value, make):
            form = forms.get(value)
            if form is None:
                form = forms[value] = make(value)
            return form

        return {
            "omega": self.omega_value,
            "first_vertex": self.first_vertex,
            "excluded": self.excluded,
            "cells": [
                {
                    "ordering": shared(cell.ordering, list),
                    "pivot": cell.pivot,
                    "all_rules_hold": cell.all_rules_hold,
                    "witness": None if cell.witness is None else shared(cell.witness, RuleWitness.to_dict),
                    "violated_rules": shared(cell.violated_rules, list),
                }
                for cell in self.cells
            ],
        }


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _components(
    ordering: tuple[int, ...], adj: Sequence[int], upto: Sequence[int],
    positions: Iterable[int], comps: list[tuple],
) -> Iterator[list[tuple]]:
    """From the components ``comps``, add the vertex at each of ``positions``
    in turn and yield the components after each: run left to right from a
    prefix they give the components of the backedge graph ``adj`` on each
    longer prefix, run right to left from ``[]`` those on each longer
    suffix; ``adj`` may be ``rows`` left to right and ``cols`` right to left.
    A component is (vertex mask, span mask, lo, hi): it spans positions
    lo..hi, whose vertices make up the span mask."""
    for p in positions:
        # the vertex at p joins every component (all on its side) it has a
        # backedge into
        back, mask, lo, hi, kept = adj[ordering[p]], upto[p + 1] ^ upto[p], p, p, []
        for comp in comps:
            if comp[0] & back:
                mask |= comp[0]
                lo, hi = min(lo, comp[2]), max(hi, comp[3])
            else:
                kept.append(comp)
        kept.append((mask, upto[hi + 1] ^ upto[lo], lo, hi))
        comps = kept
        yield comps


def _rule2_violation(
    cols: tuple[int, ...], left: int, right: int
) -> Optional[tuple[int, int, int, int]]:
    """First a, b on the left with some c on the right beating both and some
    d on the right beating a but not b, as (a, b, c, d); c and d are the
    smallest such.  c and d differ, so an a beaten by fewer than two right
    vertices is skipped."""
    rest = left
    while rest:
        a = rest & -rest
        rest ^= a
        beat = cols[a.bit_length() - 1] & right
        others = left ^ a if beat & (beat - 1) else 0
        while others:
            b = others & -others
            others ^= b
            cs = beat & cols[b.bit_length() - 1]
            if cs and cs != beat:
                return _lowest(a), _lowest(b), _lowest(cs), _lowest(beat ^ cs)
    return None


def _span_rule(arcs: tuple[int, ...], outer: int, inner: int, comps: list[tuple]) -> Optional[int]:
    """Rules 3 and 4: the smallest v of ``outer`` whose ``arcs[v]`` holds at
    least two vertices of ``inner`` inside the span of one component ``comps``
    of the backedge graph on ``inner``, or None."""
    spans = [comp[1] for comp in comps if comp[2] < comp[3]]
    while spans and outer:
        v = outer & -outer
        outer ^= v
        hits = arcs[v.bit_length() - 1] & inner
        if hits & (hits - 1):
            for span in spans:
                both = hits & span
                if both & (both - 1):
                    return v.bit_length() - 1
    return None


def _span_witness(
    v: int, hits: int, comps: list[tuple], ordering: tuple[int, ...],
    pos: Sequence[int], upto: Sequence[int],
) -> tuple[int, int, int, int, int]:
    """Rule 3 or 4's witness (a, b, u, v, w) at the v ``_span_rule`` found,
    whose arcs into the inner side are ``hits``: the smallest u, then the
    smallest w after u covered by a common span; a and b are that span's end
    vertices, taken from the first such component by smallest vertex."""
    for u in _bits(hits):
        # each span holding u: its smallest w of ``hits`` after u
        later = hits & ~upto[pos[u] + 1]
        covering = [(_lowest(later & span), _lowest(mask), lo, hi)
                    for mask, span, lo, hi in comps if span >> u & 1 and later & span]
        if covering:
            w, _, lo, hi = min(covering)
            return ordering[lo], ordering[hi], u, v, w
    raise AssertionError(f"no span holds two arcs of v = {v}")


_set_ordering, _set_pivot, _set_witness, _set_violated = (
    getattr(CellResult, name).__set__ for name in ("ordering", "pivot", "witness", "violated_rules")
)


def _cell(ordering: tuple, pivot: int, witness: Optional[RuleWitness], violated: tuple) -> CellResult:
    """``CellResult(ordering, pivot, witness, violated)``, set through the
    slots: the frozen dataclass's ``__init__`` takes twice as long."""
    cell = object.__new__(CellResult)
    _set_ordering(cell, ordering)
    _set_pivot(cell, pivot)
    _set_witness(cell, witness)
    _set_violated(cell, violated)
    return cell


# both sides of rules 2-4 need a vertex before the pivot
_RULE1 = RuleWitness(1, ())
# the violated rules of a cell past the first pivot that also breaks rule 4,
# by those of rules 1-3: every cell holds one of these few tuples
_AND_RULE4 = {(): (4,), (2,): (2, 4), (3,): (3, 4), (2, 3): (2, 3, 4)}


class _Cells:
    """The cells of a tournament's minimum orderings, one ordering at a time,
    keeping for the next ordering the work that depends on part of one:
    rule 2's outcome by left set, and, along the prefix the next ordering
    shares, the prefix components and each pivot position's rule 2 and 3
    outcome (violated rules and first witness), and for the whole call a
    record per distinct ordered suffix.  Each distinct witness is built once:
    ``witnesses`` holds it by (rule, vertices)."""

    def __init__(self, t: Tournament):
        self.t = t
        self.witnesses: dict[tuple[int, ...], RuleWitness] = {}
        self.rule2: dict[int, Optional[RuleWitness]] = {}
        # keep: the positions self.ordering shares with the ordering before
        self.ordering: tuple[int, ...] = ()
        self.keep = 0
        # upto[i]: the vertices before position i of self.ordering
        self.upto = [0]
        # prefix[p]: the components on ordering[:p]; lefts[p]: the first
        # witness and the violated rules of rules 1-3 at pivot position p
        self.prefix: list[list[tuple]] = [[]]
        self.lefts: list[tuple] = [(_RULE1, (1,))]
        # the ordered suffixes, a trie read from the last position; a node is
        # [children by vertex, components, rule 4's v, its witness once built]
        self.suffixes: list = [{}, [], None, None]

    def witness(self, rule: int, names: str, vertices: tuple[int, ...]) -> RuleWitness:
        """The one witness of this table for ``rule`` with ``vertices`` named
        in turn by ``names``."""
        key = (rule, *vertices)
        found = self.witnesses.get(key)
        if found is None:
            found = self.witnesses[key] = RuleWitness(rule, tuple(zip(names, vertices)))
        return found

    def cells(self, ordering: tuple[int, ...]) -> list[CellResult]:
        """The cells of a validated minimum ordering, by pivot; only the
        first violated rule builds a witness."""
        t = self.t
        n, rows, cols, rule2 = t.n, t.rows, t.cols, self.rule2
        keep = 0
        for old, new in zip(self.ordering, ordering):
            if old != new:
                break
            keep += 1
        self.ordering, self.keep = ordering, keep
        upto, prefix, lefts = self.upto, self.prefix, self.lefts
        del upto[keep + 1:], prefix[keep + 1:], lefts[keep + 1:]
        for y in ordering[keep:]:
            upto.append(upto[-1] | 1 << y)
        full = upto[-1]
        pos = [0] * n
        for i, y in enumerate(ordering):
            pos[y] = i
        prefix.extend(_components(ordering, rows, upto, range(keep, n - 1), prefix[keep]))
        for p in range(keep + 1, n):
            left = upto[p]
            if left in rule2:
                witness = rule2[left]
            else:
                found = _rule2_violation(cols, left, full ^ left)
                witness = None if found is None else self.witness(2, "abcd", found)
                rule2[left] = witness
            v3 = _span_rule(rows, full ^ left, left, prefix[p])
            if witness is not None:
                lefts.append((witness, (2,) if v3 is None else (2, 3)))
            elif v3 is not None:
                found = _span_witness(v3, rows[v3] & left, prefix[p], ordering, pos, upto)
                lefts.append((self.witness(3, "abuvw", found), (3,)))
            else:
                lefts.append((None, ()))
        cells: list = [None] * n
        cells[ordering[0]] = _cell(ordering, ordering[0], _RULE1, (1,))
        node = self.suffixes
        for p in range(n - 1, 0, -1):
            y, parent = ordering[p], node
            node = parent[0].get(y)
            if node is None:
                left = upto[p]
                suffix = next(_components(ordering, cols, upto, (p,), parent[1]))
                node = parent[0][y] = [{}, suffix, _span_rule(cols, left, full ^ left, suffix), None]
            witness, violated = lefts[p]
            if node[2] is not None:
                violated = _AND_RULE4[violated]
                if witness is None:
                    witness = node[3]
                    if witness is None:
                        v4 = node[2]
                        found = _span_witness(v4, cols[v4] & ~upto[p], node[1], ordering, pos, upto)
                        witness = node[3] = self.witness(4, "abuvw", found)
            cells[y] = _cell(ordering, y, witness, violated)
        return cells


def check_cell(t: Tournament, ordering: Sequence[int], x: int) -> CellResult:
    """Evaluate the four rules for one (minimum ordering, pivot) cell.

    Returns the first violated rule with a deterministic witness and records
    every violated rule id; the ordering must achieve the minimum."""
    if not 0 <= x < t.n:
        raise ValueError(f"pivot {x} out of range")
    ordering = minimum_ordering(t, ordering).witness
    return _Cells(t).cells(ordering)[x]


def validate_rule_witness(
    t: Tournament,
    ordering: Sequence[int],
    x: int,
    rule: int,
    named: dict[str, int],
) -> bool:
    """Independent re-evaluation: does the named vertex tuple really violate
    the stated rule in this cell?  Paths are re-checked by breadth-first
    search over explicit backedge lists."""
    ordering = check_ordering(ordering, t.n)
    pos = [0] * t.n
    for i, v in enumerate(ordering):
        pos[v] = i
    px = pos[x]

    def connected(side: list[int], a: int, b: int) -> bool:
        edges = {v: set() for v in side}
        for i, u in enumerate(side):
            for v in side[i + 1:]:
                lo, hi = (u, v) if pos[u] < pos[v] else (v, u)
                if t.has_arc(hi, lo):
                    edges[u].add(v)
                    edges[v].add(u)
        seen = {a}
        queue = [a]
        while queue:
            cur = queue.pop()
            for nxt in edges[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return b in seen

    if rule == 1:
        return px == 0
    if rule == 2:
        a, b, c, d = named["a"], named["b"], named["c"], named["d"]
        return (
            pos[a] < px
            and pos[b] < px
            and pos[c] >= px
            and pos[d] >= px
            and t.has_arc(c, a)
            and t.has_arc(d, a)
            and t.has_arc(c, b)
            and not t.has_arc(d, b)
        )
    a, b, u, v, w = (named[k] for k in ("a", "b", "u", "v", "w"))
    if rule == 3:
        left = [y for y in range(t.n) if pos[y] < px]
        return (
            pos[a] <= pos[u] < pos[w] <= pos[b] < px <= pos[v]
            and connected(left, a, b)
            and t.has_arc(v, u)
            and t.has_arc(v, w)
        )
    if rule == 4:
        right = [y for y in range(t.n) if pos[y] >= px]
        return (
            pos[v] < px <= pos[a] <= pos[u] < pos[w] <= pos[b]
            and connected(right, a, b)
            and t.has_arc(u, v)
            and t.has_arc(w, v)
        )
    raise ValueError(f"unknown rule {rule}")


def _swap(t: Tournament, a: int) -> Tournament:
    """``t`` with vertices 0 and ``a`` exchanged."""
    flip = 1 | 1 << a
    rows = [row ^ flip if (row ^ row >> a) & 1 else row for row in t.rows]
    rows[0], rows[a] = rows[a], rows[0]
    return Tournament(t.n, tuple(rows))


def check_rules(
    t: Tournament,
    first_vertex: Optional[int] = None,
    *,
    deadline: Deadline = Deadline(),
) -> RuleReport:
    """Evaluate every cell: all minimum orderings times all pivots.  Verdict
    ``excluded`` iff every cell breaks some rule.

    ``first_vertex=f`` keeps the orderings that start with f.  That loses no
    verdict only when some automorphism maps f to each vertex (t is
    vertex-transitive); for any other t it raises ValueError.

    Each ordering is proved minimum past the prefix it shares with the one
    before: an (omega+1)-clique has a last placed vertex y, and its others
    form an omega-clique among y's earlier backedge neighbours, so testing
    each y placed past that prefix finds every clique not inside it, and the
    ordering before was tested for those.  The first such y needs no test:
    its earlier backedge neighbours all lie in the prefix, and it came after
    the prefix in the ordering before too."""
    if not is_strong(t):
        raise ValueError("tournament must be strongly connected")
    full = (1 << t.n) - 1
    if first_vertex is not None:
        if not 0 <= first_vertex < t.n:
            raise ValueError(f"first vertex {first_vertex} out of range")
        # relabeled 0, f must have every vertex in its orbit
        if _orbit(_swap(t, first_vertex), deadline) != full:
            raise ValueError(
                f"first vertex {first_vertex} is not mapped onto every vertex by an "
                "automorphism; fixing it would drop cells"
            )
    value = omega(t, deadline=deadline).value
    cells: list[CellResult] = []
    table = _Cells(t)
    orderings = iter_orderings_with_clique_at_most(
        t, value, first_vertex=first_vertex, deadline=deadline
    )
    # the backedge masks on the placed vertices: a shared-prefix vertex's bits
    # stay right, as every later vertex comes after it in both orderings
    adj = [0] * t.n
    for ordering in orderings:
        deadline.check()
        cells += table.cells(ordering)  # sets table.keep and table.upto
        for p in range(table.keep, t.n):
            y = ordering[p]
            back = adj[y] = t.rows[y] & table.upto[p]
            if p > table.keep and has_clique_in_mask(adj, back, value) is not None:
                raise ValueError("ordering does not achieve the minimum clique number")
            for u in _bits(back):
                adj[u] |= 1 << y
    excluded = all(cell.witness is not None for cell in cells)
    return RuleReport(value, first_vertex, tuple(cells), excluded)


def excluded_from_family(
    t: Tournament,
    first_vertex: Optional[int] = None,
    *,
    deadline: Deadline = Deadline(),
) -> bool:
    """True when every cell is violated, hence the tournament embeds in no
    member of the recursive family."""
    return check_rules(t, first_vertex, deadline=deadline).excluded
