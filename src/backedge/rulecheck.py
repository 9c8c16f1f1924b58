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

Each minimum ordering is evaluated in one pass.  Left to right it grows the
components of the backedge graph on every prefix: the vertex at position p
merges every component it has a backedge into, and as the merged span ends
at p only its start needs a comparison.  Right to left it grows those on
every suffix, whose merged span starts at p.  Each component keeps the mask
of the vertices placed inside its span.  With a side as a vertex mask the
rules become mask tests: rule 2 looks for an a whose right in-neighbours
``cols[a] & right`` the in-neighbours of some b split in two, and rules 3
and 4 share one span test, for a v whose arcs into the other side put two
bits inside one span mask.  Only the first violated rule of a cell builds
its witness.

The orderings of one call share work.  Rule 2 depends only on the left
set, so its outcome is kept by left mask.  The prefix components, rule 3
and the first witness among rules 1-3 depend only on the ordering before
the pivot, and the ordering search yields orderings in lexicographic order,
so consecutive ones share long prefixes: only the pivot positions past the
shared prefix are evaluated again.  The suffix components and rule 4 depend
only on the ordering from the pivot on (spans are absolute positions), and
the k <= 2 search replays the same completions after many prefixes, so each
distinct ordered suffix is evaluated once per call; its record keeps rule
4's witness too, built when a cell first needs it.  No record is kept that
would never be read again: two distinct orderings share at most n - 2
leading positions, so the components on n - 1 are not stored, and the
suffix from position 1 fixes the whole ordering, which the search yields
once, so it is not stored either.  The loop that extends the prefix masks
past the shared prefix also sets the backedge masks and guards minimality.
``check_cell`` evaluates its ordering the same way.

A report holds one record per distinct value.  A call builds each distinct
witness once, keeping it by (rule, vertices) until the call returns, the
cells of one ordering share that ordering's tuple, and a cell's violated
rules are one of nine constant tuples.  A cell is a named 4-tuple, built in
one call, and a witness has slots; neither has a ``__dict__``.  The 35,280
cells of the 7-vertex value-3 tournament hold 760 witnesses; its report
takes 3.9 MB, and building it peaks at 5.5 MB.

``check_rules(t, first_vertex=f)`` keeps only the orderings that start with
f.  Relabeling by an automorphism maps cells to cells, so this loses no
verdict when the tournament is vertex-transitive, whatever f is; for any
other tournament it would drop cells, and the call is refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

from .core import (
    Deadline,
    Tournament,
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


class CellResult(NamedTuple):
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


def _rule2_violation(cols: tuple[int, ...], left: int, right: int,
                     witnesses: dict) -> Optional[RuleWitness]:
    """Rule 2's witness: the first a, b on the left with some c on the right
    beating both and some d on the right beating a but not b; c and d are the
    smallest such.  c and d differ, so an a beaten by fewer than two right
    vertices is skipped.  None when rule 2 holds."""
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
                key = (2, _lowest(a), _lowest(b), _lowest(cs), _lowest(beat ^ cs))
                found = witnesses.get(key)
                if found is None:
                    found = witnesses[key] = RuleWitness(2, tuple(zip("abcd", key[1:])))
                return found
    return None


def _span_rule(arcs: tuple[int, ...], outer: int, comps: list[tuple]) -> Optional[int]:
    """Rules 3 and 4: the smallest v of ``outer`` whose ``arcs[v]`` holds two
    vertices inside the span of one component ``comps`` of the backedge graph
    on the other side, or None."""
    while outer:
        v = outer & -outer
        outer ^= v
        hits = arcs[v.bit_length() - 1]
        for comp in comps:
            both = hits & comp[1]
            if both & (both - 1):
                return v.bit_length() - 1
    return None


def _span_witness(rule: int, v: int, hits: int, comps: list[tuple], ordering: tuple[int, ...],
                  upto: Sequence[int], witnesses: dict) -> RuleWitness:
    """Rule 3 or 4's witness (a, b, u, v, w) at the v ``_span_rule`` found,
    whose arcs into the inner side are ``hits``: the smallest u, then the
    smallest w after u covered by a common span; a and b are that span's end
    vertices, taken from the first such component by smallest vertex."""
    rest = hits
    while rest:
        u = rest & -rest
        rest ^= u
        # the component whose span holds u and the smallest w of ``later``
        later, best = hits & ~upto[ordering.index(u.bit_length() - 1) + 1], None
        for comp in comps:
            both = later & comp[1]
            if both and comp[1] & u:
                w, low = both & -both, comp[0] & -comp[0]
                if best is None or w < best_w or w == best_w and low < best_low:
                    best, best_w, best_low = comp, w, low
        if best is not None:
            key = (rule, ordering[best[2]], ordering[best[3]], u.bit_length() - 1, v,
                   best_w.bit_length() - 1)
            found = witnesses.get(key)
            if found is None:
                found = witnesses[key] = RuleWitness(rule, tuple(zip("abuvw", key[1:])))
            return found
    raise AssertionError(f"no span holds two arcs of v = {v}")


# both sides of rules 2-4 need a vertex before the pivot
_RULE1 = RuleWitness(1, ())
# the violated rules of a cell past the first pivot that also breaks rule 4,
# by those of rules 1-3: every cell holds one of these few tuples
_AND_RULE4 = {(): (4,), (2,): (2, 4), (3,): (3, 4), (2, 3): (2, 3, 4)}


class _Cells:
    """The cells of a tournament's minimum orderings, one ordering at a time,
    keeping the work that depends on part of one: rule 2's witness by left
    set, the prefix records and backedge masks the next ordering shares, a
    record per distinct ordered suffix, and each witness by (rule, vertices).
    Each placed vertex's backedge mask is set once, when it is placed."""

    def __init__(self, t: Tournament, value: int):
        self.t, self.value = t, value
        self.witnesses: dict[tuple[int, ...], RuleWitness] = {}
        self.rule2: dict[int, Optional[RuleWitness]] = {}
        self.ordering: tuple[int, ...] = ()
        # upto[i]: the vertices before position i of self.ordering
        self.upto = [0]
        # the backedge masks of the placed vertices: a shared-prefix vertex's
        # stays right, as the same vertices come before it in both orderings
        self.adj = [0] * t.n
        # prefix[p]: the components on ordering[:p], for p <= n - 2, each a
        # (vertex mask, span mask, lo, hi) spanning positions lo..hi; lefts[p]:
        # the first witness and the violated rules of rules 1-3 at pivot position p
        self.prefix: list[list[tuple]] = [[]]
        self.lefts: list[tuple] = [(_RULE1, (1,))]
        # the ordered suffixes from position 2 on, a trie read from the last
        # position; a node is [children by vertex (None at position 2),
        # components, rule 4's v, its witness once built]
        self.suffixes: list = [{}, [], None, None]

    def cells(self, ordering: tuple[int, ...]) -> list[CellResult]:
        """The cells of a validated ordering, by pivot; only the first
        violated rule builds a witness.

        The ordering is proved minimum past the prefix it shares with the one
        before, at most n - 2 positions as for two distinct orderings: a
        (value+1)-clique has a last placed vertex y, and its others form a
        value-clique among y's earlier backedge neighbours, so testing each y
        placed past that prefix finds every clique not inside it, and the
        ordering before was tested for those.  The first such y needs no
        test: its earlier backedge neighbours all lie in the prefix, and it
        came after the prefix in the ordering before too."""
        t = self.t
        n, rows, cols, rule2, witnesses = t.n, t.rows, t.cols, self.rule2, self.witnesses
        keep = 0
        for old, new in zip(self.ordering, ordering[:n - 2]):
            if old != new:
                break
            keep += 1
        self.ordering = ordering
        upto, adj, prefix, lefts = self.upto, self.adj, self.prefix, self.lefts
        del upto[keep + 1:], prefix[keep + 1:], lefts[keep + 1:]
        full = upto[keep]
        for p in range(keep, n):
            y = ordering[p]
            back = rows[y] & full
            adj[y] = back | cols[y] & ~full
            if p > keep and has_clique_in_mask(adj, back, self.value) is not None:
                raise ValueError("ordering does not achieve the minimum clique number")
            full |= 1 << y
            upto.append(full)
        comps = prefix[keep]
        for p in range(keep + 1, n):
            # the components on ordering[:p]: the vertex at p - 1 joins every
            # component it has a backedge into, and ends the merged span
            back, mask, lo, kept = rows[ordering[p - 1]], upto[p] ^ upto[p - 1], p - 1, []
            for comp in comps:
                if comp[0] & back:
                    mask |= comp[0]
                    if comp[2] < lo:
                        lo = comp[2]
                else:
                    kept.append(comp)
            kept.append((mask, upto[p] ^ upto[lo], lo, p - 1))
            comps = kept
            if p < n - 1:
                prefix.append(comps)
            left = upto[p]
            witness = rule2.get(left, False)
            if witness is False:
                witness = rule2[left] = _rule2_violation(cols, left, full ^ left, witnesses)
            v = _span_rule(rows, full ^ left, comps)
            if witness is not None:
                lefts.append((witness, (2,) if v is None else (2, 3)))
            elif v is not None:
                witness = _span_witness(3, v, rows[v] & left, comps, ordering, upto, witnesses)
                lefts.append((witness, (3,)))
            else:
                lefts.append((None, ()))
        new = tuple.__new__
        cells: list = [None] * n
        node = self.suffixes
        for p in range(n - 1, -1, -1):
            y = ordering[p]
            witness, violated = lefts[p]
            if p:
                child = node[0].get(y) if p > 1 else None
                if child is None:
                    # the components on ordering[p:]: the vertex at p joins every
                    # component it has a backedge into, and starts the merged span
                    back, mask, hi, kept = cols[y], 1 << y, p, []
                    for comp in node[1]:
                        if comp[0] & back:
                            mask |= comp[0]
                            if comp[3] > hi:
                                hi = comp[3]
                        else:
                            kept.append(comp)
                    kept.append((mask, upto[hi + 1] ^ upto[p], p, hi))
                    child = [{} if p > 2 else None, kept, _span_rule(cols, upto[p], kept), None]
                    if p > 1:
                        node[0][y] = child
                node = child
                if node[2] is not None:
                    violated = _AND_RULE4[violated]
                    if witness is None:
                        witness = node[3]
                        if witness is None:
                            v = node[2]
                            witness = node[3] = _span_witness(
                                4, v, cols[v] & ~upto[p], node[1], ordering, upto, witnesses)
            cells[y] = new(CellResult, (ordering, y, witness, violated))
        return cells


def check_cell(t: Tournament, ordering: Sequence[int], x: int) -> CellResult:
    """Evaluate the four rules for one (minimum ordering, pivot) cell.

    Returns the first violated rule with a deterministic witness and records
    every violated rule id; the ordering must achieve the minimum."""
    if not 0 <= x < t.n:
        raise ValueError(f"pivot {x} out of range")
    res = minimum_ordering(t, ordering)
    return _Cells(t, res.value).cells(res.witness)[x]


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
    vertex-transitive); for any other t it raises ValueError.  Orbits
    partition the vertices, so that holds for f exactly when vertex 0's
    orbit is every vertex.  ``_Cells.cells`` proves each ordering minimum."""
    if not is_strong(t):
        raise ValueError("tournament must be strongly connected")
    if first_vertex is not None:
        if not 0 <= first_vertex < t.n:
            raise ValueError(f"first vertex {first_vertex} out of range")
        if _orbit(t, deadline) != (1 << t.n) - 1:
            raise ValueError(
                f"first vertex {first_vertex} is not mapped onto every vertex by an "
                "automorphism; fixing it would drop cells"
            )
    value = omega(t, deadline=deadline).value
    cells: list[CellResult] = []
    table = _Cells(t, value)
    for ordering in iter_orderings_with_clique_at_most(
        t, value, first_vertex=first_vertex, deadline=deadline
    ):
        deadline.check()
        cells += table.cells(ordering)
    excluded = all(cell.witness is not None for cell in cells)
    return RuleReport(value, first_vertex, tuple(cells), excluded)

