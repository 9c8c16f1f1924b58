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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    Tournament,
    _backedge_masks,
    _bits,
    check_ordering,
    has_clique_in_mask,
    is_strong,
)
from .solvers import Deadline, iter_orderings_with_clique_at_most, minimum_ordering, omega


@dataclass(frozen=True)
class RuleWitness:
    rule: int
    vertices: tuple[tuple[str, int], ...]

    def named(self) -> dict[str, int]:
        return dict(self.vertices)

    def to_dict(self) -> dict:
        return {"rule": self.rule, "vertices": dict(self.vertices)}


@dataclass(frozen=True)
class CellResult:
    ordering: tuple[int, ...]
    pivot: int
    witness: Optional[RuleWitness]  # None when all four rules hold
    violated_rules: tuple[int, ...]

    @property
    def all_rules_hold(self) -> bool:
        return self.witness is None

    def to_dict(self) -> dict:
        return {
            "ordering": list(self.ordering),
            "pivot": self.pivot,
            "all_rules_hold": self.all_rules_hold,
            "witness": None if self.witness is None else self.witness.to_dict(),
            "violated_rules": list(self.violated_rules),
        }


@dataclass(frozen=True)
class RuleReport:
    omega_value: int
    first_vertex: Optional[int]
    cells: tuple[CellResult, ...]
    excluded: bool

    def to_dict(self) -> dict:
        return {
            "omega": self.omega_value,
            "first_vertex": self.first_vertex,
            "excluded": self.excluded,
            "cells": [cell.to_dict() for cell in self.cells],
        }


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _sweep(ordering: tuple[int, ...], adj: Sequence[int]) -> tuple:
    """Positions, prefix masks ``upto`` (``upto[i]`` holds the vertices
    before position i) and, for every position p, the components of the
    backedge graph ``adj`` on ``ordering[:p]`` and on ``ordering[p:]``, each
    as (vertex mask, span mask, lo, hi): it spans positions lo..hi, whose
    vertices make up the span mask."""
    n = len(ordering)
    pos, upto = [0] * n, [0]
    for i, y in enumerate(ordering):
        pos[y] = i
        upto.append(upto[-1] | 1 << y)
    prefix: list[list[tuple]] = [[]]
    suffix: list[list[tuple]] = [[]]
    for side, positions in ((prefix, range(n)), (suffix, range(n - 1, -1, -1))):
        for p in positions:
            # the vertex at p joins every component (all on this side) it
            # has a backedge into
            back, mask, lo, hi, kept = adj[ordering[p]], upto[p + 1] ^ upto[p], p, p, []
            for comp in side[-1]:
                if comp[0] & back:
                    mask |= comp[0]
                    lo, hi = min(lo, comp[2]), max(hi, comp[3])
                else:
                    kept.append(comp)
            kept.append((mask, upto[hi + 1] ^ upto[lo], lo, hi))
            side.append(kept)
    return pos, upto, prefix, suffix[::-1]


def _rule2_violation(
    cols: tuple[int, ...], left: int, right: int
) -> Optional[RuleWitness]:
    """First a, b on the left with some c on the right beating both and some
    d on the right beating a but not b; c and d are the smallest such.  c and
    d differ, so an a beaten by fewer than two right vertices is skipped."""
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
                named = zip("abcd", (_lowest(a), _lowest(b), _lowest(cs), _lowest(beat ^ cs)))
                return RuleWitness(2, tuple(named))
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
    rule: int, v: int, hits: int, comps: list[tuple], ordering: tuple[int, ...], sweep: tuple
) -> RuleWitness:
    """Rule 3 or 4's witness at the v ``_span_rule`` found, whose arcs into
    the inner side are ``hits``: the smallest u, then the smallest w after u
    covered by a common span; a and b are that span's end vertices, taken
    from the first such component by smallest vertex."""
    pos, upto = sweep[:2]
    for u in _bits(hits):
        for w in _bits(hits & ~upto[pos[u] + 1]):
            covering = [(_lowest(mask), lo, hi) for mask, _, lo, hi in comps
                        if lo <= pos[u] and pos[w] <= hi]
            if covering:
                _, lo, hi = min(covering)
                a, b = ordering[lo], ordering[hi]
                return RuleWitness(rule, (("a", a), ("b", b), ("u", u), ("v", v), ("w", w)))
    raise AssertionError(f"rule {rule} holds at v = {v}")


def check_cell(t: Tournament, ordering: Sequence[int], x: int) -> CellResult:
    """Evaluate the four rules for one (minimum ordering, pivot) cell.

    Returns the first violated rule with a deterministic witness and records
    every violated rule id; the ordering must achieve the minimum."""
    if not 0 <= x < t.n:
        raise ValueError(f"pivot {x} out of range")
    ordering = minimum_ordering(t, ordering).witness
    return _evaluate_cell(t, ordering, _sweep(ordering, _backedge_masks(t.rows, ordering)), x)


def _evaluate_cell(t: Tournament, ordering: tuple[int, ...], sweep: tuple, x: int) -> CellResult:
    """The rules at pivot ``x`` of a validated minimum ordering, from its
    ``_sweep``; only the first violated rule builds a witness."""
    pos, upto, prefix, suffix = sweep
    p = pos[x]
    left = upto[p]
    if not left:
        # both sides of rules 2-4 need a vertex before x
        return CellResult(ordering, x, RuleWitness(1, ()), (1,))
    right = upto[-1] ^ left
    rule2 = _rule2_violation(t.cols, left, right)
    v3 = _span_rule(t.rows, right, left, prefix[p])
    v4 = _span_rule(t.cols, left, right, suffix[p])
    violated = tuple(rule for rule, found in ((2, rule2), (3, v3), (4, v4)) if found is not None)
    if rule2 is not None:
        witness = rule2
    elif v3 is not None:
        witness = _span_witness(3, v3, t.rows[v3] & left, prefix[p], ordering, sweep)
    elif v4 is not None:
        witness = _span_witness(4, v4, t.cols[v4] & right, suffix[p], ordering, sweep)
    else:
        witness = None
    return CellResult(ordering, x, witness, violated)


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
    deadline: Optional[Deadline] = None,
) -> RuleReport:
    """Evaluate every cell: all minimum orderings (optionally restricted to a
    fixed first vertex, sound for vertex-transitive tournaments) times all
    pivots.  Verdict ``excluded`` iff every cell breaks some rule."""
    if not is_strong(t):
        raise ValueError("tournament must be strongly connected")
    value = omega(t, deadline=deadline).value
    full = (1 << t.n) - 1
    cells = []
    excluded = True
    orderings = iter_orderings_with_clique_at_most(
        t, value, first_vertex=first_vertex, deadline=deadline
    )
    for ordering in orderings:
        adj = _backedge_masks(t.rows, ordering)
        if has_clique_in_mask(adj, full, value + 1) is not None:
            raise ValueError("ordering does not achieve the minimum clique number")
        sweep = _sweep(ordering, adj)
        for x in range(t.n):
            cell = _evaluate_cell(t, ordering, sweep, x)
            cells.append(cell)
            if cell.all_rules_hold:
                excluded = False
    return RuleReport(value, first_vertex, tuple(cells), excluded)


def excluded_from_family(
    t: Tournament,
    first_vertex: Optional[int] = None,
    *,
    deadline: Optional[Deadline] = None,
) -> bool:
    """True when every cell is violated, hence the tournament embeds in no
    member of the recursive family."""
    return check_rules(t, first_vertex, deadline=deadline).excluded
