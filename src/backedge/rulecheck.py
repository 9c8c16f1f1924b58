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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import (
    Tournament,
    _backedge_masks,
    _bits,
    check_ordering,
    components,
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


def _rule2_violation(
    cols: tuple[int, ...], left: int, right: int
) -> Optional[RuleWitness]:
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


def _span_violation(
    rule: int,
    arcs: tuple[int, ...],
    outer: int,
    inner: int,
    ordering: tuple[int, ...],
    pos: list[int],
    adj: Sequence[int],
) -> Optional[RuleWitness]:
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


def check_cell(t: Tournament, ordering: Sequence[int], x: int) -> CellResult:
    """Evaluate the four rules for one (minimum ordering, pivot) cell.

    Returns the first violated rule with a deterministic witness and records
    every violated rule id; the ordering must achieve the minimum."""
    if not 0 <= x < t.n:
        raise ValueError(f"pivot {x} out of range")
    ordering = minimum_ordering(t, ordering).witness
    return _evaluate_cell(t, ordering, _positions(ordering), _backedge_masks(t.rows, ordering), x)


def _positions(ordering: tuple[int, ...]) -> list[int]:
    pos = [0] * len(ordering)
    for i, v in enumerate(ordering):
        pos[v] = i
    return pos


def _evaluate_cell(
    t: Tournament, ordering: tuple[int, ...], pos: list[int], adj: Sequence[int], x: int
) -> CellResult:
    """The rules at pivot ``x`` of a validated minimum ordering whose
    backedge masks are ``adj``."""
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
        pos = _positions(ordering)
        adj = _backedge_masks(t.rows, ordering)
        if has_clique_in_mask(adj, full, value + 1) is not None:
            raise ValueError("ordering does not achieve the minimum clique number")
        for x in range(t.n):
            cell = _evaluate_cell(t, ordering, pos, adj, x)
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
