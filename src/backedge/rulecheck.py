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
    backedge_graph,
    check_ordering,
    clique_number,
    is_strong,
)
from .solvers import Deadline, enumerate_omega_orderings, omega


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


def _components(t: Tournament, side: list[int], pos: list[int]) -> list[list[int]]:
    """Connected components of the backedge graph restricted to ``side``
    (a list of vertices), via union-find; each component sorted by vertex."""
    parent = {v: v for v in side}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i, u in enumerate(side):
        for v in side[i + 1:]:
            if pos[u] < pos[v]:
                back = t.has_arc(v, u)
            else:
                back = t.has_arc(u, v)
            if back:
                ra, rb = find(u), find(v)
                if ra != rb:
                    parent[ra] = rb
    groups: dict[int, list[int]] = {}
    for v in side:
        groups.setdefault(find(v), []).append(v)
    return [sorted(g) for g in groups.values()]


def _rule2_violation(
    t: Tournament, left: list[int], right: list[int]
) -> Optional[RuleWitness]:
    for a in left:
        for b in left:
            if b == a:
                continue
            for c in right:
                if not t.has_arc(c, a) or not t.has_arc(c, b):
                    continue
                for d in right:
                    if d != c and t.has_arc(d, a) and not t.has_arc(d, b):
                        return RuleWitness(
                            2, (("a", a), ("b", b), ("c", c), ("d", d))
                        )
    return None


def _path_endpoints(
    components: list[list[int]], pos: list[int], u: int, w: int
) -> Optional[tuple[int, int]]:
    """Some same-component pair (a, b) with a at-or-before u and b at-or-after
    w; endpoints picked at the extreme positions for determinism."""
    for comp in components:
        a = min(comp, key=lambda v: pos[v])
        b = max(comp, key=lambda v: pos[v])
        if pos[a] <= pos[u] and pos[b] >= pos[w]:
            return a, b
    return None


def _rule3_violation(
    t: Tournament, left: list[int], right: list[int], pos: list[int],
    components_left: list[list[int]],
) -> Optional[RuleWitness]:
    for v in right:
        for u in left:
            if not t.has_arc(v, u):
                continue
            for w in left:
                if pos[w] <= pos[u] or not t.has_arc(v, w):
                    continue
                ends = _path_endpoints(components_left, pos, u, w)
                if ends is not None:
                    a, b = ends
                    return RuleWitness(
                        3, (("a", a), ("b", b), ("u", u), ("v", v), ("w", w))
                    )
    return None


def _rule4_violation(
    t: Tournament, left: list[int], right: list[int], pos: list[int],
    components_right: list[list[int]],
) -> Optional[RuleWitness]:
    for v in left:
        for u in right:
            if not t.has_arc(u, v):
                continue
            for w in right:
                if pos[w] <= pos[u] or not t.has_arc(w, v):
                    continue
                ends = _path_endpoints(components_right, pos, u, w)
                if ends is not None:
                    a, b = ends
                    return RuleWitness(
                        4, (("a", a), ("b", b), ("u", u), ("v", v), ("w", w))
                    )
    return None


def _require_minimum(t: Tournament, ordering: Sequence[int], value: int) -> None:
    if clique_number(backedge_graph(t, ordering)) != value:
        raise ValueError("ordering does not achieve the minimum clique number")


def check_cell(t: Tournament, ordering: Sequence[int], x: int) -> CellResult:
    """Evaluate the four rules for one (minimum ordering, pivot) cell.

    Returns the first violated rule with a deterministic witness and records
    every violated rule id; the ordering must achieve the minimum."""
    ordering = check_ordering(ordering, t.n)
    if not 0 <= x < t.n:
        raise ValueError(f"pivot {x} out of range")
    _require_minimum(t, ordering, omega(t).value)
    return _evaluate_cell(t, ordering, _positions(ordering), x)


def _positions(ordering: tuple[int, ...]) -> list[int]:
    pos = [0] * len(ordering)
    for i, v in enumerate(ordering):
        pos[v] = i
    return pos


def _evaluate_cell(
    t: Tournament, ordering: tuple[int, ...], pos: list[int], x: int
) -> CellResult:
    """The rules at pivot ``x`` of a validated minimum ordering."""
    px = pos[x]
    left = sorted((v for v in range(t.n) if pos[v] < px))
    right = sorted((v for v in range(t.n) if pos[v] >= px))

    violations: list[RuleWitness] = []
    if not left:
        violations.append(RuleWitness(1, ()))
    witness2 = _rule2_violation(t, left, right)
    if witness2 is not None:
        violations.append(witness2)
    comp_left = _components(t, left, pos)
    witness3 = _rule3_violation(t, left, right, pos, comp_left)
    if witness3 is not None:
        violations.append(witness3)
    comp_right = _components(t, right, pos)
    witness4 = _rule4_violation(t, left, right, pos, comp_right)
    if witness4 is not None:
        violations.append(witness4)

    first = min(violations, key=lambda wit: wit.rule) if violations else None
    return CellResult(
        ordering, x, first, tuple(sorted(wit.rule for wit in violations))
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
    cells = []
    excluded = True
    for ordering in enumerate_omega_orderings(t, first_vertex, deadline=deadline):
        _require_minimum(t, ordering, value)
        pos = _positions(ordering)
        for x in range(t.n):
            cell = _evaluate_cell(t, ordering, pos, x)
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
