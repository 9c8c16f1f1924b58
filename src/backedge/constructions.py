"""Composition operators and parametric tournament constructions.

``chain`` is the single composition primitive behind every front-to-back
construction: ``arrow``, the cyclic composition ``delta`` and its
single-vertex ``lift`` (and so the gadget assembly), the amplifier, the
two-sided variant and the 3-SAT reduction all lay out blocks with every arc
pointing forward and then flip a chosen set of arcs.  The copy-amplification
construction preserves the ordering clique number while forcing copies of
the base into every vertex subset or its complement, the two-sided variant
raises the acyclic partition number, and the recursive family is built
from the directed triangle.

Copy bookkeeping conventions (all deterministic):
  * label subsets are enumerated in colexicographic order;
  * the i-th vertex of a copy's fixed ordering gets the i-th smallest
    label of the copy's subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Iterator, Optional, Union

from .core import Digraph, Tournament, is_transitive
from .solvers import Deadline, omega

DEFAULT_VERTEX_BUDGET = 100_000


class MaterializationRefused(Exception):
    """The requested construction exceeds the vertex budget; carries sizing."""

    def __init__(self, report: "SizingReport"):
        super().__init__(
            f"{report.construction} needs {report.total_vertices} vertices, "
            f"budget is {report.budget}"
        )
        self.report = report


@dataclass(frozen=True)
class SizingReport:
    construction: str
    parameters: tuple[tuple[str, int], ...]
    total_vertices: int
    materializable: bool
    budget: int

    def parameter(self, name: str) -> int:
        for key, value in self.parameters:
            if key == name:
                return value
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "construction": self.construction,
            "parameters": dict(self.parameters),
            "total_vertices": self.total_vertices,
            "materializable": self.materializable,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class CopyInfo:
    role: str  # "copy" in the amplifier; "A", "B" or "C" in the two-sided variant
    block: int
    family: Optional[int]  # label-subset index; None for the middle copy
    start: int
    size: int
    psi: Optional[tuple[int, ...]]  # local vertex -> label

    @property
    def span(self) -> tuple[int, int]:
        return self.start, self.start + self.size

    def vertices(self) -> range:
        return range(self.start, self.start + self.size)


@dataclass(frozen=True)
class CopyLayout:
    base_size: int
    label_universe: int
    subsets: tuple[tuple[int, ...], ...]  # family index -> label subset
    copies: tuple[CopyInfo, ...]

    def to_dict(self) -> dict:
        return {
            "base_size": self.base_size,
            "label_universe": self.label_universe,
            "subsets": [list(s) for s in self.subsets],
            "copies": [
                {
                    "role": c.role,
                    "block": c.block,
                    "family": c.family,
                    "start": c.start,
                    "size": c.size,
                    "psi": None if c.psi is None else list(c.psi),
                }
                for c in self.copies
            ],
        }


@dataclass(frozen=True)
class BuiltTournament:
    tournament: Tournament
    ordering: tuple[int, ...]
    layout: Optional[CopyLayout]


@dataclass(frozen=True)
class Lift:
    """The single-vertex cyclic composition: v beats the inner part, the
    inner part beats the outer part, the outer part beats v."""

    digraph: Digraph
    v: int
    inner_span: tuple[int, int]
    outer_span: tuple[int, int]


def tt(n: int) -> Tournament:
    """Transitive tournament: arc i -> j whenever i < j."""
    if n < 0:
        raise ValueError("n must be non-negative")
    full = (1 << n) - 1
    return Tournament(n, tuple((full >> (i + 1)) << (i + 1) for i in range(n)))


def c3() -> Tournament:
    return Tournament.from_arcs(3, [(0, 1), (1, 2), (2, 0)])


def chain(blocks: Iterable[Digraph], flipped: Iterable[tuple[int, int]] = ()) -> Digraph:
    """Disjoint union of the blocks, laid out front to back, plus every arc
    from an earlier block to a later one; then each pair ``(w, u)`` of
    ``flipped``, with ``w`` in a later block than ``u``, is reversed to run
    ``w -> u``.  ``flipped`` is consumed once, so it may be a generator.
    The result is a Tournament when every block is one, else a Digraph."""
    blocks = list(blocks)
    total = sum(b.n for b in blocks)
    rows: list[int] = []
    for b in blocks:
        start = len(rows)
        later = ((1 << (total - start - b.n)) - 1) << (start + b.n)
        rows.extend((row << start) | later for row in b.rows)
    for w, u in flipped:
        rows[u] &= ~(1 << w)
        rows[w] |= 1 << u
    cls = Tournament if all(isinstance(b, Tournament) for b in blocks) else Digraph
    return cls(total, tuple(rows))


def arrow(d1: Digraph, d2: Digraph) -> Digraph:
    """Disjoint union plus every arc from the first part to the second."""
    return chain([d1, d2])


def delta(t1: Digraph, t2: Digraph, t3: Digraph) -> Digraph:
    """Three disjoint parts with all arcs part1->part2, part2->part3, part3->part1:
    the chain of the three parts with every part3-part1 arc flipped."""
    n12 = t1.n + t2.n
    part1, part3 = range(t1.n), range(n12, n12 + t3.n)
    return chain([t1, t2, t3], product(part3, part1))


def lift(d: Digraph, w: Digraph) -> Lift:
    """delta(tt(1), d, w) with landmarks: the extra vertex is 0, then d, then w."""
    composite = delta(tt(1), d, w)
    return Lift(composite, 0, (1, 1 + d.n), (1 + d.n, 1 + d.n + w.n))


def _colex_subsets(universe: int, size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        sorted(combinations(range(universe), size), key=lambda s: tuple(reversed(s)))
    )


def _label_flips(
    layout: CopyLayout,
    omega_ordering: tuple[int, ...],
    pairs: Iterable[tuple[CopyInfo, CopyInfo]],
) -> Iterator[tuple[int, int]]:
    """For each (earlier, later) pair of copies, the pairs ``(w, u)`` joining
    the two vertices that carry the same label, ``w`` in the later copy."""
    vertex_of = [dict(zip(labels, omega_ordering)) for labels in layout.subsets]
    for a, b in pairs:
        for label in set(layout.subsets[a.family]).intersection(layout.subsets[b.family]):
            yield b.start + vertex_of[b.family][label], a.start + vertex_of[a.family][label]


def _copy_ordering(layout: CopyLayout, omega_ordering: tuple[int, ...]) -> tuple[int, ...]:
    """Each copy in turn, ordered by the base's minimum ordering."""
    return tuple(c.start + v for c in layout.copies for v in omega_ordering)


def amplifier_sizing(
    n: int, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> SizingReport:
    """Vertex count n^2 * C(n(n-1)+1, n) of the amplifier over an n-vertex base."""
    if n < 1:
        raise ValueError("base size must be positive")
    universe = n * (n - 1) + 1
    m = math.comb(universe, n)
    total = n * n * m
    return SizingReport(
        "amplifier",
        (("n", n), ("label_universe", universe), ("m", m), ("copies", n * m)),
        total,
        total <= vertex_budget,
        vertex_budget,
    )


def pi_sizing(n: int, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> SizingReport:
    """Vertex count n * (2*C(2n-1, n) + 1) of the two-sided construction."""
    if n < 1:
        raise ValueError("base size must be positive")
    universe = 2 * n - 1
    m = math.comb(universe, n)
    total = n * (2 * m + 1)
    return SizingReport(
        "pi",
        (("n", n), ("label_universe", universe), ("m", m), ("copies", 2 * m + 1)),
        total,
        total <= vertex_budget,
        vertex_budget,
    )


def amplifier(
    t: Tournament, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    deadline: Optional[Deadline] = None,
) -> BuiltTournament:
    """Tournament with the same ordering clique number as ``t`` in which every
    vertex subset or its complement contains a copy of ``t``.

    Transitive bases take the short route ``t -> t``.  Any other base over
    the vertex budget is refused before it is searched; otherwise n*m copies
    are chained front-to-back (m per block, one block per position of the
    base ordering) and the arc between equal-label vertices of two copies is
    flipped exactly when the base has the arc from the later copy's block
    vertex to the earlier copy's block vertex.
    """
    n = t.n
    transitive = is_transitive(t)
    if not transitive:
        sizing = amplifier_sizing(n, vertex_budget=vertex_budget)
        if not sizing.materializable:
            raise MaterializationRefused(sizing)
    omega_ordering = omega(t, deadline=deadline).witness

    if transitive:
        doubled = arrow(t, t)
        ordering = omega_ordering + tuple(v + n for v in omega_ordering)
        return BuiltTournament(doubled, ordering, None)

    universe = sizing.parameter("label_universe")
    m = sizing.parameter("m")
    ncopies = n * m

    pos = {v: i for i, v in enumerate(omega_ordering)}
    subsets = _colex_subsets(universe, n)
    copies = []
    for c in range(ncopies):
        family = c % m
        psi = tuple(subsets[family][pos[v]] for v in range(n))
        copies.append(CopyInfo("copy", c // m, family, c * n, n, psi))
    layout = CopyLayout(n, universe, subsets, tuple(copies))
    # flip matching-label arcs between copies of distinct blocks when the base
    # arc runs from the later block's vertex to the earlier block's vertex
    pairs = (
        (a, b)
        for a, b in combinations(copies, 2)
        if a.block != b.block
        and t.has_arc(omega_ordering[b.block], omega_ordering[a.block])
    )
    built = chain([t] * ncopies, _label_flips(layout, omega_ordering, pairs))
    return BuiltTournament(built, _copy_ordering(layout, omega_ordering), layout)


def pi(
    t: Tournament, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    deadline: Optional[Deadline] = None,
) -> BuiltTournament:
    """Two-sided copy construction: m front copies, a middle copy, m back
    copies, chained front-to-back; the arc between a front and a back vertex
    is flipped exactly when their labels agree.  Front copy j and back copy j
    share the same label map."""
    if t.n == 0:
        raise ValueError("base tournament must be nonempty")
    n = t.n
    sizing = pi_sizing(n, vertex_budget=vertex_budget)
    if not sizing.materializable:
        raise MaterializationRefused(sizing)
    omega_ordering = omega(t, deadline=deadline).witness

    universe = sizing.parameter("label_universe")
    m = sizing.parameter("m")
    ncopies = 2 * m + 1
    pos = {v: i for i, v in enumerate(omega_ordering)}
    subsets = _colex_subsets(universe, n)
    psi_family = [tuple(subsets[j][pos[v]] for v in range(n)) for j in range(m)]

    copies = []
    for j in range(m):
        copies.append(CopyInfo("A", 0, j, j * n, n, psi_family[j]))
    copies.append(CopyInfo("B", 1, None, m * n, n, None))
    for j in range(m):
        copies.append(CopyInfo("C", 2, j, (m + 1 + j) * n, n, psi_family[j]))
    layout = CopyLayout(n, universe, subsets, tuple(copies))

    front, back = copies[:m], copies[m + 1:]
    built = chain([t] * ncopies, _label_flips(layout, omega_ordering, product(front, back)))
    return BuiltTournament(built, _copy_ordering(layout, omega_ordering), layout)


def d_family(
    k: int, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> Union[Tournament, SizingReport]:
    """The recursive family: level 1 is the directed triangle, each further
    level applies the two-sided construction.  Levels 1 and 2 materialize;
    level 3 only admits symbolic sizing, and beyond that even the vertex
    count has astronomically many digits."""
    if k < 1:
        raise ValueError("k must be positive")
    if k == 1:
        return c3()
    if k == 2:
        return pi(c3(), vertex_budget=vertex_budget).tournament
    if k == 3:
        base = pi_sizing(3).total_vertices  # 63
        return pi_sizing(base, vertex_budget=vertex_budget)
    raise ValueError(
        "vertex counts beyond level 3 are too large even to write down"
    )


def cross_copy_backward_arcs(
    t: Tournament, layout: CopyLayout
) -> list[tuple[int, int]]:
    """All arcs running from a later copy to an earlier copy, i.e. the arcs
    the construction flipped; handy for structural audits."""
    flipped = []
    for idx, ci in enumerate(layout.copies):
        for cj in layout.copies[idx + 1:]:
            for w in cj.vertices():
                row = t.rows[w]
                for u in ci.vertices():
                    if row >> u & 1:
                        flipped.append((w, u))
    return flipped
