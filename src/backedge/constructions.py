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
from itertools import combinations
from typing import Callable, Iterable, Optional, Union

from .core import Deadline, Digraph, Tournament, _bits, is_acyclic
from .solvers import omega

DEFAULT_VERTEX_BUDGET = 100_000

# flip-mask updates per deadline poll of `chain`
_POLL_UPDATES = 4096


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
    budget: int

    @property
    def materializable(self) -> bool:
        return self.total_vertices <= self.budget

    def parameter(self, name: str) -> int:
        return dict(self.parameters)[name]

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


def chain(
    blocks: Iterable[Digraph], flips: Iterable[tuple[int, int]] = (),
    deadline: Deadline = Deadline(),
) -> Digraph:
    """Disjoint union of the blocks, laid out front to back, plus every arc
    from an earlier block to a later one; then, for each pair ``(A, B)`` of
    vertex masks in ``flips``, every arc between a vertex of A and a vertex
    of B is reversed, whichever way it runs.  An arc that several pairs
    cover is reversed once; a vertex in both A and B is refused as a
    self-arc.  (Precisely, both directions of each covered vertex pair are
    toggled: that reverses the one arc of a pair across blocks or inside a
    tournament block.)  ``flips`` is consumed once, so it may be a
    generator.  ``deadline`` is polled before each block and each
    `_POLL_UPDATES` mask updates.  The result is a Tournament when every
    block is one, else a Digraph."""
    blocks = list(blocks)
    total = sum(b.n for b in blocks)
    rows: list[int] = []
    cols: list[int] = []
    # columns come from the blocks' columns as rows from their rows, so the
    # result needs no transpose: every earlier block beats a block's vertices
    for b in blocks:
        deadline.check()
        start = len(rows)
        later = ((1 << (total - start - b.n)) - 1) << (start + b.n)
        earlier = (1 << start) - 1
        rows.extend((row << start) | later for row in b.rows)
        cols.extend((col << start) | earlier for col in b.cols)
    # one symmetric flip mask per touched vertex: toggling it in the vertex's
    # row and column keeps the columns the transpose of the rows
    flip: dict[int, int] = {}
    updates = 0
    for a, b in flips:
        for side, other in ((a, b), (b, a)):
            for v in _bits(side):
                if not updates % _POLL_UPDATES:
                    deadline.check()
                updates += 1
                flip[v] = flip.get(v, 0) | other
    deadline.check()
    for v, mask in flip.items():
        rows[v] ^= mask
        cols[v] ^= mask
    cls = Tournament if all(isinstance(b, Tournament) for b in blocks) else Digraph
    return cls._with_cols(total, tuple(rows), tuple(cols))


def arrow(d1: Digraph, d2: Digraph, deadline: Deadline = Deadline()) -> Digraph:
    """Disjoint union plus every arc from the first part to the second."""
    return chain([d1, d2], deadline=deadline)


def delta(t1: Digraph, t2: Digraph, t3: Digraph, deadline: Deadline = Deadline()) -> Digraph:
    """Three disjoint parts with all arcs part1->part2, part2->part3, part3->part1:
    the chain of the three parts with every part3-part1 arc flipped."""
    part1 = (1 << t1.n) - 1
    part3 = ((1 << t3.n) - 1) << (t1.n + t2.n)
    return chain([t1, t2, t3], [(part3, part1)], deadline)


def lift(d: Digraph, w: Digraph, deadline: Deadline = Deadline()) -> Lift:
    """delta(tt(1), d, w) with landmarks: the extra vertex is 0, then d, then w."""
    composite = delta(tt(1), d, w, deadline)
    return Lift(composite, 0, (1, 1 + d.n), (1 + d.n, 1 + d.n + w.n))


def _copy_sizing(
    construction: str, n: int, universe: int, copies: Callable[[int], int],
    vertex_budget: int,
) -> SizingReport:
    """Sizing of ``copies(m)`` copies of an n-vertex base, m = C(universe, n)."""
    if n < 1:
        raise ValueError("base size must be positive")
    m = math.comb(universe, n)
    ncopies = copies(m)
    return SizingReport(
        construction,
        (("n", n), ("label_universe", universe), ("m", m), ("copies", ncopies)),
        n * ncopies,
        vertex_budget,
    )


def amplifier_sizing(
    n: int, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> SizingReport:
    """Vertex count n^2 * C(n(n-1)+1, n) of the amplifier over an n-vertex base."""
    return _copy_sizing("amplifier", n, n * (n - 1) + 1, lambda m: n * m, vertex_budget)


def amplifier_route(
    t: Tournament, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> SizingReport:
    """Sizing of what `amplifier` builds over ``t``: two copies, 2n vertices,
    on the short route ``t -> t`` of a nonempty transitive base, else the
    copy construction of `amplifier_sizing`, which refuses an empty base."""
    n = t.n
    if not (n and is_acyclic(t)):
        return amplifier_sizing(n, vertex_budget=vertex_budget)
    return SizingReport("amplifier", (("n", n), ("copies", 2)), 2 * n, vertex_budget)


def pi_sizing(n: int, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET) -> SizingReport:
    """Vertex count n * (2*C(2n-1, n) + 1) of the two-sided construction."""
    return _copy_sizing("pi", n, 2 * n - 1, lambda m: 2 * m + 1, vertex_budget)


def _copy_construction(
    t: Tournament,
    sizing: SizingReport,
    deadline: Deadline,
    blocks: Iterable[tuple[str, Iterable[Optional[int]]]],
    flip: Callable[[int, int, tuple[int, ...]], bool],
) -> BuiltTournament:
    """Copies of ``t`` chained front to back, with label-matched arcs flipped.

    ``blocks`` gives, block by block, the role of its copies and the label
    family of each (None: unlabelled).  For each earlier block i and later
    block j with ``flip(i, j, base_ordering)``, every arc between two of
    their vertices of equal label is reversed: one biclique per label.
    """
    order = omega(t, deadline=deadline).witness
    n, universe = t.n, sizing.parameter("label_universe")
    subsets = tuple(sorted(combinations(range(universe), n), key=lambda s: s[::-1]))
    pos = {v: i for i, v in enumerate(order)}
    copies = []
    label_masks = []  # block -> label -> mask of the block's vertices carrying it
    for block, (role, families) in enumerate(blocks):
        masks = [0] * universe
        for family in families:
            start = len(copies) * n
            psi = None if family is None else tuple(subsets[family][pos[v]] for v in range(n))
            copies.append(CopyInfo(role, block, family, start, n, psi))
            for v, label in enumerate(psi or ()):
                masks[label] |= 1 << (start + v)
        label_masks.append(masks)
    flips = [
        (label_masks[late][label], label_masks[early][label])
        for early, late in combinations(range(len(label_masks)), 2)
        if flip(early, late, order)
        for label in range(universe)
    ]
    built = chain([t] * len(copies), flips, deadline)
    deadline.check()
    ordering = tuple(c.start + v for c in copies for v in order)
    return BuiltTournament(built, ordering, CopyLayout(n, universe, subsets, tuple(copies)))


def amplifier(
    t: Tournament, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    deadline: Deadline = Deadline(),
) -> BuiltTournament:
    """Tournament with the same ordering clique number as ``t`` in which every
    vertex subset or its complement contains a copy of ``t``.

    The route and its size are `amplifier_route`'s, and a request over the
    vertex budget is refused before the base is searched.  Transitive bases
    take the short route ``t -> t``; otherwise n*m copies are chained
    front-to-back (m per block, one block per position of the base ordering)
    and the arc between equal-label vertices of two copies is flipped
    exactly when the base has the arc from the later copy's block vertex to
    the earlier copy's block vertex.
    """
    n = t.n
    sizing = amplifier_route(t, vertex_budget=vertex_budget)
    if not sizing.materializable:
        raise MaterializationRefused(sizing)
    if "m" not in dict(sizing.parameters):  # the short route
        order = omega(t, deadline=deadline).witness
        return BuiltTournament(arrow(t, t), order + tuple(v + n for v in order), None)
    return _copy_construction(
        t, sizing, deadline, [("copy", range(sizing.parameter("m")))] * n,
        lambda early, late, order: t.has_arc(order[late], order[early]),
    )


def pi(
    t: Tournament, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    deadline: Deadline = Deadline(),
) -> BuiltTournament:
    """Two-sided copy construction: m front copies, a middle copy, m back
    copies, chained front-to-back; the arc between a front and a back vertex
    is flipped exactly when their labels agree.  Front copy j and back copy j
    share the same label map.  A request over the vertex budget is refused
    before the base is searched."""
    sizing = pi_sizing(t.n, vertex_budget=vertex_budget)
    if not sizing.materializable:
        raise MaterializationRefused(sizing)
    families = range(sizing.parameter("m"))
    return _copy_construction(
        t, sizing, deadline, [("A", families), ("B", [None]), ("C", families)],
        lambda early, late, order: (early, late) == (0, 2),
    )


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
