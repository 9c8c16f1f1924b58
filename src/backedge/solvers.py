"""Exact solvers: ordering clique number, acyclic partition number, ordering
enumeration, pairwise forcing, and extremal-witness search.

The ordering searches build orderings left to right on an explicit stack.
A prefix fixes every backedge among its vertices, and every backedge from
an unplaced vertex into it.  Forward checking kills a prefix once some
unplaced vertex beats a k-clique of its backedge graph, since placing that
vertex must close a (k+1)-clique; only prefixes without a completion die,
so surviving branches, their order and the first witnesses are unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ._sat import Solver
from .core import (
    Deadline,
    Digraph,
    Tournament,
    _backedge_masks,
    _bits,
    backedge_graph,
    check_ordering,
    clique_number,
    directed_cycle,
    directed_triangle,
    has_clique_in_mask,
    is_acyclic,
)
from .generation import canonical_tournaments


@dataclass
class SearchStats:
    nodes: int = 0


@dataclass(frozen=True)
class OmegaResult:
    value: int
    witness: tuple[int, ...]
    nodes: int = 0


@dataclass(frozen=True)
class DecideResult:
    decision: bool
    witness: Optional[tuple[int, ...]]
    nodes: int = 0

    def __bool__(self) -> bool:
        return self.decision


@dataclass(frozen=True)
class ChiResult:
    value: int
    classes: tuple[tuple[int, ...], ...]
    conflicts: int = 0


@dataclass(frozen=True)
class ChiDecideResult:
    decision: bool
    classes: Optional[tuple[tuple[int, ...], ...]]
    conflicts: int = 0

    def __bool__(self) -> bool:
        return self.decision


@dataclass(frozen=True)
class ForcingResult:
    holds: bool
    vacuous: bool
    counterexample: Optional[tuple[int, ...]]
    nodes: int = 0

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class MinOrderResult:
    n: int
    witness: Tournament


def iter_orderings_with_clique_at_most(
    d: Digraph,
    k: int,
    *,
    first_vertex: Optional[int] = None,
    before: Optional[tuple[int, int]] = None,
    deadline: Deadline = Deadline(),
    stats: Optional[SearchStats] = None,
) -> Iterator[tuple[int, ...]]:
    """All orderings whose backedge graph has clique number <= k, lexicographically.

    `before=(a, b)` restricts the stream to orderings placing a before b.
    `stats.nodes` counts the prefixes that survive the forward check, updated before each yield.
    """
    if k < 1:
        raise ValueError("clique bound must be positive")
    n = d.n
    if first_vertex is not None and not 0 <= first_vertex < n:
        raise ValueError(f"first vertex {first_vertex} out of range")
    for vertex in before or ():
        if not 0 <= vertex < n:
            raise ValueError(f"vertex {vertex} out of range")
    deadline.check()
    if n == 0:
        yield ()
        return
    rows = d.rows
    cols = d.cols
    full = (1 << n) - 1
    # the prefix's backedge masks; only the k >= 3 check reads them
    keep = k >= 3
    badj = [0] * n
    seq: list[int] = []
    # b is held back while a is unplaced
    gate, block = (1 << before[0], 1 << before[1]) if before is not None else (0, 0)
    placed = 0
    # avails[i]: the candidates still untried at position i of the prefix
    avails = [(full if first_vertex is None else 1 << first_vertex) & ~block]
    if stats is None:
        stats = SearchStats()
    node_count = flushed = 0  # the deadline poll reads the running total
    while avails:
        avail = avails[-1]
        if not avail:
            avails.pop()
            if seq:
                v = seq.pop()
                low = 1 << v
                placed ^= low
                if keep:
                    m = badj[v]
                    badj[v] = 0
                    while m:
                        lb = m & -m
                        badj[lb.bit_length() - 1] ^= low
                        m ^= lb
            continue
        low = avail & -avail
        avails[-1] = avail ^ low
        v = low.bit_length() - 1
        nb = rows[v] & placed
        # forward check: an unplaced c with c -> v that beats a
        # (k-1)-clique of nb closes a (k+1)-clique once it is placed
        threats = cols[v] & ~placed
        if k == 1:
            if threats:
                continue
        elif nb:
            while threats:
                lb = threats & -threats
                hit = rows[lb.bit_length() - 1] & nb
                if hit and (k == 2 or has_clique_in_mask(badj, hit, k - 1)):
                    break
                threats ^= lb
            if threats:
                continue
        node_count += 1
        if node_count & 0xFFF == 0:
            deadline.check()
        if keep:
            badj[v] = nb
            m = nb
            while m:
                lb = m & -m
                badj[lb.bit_length() - 1] |= low
                m ^= lb
        placed |= low
        seq.append(v)
        if placed == full:
            stats.nodes += node_count - flushed
            flushed = node_count
            yield tuple(seq)
        avails.append(full & ~placed & ~(block if gate & ~placed else 0))
    stats.nodes += node_count - flushed


def omega_decide(
    t: Digraph, k: int, *, deadline: Deadline = Deadline()
) -> DecideResult:
    """Does some ordering keep the backedge clique number at most k?

    The witness, when one exists, is the lexicographically smallest such
    ordering (the depth-first search tries vertices in ascending order).
    """
    stats = SearchStats()
    witness = next(
        iter_orderings_with_clique_at_most(t, k, deadline=deadline, stats=stats), None
    )
    return DecideResult(witness is not None, witness, stats.nodes)


def omega(t: Digraph, *, deadline: Deadline = Deadline()) -> OmegaResult:
    """Exact ordering clique number with canonical witness, by incremental
    decision calls."""
    if t.n == 0:
        raise ValueError("omega of the empty tournament is undefined")
    nodes = 0
    for k in itertools.count(1):
        res = omega_decide(t, k, deadline=deadline)
        nodes += res.nodes
        if res.decision:
            return OmegaResult(k, res.witness, nodes)
    raise AssertionError("unreachable")


def minimum_ordering(
    t: Digraph, ordering: Sequence[int], *, deadline: Deadline = Deadline()
) -> OmegaResult:
    """Exact ordering clique number with ``ordering``, once it is proved
    minimum.

    An ordering whose backedge graph has clique number c is minimum exactly
    when no ordering keeps the clique number at most c - 1, which one
    refutation proves (c = 1 needs none)."""
    ordering = check_ordering(ordering, t.n)
    value = clique_number(backedge_graph(t, ordering))
    nodes = 0
    if value > 1:
        refutation = omega_decide(t, value - 1, deadline=deadline)
        if refutation.decision:
            raise ValueError("ordering does not achieve the minimum clique number")
        nodes = refutation.nodes
    return OmegaResult(value, ordering, nodes)


def enumerate_omega_orderings(
    t: Digraph, *, deadline: Deadline = Deadline(), stats: Optional[SearchStats] = None
) -> Iterator[tuple[int, ...]]:
    """All orderings achieving the exact minimum clique number, in lexicographic
    order."""
    value = omega(t, deadline=deadline).value
    yield from iter_orderings_with_clique_at_most(
        t, value, deadline=deadline, stats=stats
    )


def omega_by_enumeration(t: Digraph) -> int:
    """Independent oracle: scan every permutation and take the minimum backedge
    clique number.  Exact but factorial; for cross-validating the search."""
    n = t.n
    if n == 0:
        raise ValueError("omega of the empty tournament is undefined")
    full = (1 << n) - 1
    # every ordering of a non-acyclic digraph has a backward arc
    floor = 1 if is_acyclic(t) else 2
    best = n
    for perm in itertools.permutations(range(n)):
        adj = _backedge_masks(t.rows, perm)
        if best == n or has_clique_in_mask(adj, full, best) is None:
            # exact value for this ordering: largest size still carrying a clique
            val = 1
            for size in range(2, best + 1):
                if has_clique_in_mask(adj, full, size) is None:
                    break
                val = size
            if val < best:
                best = val
            if best <= floor:
                break
    return best


def chi_decide(
    d: Digraph, k: int, *, deadline: Deadline = Deadline()
) -> ChiDecideResult:
    """Can the vertices be split into k classes, each inducing an acyclic
    subdigraph?

    Encodes class membership as booleans and refutes/extends with a
    conflict-driven search; directed-cycle constraints are seeded for all
    triangles of moderate-size tournaments and otherwise cut lazily, through
    `Solver.solve_with_cuts`, from each cyclic candidate class, for every k.
    The deadline is polled once per first vertex while seeding, once per round
    of cuts in the driver, and every 256 conflicts inside the search.

    Classes are interchangeable, so vertex 0 is pinned to class 0.  For
    k >= 3 the symmetry among the other classes is broken on two more
    vertices: a and b of the first directed triangle 0 -> a -> b -> 0
    (lowest a, then lowest b), or a, b = 1, 2 when vertex 0 lies on none.
    Vertex a takes class 0 or 1, b takes class 0, 1 or 2, and b takes
    class 2 only when a takes class 1.  Any acyclic partition can be
    relabelled to meet this by swapping classes other than 0: first move a
    into class 1 unless it is in class 0.  If a is in class 0 and b in class
    2 or above, move b into class 1, which a is not in.  Otherwise, if b is
    in class 3 or above, move b into class 2, which holds neither 0 nor a.
    Swaps keep every class acyclic, so no partition is lost.  On a triangle
    the class-0 cut keeps b out of a's class 0, so a in class 0 fixes b in
    class 1, which is why the triangle is chosen.
    """
    if k < 1:
        raise ValueError("class count must be positive")
    n = d.n
    if k >= n:
        return ChiDecideResult(True, tuple((v,) for v in range(n)))

    solver = Solver(n * k)
    # var(v, c) = v * k + c has the negative literal negs[v] + 2 * c
    negs = [2 * k * v + 1 for v in range(n)]
    shifts = range(0, 2 * k, 2)

    def seed_clauses() -> Iterator[list[int]]:
        for base in negs:
            yield [base - 1 + c for c in shifts]
        # classes are interchangeable: pin vertex 0 to class 0 (literal 0 is
        # var(0, 0) true, literal 1 + c is var(0, c // 2) false)
        yield [0]
        for c in shifts[1:]:
            yield [1 + c]
        if k >= 3:
            # the docstring's a and b: a in class 0 or 1, b in class 0, 1 or
            # 2, and b in class 0 or 1 while a is in class 0.  The first
            # directed triangle starts at vertex 0 if any triangle does.
            triangle = directed_triangle(d)
            pair = triangle[1:] if triangle is not None and triangle[0] == 0 else (1, 2)
            na, nb = (negs[v] for v in pair)
            for c in shifts[2:]:
                yield [na + c]
            for c in shifts[2:]:
                yield [na, nb + c]
            for c in shifts[3:]:
                yield [nb + c]
        if isinstance(d, Tournament) and n <= 256:
            # in a tournament every directed cycle contains a directed
            # triangle, so triangle cuts alone are complete
            rows, cols = d.rows, d.cols
            for u in range(n):
                deadline.check()
                high = ~((1 << (u + 1)) - 1)
                pairs = [(negs[v], negs[w]) for v in _bits(rows[u] & high)
                         for w in _bits(rows[v] & cols[u] & high)]
                if u:
                    a = negs[u]
                    yield from [[a + c, b + c, e + c] for b, e in pairs for c in shifts]
                else:
                    # the pins satisfy the cuts of classes 1.. and falsify
                    # vertex 0's literal in class 0; this is the clause the
                    # loader would keep.  The full cuts give the same clauses
                    # and conflicts, but each fails the loader's screen: chi on
                    # 120 random tournaments with n = 22-24 ran 6-19% slower
                    # (best of 3, 2-vCPU Xeon VM).
                    yield from [[b, e] for b, e in pairs]

    solver.add_clauses(seed_clauses())

    def class_masks(model: list[bool]) -> list[int]:
        masks = [0] * k  # a vertex joins its lowest true class
        for v in range(n):
            masks[model[v * k:v * k + k].index(True)] |= 1 << v
        return masks

    def separate(model: list[bool]) -> list[list[int]]:
        for mask in class_masks(model):  # the first cyclic class, cut in every class
            cycle = directed_cycle(d, mask)
            if cycle is not None:
                return [[negs[v] + c for v in cycle] for c in shifts]
        return []

    model = solver.solve_with_cuts(separate, deadline)
    classes = None if model is None else tuple(tuple(_bits(m)) for m in class_masks(model) if m)
    return ChiDecideResult(model is not None, classes, solver.conflicts)


def chi(d: Digraph, *, deadline: Deadline = Deadline()) -> ChiResult:
    """Exact acyclic partition number with a witness partition.

    ``conflicts`` sums the conflicts of every k tried, the refuted k below
    the value included."""
    if d.n == 0:
        raise ValueError("chi of the empty digraph is undefined")
    conflicts = 0
    for k in itertools.count(1):
        res = chi_decide(d, k, deadline=deadline)
        conflicts += res.conflicts
        if res.decision:
            return ChiResult(k, res.classes, conflicts)
    raise AssertionError("unreachable")


def forcing_holds(
    d: Digraph, u: int, v: int, k: int, *, deadline: Deadline = Deadline()
) -> ForcingResult:
    """Does every ordering with backedge clique number <= k place u before v?

    False comes with a counterexample ordering.  When no ordering achieves
    clique number <= k at all (`omega_decide`, whose nodes are counted too),
    the claim holds vacuously and the result is flagged as such.
    """
    if u == v:
        raise ValueError("u and v must differ")
    stats = SearchStats()
    counter = next(
        iter_orderings_with_clique_at_most(
            d, k, before=(v, u), deadline=deadline, stats=stats
        ),
        None,
    )
    if counter is not None:
        return ForcingResult(False, False, counter, stats.nodes)
    some = omega_decide(d, k, deadline=deadline)
    return ForcingResult(True, not some.decision, None, stats.nodes + some.nodes)


def min_order_with_omega(
    k: int, n_max: int, *, deadline: Deadline = Deadline()
) -> Optional[MinOrderResult]:
    """Smallest n <= n_max carrying a tournament of ordering clique number
    exactly k, with the first such tournament in canonical generation order."""
    if k < 1 or n_max < 1:
        raise ValueError("k and n_max must be positive")
    for n in range(1, n_max + 1):
        for t in canonical_tournaments(n):
            deadline.check()
            if omega(t, deadline=deadline).value == k:
                return MinOrderResult(n, t)
    return None
