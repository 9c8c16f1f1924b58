"""Exact solvers: ordering clique number, acyclic partition number, ordering
enumeration, pairwise forcing, and extremal-witness search.

The ordering searches build orderings left to right on an explicit stack,
in one loop (`_prefix_search`) that reads its kill rule from per-symbol
tables; `subword.solve_pass` is its other caller, at k = 2.  The
restrictions `first_vertex` and `before` are entries of those tables, not
code of the loop.  A prefix fixes every backedge among its vertices, and
every backedge from an unplaced vertex into it.  Forward checking kills a
prefix once some unplaced vertex beats a k-clique of its backedge graph,
since placing that vertex must close a (k+1)-clique; only prefixes without
a completion die, so surviving branches, their order and the first
witnesses are unchanged.

For k <= 2 the kill tables and the forward check read only the prefix's
vertex set, so the subtree below a surviving prefix (its completions, their
order and its node count) depends on that set alone.  The search stores it
per set as the set's level pops and replays it when a later prefix reaches
the same set: the Held-Karp subset recursion (Held & Karp 1962), run lazily
inside the depth-first search.  One list holds each ordering found, once
and in stream order, and a set stores the index range of its completions
in it and its node count.  The orderings of a replayed two-vertex set stay
out of the list: the one-vertex set around them is reached once, so it is
never replayed.  Before the first ordering every stored set is dead, so
decision callers get nogood caching and exact first-witness node counts.
For k >= 3 the check reads the prefix's backedges, which fix the order of
its vertices, so no key would repeat and nothing is stored.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from ._sat import Solver
from .core import (
    Deadline,
    Digraph,
    Tournament,
    _backedge_masks,
    _bits,
    _reach,
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

    `first_vertex=f` restricts the stream to orderings starting with f, and
    `before=(a, b)` to orderings placing a before b.  Both are kill-table
    entries of `_prefix_search`: f unplaced kills every other vertex, and a
    unplaced kills b, so the vertices they reject are skipped uncounted.
    Before each yield and once the stream ends, `stats.nodes` is set to its
    value on entry plus the prefixes that have survived the forward check;
    a replayed subtree (k <= 2) is counted by its stored size, added before
    its first ordering is yielded, so during a replay the count may run
    ahead of the orderings seen so far.  The deadline is polled on entry,
    once per 4,096 prefixes the search expands, and once per 4,096
    orderings a replay yields.
    """
    if k < 1:
        raise ValueError("clique bound must be positive")
    n = d.n
    if first_vertex is not None and not 0 <= first_vertex < n:
        raise ValueError(f"first vertex {first_vertex} out of range")
    for vertex in before or ():
        if not 0 <= vertex < n:
            raise ValueError(f"vertex {vertex} out of range")
    if before is not None and before[0] == before[1]:
        raise ValueError("before needs two distinct vertices")
    # an unplaced c with c -> v kills v at k = 1, and is a closer above that
    kills, threats = (list(d.cols), [0] * n) if k == 1 else ([0] * n, d.cols)
    if before is not None:
        kills[before[1]] |= 1 << before[0]
    if first_vertex is not None:
        for v in range(n):
            if v != first_vertex:
                kills[v] |= 1 << first_vertex
    yield from _prefix_search(
        n, k, kills, threats, d.rows, [d.rows] * n, deadline=deadline, stats=stats
    )


def _prefix_search(
    n: int, k: int, kills: Sequence[int], threats: Sequence[int], backs: Sequence[int],
    pairs: Sequence[Sequence[int] | Mapping[int, int]], *, deadline: Deadline = Deadline(),
    stats: Optional[SearchStats] = None,
) -> Iterator[tuple[int, ...]]:
    """The search of both callers (module docstring) over the permutations of
    n symbols.  Placing v kills the prefix when ``kills[v]`` meets the
    unplaced symbols, or when some unplaced c of ``threats[v]`` has
    ``pairs[v][c] & backs[v] & placed`` hold a (k-1)-clique of the prefix's
    backedge graph; at k <= 2 that reads only the placed set.  A killed
    placement is not a node.  Restrictions on the order, such as a first
    symbol or one symbol before another, enter as ``kills`` entries."""
    deadline.check()
    if n == 0:
        yield ()
        return
    full = (1 << n) - 1
    # the prefix's backedge masks; only the k >= 3 check reads them
    keep = k >= 3
    badj = [0] * n
    seq: list[int] = []
    placed = 0
    # avails[i]: the candidates still untried at position i of the prefix
    avails = [full]
    if stats is None:
        stats = SearchStats()
    entry = stats.nodes
    # k <= 2 only (module docstring): out holds each ordering found so far
    # once, and done[set] = (start, end, its subtree's node count), the set's
    # completions being out[start:end], stored as the set's level pops.
    # marks runs with avails below the root and above the leaves: per level,
    # len(out) and the node total on entry.
    done: dict[int, tuple[int, int, int]] = {}
    out: list[tuple[int, ...]] = []
    marks: list[tuple[int, int]] = []
    # node_count: the prefixes expanded here, which the deadline poll
    # reads; skipped: those of replayed subtrees
    node_count = skipped = 0
    while avails:
        avail = avails[-1]
        if not avail:
            avails.pop()
            if seq:
                v = seq.pop()
                low = 1 << v
                if keep:
                    m = badj[v]
                    badj[v] = 0
                    while m:
                        lb = m & -m
                        badj[lb.bit_length() - 1] ^= low
                        m ^= lb
                elif placed != full:
                    start, nodes = marks.pop()
                    done[placed] = (start, len(out), node_count + skipped - nodes)
                placed ^= low
            continue
        low = avail & -avail
        avails[-1] = avail ^ low
        v = low.bit_length() - 1
        rest = full ^ placed ^ low
        if kills[v] & rest:
            continue
        nb = backs[v] & placed
        if nb:
            # forward check: an unplaced closer c whose pair mask meets a
            # (k-1)-clique of nb closes a (k+1)-clique once it is placed
            threat = threats[v] & rest
            pair = pairs[v]
            while threat:
                lb = threat & -threat
                hit = pair[lb.bit_length() - 1] & nb
                if hit and (k == 2 or has_clique_in_mask(badj, hit, k - 1)):
                    break
                threat ^= lb
            if threat:
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
            ordering = tuple(seq)
            if not keep:
                out.append(ordering)
            stats.nodes = entry + node_count + skipped
            yield ordering
        elif not keep:
            stored = done.get(placed)
            if stored is not None:
                # replay the set's subtree, polling once per block of
                # orderings.  Its chunks join out only inside a set of two or
                # more vertices (depth > 2): the ranges of one-vertex sets
                # miss them, but are never read.
                start, end, count = stored
                skipped += count
                if end > start:
                    stats.nodes = entry + node_count + skipped
                    head = tuple(seq)
                    depth = len(head)
                    for i in range(start, end, 0x1000):
                        deadline.check()
                        chunk = [head + o[depth:] for o in out[i:min(i + 0x1000, end)]]
                        if depth > 2:
                            out += chunk
                        yield from chunk
                seq.pop()
                placed ^= low
                continue
            marks.append((len(out), node_count + skipped))
        avails.append(rest)
    stats.nodes = entry + node_count + skipped


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


class _ClassSolver(Solver):
    """`Solver` over chi_decide's encoding, var(v, c) = v * k + c, that
    keeps each class acyclic by propagating the directed cycles inside it.

    Clause propagation runs to its fixpoint first.  Then each newly true
    x(u, c) is checked against the members of class c: ``outs`` is the
    union of the out-neighbours of the members u reaches through members,
    and ``ins`` that of the in-neighbours of the members that reach u, each
    grown level by level (`core._reach`).  No member both is reached from u
    and reaches u: that would close a cycle C through u, yet the member m
    of C checked last ran its check to the end, since a conflict would have
    undone m, and u closed C through m then, so that check left x(u, c)
    false at a level no higher than m's, where it stays while m does.  A w
    in ``(outs | rows[u]) & (ins | cols[u])`` closes a cycle through u and
    w: already in class c it is a conflict, unassigned it gets x(w, c)
    false.  Only such a reason or conflict enters the database, as the
    clause of one directed cycle through u and w: the triangle w, u, v with
    v the lowest member that closes one, else the digon w <-> u, else the
    cycle `directed_cycle` finds among the members, u and w.  Every class
    stays acyclic and no unexcluded w closes a cycle with the members alone,
    so every cycle there passes through u and w.  A reason watches the
    implied literal and -x(u, c), its false literal of highest level, and a
    conflict watches its literals in order of decreasing level.  On a
    tournament every class is transitive, so the reach sets stop after one
    level and every forbidden w closes a triangle.

    Per class, ``members`` and ``out`` mask the vertices w whose x(w, c) is
    true, and false, in the trail before ``thead``, the next entry the
    propagator checks.  ``saved`` holds both lists as each decision level
    began (every decision is propagated before the next), so a backjump
    restores them.

    Decisions place a vertex instead of scanning activities: the free vertex
    (in no class) with the most classes ruled out, the lowest such vertex,
    joins its lowest open class (DSatur, Brélaz 1979).  A decision comes
    after a propagation fixpoint, so the masks are exact then, and every
    free vertex has at least two open classes, or its at-least-one clause
    would have propagated.

    Once no vertex is free the search stops with the other variables
    unassigned, and `solve` reads them as false.  That model satisfies the
    formula: every vertex has a true class, so the at-least-one clauses
    hold; the unit pins were assigned at the root; every other pin and
    every cycle clause is negative, and with no conflict at the fixpoint
    each has a false or unassigned variable; the cycles never attached as
    clauses are excluded by the propagator, which checked each placement
    against its class; and learnt clauses follow from all these.  Each
    vertex's lowest true class, the one chi_decide reports, lies inside
    ``members``, so every reported class is acyclic.
    """

    def __init__(self, d: Digraph, k: int):
        super().__init__(d.n * k)
        self.d, self.rows, self.cols, self.k = d, d.rows, d.cols, k
        self.full = (1 << d.n) - 1
        self.members = [0] * k
        self.out = [0] * k
        self.thead = 0
        self.saved: list = []

    def _propagate(self) -> Optional[int]:
        trail = self.trail
        val = self.val
        level = self.level
        reason = self.reason
        members = self.members
        out = self.out
        rows, cols, k = self.rows, self.cols, self.k
        k2 = 2 * k
        thead = self.thead
        if len(self.saved) < len(self.trail_lim):
            self.saved.append((members[:], out[:]))
        while True:
            confl = super()._propagate()
            if confl is not None or thead == len(trail):
                self.thead = thead
                return confl
            cur_level = len(self.trail_lim)
            while thead < len(trail):
                l = trail[thead]
                thead += 1
                u, c = divmod(l >> 1, k)
                if l & 1:
                    out[c] |= 1 << u
                    continue
                ms = members[c]
                members[c] = ms | 1 << u
                ru, cu = rows[u], cols[u]
                ahead = ms & ru  # members v with u -> v
                behind = ms & cu  # members v with v -> u
                base = 2 * c + 1  # -x(w, c) is w * k2 + base
                nu = l | 1
                outs = _reach(rows, ahead, ms)[1]
                ins = _reach(cols, behind, ms)[1]
                forbid = (outs | ru) & (ins | cu) & ~out[c]
                while forbid:
                    bit = forbid & -forbid
                    forbid ^= bit
                    w = bit.bit_length() - 1
                    nw = w * k2 + base
                    value = val[nw]
                    if value > 0:
                        continue
                    closing = ahead & cols[w] if cu & bit else 0
                    if not closing and ru & bit:
                        closing = behind & rows[w]
                    if closing:
                        clause = [nw, nu, ((closing & -closing).bit_length() - 1) * k2 + base]
                    elif ru & cu & bit:
                        clause = [nw, nu]
                    else:
                        cycle = directed_cycle(self.d, ms | bit | 1 << u)
                        clause = [nw, nu] + [x * k2 + base for x in cycle if x != u and x != w]
                    if value < 0:
                        self.thead = thead
                        return self._conflict(clause)
                    val[nw] = 1
                    val[nw ^ 1] = -1
                    v = nw >> 1
                    level[v] = cur_level
                    reason[v] = self._attach(clause)
                    trail.append(nw)

    def _decide(self) -> int:
        free = self.full
        for m in self.members:
            free &= ~m
        if not free:
            return -1
        # bit-sliced count of the classes ruled out for each vertex:
        # planes[i] holds bit i of every vertex's count
        planes: list[int] = []
        for carry in self.out:
            for i, plane in enumerate(planes):
                planes[i] = plane ^ carry
                carry &= plane
                if not carry:
                    break
            else:
                if carry:
                    planes.append(carry)
        for plane in reversed(planes):  # keep the highest counts
            if free & plane:
                free &= plane
        v = (free & -free).bit_length() - 1
        c = 0
        while self.out[c] >> v & 1:
            c += 1
        return 2 * (v * self.k + c)

    def _conflict(self, clause: list[int]) -> int:
        level = self.level
        clause.sort(key=lambda l: -level[l >> 1])
        return self._attach(clause)

    def _backjump(self, target: int) -> None:
        if len(self.trail_lim) > target:
            self.members[:], self.out[:] = self.saved[target]
            del self.saved[target:]
            self.thead = self.trail_lim[target]
        super()._backjump(target)


def chi_decide(
    d: Digraph, k: int, *, deadline: Deadline = Deadline()
) -> ChiDecideResult:
    """Can the vertices be split into k classes, each inducing an acyclic
    subdigraph?

    Encodes class membership as booleans and refutes/extends with one
    conflict-driven search (`_ClassSolver`) that propagates the directed
    cycles inside each class as it assigns, so a cycle's clause exists only
    once it has been a reason or a conflict.  Each decision puts the
    unplaced vertex with the fewest classes left (the lowest such vertex)
    into its lowest open class, and the search returns as soon as every
    vertex has a class: every class is then acyclic, and each vertex joins
    its lowest true class.  The deadline is polled once before the solver
    is built and every 256 conflicts inside the search.

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
    the propagator keeps b out of class 0 once 0 and a are both there, so a
    in class 0 fixes b in class 1, which is why the triangle is chosen.
    """
    if k < 1:
        raise ValueError("class count must be positive")
    n = d.n
    if k >= n:
        return ChiDecideResult(True, tuple((v,) for v in range(n)))

    deadline.check()
    solver = _ClassSolver(d, k)
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

    solver.add_clauses(seed_clauses())

    model = solver.solve(deadline)
    classes = None
    if model is not None:
        masks = [0] * k  # a vertex joins its lowest true class
        for v in range(n):
            masks[model[v * k:v * k + k].index(True)] |= 1 << v
        classes = tuple(tuple(_bits(m)) for m in masks if m)
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
