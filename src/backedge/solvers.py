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
its vertices, so no key would repeat and nothing is stored.  Each vertex's
backedge mask is set once as it is placed (`core._backedge_masks`' formula)
and is exact on the prefix, so a pop undoes nothing.

The acyclic partition search (`chi_decide`) is a depth-first branch and
bound over per-class masks on an explicit stack, without clause learning:
each class keeps the vertices that may still join it, a vertex closing a
directed cycle with the class leaves that mask, forced vertices are placed
at once, and it branches on the vertex with the fewest classes left.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence

from .core import (
    Deadline,
    Digraph,
    Tournament,
    _backedge_masks,
    _bits,
    _reach,
    check_ordering,
    has_clique_in_mask,
    is_acyclic,
    ordering_clique_number,
)
from .generation import extensions


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
    symbol or one symbol before another, enter as ``kills`` entries.  At
    k >= 3 ``threats[v]`` must be v's in-neighbours, the transpose of ``backs``."""
    deadline.check()
    if n == 0:
        yield ()
        return
    full = (1 << n) - 1
    # badj[v]: v's backedge mask while v is placed; only k >= 3 reads it
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
                if not keep and placed != full:
                    start, nodes = marks.pop()
                    done[placed] = (start, len(out), node_count + skipped - nodes)
                placed ^= 1 << seq.pop()
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
            badj[v] = nb | threats[v] & rest
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
    value = ordering_clique_number(t, ordering, deadline)
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
        adj = _backedge_masks(t, perm)
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


def _place(
    rows: Sequence[int], cols: Sequence[int], members: list[int], opens: list[int], u: int, c: int
) -> None:
    """Put u into class c, which it may join, and drop from ``opens[c]`` every
    w that would close a directed cycle with the class: ``outs``, the union
    of the out-neighbours of the members u reaches through members, and
    ``ins``, that of the in-neighbours of the members that reach u, each
    grown level by level (`core._reach`); w leaves when it lies in
    ``(outs | rows[u]) & (ins | cols[u])``."""
    ms = members[c]
    ru, cu = rows[u], cols[u]
    ahead = ms & ru  # members v with u -> v
    behind = ms & cu  # members v with v -> u
    outs = _reach(rows, ahead, ms)[1] | ru if ahead else ru
    ins = _reach(cols, behind, ms)[1] | cu if behind else cu
    members[c] = ms | 1 << u
    opens[c] &= ~(outs & ins)


def _settle(
    rows: Sequence[int], cols: Sequence[int], members: list[int], opens: list[int], free: int
) -> Optional[int]:
    """Place every free vertex with one open class left into it, until none
    is left: the free mask then, or None once a free vertex has no open
    class.  An empty class is open to every free vertex."""
    while True:
        one = two = 0  # free vertices open in at least one, two classes
        for o in opens:
            o &= free
            two |= one & o
            one |= o
        if free & ~one:
            return None
        units = one & ~two
        if not units:
            return free
        while units:
            bit = units & -units
            units ^= bit
            for c, o in enumerate(opens):
                if o & bit:
                    break
            else:
                return None  # closed out of its class by an earlier unit
            _place(rows, cols, members, opens, bit.bit_length() - 1, c)
            free ^= bit


def _branch(members: Sequence[int], opens: Sequence[int], free: int) -> tuple[int, list[int]]:
    """The free vertex with the fewest open classes, the lowest such vertex,
    and the classes to try for it: its open classes in order, up to and
    including the first empty one.  The classes with members come first."""
    # bit-sliced count of each vertex's open classes: planes[i] holds bit i
    planes: list[int] = []
    for o in opens:
        carry = o & free
        for i, plane in enumerate(planes):
            planes[i] = plane ^ carry
            carry &= plane
            if not carry:
                break
        else:
            if carry:
                planes.append(carry)
    least = free
    for plane in reversed(planes):  # keep the lowest counts
        if least & ~plane:
            least &= ~plane
    v = (least & -least).bit_length() - 1
    choices = []
    for c, o in enumerate(opens):
        if o >> v & 1:
            choices.append(c)
            if not members[c]:
                break
    return v, choices


def chi_decide(
    d: Digraph, k: int, *, deadline: Deadline = Deadline()
) -> ChiDecideResult:
    """Can the vertices be split into k classes, each inducing an acyclic
    subdigraph?

    A depth-first branch and bound over class masks, on an explicit stack.
    Per class it keeps its members and its open mask, the vertices that
    may still join it; a free vertex is one in no class.  Placing u in class
    c drops from c's open mask every vertex that would close a directed
    cycle with c's members and u (`_place`).  An empty class is open to
    every free vertex.  Then every free vertex with one open class left
    joins it, and a free vertex with none is a dead end.  Otherwise the
    search branches on the free vertex with the fewest open classes, the
    lowest such vertex (DSatur, Brélaz 1979), trying its open classes in
    order up to and including the first empty one.
    ``conflicts`` counts the dead ends below the root, so a verdict reached
    without branching counts 0.  k = 1 needs no search: one acyclicity test
    decides it, with 0 conflicts.  The deadline is polled once before the
    search and once per 1,024 branches taken.

    Soundness: every class stays acyclic and every open mask is exact: it
    holds the vertices w whose class plus w is acyclic.  Suppose this
    holds before u joins class c with members M, u open in c.  A cycle of
    M + u + w must pass through w, since M + u is acyclic, and through u,
    since M + w is acyclic (w was open).  Its path from u to w is the arc
    u -> w or runs through members that u reaches within M, so w lies in
    ``outs | rows[u]``; likewise w lies in ``ins | cols[u]``.  Conversely
    every w in both closes a walk u .. w .. u inside M + u + w, which holds
    a cycle.  So the classes of a completed search are acyclic.

    Completeness: the classes with members always form a prefix
    0 .. m - 1, since no placement skips an empty class.  A branch tries
    none past the first, and a forced vertex has one open class, so when a
    class is empty it is that one, class m = k - 1.  A forced vertex joins
    the only class that any extension can give it, and a vertex with no
    open class has none.  Every branch tries each open class of its vertex
    except the empty ones after class m.  Empty classes are
    interchangeable: no vertex is closed out of an empty class, so
    relabelling the classes of a partition that puts the vertex in another
    empty class gives one that puts it in class m, and agrees with every
    placement made so far.  So vertex 0 starts class 0 and no other
    symmetry needs breaking.
    """
    if k < 1:
        raise ValueError("class count must be positive")
    n = d.n
    if k >= n:
        return ChiDecideResult(True, tuple((v,) for v in range(n)))

    deadline.check()
    if k == 1:
        acyclic = is_acyclic(d)
        return ChiDecideResult(acyclic, (tuple(range(n)),) if acyclic else None)
    rows, cols = d.rows, d.cols
    members = [0] * k
    opens = [(1 << n) - 1] * k
    free: Optional[int] = (1 << n) - 1
    # one frame per branch point: its members, opens and free, its vertex
    # and the classes still to try for it, the next one last
    stack: list[tuple[list[int], list[int], int, int, list[int]]] = []
    tried = dead_ends = 0
    while True:
        free = _settle(rows, cols, members, opens, free)
        if free is None:
            dead_ends += bool(stack)
        elif not free:
            classes = tuple(tuple(_bits(m)) for m in members if m)
            return ChiDecideResult(True, classes, dead_ends)
        else:
            v, choices = _branch(members, opens, free)
            choices.reverse()
            stack.append((members, opens, free, v, choices))
        while stack and not stack[-1][4]:
            stack.pop()
        if not stack:
            return ChiDecideResult(False, None, dead_ends)
        members, opens, free, v, choices = stack[-1]
        c = choices.pop()
        members, opens = members[:], opens[:]
        _place(rows, cols, members, opens, v, c)
        free ^= 1 << v
        tried += 1
        if not tried & 0x3FF:
            deadline.check()


def chi(d: Digraph, *, deadline: Deadline = Deadline()) -> ChiResult:
    """Exact acyclic partition number with a witness partition.

    ``conflicts`` sums `chi_decide`'s dead ends over every k tried, the
    refuted k below the value included."""
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
    exactly k, with the first such tournament in canonical generation order,
    polling before each parent's walk and before each candidate."""
    if k < 1 or n_max < 1:
        raise ValueError("k and n_max must be positive")
    level = [Tournament(0, ())]
    for n in range(1, n_max + 1):
        level, parents = [], level
        for parent in parents:
            deadline.check()
            for t in extensions(parent):
                deadline.check()
                if omega(t, deadline=deadline).value == k:
                    return MinOrderResult(n, t)
                level.append(t)
    return None
