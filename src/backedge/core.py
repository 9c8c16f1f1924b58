"""Tournaments, digraphs, orderings and backedge graphs.

Vertices are 0-based integers everywhere.  Adjacency is stored as one
integer bitmask per vertex (bit ``v`` of ``rows[u]`` set iff there is an
arc ``u -> v``), which keeps triangle/clique scans and the backtracking
searches cheap, and makes every object immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

Ordering = tuple  # permutation of 0..n-1; position 0 is the leftmost vertex


class BudgetExhausted(Exception):
    """A solver hit its deadline before reaching an answer."""


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Digraph:
    """Irreflexive directed graph on vertices 0..n-1."""

    n: int
    rows: tuple[int, ...]
    cols: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        cols = [0] * self.n
        for u, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {u} references a vertex >= {self.n}")
            if row >> u & 1:
                raise ValueError(f"self-arc at vertex {u}")
            for v in _bits(row):
                cols[v] |= 1 << u
        object.__setattr__(self, "cols", tuple(cols))
        self._validate()

    def _validate(self) -> None:
        pass

    @classmethod
    def from_arcs(cls, n: int, arcs: Sequence[tuple[int, int]]):
        rows = [0] * n
        for u, v in arcs:
            rows[u] |= 1 << v
        return cls(n, tuple(rows))

    @classmethod
    def from_matrix(cls, matrix: Sequence[Sequence[int]] | Sequence[str]):
        n = len(matrix)
        rows = []
        for row in matrix:
            bits = 0
            for j, cell in enumerate(row):
                if int(cell):
                    bits |= 1 << j
            rows.append(bits)
        return cls(n, tuple(rows))

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def arcs(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.rows[u]):
                yield u, v


@dataclass(frozen=True)
class Tournament(Digraph):
    """Complete antisymmetric arc relation: exactly one arc per vertex pair."""

    def _validate(self) -> None:
        for u in range(self.n):
            ru = self.rows[u]
            for v in range(u + 1, self.n):
                if (ru >> v & 1) == (self.rows[v] >> u & 1):
                    raise ValueError(f"pair ({u},{v}) must carry exactly one arc")


@dataclass(frozen=True)
class UndirectedGraph:
    """Simple undirected graph as symmetric adjacency bitmasks."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.adj) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.adj)}")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {u} references a vertex >= {self.n}")
            if row >> u & 1:
                raise ValueError(f"loop at vertex {u}")
            for v in _bits(row):
                if not self.adj[v] >> u & 1:
                    raise ValueError(f"edge ({u},{v}) is not symmetric")

    @classmethod
    def from_edges(cls, n: int, edges: Sequence[tuple[int, int]]):
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return cls(n, tuple(adj))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.adj[u]):
                if v > u:
                    yield u, v

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2


def check_ordering(ordering: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate that ``ordering`` is a permutation of 0..n-1 and return it as a tuple."""
    ordering = tuple(ordering)
    if len(ordering) != n or set(ordering) != set(range(n)):
        raise ValueError(f"ordering {ordering!r} is not a permutation of 0..{n - 1}")
    return ordering


def _backedge_masks(rows: Sequence[int], ordering: Sequence[int]) -> list[int]:
    """Adjacency masks of the backedge graph, for an ordering already known to
    be a permutation: edge {u, v} with u before v iff ``rows[v]`` has bit u."""
    adj = [0] * len(ordering)
    placed = 0
    for v in ordering:
        back = rows[v] & placed  # arcs from v into already-placed vertices
        adj[v] = back
        while back:
            low = back & -back
            adj[low.bit_length() - 1] |= 1 << v
            back ^= low
        placed |= 1 << v
    return adj


def backedge_graph(d: Digraph, ordering: Sequence[int]) -> UndirectedGraph:
    """Undirected graph whose edges are the arcs of ``d`` pointing leftward in ``ordering``.

    Edge {u, v} with u before v is present iff the arc v -> u exists.
    """
    ordering = check_ordering(ordering, d.n)
    return UndirectedGraph(d.n, tuple(_backedge_masks(d.rows, ordering)))


def has_clique_in_mask(adj: Sequence[int], mask: int, k: int) -> Optional[tuple[int, ...]]:
    """Search ``mask`` for a k-clique of the graph ``adj``; return the lexicographically
    first witness found or None."""
    if k <= 0:
        return ()
    if mask.bit_count() < k:
        return None
    if k == 1:
        return ((mask & -mask).bit_length() - 1,)
    for u in _bits(mask):
        rest = adj[u] & mask
        rest &= ~((1 << (u + 1)) - 1)  # only vertices above u: keeps witnesses canonical
        sub = has_clique_in_mask(adj, rest, k - 1)
        if sub is not None:
            return (u, *sub)
    return None


def has_clique(g: UndirectedGraph, k: int) -> Optional[tuple[int, ...]]:
    """Witness vertex set for a clique of size ``k``, or None."""
    if k < 1:
        raise ValueError("clique size must be positive")
    return has_clique_in_mask(g.adj, (1 << g.n) - 1, k)


def clique_number(g: UndirectedGraph) -> int:
    """Exact maximum clique size, by branch and bound over vertex bitmasks."""
    if g.n == 0:
        raise ValueError("clique number of the empty graph is undefined")
    adj = g.adj
    best = 1

    def grow(mask: int, size: int) -> None:
        nonlocal best
        while mask:
            if size + mask.bit_count() <= best:
                return
            low = mask & -mask
            u = low.bit_length() - 1
            mask ^= low
            if size + 1 > best:
                best = size + 1
            grow(adj[u] & mask, size + 1)

    grow((1 << g.n) - 1, 0)
    return best


def check_minimum_ordering(d: Digraph, ordering: Sequence[int], value: int) -> tuple[int, ...]:
    """Validate that ``ordering`` is a permutation whose backedge graph has
    clique number ``value``, the known minimum, and return it as a tuple."""
    ordering = check_ordering(ordering, d.n)
    if clique_number(backedge_graph(d, ordering)) != value:
        raise ValueError("ordering does not achieve the minimum clique number")
    return ordering


def triangle_in_graph(g: UndirectedGraph) -> Optional[tuple[int, int, int]]:
    """First triangle of ``g`` in lexicographic order, or None."""
    return has_clique_in_mask(g.adj, (1 << g.n) - 1, 3)


def _reach(adj: Sequence[int], seed: int, within: int) -> int:
    """Vertices of the bitmask ``within`` reachable from the bitmask ``seed``
    along the adjacency masks ``adj``, without leaving ``within``."""
    reached = frontier = seed & within
    while frontier:
        nxt = 0
        for u in _bits(frontier):
            nxt |= adj[u]
        frontier = nxt & within & ~reached
        reached |= frontier
    return reached


def components(adj: Sequence[int], mask: int) -> Iterator[int]:
    """Connected components of the undirected graph ``adj`` induced on the
    bitmask ``mask``, as vertex bitmasks ordered by their smallest vertex."""
    while mask:
        comp = _reach(adj, mask & -mask, mask)
        yield comp
        mask &= ~comp


def is_forest(g: UndirectedGraph) -> bool:
    """True iff ``g`` has no cycle: its components number n minus its edges."""
    return sum(1 for _ in components(g.adj, (1 << g.n) - 1)) == g.n - g.edge_count()


def directed_triangle(d: Digraph, within: Optional[int] = None) -> Optional[tuple[int, int, int]]:
    """A directed 3-cycle (u, v, w) with arcs u->v->w->u, restricted to the
    vertex bitmask ``within`` when given."""
    mask = (1 << d.n) - 1 if within is None else within
    rows, cols = d.rows, d.cols
    for u in _bits(mask):
        for v in _bits(rows[u] & mask):
            common = rows[v] & cols[u] & mask
            if common:
                return u, v, (common & -common).bit_length() - 1
    return None


def is_transitive(t: Tournament) -> bool:
    """True iff the tournament has no directed cycle (no directed triangle)."""
    return directed_triangle(t) is None


def is_acyclic(d: Digraph, within: Optional[int] = None) -> bool:
    """Kahn-style check that the (induced) digraph has no directed cycle."""
    mask = (1 << d.n) - 1 if within is None else within
    indeg = {u: (d.cols[u] & mask).bit_count() for u in _bits(mask)}
    queue = [u for u, deg in indeg.items() if deg == 0]
    seen = 0
    while queue:
        u = queue.pop()
        seen += 1
        for v in _bits(d.rows[u] & mask):
            indeg[v] -= 1
            if indeg[v] == 0:
                queue.append(v)
    return seen == mask.bit_count()


def is_strong(t: Tournament) -> bool:
    """True iff the tournament is strongly connected."""
    if t.n == 0:
        raise ValueError("strong connectivity of the empty tournament is undefined")
    full = (1 << t.n) - 1
    return _reach(t.rows, 1, full) == full and _reach(t.cols, 1, full) == full


def reverse(d: Digraph) -> Digraph:
    """Flip every arc."""
    return type(d)(d.n, d.cols)


def induced(d: Digraph, vertices: Sequence[int]) -> Digraph:
    """Restrict to ``vertices`` and renumber, preserving the relative order of ids."""
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < d.n:
            raise ValueError(f"vertex {v} out of range")
    index = {v: i for i, v in enumerate(keep)}
    rows = []
    for v in keep:
        bits = 0
        for w in _bits(d.rows[v]):
            if w in index:
                bits |= 1 << index[w]
        rows.append(bits)
    return type(d)(len(keep), tuple(rows))


def contains_subtournament(
    host: Tournament, pattern: Tournament
) -> Optional[tuple[int, ...]]:
    """Arc-preserving injection of the pattern's vertices into the host.

    Returns a tuple mapping pattern vertex i to its host image, or None.
    Pattern vertices are assigned in ascending id order and host candidates
    tried ascending, so witnesses are deterministic.  Because both objects
    are tournaments, any arc-preserving image is automatically induced.
    """
    pn, hn = pattern.n, host.n
    if pn > hn:
        return None
    if pn == 0:
        return ()
    # degree pre-filter: host vertex must dominate the pattern vertex's degrees
    allowed = []
    for p in range(pn):
        po, pi = pattern.rows[p].bit_count(), pattern.cols[p].bit_count()
        mask = 0
        for h in range(hn):
            if host.rows[h].bit_count() >= po and host.cols[h].bit_count() >= pi:
                mask |= 1 << h
        if not mask:
            return None
        allowed.append(mask)

    image = [0] * pn

    def assign(p: int, used: int) -> bool:
        cand = allowed[p] & ~used
        for q in range(p):
            if pattern.rows[p] >> q & 1:
                cand &= host.cols[image[q]]  # need image[p] -> image[q]
            else:
                cand &= host.rows[image[q]]
            if not cand:
                return False
        for h in _bits(cand):
            image[p] = h
            if p + 1 == pn or assign(p + 1, used | 1 << h):
                return True
        return False

    # pattern vertex p's constraint uses arcs toward already-assigned q < p,
    # i.e. cand needs arc image[p] -> image[q] iff p -> q in the pattern
    if assign(0, 0):
        return tuple(image)
    return None
