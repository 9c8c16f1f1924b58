"""Tournaments, digraphs, orderings and backedge graphs.

Vertices are 0-based integers everywhere.  Adjacency is stored as one
integer bitmask per vertex (bit ``v`` of ``rows[u]`` set iff there is an
arc ``u -> v``), which keeps triangle/clique scans and the backtracking
searches cheap, and makes every object immutable and hashable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Optional, Sequence


class BudgetExhausted(Exception):
    """A solver hit its deadline before reaching an answer."""


class Deadline:
    """Wall-clock budget polled by solvers; `check` raises BudgetExhausted.
    ``Deadline()`` sets no limit."""

    def __init__(self, seconds: Optional[float] = None):
        self.seconds = seconds
        self._end = None if seconds is None else time.monotonic() + seconds

    def check(self) -> None:
        if self._end is not None and time.monotonic() > self._end:
            raise BudgetExhausted(f"budget of {self.seconds}s exhausted")


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# rows per block of _transpose: its strings peak at _TRANSPOSE_BLOCK * n
# characters instead of n * n
_TRANSPOSE_BLOCK = 256


def _transpose(rows: Sequence[int], n: int) -> tuple[int, ...]:
    """Column masks of the n x n bit matrix ``rows``: bit u of column v is bit
    v of ``rows[u]``.  A block of rows is written as one string of binary
    digits, last row first and each row highest bit first, so the column of
    bit v is the strided slice at offset n - 1 - v, which ``int(..., 2)``
    reads back in one C-level step."""
    fmt = f"0{n}b"
    cols: list[int] = []
    for start in range(0, n, _TRANSPOSE_BLOCK):
        text = "".join([format(row, fmt) for row in reversed(rows[start:start + _TRANSPOSE_BLOCK])])
        block = [int(text[i::n], 2) << start for i in range(n - 1, -1, -1)]
        cols = [col | part for col, part in zip(cols, block)] if start else block
    return tuple(cols)


@dataclass(frozen=True)
class Digraph:
    """Irreflexive directed graph on vertices 0..n-1."""

    n: int
    rows: tuple[int, ...]
    cols: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._check_rows()
        object.__setattr__(self, "cols", _transpose(self.rows, self.n))
        self._validate()

    @classmethod
    def _with_cols(cls, n: int, rows: tuple[int, ...], cols: tuple[int, ...]):
        """The digraph on ``rows`` whose column masks ``cols`` are known by
        construction: the caller guarantees they are the transpose of
        ``rows``.  Rows are checked and ``_validate`` runs as in the
        constructor; only the transpose is skipped."""
        d = cls.__new__(cls)
        object.__setattr__(d, "n", n)
        object.__setattr__(d, "rows", rows)
        d._check_rows()
        object.__setattr__(d, "cols", cols)
        d._validate()
        return d

    def _check_rows(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.rows) != self.n:
            raise ValueError(f"expected {self.n} adjacency rows, got {len(self.rows)}")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.rows):
            if row & ~full:
                raise ValueError(f"row {u} references a vertex >= {self.n}")
            if row >> u & 1:
                raise ValueError(f"self-arc at vertex {u}")

    def _validate(self) -> None:
        pass

    @classmethod
    def from_arcs(cls, n: int, arcs: Sequence[tuple[int, int]]):
        rows = [0] * n
        for u, v in arcs:
            rows[u] |= 1 << v
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
        # per vertex: no pair carries two arcs, and every other vertex is an
        # in- or out-neighbour.  The first failing u is the smaller end of the
        # first bad pair, so the lowest bad bit of u names its other end.
        full = (1 << self.n) - 1
        for u, (row, col) in enumerate(zip(self.rows, self.cols)):
            bad = row & col | (full ^ 1 << u) ^ (row | col)
            if bad:
                v = (bad & -bad).bit_length() - 1
                raise ValueError(f"pair ({u},{v}) must carry exactly one arc")


@dataclass(frozen=True)
class UndirectedGraph(Digraph):
    """Simple undirected graph: a symmetric arc relation, so that bit v of
    ``rows[u]`` is set iff {u, v} is an edge, and each row equals its column."""

    def _validate(self) -> None:
        # the first u whose row differs from its column is the smaller end of
        # the first asymmetric pair, so the lowest differing bit names the other
        for u, (row, col) in enumerate(zip(self.rows, self.cols)):
            if row != col:
                bad = row ^ col
                v = (bad & -bad).bit_length() - 1
                raise ValueError(f"edge ({u},{v}) is not symmetric")

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in _bits(self.rows[u]):
                if v > u:
                    yield u, v

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.rows) // 2


def _quote(value: object) -> str:
    """``repr(value)`` for an error message, cut after 40 characters with its
    full length stated, so that the message stays short whatever the input."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text):,} characters)"


def check_ordering(ordering: Sequence[int], n: int) -> tuple[int, ...]:
    """Validate that ``ordering`` is a permutation of 0..n-1 and return it as a tuple."""
    ordering = tuple(ordering)
    if len(ordering) != n or set(ordering) != set(range(n)):
        raise ValueError(f"ordering {_quote(ordering)} is not a permutation of 0..{n - 1}")
    return ordering


def _backedge_masks(d: Digraph, ordering: Sequence[int]) -> list[int]:
    """Adjacency masks of the backedge graph, for an ordering already known to
    be a permutation: v's out-neighbours before it and in-neighbours after it."""
    rows, cols = d.rows, d.cols
    adj = [0] * d.n
    placed = 0
    for v in ordering:
        adj[v] = rows[v] & placed | cols[v] & ~placed
        placed |= 1 << v
    return adj


def backedge_graph(d: Digraph, ordering: Sequence[int]) -> UndirectedGraph:
    """Undirected graph whose edges are the arcs of ``d`` pointing leftward in ``ordering``.

    Edge {u, v} with u before v is present iff the arc v -> u exists.
    """
    adj = tuple(_backedge_masks(d, check_ordering(ordering, d.n)))
    return UndirectedGraph._with_cols(d.n, adj, adj)


def has_clique_in_mask(adj: Sequence[int], mask: int, k: int) -> Optional[tuple[int, ...]]:
    """Lexicographically first k-clique of the graph ``adj`` inside the vertex
    bitmask ``mask``, or None."""
    if k <= 0:
        return ()
    while mask.bit_count() >= k:
        low = mask & -mask
        u = low.bit_length() - 1
        mask ^= low  # later candidates lie above u: keeps witnesses canonical
        if k == 1:
            return (u,)
        rest = adj[u] & mask
        if rest.bit_count() >= k - 1:
            sub = has_clique_in_mask(adj, rest, k - 1)
            if sub is not None:
                return (u, *sub)
    return None


def has_clique(g: UndirectedGraph, k: int) -> Optional[tuple[int, ...]]:
    """Witness vertex set for a clique of size ``k``, or None."""
    if k < 1:
        raise ValueError("clique size must be positive")
    return has_clique_in_mask(g.rows, (1 << g.n) - 1, k)


def clique_number(g: UndirectedGraph) -> int:
    """Exact maximum clique size: the largest k for which the clique search
    finds a k-clique."""
    if g.n == 0:
        raise ValueError("clique number of the empty graph is undefined")
    full = (1 << g.n) - 1
    k = 1
    while has_clique_in_mask(g.rows, full, k + 1) is not None:
        k += 1
    return k


def triangle_in_graph(g: UndirectedGraph) -> Optional[tuple[int, int, int]]:
    """First triangle of ``g`` in lexicographic order, or None."""
    return has_clique_in_mask(g.rows, (1 << g.n) - 1, 3)


def ordering_clique_number(d: Digraph, ordering: Sequence[int], deadline: Deadline = Deadline()) -> int:
    """``clique_number(backedge_graph(d, ordering))`` for a validated ordering,
    in one pass: a clique's last placed vertex y has the others among its
    earlier backedge neighbours, so the best size grows while those of some y
    hold a clique of that size.  ``deadline`` is polled before each search."""
    if d.n == 0:
        raise ValueError("clique number of the empty graph is undefined")
    adj, rows = _backedge_masks(d, ordering), d.rows
    best, placed = 1, 0
    for y in ordering:
        back = rows[y] & placed
        while back.bit_count() >= best:
            deadline.check()
            if has_clique_in_mask(adj, back, best) is None:
                break
            best += 1
        placed |= 1 << y
    return best


def _reach(adj: Sequence[int], seed: int, within: int) -> tuple[int, int]:
    """Vertices of the bitmask ``within`` reachable from the bitmask ``seed``
    along the adjacency masks ``adj``, without leaving ``within``, and the
    union of their ``adj`` masks.  Grown level by level, one growth test per
    level."""
    reached = grow = seed & within
    union = 0
    while grow:
        while grow:
            bit = grow & -grow
            grow ^= bit
            union |= adj[bit.bit_length() - 1]
        grow = union & within & ~reached
        reached |= grow
    return reached, union


def components(adj: Sequence[int], mask: int) -> Iterator[int]:
    """Connected components of the undirected graph ``adj`` induced on the
    bitmask ``mask``, as vertex bitmasks ordered by their smallest vertex."""
    while mask:
        comp = _reach(adj, mask & -mask, mask)[0]
        yield comp
        mask &= ~comp


def is_forest(g: UndirectedGraph) -> bool:
    """True iff ``g`` has no cycle: its components number n minus its edges."""
    return sum(1 for _ in components(g.rows, (1 << g.n) - 1)) == g.n - g.edge_count()


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


def _back_arc(rows: Sequence[int], mask: int) -> Optional[tuple[list[int], int]]:
    """The first arc that closes a directed cycle inside ``mask`` in a
    depth-first search that starts from, and steps to, the lowest vertices
    first: the search path, whose last vertex is the arc's tail, and the
    arc's head on that path; None when the induced digraph is acyclic."""
    done = 0
    for start in _bits(mask):
        if done >> start & 1:
            continue
        path = [start]
        on_path = 1 << start
        todo = [rows[start] & mask]  # per path vertex: out-neighbours not yet tried
        while todo:
            nxt = todo[-1] & ~done
            if not nxt:
                low = 1 << path.pop()
                on_path ^= low
                done |= low
                todo.pop()
                continue
            low = nxt & -nxt
            w = low.bit_length() - 1
            if low & on_path:
                return path, w
            todo[-1] = nxt ^ low
            path.append(w)
            on_path |= low
            todo.append(rows[w] & mask)
    return None


def is_acyclic(d: Digraph, within: Optional[int] = None) -> bool:
    """True iff the (induced) digraph has no directed cycle: one depth-first
    search, with no scan for a triangle."""
    return _back_arc(d.rows, (1 << d.n) - 1 if within is None else within) is None


def is_strong(t: Tournament) -> bool:
    """True iff the tournament is strongly connected."""
    if t.n == 0:
        raise ValueError("strong connectivity of the empty tournament is undefined")
    full = (1 << t.n) - 1
    return _reach(t.rows, 1, full)[0] == full and _reach(t.cols, 1, full)[0] == full


def reverse(d: Digraph) -> Digraph:
    """Flip every arc: rows and columns swap."""
    return type(d)._with_cols(d.n, d.cols, d.rows)


def induced(d: Digraph, vertices: Sequence[int]) -> Digraph:
    """Restrict to ``vertices`` and renumber, preserving the relative order of ids."""
    keep = sorted(set(vertices))
    for v in keep:
        if not 0 <= v < d.n:
            raise ValueError(f"vertex {v} out of range")
    if not keep:
        return type(d)(0, ())
    # bit w of a row is character n - 1 - w of its binary string: the kept
    # characters, highest vertex first, are the renumbered row's digits
    fmt = f"0{d.n}b"
    pick = itemgetter(*[d.n - 1 - v for v in reversed(keep)])
    rows = [int("".join(pick(format(d.rows[v], fmt))), 2) for v in keep]
    return type(d)(len(keep), tuple(rows))


# the embedding search narrows the candidate masks of the next _LOOKAHEAD
# pattern vertices after each placement: a wider window backs up sooner, and
# its stack holds up to _LOOKAHEAD masks per pattern vertex
_LOOKAHEAD = 8


def _degree_masks(hrows: Sequence[int], prows: Sequence[int]) -> list[int]:
    """Per pattern vertex, the host vertices whose out- and in-degrees are at
    least its own: an out-degree between the pattern vertex's and that plus
    the host's extra vertices."""
    hn, pn = len(hrows), len(prows)
    at_least = [0] * (hn + 1)  # at_least[d]: host vertices of out-degree >= d
    for h, row in enumerate(hrows):
        at_least[row.bit_count()] |= 1 << h
    for d in range(hn - 1, -1, -1):
        at_least[d] |= at_least[d + 1]
    return [at_least[po] & ~at_least[po + hn - pn + 1]
            for po in (row.bit_count() for row in prows)]


def _first_embedding(
    hrows: Sequence[int],
    hcols: Sequence[int],
    prows: Sequence[int],
    allowed: list[int],
    above: int,
    deadline: Deadline,
) -> Optional[tuple[int, ...]]:
    """Lexicographically first embedding of the tournament ``prows`` into the
    tournament ``hrows``/``hcols`` that maps each pattern vertex p into
    ``allowed[p]`` and each vertex of the bitmask ``above`` above the image
    of vertex 0, or None."""
    pn = len(prows)
    width = _LOOKAHEAD
    image = [0] * pn
    high = -1  # the host vertices above image[0]
    # windows[p]: candidate masks of pattern vertices p, p + 1, ... (at most
    # width of them) given the images of 0..p-1; its first entry holds the
    # candidates for p not yet tried
    windows = [allowed[:width]]
    nodes = 0
    while windows:
        window = windows[-1]
        cand = window[0]
        if not cand:
            windows.pop()
            continue
        p = len(windows) - 1
        low = cand & -cand
        window[0] = cand ^ low
        h = low.bit_length() - 1
        image[p] = h
        if p + 1 == pn:
            return tuple(image)
        # pattern vertex j maps to a host vertex x with x -> h iff j -> p;
        # neither mask holds h itself
        row, col = hrows[h], hcols[h]
        nxt = [m & (col if prows[j] >> p & 1 else row)
               for j, m in enumerate(window[1:], p + 1)]
        if not p and above:
            high = ~((low << 1) - 1)
            nxt = [m & high if above >> j & 1 else m for j, m in enumerate(nxt, 1)]
        j = p + width  # enters the window: narrowed by every image so far
        if j < pn:
            m = allowed[j] & high if above >> j & 1 else allowed[j]
            r = prows[j]
            for q in range(p + 1):
                m &= hcols[image[q]] if r >> q & 1 else hrows[image[q]]
                if not m:
                    break
            nxt.append(m)
        if all(nxt):
            nodes += 1
            if nodes & 0xFFF == 0:
                deadline.check()
            windows.append(nxt)
    return None


def _orbit(t: Tournament, deadline: Deadline = Deadline()) -> int:
    """Bitmask of the vertices onto which some automorphism of ``t`` maps
    vertex 0.

    An automorphism mapping 0 to q is an embedding of ``t`` into itself with
    image[0] = q.  It is searched for only when q has vertex 0's out-degree
    and is not yet known to be in the orbit: each automorphism found puts
    the whole cycle through 0 of its permutation there."""
    rows = t.rows
    orbit = 1
    allowed: list[int] = []
    for q in range(1, t.n):
        if orbit >> q & 1 or rows[q].bit_count() != rows[0].bit_count():
            continue
        allowed = allowed or _degree_masks(rows, rows)
        sigma = _first_embedding(rows, t.cols, rows, [1 << q, *allowed[1:]], 0, deadline)
        if sigma is None:
            continue
        v = q
        while v:
            orbit |= 1 << v
            v = sigma[v]
    return orbit


def contains_subtournament(
    host: Tournament, pattern: Tournament, deadline: Deadline = Deadline()
) -> Optional[tuple[int, ...]]:
    """Arc-preserving injection of the pattern's vertices into the host.

    Returns a tuple mapping pattern vertex i to its host image, or None.
    Pattern vertices are assigned in ascending id order and host candidates
    tried ascending, so the witness is the lexicographically first
    embedding.  Because both objects are tournaments, any arc-preserving
    image is automatically induced.

    Each pattern vertex starts from the host vertices whose out- and
    in-degrees are at least its own.  After each placement the search
    narrows the candidates of the next ``_LOOKAHEAD`` pattern vertices by the
    new image's row or column (forward checking), and backs up as soon as
    one of them is empty; a vertex entering that window is narrowed by every
    image so far.  The stack so holds O(pattern.n * _LOOKAHEAD) masks.

    Symmetry break: let O be the vertices that some automorphism of the
    pattern maps vertex 0 onto (``_orbit``).  The search requires
    image[q] > image[0] for every q in O, which keeps the first embedding φ:
    if φ(q) < φ(0) with σ(0) = q for an automorphism σ, then φ∘σ is an
    embedding that starts lower than φ.

    ``deadline`` is polled on entry and every 4,096 search nodes.
    """
    deadline.check()
    pn, hn = pattern.n, host.n
    if pn > hn:
        return None
    if pn == 0:
        return ()
    allowed = _degree_masks(host.rows, pattern.rows)
    if not all(allowed):
        return None
    above = _orbit(pattern, deadline) & ~1
    return _first_embedding(host.rows, host.cols, pattern.rows, allowed, above, deadline)
