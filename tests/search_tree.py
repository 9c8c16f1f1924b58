"""The tree of prefixes that the ordering search keeps, built from the
definition of its forward check rather than from the search, so that node
counts, the k <= 2 memo and the deadline polls can be checked against it."""

from backedge.core import _bits, has_clique_in_mask


def surviving_prefixes(d, k, *, first_vertex=None, before=None):
    """Every prefix the search keeps, in the order it reaches them.  A prefix
    is kept when each shorter prefix is, it starts with ``first_vertex`` and
    places ``before[1]`` only after ``before[0]``, and no unplaced vertex
    beats a k-clique of its backedge graph (placing that vertex would close
    a (k+1)-clique)."""
    n = d.n
    rows = d.rows
    full = (1 << n) - 1
    badj = [0] * n
    kept = []

    def grow(prefix, placed):
        for v in range(n):
            low = 1 << v
            if placed & low or (not prefix and first_vertex not in (None, v)):
                continue
            if before is not None and v == before[1] and not placed >> before[0] & 1:
                continue
            now = placed | low
            badj[v] = rows[v] & placed
            for u in _bits(badj[v]):
                badj[u] |= low
            if all(has_clique_in_mask(badj, rows[c] & now, k) is None for c in _bits(full & ~now)):
                kept.append(prefix + (v,))
                grow(prefix + (v,), now)
            for u in _bits(badj[v]):
                badj[u] ^= low
            badj[v] = 0

    grow((), 0)
    return kept


def expanded_count(d, k):
    """How many prefixes the search expands at k <= 2, where it searches each
    kept vertex set once: the sum, over the kept sets short of all vertices,
    of their kept one-vertex extensions.  Placing v after the set S keeps the
    prefix unless an unplaced c beats a k-clique through v: c -> v for
    k = 1, and c -> v, c -> u with u in S and v -> u for k = 2."""
    assert k <= 2
    rows, cols = d.rows, d.cols
    full = (1 << d.n) - 1
    seen = {0}
    todo = [0]
    count = 0
    while todo:
        placed = todo.pop()
        for v in _bits(full & ~placed):
            threats = cols[v] & ~placed
            if k == 1 and threats or any(rows[c] & rows[v] & placed for c in _bits(threats)):
                continue
            count += 1
            now = placed | 1 << v
            if now != full and now not in seen:
                seen.add(now)
                todo.append(now)
    return count
