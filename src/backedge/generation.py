"""Isomorphism-free generation of small tournaments.

Canonical form: the "staircase" encoding lists, for each vertex j in turn,
the arc bits between j and every earlier vertex (bit i of column j is set
iff i -> j, so column j is ``cols[j]`` below bit j); a tournament is
canonical when no relabeling yields a lexicographically smaller encoding.
Removing the last vertex of a canonical tournament leaves a canonical one,
so each size extends the previous by a new last vertex (orderly generation,
McKay 1998).

The canonicity test searches relabelings s_0, s_1, ... position by
position, on an explicit stack, and tests every free vertex for position p
at once with masks.  Column p of the relabeled encoding holds the bits
s_0 -> w, ..., s_{p-1} -> w for the vertex w placed at p.  Walking the
target column bit by bit with ``tie`` the free vertices equal so far:

* where the target bit is 1, a tied w with w -> s (``w`` in ``cols[s]``)
  puts a 0 first.  The encoding is then smaller whatever fills the later
  positions, so one such w ends the test: not canonical.  Otherwise every
  tied w has s -> w and stays tied;
* where the target bit is 0, w stays tied only if w -> s
  (``tie &= cols[s]``); with s -> w its encoding is larger and dropped.

Only the vertices left in ``tie`` are descended into; a prefix that ties
through all n positions is an automorphism and proves nothing.

``canonical_tournaments`` builds each candidate's row and column masks
straight from its parent's and the pattern.  They describe a tournament by
construction (the parent is one, and the pattern orients each new pair
once), so validating them, and transposing rows into columns, would be
work that proves nothing.  Only the accepted candidates, the ones returned
(6,880 of 58,368 at n = 8), become ``Tournament`` objects.  They take the
columns the search already holds, in O(n) big-int steps, and are validated
as every tournament is; only rows read from files or passed in by callers
are transposed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from .core import Tournament


def _smaller_relabeling(n: int, cols: Sequence[int]) -> bool:
    """True when some relabeling of the tournament given by its column
    masks has a smaller staircase encoding."""
    full = (1 << n) - 1
    prefix: list[int] = []
    used = 0
    # ties[p]: the vertices tied at position p and not yet descended into
    ties = [full]
    while ties:
        tie = ties[-1]
        if not tie:
            ties.pop()
            if prefix:
                used ^= 1 << prefix.pop()
            continue
        low = tie & -tie
        ties[-1] = tie ^ low
        p = len(prefix) + 1
        if p == n:
            continue  # a full tie: an automorphism
        prefix.append(low.bit_length() - 1)
        used |= low
        target = cols[p]
        tie = full ^ used
        for s in prefix:
            if target & 1:
                if tie & cols[s]:
                    return True
            else:
                tie &= cols[s]
                if not tie:
                    break
            target >>= 1
        ties.append(tie)
    return False


def is_canonical(t: Tournament) -> bool:
    """True when no vertex relabeling gives a smaller staircase encoding."""
    return not _smaller_relabeling(t.n, t.cols)


@lru_cache(maxsize=None)
def canonical_tournaments(n: int) -> tuple[Tournament, ...]:
    """All tournaments on n vertices up to isomorphism, one canonical
    representative each, in generation order."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (Tournament(1, (0,)),)
    m = n - 1
    new, below = 1 << m, (1 << m) - 1
    result = []
    for t in canonical_tournaments(m):
        for pattern in range(1 << m):
            # bit i of pattern: arc from the new vertex m to i
            rows = [row if pattern >> i & 1 else row | new for i, row in enumerate(t.rows)]
            cols = [col | new if pattern >> i & 1 else col for i, col in enumerate(t.cols)]
            rows.append(pattern)
            cols.append(below ^ pattern)
            if not _smaller_relabeling(n, cols):
                result.append(Tournament._with_cols(n, tuple(rows), tuple(cols)))
    return tuple(result)
