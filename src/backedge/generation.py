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
through all n positions is an automorphism and proves nothing.  The one
loop, ``_tied_prefixes``, starts from any tied prefix and yields the tied
prefixes below it: ``is_canonical`` starts it from the empty prefix.

``canonical_tournaments(n)`` does not search each of a parent's 2^(n-1)
candidates (m = n - 1 is the new vertex, bit i of the pattern x the arc
m -> i) from scratch.  It walks the parent's tied prefixes once:

1. Columns 1 .. n-2 of every candidate's target are the parent's own, so a
   tied prefix made only of parent vertices is the same for every pattern,
   and none of them compares smaller, or the parent would not be canonical.
2. Placing m at position q after such a prefix S compares the bits
   s_i -> m, which is NOT bit s_i of x, with parent column q; when q = n-1,
   S is a parent automorphism and the target is the candidate's own last
   column, bit i = NOT bit i of x.  Sets of patterns are 2^(n-1)-bit masks,
   ``X[v]`` holding the patterns with bit v set, so this comparison costs
   O(q) big-int steps for all patterns at once and splits them into
   smaller (rejected), larger, and tied.
3. Only a tied pattern gets a search of its own, the same loop resumed
   below S + [m]; m first ties every pattern, and those resumptions come
   last, after the cheaper placements have rejected what they can.

At n = 8 the 456 parents have 34,370 tied prefixes in all (roots
included), and 94,865 resumed searches visit 214,774 prefixes, where
searching each of the 58,368 candidates alone visited 1.66 M, 82% of them
parent-only prefixes repeated for every pattern.

Column masks are built from the parent's and the pattern only for the
14,749 candidates that need a resumed search, and rows only for the 6,880
accepted ones.  They describe a tournament by construction (the parent is
one, and the pattern orients each new pair once), so validating them, and
transposing rows into columns, would be work that proves nothing.  The
accepted candidates become ``Tournament`` objects with the columns the
search already holds and are validated as every tournament is; only rows
read from files or passed in by callers are transposed.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .core import Tournament, _bits


def _tied_prefixes(
    n: int, cols: Sequence[int], prefix: list[int]
) -> Iterator[Optional[list[int]]]:
    """Walk depth first the relabelings that extend ``prefix`` and tie the
    staircase encoding of the tournament given by its column masks; the
    prefix itself must tie.  Yields each longer tied prefix as the same,
    mutated list, and ``None`` when some relabeling below ``prefix`` is
    smaller, after which it stops."""
    full = (1 << n) - 1
    used = 0
    for s in prefix:
        used |= 1 << s
    # ties[-1]: the vertices tied at position len(prefix) and not yet
    # descended into; one entry per position from len(prefix) at the start
    ties = []
    while True:
        tie = 0
        p = len(prefix)
        if p < n:
            target = cols[p]
            tie = full ^ used
            for s in prefix:
                if target & 1:
                    if tie & cols[s]:
                        yield None
                        return
                else:
                    tie &= cols[s]
                    if not tie:
                        break
                target >>= 1
        ties.append(tie)
        while not ties[-1]:
            ties.pop()
            if not ties:
                return
            used ^= 1 << prefix.pop()
        tie = ties[-1]
        low = tie & -tie
        ties[-1] = tie ^ low
        prefix.append(low.bit_length() - 1)
        used |= low
        yield prefix


def is_canonical(t: Tournament) -> bool:
    """True when no vertex relabeling gives a smaller staircase encoding."""
    return None not in _tied_prefixes(t.n, t.cols, [])


def _pattern_masks(m: int) -> tuple[int, ...]:
    """X[v]: the m-bit patterns with bit v set, as one 2^m-bit mask (bit x
    of X[v] is bit v of x)."""
    every = (1 << (1 << m)) - 1
    return tuple(every // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v))
                 for v in range(m))


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
    X = _pattern_masks(m)
    every = (1 << (1 << m)) - 1
    result = []
    for t in canonical_tournaments(m):
        # bit x of a pattern set stands for the candidate with pattern x
        alive, starts = every, []
        for prefix in _tied_prefixes(m, t.cols, []):
            q, tie = len(prefix), alive
            for i, s in enumerate(prefix):
                # m at position q: its bit i, s -> m, is 0 for the patterns
                # in X[s], and ``one`` holds those whose target bit is 1; a 0
                # against a 1 is smaller, equal bits tie
                one = every ^ X[i] if q == m else every if t.cols[q] >> i & 1 else 0
                alive &= ~(tie & X[s] & one)
                tie &= X[s] ^ one
                if not tie:
                    break
            if q < m and tie:
                starts.append(([*prefix, m], tie))
        starts.append(([m], every))  # m first: column 0 is empty
        cols_of = {}
        for start, tie in starts:
            for x in _bits(tie & alive):
                cols = cols_of.get(x)
                if cols is None:
                    lifted = (col | new if x >> i & 1 else col for i, col in enumerate(t.cols))
                    cols = cols_of[x] = (*lifted, below ^ x)
                if None in _tied_prefixes(n, cols, list(start)):
                    alive ^= 1 << x
        for x in _bits(alive):
            rows = (*(row if x >> i & 1 else row | new for i, row in enumerate(t.rows)), x)
            result.append(Tournament._with_cols(n, rows, cols_of[x]))
    return tuple(result)
