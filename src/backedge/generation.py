"""Isomorphism-free generation of small tournaments.

Canonical form: the "staircase" encoding lists, for each vertex j in turn,
the arc bits between j and every earlier vertex (bit i of column j is set
iff i -> j, so column j is ``cols[j]`` below bit j); a tournament is
canonical when no relabeling yields a lexicographically smaller encoding.
Removing the last vertex of a canonical tournament leaves a canonical one,
so each size extends the previous by a new last vertex (orderly generation,
McKay 1998).

A parent on m = n - 1 vertices has 2^m candidates, one per pattern x of the
new vertex m (bit i of x is the arc m -> i).  ``_dead_patterns`` tests them
all in one depth-first walk, on an explicit stack, over relabeling prefixes
s_0, s_1, ...  Sets of patterns are 2^m-bit masks, ``X[v]`` holding the
patterns with bit v set, and each prefix carries the set of patterns for
which it ties the target encoding.  Placing w at position p compares the
relabeled column, bits s_i -> w, with target column p, bits i -> p:

* between two parent vertices a bit is the same for every pattern.  Each
  parent vertex w keeps its relabeled column over the prefix as one int,
  ``col[w]``: placing s at p sets bit p in the columns of the vertices s
  beats, and backtracking clears it, so ``col[w] ^ target`` and its lowest
  set bit find the first differing position at once;
* only two things split the pattern set: the new vertex's own bit (m -> w
  is ``X[w]`` once m sits in the prefix; s_i -> m is NOT bit s_i,
  ``every ^ X[s_i]``, when m is the vertex placed), and the target's last
  column (i -> m is NOT bit i), compared only at position m.

At the first differing position a 0 against a 1 makes the relabeling
smaller whatever fills the later positions, so those patterns join
``dead``; a 1 against a 0 is larger and drops them from the prefix.  The
patterns equal so far descend, less whatever died meanwhile.  So a pattern
dies only on a strictly smaller comparison, and every smaller relabeling is
caught at its first differing position, below a prefix that still ties it;
a prefix tied through all n positions is an automorphism and proves
nothing.  Each prefix is visited once for every pattern that ties there:
the parent-only ones, the same for every pattern, once per parent (they
never compare smaller, or the parent would not be canonical).  Children go
in vertex order, m last: at n = 8 the walk visits 87,774 prefixes over the
456 parents, 115,762 with m first.

``is_canonical(t)`` runs the same walk on a one-pattern universe: the
parent is t without its last vertex, ``every = 1`` and ``X[v]`` is bit v of
t's last row.  The accepted candidates get their rows and columns from the
parent's and the pattern, which describe a tournament by construction (the
parent is one, and the pattern orients each new pair once), so nothing is
transposed; only rows read from files or passed in by callers are.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from .core import Tournament, _bits


def _dead_patterns(t: Tournament, m: int, X: tuple[int, ...], every: int) -> int:
    """The patterns x in ``every`` whose candidate (the first m vertices of
    t, plus vertex m with m -> i iff bit i of x) has a relabeling with a
    smaller staircase encoding."""
    rows, cols = t.rows, t.cols
    outs = [tuple(_bits(rows[s] & ((1 << m) - 1))) for s in range(m)]
    targets = [cols[p] & ((1 << p) - 1) for p in range(m)]
    col = [0] * m
    # jb: 1 << the position of m once placed; stack[-1]: the (vertex, tied
    # patterns) still to try at position len(prefix), popped from the end:
    # the parent vertices upward, then m
    prefix, free, jb, dead, tie, stack = [], (1 << m) - 1, 0, 0, every, []
    while True:
        p, kids = len(prefix), []
        if p == m:  # the last vertex; target bit i is i -> m, NOT bit i of x
            w = free.bit_length() - 1  # -1 when m is the last vertex
            for i, s in enumerate(prefix):
                one = every ^ X[i]
                r = every ^ X[s] if w < 0 else X[w] if s == m else -(col[w] >> i & 1) & every
                dead |= tie & one & ~r
                tie &= ~(one ^ r)
                if not tie:
                    break
        else:
            target = targets[p]
            if not jb:  # m at position p: its bit i, s_i -> m, is NOT bit s_i
                tm = tie
                for i, s in enumerate(prefix):
                    if target >> i & 1:
                        dead |= tm & X[s]
                        tm &= ~X[s]
                    else:
                        tm &= X[s]
                    if not tm:
                        break
                else:
                    kids.append((m, tm))
            f = free
            while f:
                w = f.bit_length() - 1
                f ^= 1 << w
                d = col[w] ^ target
                if d & (jb - 1):  # a parent-only bit differs first
                    if target & d & -d:
                        dead |= tie
                    continue
                tw = tie
                if jb:  # m at position j: bit j, m -> w, is bit w of x
                    if target & jb:
                        dead |= tie & ~X[w]
                        tw &= X[w]
                    else:
                        tw &= ~X[w]
                    d &= ~jb
                    if d:
                        if target & d & -d:
                            dead |= tw
                        continue
                if tw:
                    kids.append((w, tw))
        stack.append(kids)
        while True:
            kids = stack[-1]
            while kids:
                w, tie = kids.pop()
                tie &= ~dead
                if tie:
                    break
            else:
                stack.pop()
                if not prefix:
                    return dead
                w, tie = prefix.pop(), 0  # backtrack: clear w's placement
            # placing w and taking it back flip the same bits
            bit = 1 << len(prefix)
            if w == m:
                jb ^= bit
            else:
                free ^= 1 << w
                for u in outs[w]:
                    col[u] ^= bit
            if tie:
                prefix.append(w)
                break


def is_canonical(t: Tournament) -> bool:
    """True when no vertex relabeling gives a smaller staircase encoding."""
    m = t.n - 1
    return not _dead_patterns(t, m, tuple(t.rows[m] >> v & 1 for v in range(m)), 1)


@lru_cache(maxsize=None)
def _pattern_masks(m: int) -> tuple[int, ...]:
    """X[v]: the m-bit patterns with bit v set, as one 2^m-bit mask (bit x
    of X[v] is bit v of x)."""
    every = (1 << (1 << m)) - 1
    return tuple(every // ((1 << (2 << v)) - 1) * (((1 << (1 << v)) - 1) << (1 << v))
                 for v in range(m))


def extensions(t: Tournament) -> Iterator[Tournament]:
    """The canonical tournaments that extend canonical t by a new last
    vertex, in generation order; one walk tests every pattern first."""
    m = t.n
    new, below = 1 << m, (1 << m) - 1
    every = (1 << (1 << m)) - 1
    # bit x of a pattern set stands for the candidate with pattern x
    for x in _bits(every ^ _dead_patterns(t, m, _pattern_masks(m), every)):
        rows = (*(row if x >> i & 1 else row | new for i, row in enumerate(t.rows)), x)
        cols = (*(col | new if x >> i & 1 else col for i, col in enumerate(t.cols)), below ^ x)
        yield Tournament._with_cols(m + 1, rows, cols)


@lru_cache(maxsize=None)
def canonical_tournaments(n: int) -> tuple[Tournament, ...]:
    """All tournaments on n vertices up to isomorphism, one canonical
    representative each, in generation order."""
    if n < 1:
        raise ValueError("n must be positive")
    parents = canonical_tournaments(n - 1) if n > 1 else (Tournament(0, ()),)
    return tuple(t for parent in parents for t in extensions(parent))
