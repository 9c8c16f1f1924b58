"""Isomorphism-free generation of small tournaments.

Canonical form: the "staircase" encoding lists, for each vertex j in turn,
the arc bits between j and every earlier vertex; a tournament is canonical
when no relabeling yields a lexicographically smaller encoding.  Removing
the last vertex of a canonical tournament leaves a canonical one, so each
size extends the previous by a new last vertex (orderly generation).
"""

from __future__ import annotations

from functools import lru_cache

from .core import Tournament


def staircase(t: Tournament) -> tuple[int, ...]:
    bits = []
    for j in range(t.n):
        for i in range(j):
            bits.append(t.rows[i] >> j & 1)
    return tuple(bits)


def is_canonical(t: Tournament) -> bool:
    """True when no vertex relabeling gives a smaller staircase encoding."""
    n = t.n
    rows = t.rows
    target = staircase(t)
    used = [False] * n
    chosen: list[int] = []

    def smaller_exists(idx: int) -> bool:
        if len(chosen) == n:
            return False
        for w in range(n):
            if used[w]:
                continue
            verdict = 0
            for off, s in enumerate(chosen):
                bit = rows[s] >> w & 1
                if bit != target[idx + off]:
                    verdict = -1 if bit < target[idx + off] else 1
                    break
            if verdict == -1:
                return True
            if verdict == 1:
                continue
            used[w] = True
            chosen.append(w)
            if smaller_exists(idx + len(chosen) - 1):
                return True
            chosen.pop()
            used[w] = False
        return False

    return not smaller_exists(0)


@lru_cache(maxsize=None)
def canonical_tournaments(n: int) -> tuple[Tournament, ...]:
    """All tournaments on n vertices up to isomorphism, one canonical
    representative each, in generation order."""
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (Tournament(1, (0,)),)
    result = []
    for t in canonical_tournaments(n - 1):
        for pattern in range(1 << (n - 1)):
            # bit i of pattern: arc from the new vertex n-1 to i
            rows = list(t.rows)
            for i in range(n - 1):
                if not pattern >> i & 1:
                    rows[i] |= 1 << (n - 1)
            candidate = Tournament(n, (*rows, pattern))
            if is_canonical(candidate):
                result.append(candidate)
    return tuple(result)
