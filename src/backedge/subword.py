"""Bridge to strings: forbidden-subword instances built from tournaments.

A permutation of a tournament's vertices avoids the instance's forbidden
words exactly when its backedge graph is triangle-free, so solving these
instances decides whether the ordering clique number is at most 2.  One
word table of masks serves both the closure predicate and the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import Deadline, Tournament, _bits, _quote
from .io import _check_json


@dataclass(frozen=True)
class PassInstance:
    alphabet_size: int
    forbidden: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.alphabet_size < 0:
            raise ValueError(f"alphabet size {self.alphabet_size} is negative")
        for word in self.forbidden:
            if not 1 <= len(word) <= 3:
                raise ValueError(f"forbidden word {word} has length {len(word)}")
            for symbol in word:
                if not 0 <= symbol < self.alphabet_size:
                    raise ValueError(f"symbol {symbol} outside the alphabet")

    def to_dict(self) -> dict:
        return {
            "alphabet": self.alphabet_size,
            "forbidden": [list(w) for w in self.forbidden],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PassInstance":
        _check_json(data, {"alphabet": None, "forbidden": [[None]]}, "pass instance")
        alphabet, forbidden = data["alphabet"], [tuple(w) for w in data["forbidden"]]
        for value in (alphabet, *(s for w in forbidden for s in w)):
            if type(value) is not int:
                raise ValueError(f"alphabet and symbols must be integers, got {_quote(value)}")
        return cls(alphabet, tuple(sorted(forbidden)))


def to_pass(t: Tournament) -> PassInstance:
    """One length-3 word per transitive triangle: sink, then middle, then
    source.  Embedding such a word in an ordering is the same as those three
    vertices forming a backedge triangle."""
    words = []
    for u in range(t.n):
        for v in _bits(t.rows[u]):
            for w in _bits(t.rows[u] & t.rows[v]):
                words.append((w, v, u))
    return PassInstance(t.n, tuple(sorted(words)))


def _tables(instance: PassInstance) -> tuple[list[int], list[dict[int, int]]]:
    """Per symbol s: ``after[s]``, the mask of the b of the words (s, b), and
    ``lasts[s][a]``, the mask of the c of the words (a, s, c)."""
    after = [0] * instance.alphabet_size
    lasts: list[dict[int, int]] = [{} for _ in range(instance.alphabet_size)]
    for word in instance.forbidden:
        if len(word) == 2:
            after[word[0]] |= 1 << word[1]
        elif len(word) == 3:
            a, s, c = word
            lasts[s][a] = lasts[s].get(a, 0) | 1 << c
    return after, lasts


def is_tournament_closed(instance: PassInstance) -> bool:
    """Closure predicate: whenever words abc and dbe share their middle
    symbol, the crossed words abe and dbc must also be forbidden.  Reported,
    never enforced.  That holds exactly when, for each middle symbol, every
    first symbol maps to the same mask of last symbols."""
    return all(len(set(table.values())) <= 1 for table in _tables(instance)[1])


def solve_pass(
    instance: PassInstance, *, deadline: Deadline = Deadline()
) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest permutation of the alphabet avoiding every
    forbidden word as a subsequence, or None.

    Depth-first over prefixes, on an explicit stack of candidate masks, with
    forward checking: placing s kills the prefix when a word (s, b) or a word
    (a, s, c) with a placed still has its last symbol unplaced.  A word that
    repeats a symbol never embeds in a permutation and never meets either
    test."""
    n = instance.alphabet_size
    if any(len(word) == 1 for word in instance.forbidden):
        return None
    after, lasts = _tables(instance)
    full = (1 << n) - 1
    placed = nodes = 0
    prefix: list[int] = []
    # avails[i]: the candidates still untried at position i of the prefix
    avails = [full]
    while len(prefix) < n:
        avail = avails[-1]
        if not avail:
            avails.pop()
            if not prefix:
                return None
            placed ^= 1 << prefix.pop()
            continue
        low = avail & -avail
        avails[-1] = avail ^ low
        s = low.bit_length() - 1
        nodes += 1
        if nodes & 0xFFF == 0:
            deadline.check()
        rest = full ^ placed ^ low
        if after[s] & rest or any(cs & rest for a, cs in lasts[s].items() if placed >> a & 1):
            continue
        placed |= low
        prefix.append(s)
        avails.append(rest)
    return tuple(prefix)
