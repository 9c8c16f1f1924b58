"""Bridge to strings: forbidden-subword instances built from tournaments.

A permutation of a tournament's vertices avoids the instance's forbidden
words exactly when its backedge graph is triangle-free, so solving these
instances decides whether the ordering clique number is at most 2.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

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


def is_subsequence(word: Sequence[int], sequence: Sequence[int]) -> bool:
    it = iter(sequence)
    return all(symbol in it for symbol in word)


def is_tournament_closed(instance: PassInstance) -> bool:
    """Closure predicate: whenever words abc and dbe share their middle
    symbol, the crossed words abe and dbc must also be forbidden.  Reported,
    never enforced.  That holds exactly when, for each middle symbol, the
    (first, last) pairs of its words are every first with every last."""
    firsts, lasts, pairs = defaultdict(set), defaultdict(set), defaultdict(set)
    for a, b, c in (w for w in instance.forbidden if len(w) == 3):
        firsts[b].add(a)
        lasts[b].add(c)
        pairs[b].add((a, c))
    return all(len(pairs[b]) == len(firsts[b]) * len(lasts[b]) for b in pairs)


def solve_pass(
    instance: PassInstance, *, deadline: Deadline = Deadline()
) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest permutation of the alphabet avoiding every
    forbidden word as a subsequence, or None.

    Depth-first over prefixes, on an explicit stack, with forward checking:
    a branch dies once a forbidden word is embedded up to its still-unplaced
    last symbol."""
    n = instance.alphabet_size
    words = instance.forbidden
    if any(len(word) == 1 for word in words):
        return None
    touching: list[list[int]] = [[] for _ in range(n)]
    for idx, word in enumerate(words):
        for symbol in set(word):
            touching[symbol].append(idx)
    matched = [0] * len(words)
    used = [False] * n
    prefix: list[int] = []
    # advanced[i]: the words whose match the i-th placed symbol extended
    advanced: list[list[int]] = []
    start = 0  # the current position tries its candidates from this symbol up
    nodes = 0
    while len(prefix) < n:
        for s in range(start, n):
            if used[s]:
                continue
            nodes += 1
            if nodes & 0xFFF == 0:
                deadline.check()
            used[s] = True
            moved = []
            for idx in touching[s]:
                word = words[idx]
                if word[matched[idx]] == s:
                    matched[idx] += 1
                    moved.append(idx)
                    if matched[idx] + 1 == len(word) and not used[word[-1]]:
                        break
            else:
                break  # s survives the forward check: place it
            used[s] = False
            for idx in moved:
                matched[idx] -= 1
        else:
            if not prefix:
                return None
            s = prefix.pop()
            used[s] = False
            for idx in advanced.pop():
                matched[idx] -= 1
            start = s + 1
            continue
        prefix.append(s)
        advanced.append(moved)
        start = 0
    return tuple(prefix)
