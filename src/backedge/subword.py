"""Bridge to strings: forbidden-subword instances built from tournaments.

A permutation of a tournament's vertices avoids the instance's forbidden
words exactly when its backedge graph is triangle-free, so solving these
instances decides whether the ordering clique number is at most 2.  One
word table of masks serves both the closure predicate and the solver: the
search of `solvers.iter_orderings_with_clique_at_most`, run on that table.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Optional

from .core import Deadline, Tournament, _bits, _quote
from .io import _check_json
from .solvers import _prefix_search


# words per deadline poll of `PassInstance` and `_tables`
_WORD_BLOCK = 4096


@dataclass(frozen=True)
class PassInstance:
    """An alphabet of symbols 0..alphabet_size-1 and its forbidden words.
    ``deadline`` is no field: the checks of the words poll it once per
    `_WORD_BLOCK` words."""

    alphabet_size: int
    forbidden: tuple[tuple[int, ...], ...]
    deadline: InitVar[Deadline] = Deadline()

    def __post_init__(self, deadline: Deadline) -> None:
        n, words = self.alphabet_size, self.forbidden
        if n < 0:
            raise ValueError(f"alphabet size {n} is negative")
        for start in range(0, len(words), _WORD_BLOCK):
            deadline.check()
            for word in words[start:start + _WORD_BLOCK]:
                if not 1 <= len(word) <= 3:
                    raise ValueError(f"forbidden word {word} has length {len(word)}")
                for symbol in word:
                    if not 0 <= symbol < n:
                        raise ValueError(f"symbol {symbol} outside the alphabet")

    def to_dict(self) -> dict:
        return {
            "alphabet": self.alphabet_size,
            "forbidden": [list(w) for w in self.forbidden],
        }

    @classmethod
    def from_dict(cls, data: dict, deadline: Deadline = Deadline()) -> "PassInstance":
        """The instance of a JSON form, its words sorted.  Each word must be a
        list of integers; ``deadline`` is polled once per `_WORD_BLOCK` words,
        here and in the checks of the instance."""
        _check_json(data, {"alphabet": None, "forbidden": [None]}, "pass instance")
        alphabet, words, forbidden = data["alphabet"], data["forbidden"], []
        if type(alphabet) is not int:
            raise ValueError(f"alphabet and symbols must be integers, got {_quote(alphabet)}")
        for start in range(0, len(words), _WORD_BLOCK):
            deadline.check()
            for i, word in enumerate(words[start:start + _WORD_BLOCK], start):
                if type(word) is not list:  # raises, naming the word
                    _check_json(word, [None], f"pass instance.forbidden[{i}]")
                for symbol in word:
                    if type(symbol) is not int:
                        raise ValueError(f"alphabet and symbols must be integers, got {_quote(symbol)}")
                forbidden.append(tuple(word))
        forbidden.sort()
        return cls(alphabet, tuple(forbidden), deadline)


def to_pass(t: Tournament, deadline: Deadline = Deadline()) -> PassInstance:
    """One length-3 word per transitive triangle: sink, then middle, then
    source.  Embedding such a word in an ordering is the same as those three
    vertices forming a backedge triangle.  The words are listed sink by sink,
    each sink's in-neighbours in increasing order, so they come out sorted;
    ``deadline`` is polled once per sink."""
    words = []
    for w in range(t.n):
        deadline.check()
        for v in _bits(t.cols[w]):
            words.extend((w, v, u) for u in _bits(t.cols[v] & t.cols[w]))
    return PassInstance(t.n, tuple(words), deadline)


def _tables(
    instance: PassInstance, deadline: Deadline = Deadline()
) -> tuple[list[int], list[int], list[int], list[dict]]:
    """`solvers._prefix_search`'s kill rule, per symbol s: ``kills[s]``, the b
    of the words (s, b); ``pairs[s][c]``, the a of the words (a, s, c);
    ``threats[s]`` and ``backs[s]``, all those c and all those a, as masks.
    ``deadline`` is polled once per `_WORD_BLOCK` words."""
    n, words = instance.alphabet_size, instance.forbidden
    kills, threats, backs = [0] * n, [0] * n, [0] * n
    pairs: list[dict[int, int]] = [{} for _ in range(n)]
    for start in range(0, len(words), _WORD_BLOCK):
        deadline.check()
        for word in words[start:start + _WORD_BLOCK]:
            if len(word) == 2:
                kills[word[0]] |= 1 << word[1]
            elif len(word) == 3:
                a, s, c = word
                pairs[s][c] = pairs[s].get(c, 0) | 1 << a
                threats[s] |= 1 << c
                backs[s] |= 1 << a
    return kills, threats, backs, pairs


def is_tournament_closed(instance: PassInstance, deadline: Deadline = Deadline()) -> bool:
    """Closure predicate: whenever words abc and dbe share their middle
    symbol, the crossed words abe and dbc must also be forbidden.  Reported,
    never enforced.  That holds exactly when, for each middle symbol, every
    last symbol maps to the same mask of first symbols."""
    return all(len(set(table.values())) <= 1 for table in _tables(instance, deadline)[3])


def solve_pass(
    instance: PassInstance, *, deadline: Deadline = Deadline()
) -> Optional[tuple[int, ...]]:
    """Lexicographically smallest permutation of the alphabet avoiding every
    forbidden word as a subsequence, or None.

    The search of `solvers.iter_orderings_with_clique_at_most` at k = 2, its
    memo, replay and deadline polls included: placing s kills the prefix
    when a word (s, b), or a word (a, s, c) with a placed, has its last
    symbol unplaced.  A word that repeats a symbol never embeds in a
    permutation and never meets either test.  Building the tables polls
    ``deadline`` too."""
    if any(len(word) == 1 for word in instance.forbidden):
        return None
    tables = _tables(instance, deadline)
    search = _prefix_search(instance.alphabet_size, 2, *tables, deadline=deadline)
    return next(search, None)
