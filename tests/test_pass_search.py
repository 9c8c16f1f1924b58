"""The explicit-stack pass search against the recursive search it replaced,
which stays here as the reference implementation: the same permutation (or
None) on pass-shaped and generic instances, and no recursion limit on long
alphabets."""

import random

import pytest

from backedge.core import Tournament
from backedge.subword import PassInstance, solve_pass, to_pass

from labeled import labeled_count, labeled_tournament


def reference_solve_pass(instance):
    """Recursive depth-first search with the same forward check: a branch
    dies once a forbidden word is embedded up to its still-unplaced last
    symbol."""
    n = instance.alphabet_size
    words = instance.forbidden
    if any(len(word) == 1 for word in words):
        return None
    touching = [[] for _ in range(n)]
    for idx, word in enumerate(words):
        for symbol in set(word):
            touching[symbol].append(idx)
    matched = [0] * len(words)
    prefix = []
    used = [False] * n

    def extend():
        if len(prefix) == n:
            return tuple(prefix)
        for s in range(n):
            if used[s]:
                continue
            used[s] = True
            advanced = []
            for idx in touching[s]:
                word = words[idx]
                if word[matched[idx]] == s:
                    matched[idx] += 1
                    advanced.append(idx)
                    if matched[idx] + 1 == len(word) and not used[word[-1]]:
                        break
            else:
                prefix.append(s)
                result = extend()
                if result is not None:
                    return result
                prefix.pop()
            used[s] = False
            for idx in advanced:
                matched[idx] -= 1
        return None

    return extend()


def planted(n, rng, w):
    """A random tournament on n vertices with ``w`` copied onto a random
    vertex subset, so its ordering clique number is at least w's."""
    t = labeled_tournament(n, rng.randrange(labeled_count(n)))
    spots = rng.sample(range(n), w.n)
    rows = list(t.rows)
    for i, u in enumerate(spots):
        for j, v in enumerate(spots):
            if w.has_arc(i, j):
                rows[u] |= 1 << v
                rows[v] &= ~(1 << u)
    return Tournament(n, tuple(rows))


@pytest.mark.parametrize("n", [8, 9])
def test_matches_reference_on_seeded_pass_instances(n, surrogate):
    rng = random.Random(9100 + n)
    outcomes = set()
    for draw in range(40):
        if draw % 2:
            t = planted(n, rng, surrogate)
        else:
            t = labeled_tournament(n, rng.randrange(labeled_count(n)))
        instance = to_pass(t)
        got = solve_pass(instance)
        assert got == reference_solve_pass(instance), instance
        outcomes.add(got is None)
    assert outcomes == {True, False}


def test_matches_reference_on_seeded_generic_instances():
    rng = random.Random(9200)
    lengths = set()
    for _ in range(400):
        n = rng.randint(1, 8)
        words = []
        for _ in range(rng.randint(0, 3 * n)):
            # small alphabets make repeated symbols inside a word common
            word = tuple(rng.randrange(n) for _ in range(rng.choice((1, 2, 2, 3, 3, 3))))
            words.append(word)
            lengths.add(len(word))
        instance = PassInstance(n, tuple(sorted(set(words))))
        assert solve_pass(instance) == reference_solve_pass(instance), instance
    assert lengths == {1, 2, 3}


def test_long_alphabets_need_no_recursion():
    assert solve_pass(PassInstance(1200, ())) == tuple(range(1200))
    # a chain of two-letter words forces the reverse of the natural order
    chain = tuple((s, s + 1) for s in range(1199))
    assert solve_pass(PassInstance(1200, chain)) == tuple(reversed(range(1200)))
