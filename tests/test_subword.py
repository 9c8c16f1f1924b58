import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from backedge.constructions import c3, chain, tt
from backedge.core import Deadline, backedge_graph, clique_number
from backedge.gadgets import r5
from backedge.generation import canonical_tournaments
from backedge.solvers import omega_decide
from backedge.subword import PassInstance, is_tournament_closed, solve_pass, to_pass

from labeled import labeled_count, labeled_tournament
from test_ordering_search import random_tournament
from test_pass_search import planted


def is_subsequence(word, sequence):
    """Does ``word`` occur in ``sequence`` as a subsequence?"""
    it = iter(sequence)
    return all(symbol in it for symbol in word)


def test_to_pass_examples():
    assert to_pass(c3()).forbidden == ()
    assert to_pass(tt(3)).forbidden == ((2, 1, 0),)
    words = to_pass(r5()).forbidden
    assert len(words) == 5
    assert set(words) == {((i + 2) % 5, (i + 1) % 5, i) for i in range(5)}


def test_to_pass_words_are_length_three():
    for code in range(0, labeled_count(4), 7):
        instance = to_pass(labeled_tournament(4, code))
        assert all(len(w) == 3 for w in instance.forbidden)


def test_is_subsequence():
    assert not is_subsequence((2, 1, 0), (0, 1, 2))
    assert is_subsequence((2, 1, 0), (2, 1, 0))
    assert is_subsequence((2, 0), (2, 1, 0))
    assert is_subsequence((), (0, 1))


def test_solve_pass_examples():
    assert solve_pass(PassInstance(3, ((2, 1, 0),))) == (0, 1, 2)
    assert solve_pass(PassInstance(1, ((0,),))) is None
    assert solve_pass(PassInstance(0, ())) == ()


def test_solve_pass_result_avoids_everything():
    instance = to_pass(r5())
    permutation = solve_pass(instance)
    assert permutation is not None
    for word in instance.forbidden:
        assert not is_subsequence(word, permutation)


def test_solve_pass_is_lex_smallest():
    import itertools

    instance = to_pass(labeled_tournament(4, 0b110101))
    got = solve_pass(instance)
    for perm in itertools.permutations(range(4)):
        if all(not is_subsequence(w, perm) for w in instance.forbidden):
            assert got == perm
            break
    else:
        assert got is None


def test_length_validation():
    with pytest.raises(ValueError):
        PassInstance(4, ((0, 1, 2, 3),))
    with pytest.raises(ValueError):
        PassInstance(2, ((5,),))
    # general instances: lengths 1 and 2 are allowed
    inst = PassInstance(3, ((0,), (1, 2)))
    assert solve_pass(inst) is None  # symbol 0 can never be placed


def test_general_two_letter_words():
    # forbid 0 before 1 and 1 before 2: (2,1,0) is the only survivor
    inst = PassInstance(3, ((0, 1), (1, 2)))
    assert solve_pass(inst) == (2, 1, 0)


def test_closure_predicate():
    closed = to_pass(tt(4))
    assert is_tournament_closed(closed)
    open_instance = PassInstance(5, ((0, 1, 2), (3, 1, 4)))
    assert not is_tournament_closed(open_instance)


def closed_by_pairs(instance):
    """Reference closure predicate: every two words sharing a middle symbol
    have both crossed words forbidden too."""
    triples = {w for w in instance.forbidden if len(w) == 3}
    for a, b, c in triples:
        for d, b2, e in triples:
            if b2 == b and ((a, b, e) not in triples or (d, b, c) not in triples):
                return False
    return True


def test_closure_predicate_matches_the_pairwise_reference():
    rng = random.Random(7)
    closed_seen = 0
    for _ in range(3000):
        n = rng.randint(1, 6)
        words = {tuple(rng.randrange(n) for _ in range(3)) for _ in range(rng.randint(0, 12))}
        if rng.random() < 0.3:  # close under crossing, so both answers occur often
            middles = {b for _, b, _ in words}
            words = {(a, b, e) for b in middles for a, m, _ in words if m == b
                     for _, m2, e in words if m2 == b}
        instance = PassInstance(n, tuple(sorted(words)))
        expected = closed_by_pairs(instance)
        closed_seen += expected
        assert is_tournament_closed(instance) == expected, words
    assert 300 < closed_seen < 2700


def test_serialization_roundtrip():
    instance = to_pass(r5())
    assert PassInstance.from_dict(instance.to_dict()) == instance


@settings(max_examples=60)
@given(st.data())
def test_bridge_soundness(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    t = labeled_tournament(
        n, data.draw(st.integers(min_value=0, max_value=labeled_count(n) - 1))
    )
    perm = tuple(data.draw(st.permutations(range(n))))
    instance = to_pass(t)
    avoids = all(not is_subsequence(w, perm) for w in instance.forbidden)
    assert avoids == (clique_number(backedge_graph(t, perm)) <= 2)


def test_bridge_decision_sample():
    for code in range(0, labeled_count(5), 11):
        t = labeled_tournament(5, code)
        assert (solve_pass(to_pass(t)) is not None) == omega_decide(t, 2).decision


def test_solve_pass_agrees_with_brute_force_on_general_instances():
    import itertools
    import random

    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 5)
        words = []
        for _ in range(rng.randint(0, 6)):
            length = rng.randint(1, 3)
            words.append(tuple(rng.randrange(n) for _ in range(length)))
        instance = PassInstance(n, tuple(sorted(set(words))))
        expected = None
        for perm in itertools.permutations(range(n)):
            if all(not is_subsequence(w, perm) for w in instance.forbidden):
                expected = perm
                break
        assert solve_pass(instance) == expected


def counter_solve_pass(instance, *, deadline=Deadline()):
    """The per-word-counter search that the mask search replaced, kept as
    the oracle: the same forward check, with a branch dying once a
    forbidden word is embedded up to its still-unplaced last symbol."""
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


def test_mask_search_matches_the_counter_search_on_general_instances():
    rng = random.Random(4300)
    repeated = unsolved = 0
    for _ in range(1500):
        n = rng.randint(0, 9)
        words = {tuple(rng.randrange(n) for _ in range(rng.choice((2, 3, 3))))
                 for _ in range(rng.randint(0, 4 * n))}
        if n and rng.random() < 0.1:
            words.add((rng.randrange(n),))
        repeated += sum(len(set(word)) < len(word) for word in words)
        instance = PassInstance(n, tuple(sorted(words)))
        expected = counter_solve_pass(instance)
        # an instance with a one-letter word has no solution without a search
        unsolved += expected is None and all(len(word) > 1 for word in words)
        assert solve_pass(instance) == expected, instance
    assert repeated > 1000 and unsolved > 50


def test_pass_witness_is_the_omega_two_witness(surrogate):
    tournaments = [t for n in range(1, 8) for t in canonical_tournaments(n)]
    rng = random.Random(4400)
    for n in (8, 9, 10):
        for draw in range(20):
            tournaments.append(planted(n, rng, surrogate) if draw % 2 else
                               labeled_tournament(n, rng.randrange(labeled_count(n))))
    # 20 vertices whose k = 2 search replays the subtrees of repeated sets
    tournaments.append(chain([c3(), random_tournament(17, random.Random(2))]))
    unsolved = 0
    for t in tournaments:
        witness = omega_decide(t, 2).witness
        unsolved += witness is None
        assert solve_pass(to_pass(t)) == witness, t
    assert unsolved > 20
