"""The embedding search with lookahead and the pattern's symmetry break
against the search it replaced, which stays here as the reference
implementation: the same lexicographically first witness, or None, for every
lookahead width, and the same automorphism orbits as brute force."""

import itertools
import random

import pytest

from backedge import core
from backedge.constructions import c3, tt
from backedge.core import BudgetExhausted, Deadline, Tournament, _orbit, contains_subtournament
from backedge.gadgets import r5
from backedge.generation import canonical_tournaments

from labeled import labeled_count, labeled_tournament


def _swap(t, a):
    """``t`` with vertices 0 and ``a`` exchanged."""
    flip = 1 | 1 << a
    rows = [row ^ flip if (row ^ row >> a) & 1 else row for row in t.rows]
    rows[0], rows[a] = rows[a], rows[0]
    return Tournament(t.n, tuple(rows))


def reference_embedding(host, pattern):
    """Search that narrows only the next pattern vertex's candidates."""
    pn, hn = pattern.n, host.n
    if pn > hn:
        return None
    if pn == 0:
        return ()
    # degree pre-filter: host vertex must dominate the pattern vertex's degrees
    degrees = [(row.bit_count(), col.bit_count()) for row, col in zip(host.rows, host.cols)]
    allowed = []
    for p in range(pn):
        po, pi = pattern.rows[p].bit_count(), pattern.cols[p].bit_count()
        mask = 0
        for h, (ho, hi) in enumerate(degrees):
            if ho >= po and hi >= pi:
                mask |= 1 << h
        if not mask:
            return None
        allowed.append(mask)

    prows, hrows, hcols = pattern.rows, host.rows, host.cols
    image = [0] * pn
    used = 0  # images of the pattern vertices below the one being assigned
    # cands[p]: host candidates for pattern vertex p not yet tried
    cands = [allowed[0]]
    while cands:
        cand = cands[-1]
        p = len(cands) - 1
        if not cand:
            cands.pop()
            if p:
                used ^= 1 << image[p - 1]
            continue
        low = cand & -cand
        cands[-1] = cand ^ low
        image[p] = low.bit_length() - 1
        if p + 1 == pn:
            return tuple(image)
        # pattern vertex p + 1 maps to a host vertex h with h -> image[q]
        # iff p + 1 -> q in the pattern, for every q <= p
        nxt = allowed[p + 1] & ~(used | low)
        row = prows[p + 1]
        for q in range(p + 1):
            nxt &= hcols[image[q]] if row >> q & 1 else hrows[image[q]]
            if not nxt:
                break
        if nxt:
            used |= low
            cands.append(nxt)
    return None


def qr7():
    """The Paley tournament on 7 vertices: i -> j iff j - i is a nonzero
    square mod 7.  Its automorphisms are the 21 maps x -> ax + b with a a
    square."""
    return Tournament.from_arcs(7, [(i, (i + s) % 7) for i in range(7) for s in (1, 2, 4)])


def brute_orbit(t):
    """The images of vertex 0 under the automorphisms of t, by trying all n!
    relabelings."""
    return {
        perm[0]
        for perm in itertools.permutations(range(t.n))
        if all(t.has_arc(perm[u], perm[v]) for u, v in t.arcs())
    }


def automorphism_count(t):
    return sum(
        all(t.has_arc(perm[u], perm[v]) for u, v in t.arcs())
        for perm in itertools.permutations(range(t.n))
    )


def planted_host(rng, n, pattern):
    """A random n-vertex tournament with a copy of ``pattern`` on random
    vertices in random order."""
    host = labeled_tournament(n, rng.randrange(labeled_count(n)))
    spots = rng.sample(range(n), pattern.n)
    rows = list(host.rows)
    for p, q in itertools.combinations(range(pattern.n), 2):
        u, v = spots[p], spots[q]
        if pattern.has_arc(p, q) != host.has_arc(u, v):
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
    return Tournament(n, tuple(rows))


def test_qr7_is_vertex_transitive_with_21_automorphisms():
    assert automorphism_count(qr7()) == 21
    assert brute_orbit(qr7()) == set(range(7))


@pytest.mark.parametrize("width", [1, 2, 3, 8])
def test_matches_the_reference_on_seeded_hosts(monkeypatch, surrogate, width):
    monkeypatch.setattr(core, "_LOOKAHEAD", width)
    rng = random.Random(width)
    found = 0
    for pattern in (c3(), r5(), surrogate, qr7()):
        for trial in range(40):
            n = rng.randint(7, 16)
            if trial % 2:
                host = planted_host(rng, n, pattern)
            else:
                host = labeled_tournament(n, rng.randrange(labeled_count(n)))
            image = contains_subtournament(host, pattern)
            assert image == reference_embedding(host, pattern), (host, pattern)
            assert image is not None or not trial % 2
            found += image is not None
    assert found < 4 * 40  # some hosts hold no copy: both answers are checked


def test_witness_is_the_first_injection_for_c3_and_r5():
    # brute force over every injection in lexicographic order
    rng = random.Random(5)
    for pattern in (c3(), r5()):
        for _ in range(25):
            hn = rng.randint(pattern.n, 8)
            host = labeled_tournament(hn, rng.randrange(labeled_count(hn)))
            first = next(
                (image for image in itertools.permutations(range(hn), pattern.n)
                 if all(pattern.has_arc(p, q) == host.has_arc(image[p], image[q])
                        for p in range(pattern.n) for q in range(pattern.n) if p != q)),
                None,
            )
            assert contains_subtournament(host, pattern) == first, (host, pattern)


def test_orbit_matches_brute_force(surrogate):
    rng = random.Random(3)
    cases = [c3(), r5(), qr7(), surrogate, tt(1), tt(5)]
    cases += [labeled_tournament(n, rng.randrange(labeled_count(n)))
              for n in (4, 5, 6, 6, 7, 7) for _ in range(3)]
    for t in cases:
        orbit = _orbit(t)
        assert {v for v in range(t.n) if orbit >> v & 1} == brute_orbit(t), t


class PollCounter(Deadline):
    """A deadline that counts its polls and expires at poll ``limit``."""

    def __init__(self, limit=None):
        super().__init__()
        self.limit, self.polls = limit, 0

    def check(self):
        self.polls += 1
        if self.polls == self.limit:
            raise BudgetExhausted(f"poll {self.polls}")


def test_search_polls_its_deadline_as_it_goes(monkeypatch, d2):
    # without lookahead, showing that D2 holds no r5 takes some 21,000 nodes:
    # besides the poll on entry the search polls every 4,096 nodes, and a
    # budget that runs out at any poll stops it
    monkeypatch.setattr(core, "_LOOKAHEAD", 1)
    counter = PollCounter()
    assert contains_subtournament(d2.tournament, r5(), counter) is None
    assert counter.polls > 3
    for limit in (2, counter.polls):
        with pytest.raises(BudgetExhausted):
            contains_subtournament(d2.tournament, r5(), PollCounter(limit))


@pytest.mark.slow
def test_every_small_class_into_every_7_vertex_class():
    hosts = canonical_tournaments(7)
    for pn in range(1, 7):
        for pattern in canonical_tournaments(pn):
            for host in hosts:
                assert contains_subtournament(host, pattern) == reference_embedding(host, pattern)


@pytest.mark.slow
def test_orbit_answers_the_first_vertex_question_as_embeddings_did():
    # f is mapped onto every vertex iff, with f and v each relabeled 0, the
    # first embedding of one copy into the other fixes 0 for every v
    for n in range(1, 8):
        for t in canonical_tournaments(n):
            for f in range(n):
                pattern = _swap(t, f)
                onto_all = all(reference_embedding(_swap(t, v), pattern)[0] == 0
                               for v in range(n))
                assert (_orbit(pattern) == (1 << n) - 1) == onto_all, (t, f)
