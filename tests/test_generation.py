import hashlib
import inspect
import itertools
import json
import random
from functools import lru_cache

import pytest

from backedge.core import Tournament, _transpose, contains_subtournament
from backedge.gadgets import r5
from backedge.generation import _pattern_masks, canonical_tournaments, extensions

from labeled import labeled_count, labeled_tournament

# numbers of tournaments up to isomorphism, n = 1..8 (OEIS A000568)
KNOWN_CLASS_COUNTS = [1, 1, 2, 4, 12, 56, 456, 6880]

# sha256 of json.dumps([t.rows for t in canonical_tournaments(n)]) for n = 7
# and 8: the representatives and their order are outputs (the companion W7 is
# the first value-3 tournament among the 7-vertex ones)
CLASSES_7_DIGEST = "150b0b4d16b25951095d870554fffaa1b583bde7eb64a806c68241b5286cd8e1"
CLASSES_8_DIGEST = "1ddd606a558db4ed05554c6ce7a89f4a856df9fc23b5dcb5223362c2d39f4766"
# the same for n = 9, recorded from the generator that walked each parent's
# tied prefixes and then resumed one search per surviving pattern
CLASSES_9_DIGEST = "a0ebb67a12e4d3ec2043d5d4ca2e8c6c7ebadd5fb852b4cb96a88bedf93d7444"


# The recursive relabeling search that the mask-parallel one replaced, kept
# as its oracle: it tries the free vertices for each position one by one and
# compares their column of the staircase encoding bit by bit.


def staircase(t: Tournament) -> tuple[int, ...]:
    bits = []
    for j in range(t.n):
        for i in range(j):
            bits.append(t.rows[i] >> j & 1)
    return tuple(bits)


def oracle_is_canonical(t: Tournament) -> bool:
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
def _extension_rows(m, rows):
    return frozenset(t.rows for t in extensions(Tournament(m, rows)))


def is_canonical(t: Tournament) -> bool:
    """Asked of the generator: t is canonical exactly when it is among the
    extensions of its first n - 1 vertices (one parent's walk, cached)."""
    m = t.n - 1
    return t.rows in _extension_rows(m, tuple(row & ((1 << m) - 1) for row in t.rows[:m]))


def candidates(n):
    """Every extension of every (n - 1)-vertex class by a last vertex, in
    generation order; bit i of the pattern is the arc from the new vertex to i."""
    for t in canonical_tournaments(n - 1):
        for pattern in range(1 << (n - 1)):
            rows = [row | (0 if pattern >> i & 1 else 1 << (n - 1)) for i, row in enumerate(t.rows)]
            yield Tournament(n, (*rows, pattern))


def check_against_oracle(n):
    """Agreement on every candidate, and the accepted ones in order are the
    generated classes, rows and columns alike; returns the candidate count."""
    accepted = []
    checked = 0
    for candidate in candidates(n):
        checked += 1
        verdict = is_canonical(candidate)
        assert verdict == oracle_is_canonical(candidate), candidate
        if verdict:
            accepted.append(candidate)
    assert tuple(accepted) == canonical_tournaments(n)
    assert [t.cols for t in accepted] == [t.cols for t in canonical_tournaments(n)]
    return checked


@pytest.mark.parametrize("n", range(1, 9))
def test_canonical_counts(n):
    assert len(canonical_tournaments(n)) == KNOWN_CLASS_COUNTS[n - 1]


@pytest.mark.parametrize("n", range(2, 8))
def test_is_canonical_matches_oracle_on_every_candidate(n):
    check_against_oracle(n)


@pytest.mark.slow
def test_is_canonical_matches_oracle_on_every_8_vertex_candidate():
    assert check_against_oracle(8) == 58368


def test_canonical_order_is_pinned():
    for n, digest in ((7, CLASSES_7_DIGEST), (8, CLASSES_8_DIGEST)):
        rows = [t.rows for t in canonical_tournaments(n)]
        assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest, n


@pytest.mark.slow
def test_nine_vertex_classes_are_counted_and_pinned():
    rows = [t.rows for t in canonical_tournaments(9)]
    assert len(rows) == 191536  # OEIS A000568
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == CLASSES_9_DIGEST


def relabelings(t):
    """Every distinct labeled tournament isomorphic to t."""
    images = {}
    for perm in itertools.permutations(range(t.n)):
        image = Tournament.from_arcs(t.n, [(perm[u], perm[v]) for u, v in t.arcs()])
        images[image.rows] = image
    return list(images.values())


def qr7():
    """The Paley tournament on 7 vertices: i -> j iff j - i is a nonzero
    square mod 7."""
    return Tournament.from_arcs(7, [(i, (i + s) % 7) for i in range(7) for s in (1, 2, 4)])


@pytest.mark.parametrize("t, distinct", [(r5(), 24), (qr7(), 240)], ids=["r5", "qr7"])
def test_is_canonical_on_relabelings_of_vertex_transitive_tournaments(t, distinct):
    # a vertex-transitive tournament has tied prefixes that run through all n
    # positions (its automorphisms) below every first vertex, and exactly one
    # of its labelings is canonical
    images = relabelings(t)
    assert len(images) == distinct
    verdicts = [is_canonical(image) for image in images]
    assert verdicts == [oracle_is_canonical(image) for image in images]
    assert verdicts.count(True) == 1


def test_is_canonical_when_the_first_vertices_are_not_canonical():
    # a smaller relabeling of the first n - 1 vertices alone makes every
    # extension non-canonical, whatever the last row
    rng = random.Random(3)
    checked = 0
    while checked < 200:
        n = rng.randint(3, 9)
        t = labeled_tournament(n, rng.getrandbits(n * (n - 1) // 2))
        first = Tournament(n - 1, tuple(row & ((1 << (n - 1)) - 1) for row in t.rows[:-1]))
        if oracle_is_canonical(first):
            continue
        assert not is_canonical(first)
        assert not is_canonical(t)
        assert not oracle_is_canonical(t)
        checked += 1


def test_is_canonical_searches_from_the_empty_prefix():
    # the walk over a labeled parent's patterns must still search every
    # relabeling of any labeled input
    rng = random.Random(9)
    for _ in range(300):
        t = labeled_tournament(9, rng.getrandbits(36))
        assert is_canonical(t) == oracle_is_canonical(t), t.rows
    assert all(is_canonical(t) for t in canonical_tournaments(8))


@pytest.mark.parametrize("m", range(1, 9))
def test_pattern_masks_hold_bit_v_of_every_pattern(m):
    # bit x of X[v] is bit v of pattern x, and no other bit is set
    masks = _pattern_masks(m)
    assert len(masks) == m
    for v, mask in enumerate(masks):
        assert mask == sum(1 << x for x in range(1 << m) if x >> v & 1)


def test_canonical_cache_is_keyed_by_n_alone():
    # the bench asserts a cold cache through cache_info() before its first job
    assert list(inspect.signature(canonical_tournaments).parameters) == ["n"]
    canonical_tournaments.cache_clear()
    assert canonical_tournaments.cache_info().currsize == 0
    first = canonical_tournaments(4)
    assert canonical_tournaments.cache_info().currsize == 4  # n = 1..4
    assert canonical_tournaments(4) is first
    assert canonical_tournaments.cache_info().hits >= 1


def test_canonical_covers_all_labeled_up_to_iso():
    # every labeled 4-vertex tournament embeds one of the 4 canonical classes
    canon = canonical_tournaments(4)
    for code in range(labeled_count(4)):
        t = labeled_tournament(4, code)
        hits = [c for c in canon if contains_subtournament(t, c) is not None]
        assert len(hits) == 1


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_columns_match_the_transpose(n):
    for t in canonical_tournaments(n):
        assert t.cols == _transpose(t.rows, n)


def test_canonical_representatives_are_canonical():
    for t in canonical_tournaments(5):
        assert is_canonical(t)


def test_staircase_encodes_arcs_column_major():
    t = labeled_tournament(4, 0b101101)
    bits = staircase(t)
    assert len(bits) == 6
    idx = 0
    for j in range(4):
        for i in range(j):
            assert bits[idx] == int(t.has_arc(i, j))
            idx += 1


def test_labeled_count():
    assert labeled_count(5) == 1024
    assert labeled_count(6) == 32768


def test_labeled_tournament_validates():
    assert isinstance(labeled_tournament(3, 0), Tournament)
    assert labeled_tournament(3, 0b111).rows == (0b110, 0b100, 0b000)
