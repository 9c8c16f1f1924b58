import pytest

from backedge.core import Tournament, contains_subtournament
from backedge.generation import canonical_tournaments, is_canonical, staircase

from labeled import labeled_count, labeled_tournament

# numbers of tournaments up to isomorphism, n = 1..7
KNOWN_CLASS_COUNTS = [1, 1, 2, 4, 12, 56, 456]


@pytest.mark.parametrize("n", range(1, 8))
def test_canonical_counts(n):
    assert len(canonical_tournaments(n)) == KNOWN_CLASS_COUNTS[n - 1]


def test_canonical_covers_all_labeled_up_to_iso():
    # every labeled 4-vertex tournament embeds one of the 4 canonical classes
    canon = canonical_tournaments(4)
    for code in range(labeled_count(4)):
        t = labeled_tournament(4, code)
        hits = [c for c in canon if contains_subtournament(t, c) is not None]
        assert len(hits) == 1


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
