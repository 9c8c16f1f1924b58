"""Labeled tournaments addressed by an integer code, for exhaustive and
sampled test sweeps."""

from backedge.core import Tournament


def labeled_tournament(n: int, code: int) -> Tournament:
    """Decode an upper-triangle bit code (one bit per pair i<j, 1 meaning
    arc i->j) into a labeled tournament."""
    rows = [0] * n
    idx = 0
    for i in range(n):
        for j in range(i + 1, n):
            if code >> idx & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
            idx += 1
    return Tournament(n, tuple(rows))


def labeled_count(n: int) -> int:
    return 1 << (n * (n - 1) // 2)
