"""The arcs that a copy construction flipped, read back from its tournament
and layout, for structural audits of `amplifier` and `pi`."""

from backedge.core import _bits


def cross_copy_backward_arcs(t, layout):
    """All arcs running from a later copy to an earlier copy, i.e. the arcs
    the construction flipped: copy by copy, then vertex by vertex."""
    flipped = []
    for idx, ci in enumerate(layout.copies):
        mask = ((1 << ci.size) - 1) << ci.start
        for cj in layout.copies[idx + 1:]:
            for w in cj.vertices():
                flipped.extend((w, u) for u in _bits(t.rows[w] & mask))
    return flipped
