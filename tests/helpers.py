"""Conveniences over the library that only tests use: a directed cycle as a
witness of a cyclic digraph, and a tournament parsed from a string."""

from typing import Optional

from backedge.core import Digraph, Tournament, _back_arc, directed_triangle
from backedge.io import _tournament_from_lines


def directed_cycle(d: Digraph, within: Optional[int] = None) -> Optional[tuple[int, ...]]:
    """A directed cycle of the digraph induced on the vertex bitmask ``within``
    (all vertices when None), listed along its arcs, or None when that
    digraph is acyclic.

    The first directed triangle is returned when there is one; otherwise the
    first cycle closed by a depth-first search that starts from, and steps
    to, the lowest vertices first."""
    mask = (1 << d.n) - 1 if within is None else within
    found = _back_arc(d.rows, mask)
    if found is None:
        return None
    # cyclic, so scan for a triangle; an acyclic mask skips the scan
    path, w = found
    return directed_triangle(d, mask) or tuple(path[path.index(w):])


def tournament_from_text(text: str) -> Tournament:
    return _tournament_from_lines(text.splitlines())
