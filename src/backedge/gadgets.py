"""Concrete gadget tournaments with marked arcs and exhaustive verifiers.

The 9-vertex variable gadget ties two disjoint arcs together: in every
minimum ordering exactly one of them is forward.  The 8-vertex clause
gadget carries three disjoint arcs of which at least one is always
backward, while any two can simultaneously be forward.  The 5-vertex
circulant is the counterexample tournament of the rule-check module.

A marked arc's direction is read from its ends' positions in an ordering.
The verifier checks the coupling on every minimum ordering, the value 2,
and that the certified orderings, which witness the patterns each gadget
must realize, are minimum.  The matrices are read from the package's .trn
files (var9, clause8, r5) once per process; vertex ids are 0-based.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .core import Deadline, Tournament, check_ordering
from .io import read_tournament
from .solvers import SearchStats, iter_orderings_with_clique_at_most, omega
from .constructions import lift


def _packaged(name: str) -> Tournament:
    """The tournament of the packaged data file ``name``."""
    with (resources.files(__package__) / "data" / name).open("rb") as handle:
        return read_tournament(handle, name)


class GadgetPropertyError(AssertionError):
    """An exhaustive verifier found an ordering violating the gadget's
    contract; carries the offending ordering."""

    def __init__(self, message: str, ordering: tuple[int, ...]):
        super().__init__(f"{message}: {ordering}")
        self.ordering = ordering


@dataclass(frozen=True)
class CertifiedOrdering:
    name: str
    ordering: tuple[int, ...]


@dataclass(frozen=True)
class MarkedGadget:
    tournament: Tournament
    marked_arcs: tuple[tuple[str, tuple[int, int]], ...] = ()
    certified_orderings: tuple[CertifiedOrdering, ...] = ()

    def __post_init__(self) -> None:
        for name, (a, b) in self.marked_arcs:
            if not self.tournament.has_arc(a, b):
                raise ValueError(f"marked arc {name}={a}->{b} is absent")
        for cert in self.certified_orderings:
            check_ordering(cert.ordering, self.tournament.n)

    def forward(self, ordering: tuple[int, ...]) -> tuple[bool, ...]:
        """Whether each marked arc points forward in ``ordering``, in
        marked-arc order."""
        pos = [0] * self.tournament.n
        for i, v in enumerate(ordering):
            pos[v] = i
        return tuple(pos[a] < pos[b] for _, (a, b) in self.marked_arcs)

    def arc(self, name: str) -> tuple[int, int]:
        return dict(self.marked_arcs)[name]

    def certified(self, name: str) -> CertifiedOrdering:
        return {cert.name: cert for cert in self.certified_orderings}[name]


@dataclass(frozen=True)
class GadgetVerification:
    """Outcome of an exhaustive ordering scan over a marked gadget."""

    omega_value: int
    minimum_orderings: int
    property_holds: bool
    patterns: tuple[tuple[bool, ...], ...]  # forward-flags per marked arc, sorted
    nodes: int
    elapsed_s: float

    def to_dict(self) -> dict:
        return {
            "omega": self.omega_value,
            "minimum_orderings": self.minimum_orderings,
            "property_holds": self.property_holds,
            "patterns": [list(p) for p in self.patterns],
            "nodes": self.nodes,
            "elapsed_s": round(self.elapsed_s, 3),
        }


@lru_cache(maxsize=None)
def var_base() -> MarkedGadget:
    """9-vertex gadget: exactly one of uv, wx is forward in minimum orderings."""
    t = _packaged("var9.trn")
    return MarkedGadget(
        t,
        (("uv", (6, 8)), ("wx", (7, 2))),
        (
            CertifiedOrdering("uv-forward", (0, 1, 2, 3, 4, 5, 6, 7, 8)),
            CertifiedOrdering("wx-forward", (5, 7, 1, 8, 0, 2, 3, 4, 6)),
        ),
    )


@lru_cache(maxsize=None)
def clause_base() -> MarkedGadget:
    """8-vertex gadget: at least one of uv, wx, yz is backward; each ordering
    below leaves exactly one of them backward."""
    t = _packaged("clause8.trn")
    return MarkedGadget(
        t,
        (("uv", (4, 5)), ("wx", (1, 3)), ("yz", (7, 2))),
        (
            CertifiedOrdering("yz-backward", (0, 1, 2, 3, 4, 5, 6, 7)),
            CertifiedOrdering("wx-backward", (3, 6, 4, 7, 0, 1, 5, 2)),
            CertifiedOrdering("uv-backward", (0, 1, 3, 5, 6, 4, 7, 2)),
        ),
    )


@lru_cache(maxsize=None)
def r5() -> Tournament:
    """The 5-vertex circulant: arcs i -> i+1 and i -> i+2 (mod 5)."""
    return _packaged("r5.trn")


def _scan_gadget(
    gadget: MarkedGadget,
    check,
    failure_message: str,
    deadline: Deadline,
) -> GadgetVerification:
    """Stream every minimum ordering of the gadget, applying `check` to its
    forward-flags.  The minimum value must be 2, and every certified
    ordering must be among the minimum orderings."""
    t = gadget.tournament
    start = time.monotonic()
    result = omega(t, deadline=deadline)
    if result.value != 2:
        raise GadgetPropertyError(
            f"ordering clique number is {result.value}, not 2", result.witness
        )
    stats = SearchStats()
    count = 0
    patterns = set()
    uncertified = {cert.ordering: cert.name for cert in gadget.certified_orderings}
    for ordering in iter_orderings_with_clique_at_most(
        t, result.value, deadline=deadline, stats=stats
    ):
        flags = gadget.forward(ordering)
        if not check(flags):
            raise GadgetPropertyError(failure_message, ordering)
        patterns.add(flags)
        uncertified.pop(ordering, None)
        count += 1
    if uncertified:
        ordering, name = next(iter(uncertified.items()))
        raise GadgetPropertyError(f"certified ordering {name!r} is not minimum", ordering)
    return GadgetVerification(
        result.value,
        count,
        True,
        tuple(sorted(patterns)),
        stats.nodes,
        time.monotonic() - start,
    )


def verify_var_base(*, deadline: Deadline = Deadline()) -> GadgetVerification:
    """Exhaustively check the variable gadget: minimum value 2, and exactly
    one of the two marked arcs forward in every minimum ordering.  Both
    polarities are realized by the certified orderings, which are checked
    to be minimum."""
    return _scan_gadget(var_base(), lambda flags: flags[0] != flags[1],
                        "both or neither marked arc forward", deadline)


def verify_clause_base(*, deadline: Deadline = Deadline()) -> GadgetVerification:
    """Exhaustively check the clause gadget: minimum value 2, and at least
    one marked arc backward in every minimum ordering.  Each pair of marked
    arcs is simultaneously forward in a certified ordering, and those are
    checked to be minimum."""
    return _scan_gadget(clause_base(), lambda flags: not all(flags),
                        "all three marked arcs forward", deadline)


def check_companion(w: Tournament, *, deadline: Deadline = Deadline()) -> tuple[int, ...]:
    """The companion's canonical minimum ordering; its ordering clique number
    must be 3."""
    result = omega(w, deadline=deadline)
    if result.value != 3:
        raise ValueError(
            f"companion tournament has ordering clique number {result.value}, need 3"
        )
    return result.witness


def _assemble(
    base: MarkedGadget, w: Tournament, w_ordering: tuple[int, ...]
) -> MarkedGadget:
    """Lift ``base`` over the checked companion ``w`` and re-index its marks; each
    certified ordering gains ``w_ordering`` and the fresh vertex, keeping its arcs' directions."""
    lifted = lift(base.tournament, w)
    inner_off = lifted.inner_span[0]
    outer_off = lifted.outer_span[0]
    marked = tuple(
        (name, (a + inner_off, b + inner_off)) for name, (a, b) in base.marked_arcs
    )
    certs = []
    for cert in base.certified_orderings:
        extended = (
            tuple(v + inner_off for v in cert.ordering)
            + tuple(v + outer_off for v in w_ordering)
            + (lifted.v,)
        )
        certs.append(CertifiedOrdering(cert.name, extended))
    return MarkedGadget(lifted.digraph, marked, tuple(certs))

