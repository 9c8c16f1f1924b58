"""Concrete gadget tournaments with marked arcs and exhaustive verifiers.

The 9-vertex variable gadget ties two disjoint arcs together: in every
minimum ordering exactly one of them is forward.  The 8-vertex clause
gadget carries three disjoint arcs of which at least one is always
backward, while any two can simultaneously be forward.  The 5-vertex
circulant is the counterexample tournament of the rule-check module.

All matrices are embedded as constants; vertex ids are 0-based.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import Tournament, check_ordering
from .solvers import Deadline, SearchStats, iter_orderings_with_clique_at_most, omega
from .constructions import lift

VAR_BASE_MATRIX = (
    "011111000",
    "001100101",
    "000111100",
    "000010111",
    "010001110",
    "010100110",
    "100000011",
    "111000001",
    "101011000",
)

CLAUSE_BASE_MATRIX = (
    "01111000",
    "00110110",
    "00011010",
    "00001110",
    "01000101",
    "10100011",
    "10001001",
    "11110000",
)

R5_MATRIX = (
    "01100",
    "00110",
    "00011",
    "10001",
    "11000",
)


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
    forward: tuple[tuple[str, bool], ...]  # marked-arc name -> is it forward

    def is_forward(self, arc_name: str) -> bool:
        for name, fwd in self.forward:
            if name == arc_name:
                return fwd
        raise KeyError(arc_name)


@dataclass(frozen=True)
class MarkedGadget:
    tournament: Tournament
    marked_arcs: tuple[tuple[str, tuple[int, int]], ...]
    certified_orderings: tuple[CertifiedOrdering, ...]

    def __post_init__(self) -> None:
        for name, (a, b) in self.marked_arcs:
            if not self.tournament.has_arc(a, b):
                raise ValueError(f"marked arc {name}={a}->{b} is absent")
        for cert in self.certified_orderings:
            check_ordering(cert.ordering, self.tournament.n)
            pos = {v: i for i, v in enumerate(cert.ordering)}
            for name, (a, b) in self.marked_arcs:
                if cert.is_forward(name) != (pos[a] < pos[b]):
                    raise ValueError(
                        f"ordering {cert.name!r} does not realize the recorded "
                        f"direction of {name}"
                    )

    def arc(self, name: str) -> tuple[int, int]:
        for arc_name, pair in self.marked_arcs:
            if arc_name == name:
                return pair
        raise KeyError(name)

    def certified(self, name: str) -> CertifiedOrdering:
        for cert in self.certified_orderings:
            if cert.name == name:
                return cert
        raise KeyError(name)


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
    t = Tournament.from_matrix(VAR_BASE_MATRIX)
    return MarkedGadget(
        t,
        (("uv", (6, 8)), ("wx", (7, 2))),
        (
            CertifiedOrdering(
                "uv-forward",
                (0, 1, 2, 3, 4, 5, 6, 7, 8),
                (("uv", True), ("wx", False)),
            ),
            CertifiedOrdering(
                "wx-forward",
                (5, 7, 1, 8, 0, 2, 3, 4, 6),
                (("uv", False), ("wx", True)),
            ),
        ),
    )


@lru_cache(maxsize=None)
def clause_base() -> MarkedGadget:
    """8-vertex gadget: at least one of uv, wx, yz is backward; each ordering
    below leaves exactly one of them backward."""
    t = Tournament.from_matrix(CLAUSE_BASE_MATRIX)
    return MarkedGadget(
        t,
        (("uv", (4, 5)), ("wx", (1, 3)), ("yz", (7, 2))),
        (
            CertifiedOrdering(
                "yz-backward",
                (0, 1, 2, 3, 4, 5, 6, 7),
                (("uv", True), ("wx", True), ("yz", False)),
            ),
            CertifiedOrdering(
                "wx-backward",
                (3, 6, 4, 7, 0, 1, 5, 2),
                (("uv", True), ("wx", False), ("yz", True)),
            ),
            CertifiedOrdering(
                "uv-backward",
                (0, 1, 3, 5, 6, 4, 7, 2),
                (("uv", False), ("wx", True), ("yz", True)),
            ),
        ),
    )


@lru_cache(maxsize=None)
def r5() -> Tournament:
    """The 5-vertex circulant: arcs i -> i+1 and i -> i+2 (mod 5)."""
    return Tournament.from_matrix(R5_MATRIX)


def _scan_gadget(
    gadget: MarkedGadget,
    check,
    failure_message: str,
    deadline: Optional[Deadline],
) -> GadgetVerification:
    """Stream every minimum ordering of the gadget, applying `check` to the
    tuple of forward-flags of the marked arcs."""
    t = gadget.tournament
    start = time.monotonic()
    value = omega(t, deadline=deadline).value
    stats = SearchStats()
    count = 0
    patterns = set()
    arcs = [pair for _, pair in gadget.marked_arcs]
    for ordering in iter_orderings_with_clique_at_most(
        t, value, deadline=deadline, stats=stats
    ):
        pos = [0] * t.n
        for i, v in enumerate(ordering):
            pos[v] = i
        flags = tuple(pos[a] < pos[b] for a, b in arcs)
        if not check(flags):
            raise GadgetPropertyError(failure_message, ordering)
        patterns.add(flags)
        count += 1
    return GadgetVerification(
        value,
        count,
        True,
        tuple(sorted(patterns)),
        stats.nodes,
        time.monotonic() - start,
    )


def verify_var_base(*, deadline: Optional[Deadline] = None) -> GadgetVerification:
    """Exhaustively check the variable gadget: minimum value 2, and exactly
    one of the two marked arcs forward in every minimum ordering, with both
    polarities realized."""
    gadget = var_base()
    report = _scan_gadget(
        gadget,
        lambda flags: flags[0] != flags[1],
        "both or neither marked arc forward",
        deadline,
    )
    for wanted in ((True, False), (False, True)):
        if wanted not in report.patterns:
            raise GadgetPropertyError(
                f"polarity pattern {wanted} never occurs", ()
            )
    return report


def verify_clause_base(*, deadline: Optional[Deadline] = None) -> GadgetVerification:
    """Exhaustively check the clause gadget: minimum value 2, at least one
    marked arc backward in every minimum ordering, and each pair of marked
    arcs simultaneously forward in some minimum ordering."""
    gadget = clause_base()
    report = _scan_gadget(
        gadget,
        lambda flags: not all(flags),
        "all three marked arcs forward",
        deadline,
    )
    for i in range(3):
        for j in range(i + 1, 3):
            if not any(p[i] and p[j] for p in report.patterns):
                raise GadgetPropertyError(
                    f"marked arcs {i} and {j} never simultaneously forward", ()
                )
    return report


def check_companion(w: Tournament, *, deadline: Optional[Deadline] = None) -> tuple[int, ...]:
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
    """Lift ``base`` over the checked companion and re-index its marks."""
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
        certs.append(CertifiedOrdering(cert.name, extended, cert.forward))
    return MarkedGadget(lifted.digraph, marked, tuple(certs))


def assemble_var_gadget(w: Tournament) -> MarkedGadget:
    """Lift the variable base over companion ``w``: a fresh vertex beats the
    base, the base beats ``w``, ``w`` beats the fresh vertex.  Marked arcs are
    re-indexed and every certified ordering is extended by ``w``'s ordering
    and the fresh vertex, keeping its recorded arc directions."""
    return _assemble(var_base(), w, check_companion(w))


def assemble_clause_gadget(w: Tournament) -> MarkedGadget:
    return _assemble(clause_base(), w, check_companion(w))
