"""Compiler from 3-SAT formulas to tournaments, with landmark bookkeeping
and two-way witness translation.

The instance chains one variable block per variable, a separator copy of
the companion tournament, and one clause block per clause, all front-to-
back; then, for every literal occurrence, the four arcs between the
literal's variable-block marked pair and the clause-block marked pair are
flipped so that they point from the clause block into the variable block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Union

from .constructions import DEFAULT_VERTEX_BUDGET, MaterializationRefused, SizingReport, chain
from .core import Tournament, backedge_graph, check_ordering, clique_number, induced
from .gadgets import _assemble, check_companion, clause_base, var_base
from .io import _digits
from .solvers import Deadline

Literal = tuple[int, bool]  # (0-based variable index, polarity)


@dataclass(frozen=True)
class CnfFormula:
    variable_count: int
    clauses: tuple[tuple[Literal, Literal, Literal], ...]

    def __post_init__(self) -> None:
        for ci, clause in enumerate(self.clauses):
            if len(clause) != 3:
                raise ValueError(f"clause {ci + 1} has {len(clause)} literals, need 3")
            variables = [var for var, _ in clause]
            if len(set(variables)) != 3:
                raise ValueError(f"clause {ci + 1} repeats a variable")
            for var in variables:
                if not 0 <= var < self.variable_count:
                    raise ValueError(f"clause {ci + 1} references variable {var + 1}")

    def satisfies(self, assignment: Sequence[bool]) -> bool:
        if len(assignment) != self.variable_count:
            raise ValueError("assignment length mismatch")
        return all(
            any(assignment[var] == polarity for var, polarity in clause)
            for clause in self.clauses
        )


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF; every clause must have exactly three distinct
    variables.  Comment lines are ignored.  Numbers are ASCII digits, after
    one leading '-' on a literal."""
    n_vars: Optional[int] = None
    n_clauses: Optional[int] = None
    clauses: list[tuple[Literal, Literal, Literal]] = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf" or not all(map(_digits, parts[2:])):
                raise ValueError(f"line {lineno}: malformed problem line {line!r}")
            n_vars, n_clauses = int(parts[2]), int(parts[3])
            continue
        if n_vars is None:
            raise ValueError(f"line {lineno}: clause before problem line")
        for token in line.split():
            if not _digits(token.removeprefix("-")):
                raise ValueError(f"line {lineno}: malformed literal {token!r}")
            value = int(token)
            if value == 0:
                if len(pending) != 3:
                    raise ValueError(
                        f"line {lineno}: clause of width {len(pending)}, need 3"
                    )
                clauses.append(tuple((abs(v) - 1, v > 0) for v in pending))
                pending = []
            else:
                if abs(value) > n_vars:
                    raise ValueError(f"line {lineno}: variable {abs(value)} out of range")
                pending.append(value)
    if pending:
        raise ValueError("unterminated clause at end of input")
    if n_clauses is not None and len(clauses) != n_clauses:
        raise ValueError(
            f"header announced {n_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(n_vars, tuple(clauses))


@dataclass(frozen=True)
class VarBlock:
    span: tuple[int, int]
    f_plus: tuple[int, int]
    f_minus: tuple[int, int]
    ordering_true: tuple[int, ...]  # certified ordering leaving f_plus forward
    ordering_false: tuple[int, ...]


@dataclass(frozen=True)
class ClauseBlock:
    span: tuple[int, int]
    landmarks: tuple[tuple[int, int], tuple[int, int], tuple[int, int]]
    # orderings[k] realizes: landmark k backward, the other two forward
    orderings: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@dataclass(frozen=True)
class GadgetDescriptor:
    size: int
    omega_checked: bool  # always True: build proves the companion's value
    genuine: bool  # carries the subset-hitting property (never materialized)


def _bundle(
    formula: CnfFormula,
    var_blocks: Sequence[VarBlock],
    clause_blocks: Sequence[ClauseBlock],
) -> Iterator[tuple[int, int]]:
    """For every literal occurrence, the four arcs between its clause-block
    landmark pair and its variable block's marked pair, as (clause-block
    vertex, variable-block vertex)."""
    for j, clause in enumerate(formula.clauses):
        for k, (var, polarity) in enumerate(clause):
            block = var_blocks[var]
            a, b = block.f_plus if polarity else block.f_minus
            c, d = clause_blocks[j].landmarks[k]
            yield from ((c, a), (c, b), (d, a), (d, b))


@dataclass(frozen=True)
class ReductionInstance:
    tournament: Tournament
    formula: CnfFormula
    var_blocks: tuple[VarBlock, ...]
    separator_span: tuple[int, int]
    separator_ordering: tuple[int, ...]
    clause_blocks: tuple[ClauseBlock, ...]
    gadget: GadgetDescriptor

    def bundle_arcs(self) -> set[tuple[int, int]]:
        """The flipped arcs, as (clause-block vertex, variable-block vertex)."""
        return set(_bundle(self.formula, self.var_blocks, self.clause_blocks))

    def to_dict(self) -> dict:
        return {
            "formula": {
                "variables": self.formula.variable_count,
                "clauses": [
                    [[var, polarity] for var, polarity in clause]
                    for clause in self.formula.clauses
                ],
            },
            "var_blocks": [
                {
                    "span": list(b.span),
                    "f_plus": list(b.f_plus),
                    "f_minus": list(b.f_minus),
                    "ordering_true": list(b.ordering_true),
                    "ordering_false": list(b.ordering_false),
                }
                for b in self.var_blocks
            ],
            "separator": {
                "span": list(self.separator_span),
                "ordering": list(self.separator_ordering),
            },
            "clause_blocks": [
                {
                    "span": list(b.span),
                    "landmarks": [list(pair) for pair in b.landmarks],
                    "orderings": [list(o) for o in b.orderings],
                }
                for b in self.clause_blocks
            ],
            "gadget": {
                "size": self.gadget.size,
                "omega_checked": self.gadget.omega_checked,
                "genuine": self.gadget.genuine,
            },
        }


def instance_from_dict(
    data: dict, tournament: Tournament, *, deadline: Optional[Deadline] = None
) -> ReductionInstance:
    """The instance a landmark file describes, rebuilt from its formula and
    the companion at its separator span; the file is derived data, so it must
    be exactly what ``build`` writes for ``tournament``, down to the
    companion's canonical minimum ordering at the separator.  Only the
    gadget's ``omega_checked`` flag is not compared: older files marked large
    companions unchecked."""
    formula = CnfFormula(
        data["formula"]["variables"],
        tuple(
            tuple((var, bool(pol)) for var, pol in clause)
            for clause in data["formula"]["clauses"]
        ),
    )
    lo, hi = data["separator"]["span"]
    n = tournament.n
    if not 0 <= lo < hi <= n or sizing(formula, hi - lo).total_vertices != n:
        raise ValueError("landmarks do not describe this tournament")
    companion = induced(tournament, range(lo, hi))
    instance = build(formula, companion, vertex_budget=n, deadline=deadline)
    if instance.tournament != tournament or instance.to_dict() != dict(
        data, gadget=dict(data["gadget"], omega_checked=True)
    ):
        raise ValueError("landmarks do not describe this tournament")
    return instance


def sizing(
    formula: CnfFormula, gadget_size: int, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET
) -> SizingReport:
    """Exact vertex totals: n*(10+w) + w + m*(9+w) over a w-vertex companion."""
    n, m, w = formula.variable_count, len(formula.clauses), gadget_size
    total = n * (10 + w) + w + m * (9 + w)
    return SizingReport(
        "reduction",
        (("variables", n), ("clauses", m), ("gadget_size", w)),
        total,
        total <= vertex_budget,
        vertex_budget,
    )


def build(
    formula: CnfFormula, w: Tournament, *, vertex_budget: int = DEFAULT_VERTEX_BUDGET,
    deadline: Optional[Deadline] = None,
) -> ReductionInstance:
    """Assemble the tournament for ``formula`` over companion ``w``."""
    report = sizing(formula, w.n, vertex_budget=vertex_budget)
    if not report.materializable:
        raise MaterializationRefused(report)
    w_ordering = check_companion(w, deadline=deadline)
    var_gadget = _assemble(var_base(), w, w_ordering)
    clause_gadget = _assemble(clause_base(), w, w_ordering)
    n_vars, n_clauses = formula.variable_count, len(formula.clauses)
    size_a = var_gadget.tournament.n  # 10 + w.n
    size_b = clause_gadget.tournament.n  # 9 + w.n
    sep_start = n_vars * size_a
    clause_start = sep_start + w.n

    var_blocks = []
    for i in range(n_vars):
        offset = i * size_a
        fp = var_gadget.arc("uv")
        fm = var_gadget.arc("wx")
        var_blocks.append(
            VarBlock(
                (offset, offset + size_a),
                (fp[0] + offset, fp[1] + offset),
                (fm[0] + offset, fm[1] + offset),
                tuple(v + offset for v in var_gadget.certified("uv-forward").ordering),
                tuple(v + offset for v in var_gadget.certified("wx-forward").ordering),
            )
        )
    separator_ordering = tuple(v + sep_start for v in w_ordering)
    clause_blocks = []
    backward_names = ("uv-backward", "wx-backward", "yz-backward")
    for j in range(n_clauses):
        offset = clause_start + j * size_b
        landmarks = tuple(
            (a + offset, b + offset)
            for a, b in (
                clause_gadget.arc("uv"),
                clause_gadget.arc("wx"),
                clause_gadget.arc("yz"),
            )
        )
        orderings = tuple(
            tuple(v + offset for v in clause_gadget.certified(name).ordering)
            for name in backward_names
        )
        clause_blocks.append(ClauseBlock((offset, offset + size_b), landmarks, orderings))

    tournament = chain(
        [var_gadget.tournament] * n_vars + [w] + [clause_gadget.tournament] * n_clauses,
        _bundle(formula, var_blocks, clause_blocks),
    )
    assert tournament.n == report.total_vertices
    return ReductionInstance(
        tournament,
        formula,
        tuple(var_blocks),
        (sep_start, sep_start + w.n),
        separator_ordering,
        tuple(clause_blocks),
        GadgetDescriptor(w.n, True, False),
    )


def ordering_from_assignment(
    instance: ReductionInstance, assignment: Sequence[bool]
) -> tuple[int, ...]:
    """Concatenate, per block, the certified ordering matching the assignment;
    clause blocks anchor on their least-index satisfied literal.  The
    assignment must satisfy the formula."""
    formula = instance.formula
    assignment = [bool(v) for v in assignment]
    if not formula.satisfies(assignment):
        raise ValueError("assignment does not satisfy the formula")
    parts: list[int] = []
    for var, block in enumerate(instance.var_blocks):
        parts.extend(block.ordering_true if assignment[var] else block.ordering_false)
    parts.extend(instance.separator_ordering)
    for j, clause in enumerate(formula.clauses):
        k = next(
            idx
            for idx, (var, polarity) in enumerate(clause)
            if assignment[var] == polarity
        )
        parts.extend(instance.clause_blocks[j].orderings[k])
    return tuple(parts)


def assignment_from_ordering(
    instance: ReductionInstance, ordering: Sequence[int]
) -> tuple[bool, ...]:
    """Read each variable off the direction of its first landmark pair.  No
    validity judgment is made; pair with verify_ordering."""
    ordering = check_ordering(ordering, instance.tournament.n)
    pos = {v: i for i, v in enumerate(ordering)}
    return tuple(
        pos[block.f_plus[0]] < pos[block.f_plus[1]] for block in instance.var_blocks
    )


@dataclass(frozen=True)
class OrderingReport:
    k4_free: bool
    has_triangle: bool
    max_clique_found: int

    def to_dict(self) -> dict:
        return {
            "k4_free": self.k4_free,
            "has_triangle": self.has_triangle,
            "max_clique_found": self.max_clique_found,
        }


def verify_ordering(
    instance: Union[ReductionInstance, Tournament], ordering: Sequence[int]
) -> OrderingReport:
    """Scan the backedge graph of the ordering for a 4-clique and a triangle:
    one clique-number search answers both."""
    t = instance.tournament if isinstance(instance, ReductionInstance) else instance
    value = clique_number(backedge_graph(t, ordering))
    return OrderingReport(value < 4, value >= 3, value)
