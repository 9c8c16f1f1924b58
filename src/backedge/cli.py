"""Command-line surface: one binary, one verb per operation, JSON report
envelopes on stdout.

Exit codes: 0 computed, 1 decision-negative (so shells can branch on
decide-style verbs), 2 input error, 3 budget exhausted or materialization
refused.

Each verb is declared once, by ``verb`` on its handler, with its arguments.
A handler takes ``(args, deadline, read)``, returns an ``Outcome`` and loads
every input file through ``read``, so the envelope's ``inputs`` list the
files the verb read, in read order, also when the verb then fails.  A verb
with output options passes every one of them to ``_write``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

from . import __version__
from .constructions import (
    DEFAULT_VERTEX_BUDGET,
    MaterializationRefused,
    SizingReport,
    amplifier,
    amplifier_route,
    arrow,
    c3,
    d_family,
    delta,
    lift,
    pi,
    pi_sizing,
    tt,
)
from .core import (
    BudgetExhausted, Deadline, Tournament, _quote, contains_subtournament, induced,
)
from .gadgets import (
    MarkedGadget,
    clause_base,
    r5,
    var_base,
    verify_clause_base,
    verify_var_base,
)
from .io import (
    _decoded_lines,
    _digits,
    ordering_from_text,
    parse_assignment,
    parse_json,
    read_tournament,
    save_tournament,
    tournament_to_json_dict,
    write_json,
)
from .reduction import (
    assignment_from_ordering,
    build,
    instance_from_dict,
    ordering_from_assignment,
    parse_dimacs,
    sizing as reduction_sizing,
    verify_ordering,
)
from .rulecheck import check_rules
from .solvers import (
    SearchStats,
    chi,
    chi_decide,
    forcing_holds,
    iter_orderings_with_clique_at_most,
    min_order_with_omega,
    omega,
    omega_decide,
)
from .subword import PassInstance, is_tournament_closed, solve_pass, to_pass

BUDGET_ENV_VAR = "BACKEDGE_BUDGET"


@dataclass(frozen=True)
class Outcome:
    """What a verb computed: the envelope's ``result``, its
    ``nodes_explored``, and whether the answer is decision-negative (exit 1)."""

    result: dict
    nodes: Optional[int] = None
    negative: bool = False


VERBS: dict[str, tuple[str, tuple, Callable]] = {}


def arg(*names: str, **options) -> tuple:
    """One ``add_argument`` call of a verb's subparser."""
    return names, options


def verb(name: str, summary: str, *arguments: tuple):
    """Register the decorated handler as verb ``name`` with its arguments."""

    def register(handler: Callable) -> Callable:
        VERBS[name] = (summary, arguments, handler)
        return handler

    return register


FILE = arg("file")
K = arg("--k", type=int, required=True)
OUT = arg("--out", default=None)
# the largest tournament `construct` lists in its envelope (and only when it
# writes no --out file), and the largest alphabet whose words `pass
# from-tournament` lists when it also writes them to --out
INLINE_MAX = 64
RENDER = arg("--render", choices=["paper"], default=None)


def _render_ordering(ordering) -> str:
    return "<".join(str(v + 1) for v in ordering)


def _parse_ordering(spec: str, read) -> tuple[int, ...]:
    """An ``--ordering`` spec; one that names a file is loaded through
    ``read``, so the envelope digests it, while inline specs are not."""
    if os.path.exists(spec):
        return read(spec, ordering_from_text)
    return ordering_from_text(spec)


@verb("omega", "exact ordering clique number", FILE)
def _omega(args, deadline, read) -> Outcome:
    res = omega(read(args.file), deadline=deadline)
    return Outcome({"value": res.value, "witness": res.witness}, res.nodes)


@verb("omega-decide", "is the ordering clique number <= k?", FILE, K)
def _omega_decide(args, deadline, read) -> Outcome:
    res = omega_decide(read(args.file), args.k, deadline=deadline)
    result = {"decision": res.decision, "witness": res.witness}
    return Outcome(result, res.nodes, not res.decision)


@verb("orderings", "enumerate all minimum orderings",
      FILE, arg("--first", type=int, default=None))
def _orderings(args, deadline, read) -> Outcome:
    t = read(args.file)
    stats = SearchStats()
    value = omega(t, deadline=deadline).value
    orderings = list(iter_orderings_with_clique_at_most(
        t, value, first_vertex=args.first, deadline=deadline, stats=stats
    ))
    return Outcome(
        {"omega": value, "count": len(orderings), "orderings": orderings}, stats.nodes
    )


@verb("chi", "exact acyclic partition number", FILE)
def _chi(args, deadline, read) -> Outcome:
    res = chi(read(args.file), deadline=deadline)
    return Outcome({"value": res.value, "classes": res.classes}, res.conflicts)


@verb("chi-decide", "do k acyclic classes suffice?", FILE, K)
def _chi_decide(args, deadline, read) -> Outcome:
    res = chi_decide(read(args.file), args.k, deadline=deadline)
    result = {"decision": res.decision, "classes": res.classes}
    return Outcome(result, res.conflicts, not res.decision)


@verb("forcing", "must u precede v in every ordering of clique number <= k?",
      FILE, arg("--u", type=int, required=True), arg("--v", type=int, required=True), K)
def _forcing(args, deadline, read) -> Outcome:
    res = forcing_holds(read(args.file), args.u, args.v, args.k, deadline=deadline)
    result = {"holds": res.holds, "vacuous": res.vacuous, "counterexample": res.counterexample}
    return Outcome(result, res.nodes, not res.holds)


@verb("search-min-omega", "smallest tournament of a given value",
      K, arg("--nmax", type=int, required=True))
def _search_min_omega(args, deadline, read) -> Outcome:
    res = min_order_with_omega(args.k, args.nmax, deadline=deadline)
    if res is None:
        return Outcome({"found": False}, negative=True)
    return Outcome(
        {"found": True, "n": res.n, "tournament": tournament_to_json_dict(res.witness)}
    )


def _write(args, deadline, **files) -> dict:
    """The one write step: ``files`` maps each output option of the verb, by
    its ``args`` name, to what this run writes there (a tournament as text,
    else ``to_dict()`` as JSON), or to None if nothing.  A given option with
    nothing to write is an input error; else the budget is polled, and again
    while a tournament's rows are formatted, and the files are written.
    Returns the written paths by option."""
    given = {key: getattr(args, key) for key in files if getattr(args, key) is not None}
    idle = [f"--{key.replace('_', '-')}" for key in given if files[key] is None]
    if idle:
        raise ValueError(f"this run has nothing to write to {', '.join(idle)}")
    deadline.check()
    for key, path in given.items():
        value = files[key]
        if isinstance(value, Tournament):
            save_tournament(value, path, deadline)
        else:
            write_json(path, value.to_dict())
    return given


# number of positional arguments each construction takes
CONSTRUCT_ARITY = {
    "tt": 1, "c3": 0, "arrow": 2, "delta": 3, "lift": 2, "amplifier": 1, "pi": 1, "dk": 1,
}
# the kinds each kind-specific option applies to; these options default to
# None, so an option that was given is one whose value is not None
CONSTRUCT_OPTIONS = {
    "--layout-out": ("amplifier", "pi"),
    "--sizing-only": ("amplifier", "pi"),
    "--audit-subsets": ("amplifier",),
    "--vertex-budget": ("amplifier", "pi", "dk"),
}
# the kinds that build their tournament from a size alone
CONSTRUCT_FIXED = {"tt": tt, "c3": c3}


@verb("construct", "build a named construction",
      arg("kind", choices=list(CONSTRUCT_ARITY)),
      arg("args", nargs="*", help="sizes or tournament files"),
      OUT,
      arg("--layout-out", default=None),
      arg("--sizing-only", action="store_true", default=None),
      arg("--audit-subsets", type=int, default=None,
          help="amplifier only: sample N random subsets for the hitting audit"),
      arg("--vertex-budget", type=int, default=None))
def _construct(args, deadline, read) -> Outcome:
    kind, specs = args.kind, args.args
    arity = CONSTRUCT_ARITY[kind]
    if len(specs) != arity:
        raise ValueError(
            f"construct {kind} takes {arity} argument{'' if arity == 1 else 's'}, "
            f"got {len(specs)}"
        )
    stray = [
        option for option, kinds in CONSTRUCT_OPTIONS.items()
        if kind not in kinds and getattr(args, option[2:].replace("-", "_")) is not None
    ]
    if stray:
        raise ValueError(f"construct {kind} does not take {', '.join(stray)}")
    if args.audit_subsets is not None and args.audit_subsets < 1:
        raise ValueError(f"--audit-subsets must be at least 1, got {args.audit_subsets}")
    if args.audit_subsets and args.sizing_only:
        raise ValueError("--sizing-only builds nothing for --audit-subsets to audit")
    if args.vertex_budget is not None and args.vertex_budget < 0:
        raise ValueError(f"--vertex-budget must be non-negative, got {args.vertex_budget}")
    budget = DEFAULT_VERTEX_BUDGET if args.vertex_budget is None else args.vertex_budget
    # tt and dk take a size; elsewhere a number names a transitive tournament
    if kind in ("tt", "dk"):
        if not _digits(specs[0]):
            raise ValueError(f"construct {kind} takes a size, got {_quote(specs[0])}")
        parts = [int(specs[0])]
    else:
        parts = [tt(int(s)) if _digits(s) else read(s) for s in specs]
    result: dict = {"kind": kind}
    built = ordering = layout = None

    if kind in CONSTRUCT_FIXED:
        built = CONSTRUCT_FIXED[kind](*parts)
    elif kind in ("arrow", "delta"):  # chains, which poll the deadline
        built = (arrow if kind == "arrow" else delta)(*parts, deadline=deadline)
    elif kind == "lift":
        lifted = lift(*parts, deadline=deadline)
        built = lifted.digraph
        result["landmarks"] = {
            "v": lifted.v, "inner_span": lifted.inner_span, "outer_span": lifted.outer_span,
        }
    elif kind in ("amplifier", "pi"):
        (base,) = parts
        sizing = (amplifier_route(base, vertex_budget=budget) if kind == "amplifier"
                  else pi_sizing(base.n, vertex_budget=budget))
        result["sizing"] = sizing.to_dict()
        if not args.sizing_only:
            construction = amplifier if kind == "amplifier" else pi
            res = construction(base, vertex_budget=budget, deadline=deadline)
            built, ordering, layout = res.tournament, res.ordering, res.layout
        if args.audit_subsets:
            rng = random.Random(args.seed)
            ok = 0
            for _ in range(args.audit_subsets):
                deadline.check()
                subset = rng.getrandbits(built.n)
                for bit in (1, 0):
                    side = [v for v in range(built.n) if subset >> v & 1 == bit]
                    if contains_subtournament(induced(built, side), base, deadline) is not None:
                        ok += 1
                        break
            result["hitting_audit"] = {"trials": args.audit_subsets, "hit": ok, "seed": args.seed}
    else:  # dk
        out = d_family(*parts, vertex_budget=budget)
        if isinstance(out, Tournament):
            built = out
        else:
            result["sizing"] = out.to_dict()

    if built is not None:
        result["n"] = built.n
        if ordering is not None:
            result["ordering"] = ordering
        if args.out is None and built.n <= INLINE_MAX:
            result["tournament"] = tournament_to_json_dict(built)
    result.update(_write(args, deadline, out=built, layout_out=layout))
    return Outcome(result)


@verb("gadget", "show or exhaustively verify a gadget",
      arg("action", choices=["show", "verify"]),
      arg("name", choices=["var", "clause", "r5"]),
      RENDER)
def _gadget(args, deadline, read) -> Outcome:
    # r5 is shown as a gadget without marked arcs or certified orderings
    gadget = MarkedGadget(r5()) if args.name == "r5" else (
        var_base() if args.name == "var" else clause_base())
    marked = dict(gadget.marked_arcs)
    certified = [
        {"name": cert.name, "ordering": cert.ordering,
         "forward": dict(zip(marked, gadget.forward(cert.ordering)))}
        for cert in gadget.certified_orderings
    ]
    rendered = [f"{c['name']}: {_render_ordering(c['ordering'])}" for c in certified]
    if args.action == "show":
        result = {
            "name": args.name,
            "tournament": tournament_to_json_dict(gadget.tournament),
            "marked_arcs": marked,
            "certified_orderings": certified,
        }
        if args.render == "paper":
            result["rendered"] = {
                "marked_arcs": {
                    name: f"{a + 1}->{b + 1}" for name, (a, b) in marked.items()
                },
                "certified_orderings": rendered,
            }
        return Outcome(result)
    if args.name == "r5":
        raise ValueError("verify supports the var and clause gadgets")
    verify = verify_var_base if args.name == "var" else verify_clause_base
    report = verify(deadline=deadline)
    result = {"name": args.name, **report.to_dict(), "certified_orderings": certified}
    if args.render == "paper":
        result["rendered"] = rendered
    return Outcome(result, report.nodes)


@verb("reduce", "compile a 3-SAT formula to a tournament",
      arg("--cnf", required=True),
      arg("--gadget", required=True, help=".trn file of the companion tournament"),
      OUT,
      arg("--landmarks", default=None),
      arg("--sizing-only", action="store_true"),
      arg("--vertex-budget", type=int, default=DEFAULT_VERTEX_BUDGET))
def _reduce(args, deadline, read) -> Outcome:
    if args.vertex_budget < 0:
        raise ValueError(f"--vertex-budget must be non-negative, got {args.vertex_budget}")
    formula = read(args.cnf, parse_dimacs)
    companion = read(args.gadget)
    report = reduction_sizing(formula, companion.n, vertex_budget=args.vertex_budget)
    # each literal flips 4 arcs, and a clause block's three landmark pairs are disjoint
    result = {"sizing": report.to_dict(), "vertices": report.total_vertices,
              "reversed_arcs": 12 * len(formula.clauses)}
    if args.sizing_only:
        result.update(_write(args, deadline, out=None, landmarks=None))
    else:
        instance = build(formula, companion, vertex_budget=args.vertex_budget, deadline=deadline)
        result.update(_write(args, deadline, out=instance.tournament, landmarks=instance))
    return Outcome(result)


@verb("witness", "translate between assignments and orderings",
      arg("direction", choices=["to-ordering", "to-assignment"]),
      arg("--trn", required=True),
      arg("--landmarks", required=True),
      arg("--assign", default=None),
      arg("--ordering", default=None))
def _witness(args, deadline, read) -> Outcome:
    stray = "--ordering" if args.direction == "to-ordering" else "--assign"
    if getattr(args, stray[2:]) is not None:
        raise ValueError(f"witness {args.direction} does not take {stray}")
    t = read(args.trn)
    instance = instance_from_dict(read(args.landmarks, parse_json), t, deadline=deadline)
    if args.direction == "to-ordering":
        if args.assign is None:
            raise ValueError("witness to-ordering needs --assign")
        ordering = ordering_from_assignment(instance, parse_assignment(args.assign))
        return Outcome({"ordering": ordering})
    if args.ordering is None:
        raise ValueError("witness to-assignment needs --ordering")
    assignment = assignment_from_ordering(instance, _parse_ordering(args.ordering, read))
    return Outcome({"assignment": [int(v) for v in assignment]})


@verb("verify-ordering", "scan an ordering's backedge graph",
      arg("--trn", required=True), arg("--ordering", required=True))
def _verify_ordering(args, deadline, read) -> Outcome:
    report = verify_ordering(read(args.trn), _parse_ordering(args.ordering, read), deadline)
    return Outcome(report.to_dict(), negative=not report.k4_free)


@verb("check-rules", "rule table over all minimum orderings and pivots",
      FILE, arg("--first-vertex", type=int, default=None), RENDER)
def _check_rules(args, deadline, read) -> Outcome:
    report = check_rules(read(args.file), args.first_vertex, deadline=deadline)
    result = report.to_dict()
    if args.render == "paper":
        lines = []
        for cell in report.cells:
            if cell.all_rules_hold:
                verdict = "all rules hold"
            else:
                wit = cell.witness
                parts = ", ".join(f"{k}={v + 1}" for k, v in wit.vertices)
                verdict = f"rule {wit.rule}" + (f" with {parts}" if parts else "")
            lines.append(
                f"{_render_ordering(cell.ordering)}  x={cell.pivot + 1}  {verdict}"
            )
        result["rendered"] = lines
    return Outcome(result)


@verb("pass", "forbidden-subword instances",
      arg("action", choices=["from-tournament", "solve"]), FILE, OUT)
def _pass(args, deadline, read) -> Outcome:
    if args.action == "from-tournament":
        instance = to_pass(read(args.file), deadline)
        result = {"alphabet": instance.alphabet_size}
        if args.out is None or instance.alphabet_size <= INLINE_MAX:
            result = instance.to_dict()
        result["tournament_closed"] = is_tournament_closed(instance, deadline)
        result.update(_write(args, deadline, out=instance))
        return Outcome(result)
    instance = PassInstance.from_dict(read(args.file, parse_json), deadline)
    _write(args, deadline, out=None)  # a solve writes no file
    size = instance.alphabet_size
    sizing = SizingReport("pass", (("alphabet", size),), size, DEFAULT_VERTEX_BUDGET)
    if not sizing.materializable:  # the solver's tables hold an entry per symbol
        raise MaterializationRefused(sizing)
    permutation = solve_pass(instance, deadline=deadline)
    result = {"found": permutation is not None, "permutation": permutation}
    return Outcome(result, negative=permutation is None)


class _Parser(argparse.ArgumentParser):
    """An argparse parser whose usage errors raise ValueError, so that ``run``
    reports them in the envelope (exit 2) instead of exiting without one."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="backedge",
        description="Exact toolkit for ordering-based clique numbers of tournaments.",
    )
    parser.add_argument("--budget", type=float, default=None,
                        help=f"wall-clock budget in seconds (default: ${BUDGET_ENV_VAR})")
    parser.add_argument("--seed", type=int, default=20240901,
                        help="seed for randomized audits")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (summary, arguments, handler) in VERBS.items():
        p = sub.add_parser(name, help=summary)
        for names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(handler=handler)
    return parser


# chunks of json's encoder between two budget polls while an envelope is
# encoded (about 18 KB of a rule table's text)
_ENCODE_BLOCK = 4096


def _encode(envelope: dict, deadline: Deadline) -> list[str]:
    """``envelope`` as ``json.dump(envelope, indent=1)`` writes it, in blocks
    of ``_ENCODE_BLOCK`` chunks, polling ``deadline`` before each block.  The
    caller writes the blocks only once all are encoded, so a spent budget
    leaves no partial envelope behind."""
    chunks = json.JSONEncoder(indent=1, allow_nan=False).iterencode(envelope)
    blocks = []
    while True:
        deadline.check()
        block = "".join(itertools.islice(chunks, _ENCODE_BLOCK))
        if not block:
            return blocks
        blocks.append(block)


def run(argv: Optional[list[str]] = None) -> int:
    started = time.monotonic()
    inputs: list[dict] = []

    def read(path: str, parse: Optional[Callable[[str], object]] = None):
        """The one place an input file becomes a value: it is read once and
        digested as read, as a pipe cannot be read twice and ``--out`` may
        overwrite it.  A tournament (the default) is read line by line under
        the run's deadline; ``parse`` takes the whole text."""
        digest = hashlib.sha256()
        with open(path, "rb") as handle:
            if parse is None:
                value = read_tournament(handle, path, digest, deadline)
            else:
                value = parse("".join(_decoded_lines(handle, digest)))
        inputs.append({"path": path, "sha256": digest.hexdigest()})
        return value

    budget: Optional[float] = None
    deadline = Deadline()
    nodes: Optional[int] = None
    exhausted = False
    try:
        args = _build_parser().parse_args(argv)
        limit = args.budget
        if limit is None and os.environ.get(BUDGET_ENV_VAR):
            limit = float(os.environ[BUDGET_ENV_VAR])
        if limit is not None and not 0 <= limit < math.inf:
            raise ValueError(f"budget must be a finite number of seconds >= 0, got {limit}")
        budget = limit  # only a valid budget reaches the envelope
        deadline = Deadline(budget)
        outcome = args.handler(args, deadline, read)
        result, nodes = outcome.result, outcome.nodes
        exit_code = 1 if outcome.negative else 0
    except (ValueError, OSError) as exc:
        result = {"error": str(exc)}
        exit_code = 2
    except MaterializationRefused as exc:
        result = {"error": str(exc), "sizing": exc.report.to_dict()}
        exhausted = True
        exit_code = 3
    except BudgetExhausted as exc:
        result = {"error": str(exc)}
        exhausted = True
        exit_code = 3

    def envelope() -> dict:
        return {
            "command": " ".join(argv if argv is not None else sys.argv[1:]),
            "inputs": inputs,
            "result": result,
            "elapsed_ms": round((time.monotonic() - started) * 1000, 3),
            "nodes_explored": nodes,
            "budget": {"limit_s": budget, "exhausted": exhausted},
            "version": __version__,
        }

    if exit_code > 1:
        deadline = Deadline()  # an error envelope is small and always written
    try:
        blocks = _encode(envelope(), deadline)
    except BudgetExhausted as exc:
        result, nodes, exhausted, exit_code = {"error": str(exc)}, None, True, 3
        blocks = _encode(envelope(), Deadline())
    sys.stdout.writelines(blocks)
    sys.stdout.write("\n")
    return exit_code


def main() -> None:
    sys.exit(run())
