"""Command-line surface: one binary, one verb per operation, JSON report
envelopes on stdout.

Exit codes: 0 computed, 1 decision-negative (so shells can branch on
decide-style verbs), 2 input error, 3 budget exhausted or materialization
refused.

Each verb is declared once, by ``verb`` on its handler, with its arguments.
A handler takes ``(args, deadline, read)``, returns an ``Outcome`` and loads
every input file through ``read``, so the envelope's ``inputs`` list the
files the verb read, in read order, also when the verb then fails.
"""

from __future__ import annotations

import argparse
import json
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
    amplifier,
    amplifier_sizing,
    arrow,
    c3,
    d_family,
    delta,
    lift,
    pi,
    pi_sizing,
    tt,
)
from .core import BudgetExhausted, Tournament, directed_triangle
from .gadgets import (
    clause_base,
    r5,
    var_base,
    verify_clause_base,
    verify_var_base,
)
from .io import (
    load_tournament,
    parse_assignment,
    parse_ordering,
    read_json,
    save_tournament,
    sha256_file,
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
    Deadline,
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
RENDER = arg("--render", choices=["paper"], default=None)


def _render_ordering(ordering) -> str:
    return "<".join(str(v + 1) for v in ordering)


def _ordering_or_none(ordering) -> Optional[list]:
    return None if ordering is None else list(ordering)


def _parse_ordering(spec: str, read) -> tuple[int, ...]:
    """An ``--ordering`` spec; one that names a file is loaded through
    ``read``, so the envelope digests it, while inline specs are not."""
    if os.path.exists(spec):
        return read(spec, parse_ordering)
    return parse_ordering(spec)


@verb("omega", "exact ordering clique number", FILE)
def _omega(args, deadline, read) -> Outcome:
    res = omega(read(args.file), deadline=deadline)
    return Outcome({"value": res.value, "witness": list(res.witness)}, res.nodes)


@verb("omega-decide", "is the ordering clique number <= k?", FILE, K)
def _omega_decide(args, deadline, read) -> Outcome:
    res = omega_decide(read(args.file), args.k, deadline=deadline)
    result = {"decision": res.decision, "witness": _ordering_or_none(res.witness)}
    return Outcome(result, res.nodes, not res.decision)


@verb("orderings", "enumerate all minimum orderings",
      FILE, arg("--first", type=int, default=None))
def _orderings(args, deadline, read) -> Outcome:
    t = read(args.file)
    stats = SearchStats()
    value = omega(t, deadline=deadline).value
    orderings = [
        list(o)
        for o in iter_orderings_with_clique_at_most(
            t, value, first_vertex=args.first, deadline=deadline, stats=stats
        )
    ]
    return Outcome(
        {"omega": value, "count": len(orderings), "orderings": orderings}, stats.nodes
    )


@verb("chi", "exact acyclic partition number", FILE)
def _chi(args, deadline, read) -> Outcome:
    res = chi(read(args.file), deadline=deadline)
    return Outcome(
        {"value": res.value, "classes": [list(c) for c in res.classes]}, res.conflicts
    )


@verb("chi-decide", "do k acyclic classes suffice?", FILE, K)
def _chi_decide(args, deadline, read) -> Outcome:
    res = chi_decide(read(args.file), args.k, deadline=deadline)
    result = {
        "decision": res.decision,
        "classes": None if res.classes is None else [list(c) for c in res.classes],
    }
    return Outcome(result, res.conflicts, not res.decision)


@verb("forcing", "must u precede v in every ordering of clique number <= k?",
      FILE, arg("--u", type=int, required=True), arg("--v", type=int, required=True), K)
def _forcing(args, deadline, read) -> Outcome:
    res = forcing_holds(read(args.file), args.u, args.v, args.k, deadline=deadline)
    result = {
        "holds": res.holds,
        "vacuous": res.vacuous,
        "counterexample": _ordering_or_none(res.counterexample),
    }
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
    budget = DEFAULT_VERTEX_BUDGET if args.vertex_budget is None else args.vertex_budget
    # tt and dk take a size; elsewhere a number names a transitive tournament
    parts = [] if kind in ("tt", "dk") else [
        tt(int(s)) if s.isdigit() else read(s) for s in specs
    ]
    result: dict = {"kind": kind}
    ordering = None
    layout = None

    if kind == "tt":
        built = tt(int(specs[0]))
    elif kind == "c3":
        built = c3()
    elif kind == "arrow":
        built = arrow(*parts)
    elif kind == "delta":
        built = delta(*parts)
    elif kind == "lift":
        lifted = lift(*parts)
        built = lifted.digraph
        result["landmarks"] = {
            "v": lifted.v,
            "inner_span": list(lifted.inner_span),
            "outer_span": list(lifted.outer_span),
        }
    elif kind in ("amplifier", "pi"):
        (base,) = parts
        sizing_fn = amplifier_sizing if kind == "amplifier" else pi_sizing
        result["sizing"] = sizing_fn(base.n, vertex_budget=budget).to_dict()
        if args.sizing_only:
            return Outcome(result)
        construction = amplifier if kind == "amplifier" else pi
        res = construction(base, vertex_budget=budget, deadline=deadline)
        built, ordering, layout = res.tournament, res.ordering, res.layout
        if kind == "amplifier" and args.audit_subsets:
            rng = random.Random(args.seed)
            full = (1 << built.n) - 1
            ok = 0
            for _ in range(args.audit_subsets):
                subset = rng.getrandbits(built.n)
                if (
                    directed_triangle(built, subset) is not None
                    or directed_triangle(built, full & ~subset) is not None
                ):
                    ok += 1
            result["hitting_audit"] = {
                "trials": args.audit_subsets,
                "hit": ok,
                "seed": args.seed,
            }
    else:  # dk
        out = d_family(int(specs[0]), vertex_budget=budget)
        if not isinstance(out, Tournament):
            result["sizing"] = out.to_dict()
            return Outcome(result)
        built = out

    result["n"] = built.n
    if ordering is not None:
        result["ordering"] = list(ordering)
    if args.out:
        save_tournament(built, args.out)
        result["out"] = args.out
    elif built.n <= 64:
        result["tournament"] = tournament_to_json_dict(built)
    if layout is not None and args.layout_out:
        write_json(args.layout_out, layout.to_dict())
        result["layout_out"] = args.layout_out
    return Outcome(result)


@verb("gadget", "show or exhaustively verify a gadget",
      arg("action", choices=["show", "verify"]),
      arg("name", choices=["var", "clause", "r5"]),
      RENDER)
def _gadget(args, deadline, read) -> Outcome:
    if args.name == "r5":
        gadget_t = r5()
        marked = {}
        certified = []
    else:
        gadget = var_base() if args.name == "var" else clause_base()
        gadget_t = gadget.tournament
        marked = {name: list(pair) for name, pair in gadget.marked_arcs}
        certified = [
            {
                "name": cert.name,
                "ordering": list(cert.ordering),
                "forward": dict(cert.forward),
            }
            for cert in gadget.certified_orderings
        ]
    rendered = [f"{c['name']}: {_render_ordering(c['ordering'])}" for c in certified]
    if args.action == "show":
        result = {
            "name": args.name,
            "tournament": tournament_to_json_dict(gadget_t),
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


def _load_dimacs(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_dimacs(handle.read())


@verb("reduce", "compile a 3-SAT formula to a tournament",
      arg("--cnf", required=True),
      arg("--gadget", required=True, help=".trn file of the companion tournament"),
      OUT,
      arg("--landmarks", default=None),
      arg("--sizing-only", action="store_true"),
      arg("--vertex-budget", type=int, default=DEFAULT_VERTEX_BUDGET))
def _reduce(args, deadline, read) -> Outcome:
    formula = read(args.cnf, _load_dimacs)
    companion = read(args.gadget)
    report = reduction_sizing(formula, companion.n, vertex_budget=args.vertex_budget)
    result = {"sizing": report.to_dict()}
    if args.sizing_only:
        result["vertices"] = report.total_vertices
        result["reversed_arcs"] = 12 * len(formula.clauses)
        return Outcome(result)
    instance = build(formula, companion, vertex_budget=args.vertex_budget, deadline=deadline)
    result["vertices"] = instance.tournament.n
    result["reversed_arcs"] = len(instance.bundle_arcs())
    result["gadget"] = {
        "size": instance.gadget.size,
        "omega_checked": instance.gadget.omega_checked,
        "genuine": instance.gadget.genuine,
    }
    if args.out:
        save_tournament(instance.tournament, args.out)
        result["out"] = args.out
    if args.landmarks:
        write_json(args.landmarks, instance.to_dict())
        result["landmarks"] = args.landmarks
    return Outcome(result)


@verb("witness", "translate between assignments and orderings",
      arg("direction", choices=["to-ordering", "to-assignment"]),
      arg("--trn", required=True),
      arg("--landmarks", required=True),
      arg("--assign", default=None),
      arg("--ordering", default=None))
def _witness(args, deadline, read) -> Outcome:
    t = read(args.trn)
    instance = instance_from_dict(read(args.landmarks, read_json), t, deadline=deadline)
    if args.direction == "to-ordering":
        if args.assign is None:
            raise ValueError("witness to-ordering needs --assign")
        ordering = ordering_from_assignment(instance, parse_assignment(args.assign))
        return Outcome({"ordering": list(ordering)})
    if args.ordering is None:
        raise ValueError("witness to-assignment needs --ordering")
    assignment = assignment_from_ordering(instance, _parse_ordering(args.ordering, read))
    return Outcome({"assignment": [int(v) for v in assignment]})


@verb("verify-ordering", "scan an ordering's backedge graph",
      arg("--trn", required=True), arg("--ordering", required=True))
def _verify_ordering(args, deadline, read) -> Outcome:
    report = verify_ordering(read(args.trn), _parse_ordering(args.ordering, read))
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
        instance = to_pass(read(args.file))
        result = instance.to_dict()
        result["tournament_closed"] = is_tournament_closed(instance)
        if args.out:
            write_json(args.out, instance.to_dict())
            result["out"] = args.out
        return Outcome(result)
    instance = PassInstance.from_dict(read(args.file, read_json))
    permutation = solve_pass(instance, deadline=deadline)
    result = {"found": permutation is not None, "permutation": _ordering_or_none(permutation)}
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


def run(argv: Optional[list[str]] = None) -> int:
    started = time.monotonic()
    inputs: list[str] = []

    def read(path: str, loader: Callable = load_tournament):
        loaded = loader(path)
        inputs.append(path)
        return loaded

    budget: Optional[float] = None
    nodes: Optional[int] = None
    exhausted = False
    try:
        args = _build_parser().parse_args(argv)
        budget = args.budget
        if budget is None and os.environ.get(BUDGET_ENV_VAR):
            budget = float(os.environ[BUDGET_ENV_VAR])
        outcome = args.handler(args, Deadline(budget), read)
        result, nodes = outcome.result, outcome.nodes
        exit_code = 1 if outcome.negative else 0
    except (ValueError, OSError, KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
        result = {"error": str(exc) or f"missing or malformed arguments for {args.verb}"}
        exit_code = 2
    except MaterializationRefused as exc:
        result = {"error": str(exc), "sizing": exc.report.to_dict()}
        exhausted = True
        exit_code = 3
    except BudgetExhausted as exc:
        result = {"error": str(exc)}
        exhausted = True
        exit_code = 3

    envelope = {
        "command": " ".join(argv if argv is not None else sys.argv[1:]),
        "inputs": [{"path": path, "sha256": sha256_file(path)} for path in inputs],
        "result": result,
        "elapsed_ms": round((time.monotonic() - started) * 1000, 3),
        "nodes_explored": nodes,
        "budget": {"limit_s": budget, "exhausted": exhausted},
        "version": __version__,
    }
    json.dump(envelope, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return exit_code


def main() -> None:
    sys.exit(run())
