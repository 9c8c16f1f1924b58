"""Command-line surface: one binary, one verb per operation, JSON report
envelopes on stdout.

Exit codes: 0 computed, 1 decision-negative (so shells can branch on
decide-style verbs), 2 input error, 3 budget exhausted or materialization
refused.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Optional

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


def _render_ordering(ordering) -> str:
    return "<".join(str(v + 1) for v in ordering)


def _load_construct_arg(spec: str) -> Tournament:
    if spec.isdigit():
        return tt(int(spec))
    return load_tournament(spec)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="backedge",
        description="Exact toolkit for ordering-based clique numbers of tournaments.",
    )
    parser.add_argument("--budget", type=float, default=None,
                        help=f"wall-clock budget in seconds (default: ${BUDGET_ENV_VAR})")
    parser.add_argument("--seed", type=int, default=20240901,
                        help="seed for randomized audits")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("omega", help="exact ordering clique number")
    p.add_argument("file")
    p = sub.add_parser("omega-decide", help="is the ordering clique number <= k?")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p = sub.add_parser("orderings", help="enumerate all minimum orderings")
    p.add_argument("file")
    p.add_argument("--first", type=int, default=None)
    p = sub.add_parser("chi", help="exact acyclic partition number")
    p.add_argument("file")
    p = sub.add_parser("chi-decide", help="do k acyclic classes suffice?")
    p.add_argument("file")
    p.add_argument("--k", type=int, required=True)
    p = sub.add_parser("forcing", help="must u precede v in every ordering of clique number <= k?")
    p.add_argument("file")
    p.add_argument("--u", type=int, required=True)
    p.add_argument("--v", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p = sub.add_parser("search-min-omega", help="smallest tournament of a given value")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--nmax", type=int, required=True)

    p = sub.add_parser("construct", help="build a named construction")
    p.add_argument("kind", choices=["tt", "c3", "arrow", "delta", "lift", "amplifier", "pi", "dk"])
    p.add_argument("args", nargs="*", help="sizes or tournament files")
    p.add_argument("--out", default=None)
    p.add_argument("--layout-out", default=None)
    p.add_argument("--sizing-only", action="store_true")
    p.add_argument("--audit-subsets", type=int, default=0,
                   help="amplifier only: sample N random subsets for the hitting audit")
    p.add_argument("--vertex-budget", type=int, default=DEFAULT_VERTEX_BUDGET)

    p = sub.add_parser("gadget", help="show or exhaustively verify a gadget")
    p.add_argument("action", choices=["show", "verify"])
    p.add_argument("name", choices=["var", "clause", "r5"])
    p.add_argument("--render", choices=["paper"], default=None)

    p = sub.add_parser("reduce", help="compile a 3-SAT formula to a tournament")
    p.add_argument("--cnf", required=True)
    p.add_argument("--gadget", required=True, help=".trn file of the companion tournament")
    p.add_argument("--out", default=None)
    p.add_argument("--landmarks", default=None)
    p.add_argument("--sizing-only", action="store_true")
    p.add_argument("--vertex-budget", type=int, default=DEFAULT_VERTEX_BUDGET)

    p = sub.add_parser("witness", help="translate between assignments and orderings")
    p.add_argument("direction", choices=["to-ordering", "to-assignment"])
    p.add_argument("--trn", required=True)
    p.add_argument("--landmarks", required=True)
    p.add_argument("--assign", default=None)
    p.add_argument("--ordering", default=None)

    p = sub.add_parser("verify-ordering", help="scan an ordering's backedge graph")
    p.add_argument("--trn", required=True)
    p.add_argument("--ordering", required=True)

    p = sub.add_parser("check-rules", help="rule table over all minimum orderings and pivots")
    p.add_argument("file")
    p.add_argument("--first-vertex", type=int, default=None)
    p.add_argument("--render", choices=["paper"], default=None)

    p = sub.add_parser("pass", help="forbidden-subword instances")
    p.add_argument("action", choices=["from-tournament", "solve"])
    p.add_argument("file")
    p.add_argument("--out", default=None)
    return parser


def _cmd_construct(args, deadline) -> tuple[dict, Optional[int], bool, list[str]]:
    kind = args.kind
    inputs = [a for a in args.args if not a.isdigit()]
    result: dict = {"kind": kind}
    built = None
    ordering = None
    layout = None

    if kind == "tt":
        built = tt(int(args.args[0]))
    elif kind == "c3":
        built = c3()
    elif kind == "arrow":
        built = arrow(*(_load_construct_arg(a) for a in args.args[:2]))
    elif kind == "delta":
        built = delta(*(_load_construct_arg(a) for a in args.args[:3]))
    elif kind == "lift":
        lifted = lift(*(_load_construct_arg(a) for a in args.args[:2]))
        built = lifted.digraph
        result["landmarks"] = {
            "v": lifted.v,
            "inner_span": list(lifted.inner_span),
            "outer_span": list(lifted.outer_span),
        }
    elif kind in ("amplifier", "pi"):
        base = _load_construct_arg(args.args[0])
        sizing_fn = amplifier_sizing if kind == "amplifier" else pi_sizing
        report = sizing_fn(base.n, vertex_budget=args.vertex_budget)
        result["sizing"] = report.to_dict()
        if args.sizing_only:
            return result, None, False, inputs
        res = (amplifier if kind == "amplifier" else pi)(
            base, vertex_budget=args.vertex_budget
        )
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
    elif kind == "dk":
        k = int(args.args[0])
        out = d_family(k, vertex_budget=args.vertex_budget)
        if isinstance(out, Tournament):
            built = out
        else:
            result["sizing"] = out.to_dict()
            return result, None, False, inputs

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
    return result, None, False, inputs


def _cmd_gadget(args, deadline) -> tuple[dict, Optional[int], bool, list[str]]:
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
                "certified_orderings": [
                    f"{c['name']}: {_render_ordering(c['ordering'])}" for c in certified
                ],
            }
        return result, None, False, []
    if args.name == "r5":
        raise ValueError("verify supports the var and clause gadgets")
    verify = verify_var_base if args.name == "var" else verify_clause_base
    report = verify(deadline=deadline)
    result = {"name": args.name, **report.to_dict(), "certified_orderings": certified}
    if args.render == "paper":
        result["rendered"] = [
            f"{c['name']}: {_render_ordering(c['ordering'])}" for c in certified
        ]
    return result, report.nodes, False, []


def _cmd_reduce(args, deadline) -> tuple[dict, Optional[int], bool, list[str]]:
    with open(args.cnf, "r", encoding="utf-8") as handle:
        formula = parse_dimacs(handle.read())
    companion = load_tournament(args.gadget)
    report = reduction_sizing(formula, companion.n, vertex_budget=args.vertex_budget)
    result = {"sizing": report.to_dict()}
    if args.sizing_only:
        result["vertices"] = report.total_vertices
        result["reversed_arcs"] = 12 * len(formula.clauses)
        return result, None, False, [args.cnf, args.gadget]
    instance = build(formula, companion, vertex_budget=args.vertex_budget)
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
    return result, None, False, [args.cnf, args.gadget]


def _cmd_witness(args, deadline) -> tuple[dict, Optional[int], bool, list[str]]:
    instance = instance_from_dict(read_json(args.landmarks), load_tournament(args.trn))
    if args.direction == "to-ordering":
        if args.assign is None:
            raise ValueError("witness to-ordering needs --assign")
        ordering = ordering_from_assignment(instance, parse_assignment(args.assign))
        return (
            {"ordering": list(ordering)},
            None,
            False,
            [args.trn, args.landmarks],
        )
    if args.ordering is None:
        raise ValueError("witness to-assignment needs --ordering")
    assignment = assignment_from_ordering(instance, parse_ordering(args.ordering))
    return (
        {"assignment": [int(v) for v in assignment]},
        None,
        False,
        [args.trn, args.landmarks],
    )


def _cmd_check_rules(args, deadline) -> tuple[dict, Optional[int], bool, list[str]]:
    t = load_tournament(args.file)
    report = check_rules(t, args.first_vertex, deadline=deadline)
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
    return result, None, False, [args.file]


def _cmd_pass(args, deadline) -> tuple[dict, Optional[int], bool, list[str]]:
    if args.action == "from-tournament":
        instance = to_pass(load_tournament(args.file))
        result = instance.to_dict()
        result["tournament_closed"] = is_tournament_closed(instance)
        if args.out:
            write_json(args.out, instance.to_dict())
            result["out"] = args.out
        return result, None, False, [args.file]
    instance = PassInstance.from_dict(read_json(args.file))
    permutation = solve_pass(instance, deadline=deadline)
    found = permutation is not None
    result = {
        "found": found,
        "permutation": None if permutation is None else list(permutation),
    }
    return result, None, not found, [args.file]


def run(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    budget = args.budget
    if budget is None and os.environ.get(BUDGET_ENV_VAR):
        budget = float(os.environ[BUDGET_ENV_VAR])
    deadline = Deadline(budget)
    started = time.monotonic()
    nodes: Optional[int] = None
    negative = False
    inputs: list[str] = []
    exit_code = 0
    try:
        verb = args.verb
        if verb == "omega":
            t = load_tournament(args.file)
            inputs = [args.file]
            res = omega(t, deadline=deadline)
            result = {"value": res.value, "witness": list(res.witness)}
            nodes = res.nodes
        elif verb == "omega-decide":
            t = load_tournament(args.file)
            inputs = [args.file]
            res = omega_decide(t, args.k, deadline=deadline)
            result = {
                "decision": res.decision,
                "witness": None if res.witness is None else list(res.witness),
            }
            nodes = res.nodes
            negative = not res.decision
        elif verb == "orderings":
            t = load_tournament(args.file)
            inputs = [args.file]
            stats = SearchStats()
            value = omega(t, deadline=deadline).value
            orderings = list(
                iter_orderings_with_clique_at_most(
                    t, value, first_vertex=args.first, deadline=deadline, stats=stats
                )
            )
            result = {
                "omega": value,
                "count": len(orderings),
                "orderings": [list(o) for o in orderings],
            }
            nodes = stats.nodes
        elif verb == "chi":
            t = load_tournament(args.file)
            inputs = [args.file]
            res = chi(t, deadline=deadline)
            result = {"value": res.value, "classes": [list(c) for c in res.classes]}
            nodes = res.conflicts
        elif verb == "chi-decide":
            t = load_tournament(args.file)
            inputs = [args.file]
            res = chi_decide(t, args.k, deadline=deadline)
            result = {
                "decision": res.decision,
                "classes": None if res.classes is None else [list(c) for c in res.classes],
            }
            nodes = res.conflicts
            negative = not res.decision
        elif verb == "forcing":
            t = load_tournament(args.file)
            inputs = [args.file]
            res = forcing_holds(t, args.u, args.v, args.k, deadline=deadline)
            result = {
                "holds": res.holds,
                "vacuous": res.vacuous,
                "counterexample": None
                if res.counterexample is None
                else list(res.counterexample),
            }
            nodes = res.nodes
            negative = not res.holds
        elif verb == "search-min-omega":
            res = min_order_with_omega(args.k, args.nmax, deadline=deadline)
            if res is None:
                result = {"found": False}
                negative = True
            else:
                result = {
                    "found": True,
                    "n": res.n,
                    "tournament": tournament_to_json_dict(res.witness),
                }
        elif verb == "construct":
            result, nodes, negative, inputs = _cmd_construct(args, deadline)
        elif verb == "gadget":
            result, nodes, negative, inputs = _cmd_gadget(args, deadline)
        elif verb == "reduce":
            result, nodes, negative, inputs = _cmd_reduce(args, deadline)
        elif verb == "witness":
            result, nodes, negative, inputs = _cmd_witness(args, deadline)
        elif verb == "verify-ordering":
            t = load_tournament(args.trn)
            inputs = [args.trn]
            report = verify_ordering(t, parse_ordering(args.ordering))
            result = report.to_dict()
            negative = not report.k4_free
        elif verb == "check-rules":
            result, nodes, negative, inputs = _cmd_check_rules(args, deadline)
        elif verb == "pass":
            result, nodes, negative, inputs = _cmd_pass(args, deadline)
        else:  # pragma: no cover
            raise ValueError(f"unknown verb {verb}")
        exhausted = False
    except (ValueError, OSError, KeyError, IndexError, TypeError, json.JSONDecodeError) as exc:
        result = {"error": str(exc) or f"missing or malformed arguments for {args.verb}"}
        exhausted = False
        exit_code = 2
    except MaterializationRefused as exc:
        result = {"error": str(exc), "sizing": exc.report.to_dict()}
        exhausted = True
        exit_code = 3
    except BudgetExhausted as exc:
        result = {"error": str(exc)}
        exhausted = True
        exit_code = 3

    if exit_code == 0 and negative:
        exit_code = 1
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
