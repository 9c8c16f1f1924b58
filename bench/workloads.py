"""The three workloads: seeded job lists over the public API of backedge.

A workload is a list of chains; a chain is a list of jobs that run in order
and may hand results to each other through a per-chain ``state`` dict.  The
seed draws every input and the order of the chains; a run times each job
once, so no input is ever timed twice in one run.

Every job has two parts:
  * ``run(tr, deadline, state)``: the timed part, which calls backedge
    through the tracer and counts what the calls return;
  * ``check(out, tr)``: the untimed part, which checks the output
    independently and returns the record compared against the reference
    outputs of the seed commit.

Job counts below are those of a 20-second run; other lengths scale the
seeded jobs (never the fixed corpus) in proportion.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from backedge import Tournament, cli
from backedge.constructions import MaterializationRefused, amplifier, c3, pi
from backedge.core import (
    backedge_graph,
    check_ordering,
    contains_subtournament,
    directed_triangle,
    has_clique,
    is_acyclic,
    is_strong,
    triangle_in_graph,
)
from backedge.gadgets import r5, verify_clause_base, verify_var_base
from backedge.generation import canonical_tournaments
from backedge.io import load_tournament, save_tournament, tournament_to_text
from backedge.reduction import (
    CnfFormula,
    assignment_from_ordering,
    build,
    ordering_from_assignment,
    verify_ordering,
)
from backedge.rulecheck import check_rules, validate_rule_witness
from backedge.solvers import (
    SearchStats,
    chi_decide,
    enumerate_omega_orderings,
    forcing_holds,
    min_order_with_omega,
    omega_by_enumeration,
    omega_decide,
)
from backedge.subword import solve_pass, to_pass

REFERENCE_SECONDS = 20
# wall-clock budget of each job whose function takes a deadline
JOB_BUDGET_S = 30.0
# variables of the formula the compile workload runs through the CLI
CLI_VARIABLES = 30

# The 7-vertex value-3 companion: the first value-3 tournament in canonical
# generation order, i.e. min_order_with_omega(3, 7).witness.
W7 = Tournament(7, (112, 73, 35, 21, 70, 26, 44))


class CheckFailed(Exception):
    """An output failed an independent check."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    id: str
    layer: str  # the module a failure of this job is charged to
    input: str  # digest of the input; keys the reference record
    run: Callable[[Any, Any, dict], Any]
    check: Callable[[Any, Any], dict]


def digest(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def tournament_digest(t: Tournament) -> str:
    width = (t.n + 7) // 8
    h = hashlib.sha256(t.n.to_bytes(4, "little"))
    for row in t.rows:
        h.update(row.to_bytes(width, "little"))
    return h.hexdigest()[:12]


def file_sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def random_tournament(rng: random.Random, n: int) -> Tournament:
    bits = rng.getrandbits(n * (n - 1) // 2)
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if bits & 1:
                rows[i] |= 1 << j
            else:
                rows[j] |= 1 << i
            bits >>= 1
    return Tournament(n, tuple(rows))


def fresh_tournament(rng, n: int, seen: set, *, strong: bool = False) -> Tournament:
    """Draw until the tournament is new to this run (and strong if asked):
    rejection by input properties only, never by running time."""
    while True:
        t = random_tournament(rng, n)
        if t.rows not in seen and (not strong or is_strong(t)):
            seen.add(t.rows)
            return t


def scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


def backedge_clique(t: Tournament, ordering) -> int:
    """Clique number of the ordering's backedge graph, computed here rather
    than by backedge: the arcs that point leftward, then branch and bound."""
    adj = [0] * t.n
    placed = 0
    for v in ordering:
        back = t.rows[v] & placed
        adj[v] = back
        for u in range(t.n):
            if back >> u & 1:
                adj[u] |= 1 << v
        placed |= 1 << v

    def grow(mask: int, size: int) -> int:
        best = size
        while mask and size + mask.bit_count() > best:
            v = mask.bit_length() - 1
            mask ^= 1 << v
            best = max(best, grow(adj[v] & mask, size + 1))
        return best

    return grow(placed, 0)


# --- decide -----------------------------------------------------------------


def omega_job(jid: str, t: Tournament) -> Job:
    """omega as per-k omega_decide calls, the same work as omega()."""

    def run(tr, deadline, state):
        nodes = 0
        with tr.span("solvers.omega"):
            for k in itertools.count(1):
                res = tr.call("solvers.omega_decide", omega_decide, t, k, deadline=deadline)
                outcome = "witness" if res.decision else "refute"
                tr.label(outcome)
                tr.count(f"solvers.omega_decide.{outcome}.calls")
                tr.count(f"solvers.omega_decide.{outcome}.nodes", res.nodes)
                nodes += res.nodes
                if res.decision:
                    break
        tr.count("solvers.omega.calls")
        tr.count("solvers.omega.nodes", nodes)
        return k, res.witness

    def check(out, tr):
        value, witness = out
        check_ordering(witness, t.n)
        require(backedge_clique(t, witness) == value, "witness misses the value")
        if t.n <= 7:
            require(omega_by_enumeration(t) == value, "enumeration disagrees")
        return {"value": value, "witness": list(witness)}

    return Job(jid, "solvers", tournament_digest(t), run, check)


def chi_job(jid: str, t: Tournament) -> Job:
    """chi as per-k chi_decide calls, the same work as chi(); conflicts are
    counted per call, since chi().conflicts reports only the last k."""

    def run(tr, deadline, state):
        with tr.span("solvers.chi"):
            for k in itertools.count(1):
                res = tr.call("solvers.chi_decide", chi_decide, t, k, deadline=deadline)
                outcome = "sat" if res.decision else "unsat"
                tr.label(outcome)
                tr.count(f"solvers.chi_decide.{outcome}.calls")
                tr.count(f"solvers.chi_decide.{outcome}.conflicts", res.conflicts)
                if res.decision:
                    return k, res.classes

    def check(out, tr):
        value, classes = out
        members = sorted(v for cls in classes for v in cls)
        require(members == list(range(t.n)), "classes do not partition the vertices")
        require(len(classes) == value, "class count differs from the value")
        for cls in classes:
            mask = sum(1 << v for v in cls)
            require(is_acyclic(t, mask), f"class {cls} is cyclic")
        return {"value": value}

    return Job(jid, "solvers", tournament_digest(t), run, check)


def pass_job(jid: str, t: Tournament) -> Job:
    def run(tr, deadline, state):
        instance = tr.call("subword.to_pass", to_pass, t)
        tr.count("subword.solve_pass.calls")
        return tr.call("subword.solve_pass", solve_pass, instance, deadline=deadline)

    def check(perm, tr):
        # the lexicographically first triangle-free ordering is both answers
        ref = omega_decide(t, 2)
        require((perm is not None) == ref.decision, "pass disagrees with omega <= 2")
        require(perm == ref.witness, "pass permutation is not the first ordering")
        return {"permutation": None if perm is None else list(perm)}

    return Job(jid, "subword", tournament_digest(t), run, check)


def forcing_job(jid: str, t: Tournament, u: int, v: int, k: int) -> Job:
    def run(tr, deadline, state):
        res = tr.call("solvers.forcing", forcing_holds, t, u, v, k, deadline=deadline)
        tr.count("solvers.forcing.calls")
        tr.count("solvers.forcing.nodes", res.nodes)
        return res

    def check(res, tr):
        if res.counterexample is not None:
            ce = check_ordering(res.counterexample, t.n)
            require(not res.holds, "counterexample given for a holding claim")
            require(ce.index(v) < ce.index(u), "counterexample keeps u before v")
            require(has_clique(backedge_graph(t, ce), k + 1) is None,
                    "counterexample exceeds the clique bound")
        if res.vacuous:
            require(res.holds and not omega_decide(t, k).decision,
                    "vacuous claim, yet an ordering meets the bound")
        return {"holds": res.holds, "vacuous": res.vacuous}

    return Job(jid, "solvers", digest([tournament_digest(t), u, v, k]), run, check)


def decide(rng: random.Random, scale: float, workdir: str) -> list[list[Job]]:
    """Job times of every verb here spread with a coefficient of variation
    of 1 to 1.6, so a class adds to the seed-to-seed spread of the total in
    proportion to its share times its mean job time: the sizes stop where
    that stays small.  omega at n=11 averages 0.37 s (1.7 s tails) and at
    n=12 1.2 s, pass at n=10 0.24 s; chi stops at n=24, since some random
    tournaments have chi = 5, whose UNSAT k=4 call takes 20-65 s at
    n=28-32 (at n=26 one draw in 3,000 already ran past 0.5 s), and starts
    at n=22, below which a quarter (n=21) to over half (n=20) of the draws
    finish in a third of the usual time.  chi jobs at n=22-24 vary least
    and are half of all jobs, so the median job is a chi job rather than
    a point in the gap between two kinds of job."""
    seen: set = set()
    jobs = []
    for n, count in ((9, 100), (10, 100)):
        for i in range(scaled(count, scale)):
            jobs.append(omega_job(f"omega/n{n}/{i:03d}", fresh_tournament(rng, n, seen)))
    for n in range(22, 25):
        for i in range(scaled(120, scale)):
            jobs.append(chi_job(f"chi/n{n}/{i:03d}", fresh_tournament(rng, n, seen)))
    for n, count in ((8, 100), (9, 10)):
        for i in range(scaled(count, scale)):
            jobs.append(pass_job(f"pass/n{n}/{i:03d}", fresh_tournament(rng, n, seen)))
    for n, count in ((9, 40), (10, 10)):
        for i in range(scaled(count, scale)):
            t = fresh_tournament(rng, n, seen)
            u, v = rng.sample(range(n), 2)
            jobs.append(forcing_job(f"forcing/n{n}/{i:03d}", t, u, v, 2))
    return [[job] for job in jobs]


# --- enumerate --------------------------------------------------------------


def orderings_job(jid: str, t: Tournament) -> Job:
    def run(tr, deadline, state):
        stats = SearchStats()
        with tr.span("solvers.orderings"):
            found = list(enumerate_omega_orderings(t, deadline=deadline, stats=stats))
        tr.count("solvers.orderings.calls")
        tr.count("solvers.orderings.nodes", stats.nodes)
        tr.count("solvers.orderings.yielded", len(found))
        return found

    def check(found, tr):
        require(bool(found), "no minimum ordering")
        require(found == sorted(set(found)), "orderings not distinct and in order")
        value = backedge_clique(t, found[0])
        for ordering in found:
            check_ordering(ordering, t.n)
            require(backedge_clique(t, ordering) == value, f"{ordering} is not minimum")
        if t.n <= 7:
            require(omega_by_enumeration(t) == value, "enumeration disagrees")
        return {"omega": value, "count": len(found), "orderings": digest(found)}

    return Job(jid, "solvers", tournament_digest(t), run, check)


def rules_job(jid: str, t: Tournament) -> Job:
    def run(tr, deadline, state):
        report = tr.call("rulecheck.check_rules", check_rules, t, deadline=deadline)
        violated = sum(not cell.all_rules_hold for cell in report.cells)
        tr.count("rulecheck.check_rules.calls")
        tr.count("rulecheck.check_rules.cells", len(report.cells))
        tr.count("rulecheck.check_rules.violated_cells", violated)
        return report

    def check(report, tr):
        for cell in report.cells:
            if cell.witness is not None:
                require(
                    validate_rule_witness(
                        t, cell.ordering, cell.pivot, cell.witness.rule, cell.witness.named()
                    ),
                    f"rule witness fails in cell {cell.ordering} x={cell.pivot}",
                )
        require(report.excluded == all(not c.all_rules_hold for c in report.cells),
                "verdict disagrees with the cells")
        if t.n <= 7:
            require(omega_by_enumeration(t) == report.omega_value, "enumeration disagrees")
        cells = [
            (c.ordering, c.pivot, c.violated_rules,
             None if c.witness is None else (c.witness.rule, c.witness.vertices))
            for c in report.cells
        ]
        return {
            "omega": report.omega_value,
            "excluded": report.excluded,
            "cells": len(report.cells),
            "violated": sum(not c.all_rules_hold for c in report.cells),
            "table": digest(cells),
        }

    return Job(jid, "rulecheck", tournament_digest(t), run, check)


def gadget_job(name: str, verify, expected_orderings: int) -> Job:
    def run(tr, deadline, state):
        report = tr.call("gadgets.verify", verify, deadline=deadline)
        tr.count("gadgets.verify.calls")
        tr.count("gadgets.verify.nodes", report.nodes)
        tr.count("gadgets.verify.minimum_orderings", report.minimum_orderings)
        return report

    def check(report, tr):
        require(report.property_holds, "gadget property fails")
        require(report.omega_value == 2, "gadget value is not 2")
        require(report.minimum_orderings == expected_orderings,
                f"{report.minimum_orderings} minimum orderings, expected {expected_orderings}")
        return {
            "omega": report.omega_value,
            "minimum_orderings": report.minimum_orderings,
            "patterns": [list(p) for p in report.patterns],
        }

    return Job(f"gadget/{name}", "gadgets", name, run, check)


def min_order_job() -> Job:
    def run(tr, deadline, state):
        return tr.call("solvers.min_order_with_omega", min_order_with_omega, 3, 7,
                       deadline=deadline)

    def check(res, tr):
        require(res is not None and res.n == 7, "no value-3 tournament on 7 vertices")
        require(res.witness == W7, "first value-3 tournament differs from w7")
        return {"n": res.n, "rows": list(res.witness.rows)}

    return Job("min_order/3/7", "solvers", "k=3,nmax=7", run, check)


def canonical_job(n: int) -> Job:
    def run(tr, deadline, state):
        classes = tr.call("generation.canonical_tournaments", canonical_tournaments, n)
        tr.count("generation.canonical_tournaments.classes", len(classes))
        return classes

    def check(classes, tr):
        # OEIS A000568: tournaments up to isomorphism
        require(len(canonical_tournaments(n - 1)) == 456, "456 classes on 7 vertices")
        require(len(classes) == 6880, "6880 classes on 8 vertices")
        tr.count("generation.canonical_tournaments.candidates",
                 len(canonical_tournaments(n - 1)) << (n - 1))
        return {"classes": len(classes), "list": digest([c.rows for c in classes])}

    return Job(f"canonical/{n}", "generation", f"n={n}", run, check)


def enumerate_(rng: random.Random, scale: float, workdir: str) -> list[list[Job]]:
    seen: set = {r5().rows, W7.rows}
    chains = [
        [gadget_job("var", verify_var_base, 39)],
        [gadget_job("clause", verify_clause_base, 33)],
        [orderings_job("orderings/r5", r5())],
        [orderings_job("orderings/w7", W7)],
        [rules_job("rules/r5", r5())],
        [rules_job("rules/w7", W7)],
        # one chain: generation for n=8 reuses the cached n<=7 classes
        [min_order_job(), canonical_job(8)],
    ]
    for n, count in ((7, 70), (8, 175)):
        for i in range(scaled(count, scale)):
            t = fresh_tournament(rng, n, seen, strong=True)
            chains.append([orderings_job(f"orderings/n{n}/{i:03d}", t)])
    for n, count in ((6, 56), (7, 70)):
        for i in range(scaled(count, scale)):
            t = fresh_tournament(rng, n, seen, strong=True)
            chains.append([rules_job(f"rules/n{n}/{i:03d}", t)])
    return chains


# --- compile ----------------------------------------------------------------


def planted_formula(rng: random.Random, n_vars: int) -> tuple[CnfFormula, tuple[bool, ...]]:
    """3 clauses per variable, each with three distinct variables and at
    least one literal true under a random planted assignment."""
    assignment = tuple(rng.random() < 0.5 for _ in range(n_vars))
    clauses = []
    while len(clauses) < 3 * n_vars:
        clause = tuple((v, rng.random() < 0.5) for v in rng.sample(range(n_vars), 3))
        if any(assignment[v] == p for v, p in clause):
            clauses.append(clause)
    return CnfFormula(n_vars, tuple(clauses)), assignment


def dimacs(formula: CnfFormula) -> str:
    lines = [f"p cnf {formula.variable_count} {len(formula.clauses)}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(v + 1 if p else -(v + 1)) for v, p in clause) + " 0")
    return "\n".join(lines) + "\n"


def construction_chain(name: str, kind: str, base: Tournament, n_expected: int,
                       workdir: str, extra: list) -> list[Job]:
    """Build, then save and reload the result through the .trn format."""
    fn = pi if kind == "pi" else amplifier

    def build_run(tr, deadline, state):
        built = tr.call(f"constructions.{kind}", fn, base)
        tr.count(f"constructions.{kind}.calls")
        tr.count(f"constructions.{kind}.vertices", built.tournament.n)
        state["built"] = built
        return built

    def build_check(built, tr):
        t = built.tournament
        require(t.n == n_expected, f"{t.n} vertices, expected {n_expected}")
        # the construction ordering realizes the base's value (2 here)
        require(triangle_in_graph(backedge_graph(t, built.ordering)) is None,
                "construction ordering has a backedge triangle")
        return {"n": t.n, "tournament": tournament_digest(t)}

    path = os.path.join(workdir, f"{name}.trn")

    def save_run(tr, deadline, state):
        tr.call("io.save_tournament", save_tournament, state["built"].tournament, path)
        tr.count("io.save_tournament.bytes", os.path.getsize(path))

    def save_check(out, tr):
        return {"sha256": file_sha256(path)}

    def load_run(tr, deadline, state):
        t = tr.call("io.load_tournament", load_tournament, path)
        tr.count("io.load_tournament.bytes", os.path.getsize(path))
        return t, state["built"].tournament

    def load_check(out, tr):
        loaded, original = out
        require(loaded == original, "reloaded tournament differs")
        return {"tournament": tournament_digest(loaded)}

    return [
        Job(f"{name}/build", "constructions", digest([kind, tournament_digest(base)]),
            build_run, build_check),
        *extra,
        Job(f"{name}/save", "io", name, save_run, save_check),
        Job(f"{name}/load", "io", name, load_run, load_check),
    ]


def d2_jobs() -> list[Job]:
    def chi_run(tr, deadline, state):
        res = tr.call("solvers.chi_decide", chi_decide, state["built"].tournament, 2,
                      deadline=deadline)
        outcome = "sat" if res.decision else "unsat"
        tr.label(outcome)
        tr.count(f"solvers.chi_decide.{outcome}.calls")
        tr.count(f"solvers.chi_decide.{outcome}.conflicts", res.conflicts)
        return res

    def chi_check(res, tr):
        require(not res.decision, "D2 split into two acyclic classes")
        return {"decision": res.decision}

    def embed_run(tr, deadline, state):
        tr.count("core.contains_subtournament.calls")
        return tr.call("core.contains_subtournament", contains_subtournament,
                       state["built"].tournament, r5())

    def embed_check(image, tr):
        require(image is None, "D2 contains the 5-vertex circulant")
        return {"image": image}

    return [
        Job("d2/chi2", "solvers", "D2,k=2", chi_run, chi_check),
        Job("d2/no_r5", "core", "D2,r5", embed_run, embed_check),
    ]


def audit_job(rng: random.Random, subsets: int) -> Job:
    """Seeded hitting audit: each random vertex subset or its complement
    holds a directed triangle, i.e. a copy of the base c3."""
    seed = rng.getrandbits(64)

    def run(tr, deadline, state):
        t = state["built"].tournament
        full = (1 << t.n) - 1
        draw = random.Random(seed)
        hits = 0
        with tr.span("core.directed_triangle"):
            for _ in range(subsets):
                subset = draw.getrandbits(t.n)
                tr.count("core.directed_triangle.calls")
                if directed_triangle(t, subset) is not None:
                    hits += 1
                    continue
                tr.count("core.directed_triangle.calls")
                if directed_triangle(t, full & ~subset) is not None:
                    hits += 1
        return hits

    def check(hits, tr):
        require(hits == subsets, f"{subsets - hits} subsets missed")
        return {"hits": hits}

    return Job("amplifier_c3/audit", "core", digest([seed, subsets]), run, check)


def refused_job() -> Job:
    def run(tr, deadline, state):
        try:
            tr.call("constructions.amplifier", amplifier, r5())
        except MaterializationRefused as exc:
            tr.count("constructions.refused")
            return exc.report
        return None

    def check(report, tr):
        require(report is not None, "amplifier(r5) was not refused")
        require(report.total_vertices == 508725, "wrong amplifier(r5) size")
        return {"total_vertices": report.total_vertices}

    return Job("amplifier_r5/refused", "constructions", "r5", run, check)


def reduction_chain(jid: str, formula: CnfFormula, assignment: tuple) -> list[Job]:
    key = digest([formula.variable_count, formula.clauses, assignment])

    def build_run(tr, deadline, state):
        inst = tr.call("reduction.build", build, formula, W7)
        tr.count("reduction.build.calls")
        tr.count("reduction.build.vertices", inst.tournament.n)
        state["inst"] = inst
        return inst

    def build_check(inst, tr):
        require(inst.tournament.n == instance_size(formula), "instance size off")
        require(len(inst.bundle_arcs()) == 12 * len(formula.clauses), "flipped-arc count off")
        return {"n": inst.tournament.n, "tournament": tournament_digest(inst.tournament)}

    def order_run(tr, deadline, state):
        state["ordering"] = tr.call("reduction.ordering_from_assignment",
                                    ordering_from_assignment, state["inst"], assignment)
        return state["ordering"]

    def order_check(ordering, tr):
        check_ordering(ordering, instance_size(formula))
        return {"ordering": digest(ordering)}

    def verify_run(tr, deadline, state):
        return tr.call("reduction.verify_ordering", verify_ordering,
                       state["inst"], state["ordering"])

    def verify_check(report, tr):
        require(report.k4_free and report.has_triangle, f"bad ordering report {report}")
        return report.to_dict()

    def assign_run(tr, deadline, state):
        return tr.call("reduction.assignment_from_ordering", assignment_from_ordering,
                       state["inst"], state["ordering"])

    def assign_check(back, tr):
        require(tuple(back) == assignment, "assignment does not round-trip")
        require(formula.satisfies(back), "assignment does not satisfy the formula")
        return {"assignment": [int(b) for b in back]}

    return [
        Job(f"{jid}/build", "reduction", key, build_run, build_check),
        Job(f"{jid}/ordering", "reduction", key, order_run, order_check),
        Job(f"{jid}/verify", "reduction", key, verify_run, verify_check),
        Job(f"{jid}/assignment", "reduction", key, assign_run, assign_check),
    ]


def instance_size(formula: CnfFormula) -> int:
    """Vertices of the reduction over the 7-vertex companion."""
    return formula.variable_count * 17 + 7 + len(formula.clauses) * 16


def run_cli(argv: list[str]) -> tuple[int, dict]:
    out = _stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.run(argv)
    return code, json.loads(out.getvalue())


def cli_chain(formula: CnfFormula, assignment: tuple, workdir: str) -> list[Job]:
    """reduce -> witness to-ordering -> verify-ordering, through files."""
    cnf = os.path.join(workdir, "cli.cnf")
    gadget = os.path.join(workdir, "w7.trn")
    inst = os.path.join(workdir, "cli_inst.trn")
    marks = os.path.join(workdir, "cli_inst.json")
    order = os.path.join(workdir, "cli_ordering.json")
    with open(cnf, "w", encoding="utf-8") as handle:
        handle.write(dimacs(formula))
    with open(gadget, "w", encoding="utf-8") as handle:
        handle.write(tournament_to_text(W7))
    key = digest([formula.variable_count, formula.clauses, assignment])
    prefix = ["--budget", str(JOB_BUDGET_S)]

    def cli_call(tr, argv):
        tr.count("cli.run.calls")
        return tr.call("cli.run", run_cli, prefix + argv)

    def reduce_run(tr, deadline, state):
        return cli_call(tr, ["reduce", "--cnf", cnf, "--gadget", gadget,
                             "--out", inst, "--landmarks", marks])

    def reduce_check(out, tr):
        code, env = out
        require(code == 0, f"reduce exited {code}")
        require(env["result"]["vertices"] == instance_size(formula), "instance size off")
        return {"vertices": env["result"]["vertices"], "sha256": file_sha256(inst)}

    def order_run(tr, deadline, state):
        spec = ",".join("1" if b else "0" for b in assignment)
        code, env = cli_call(tr, ["witness", "to-ordering", "--trn", inst,
                                  "--landmarks", marks, "--assign", spec])
        with open(order, "w", encoding="utf-8") as handle:
            json.dump(env["result"].get("ordering"), handle)
        return code, env

    def order_check(out, tr):
        code, env = out
        require(code == 0, f"witness to-ordering exited {code}")
        check_ordering(env["result"]["ordering"], instance_size(formula))
        return {"ordering": digest(env["result"]["ordering"])}

    def verify_run(tr, deadline, state):
        return cli_call(tr, ["verify-ordering", "--trn", inst, "--ordering", order])

    def verify_check(out, tr):
        code, env = out
        require(code == 0, f"verify-ordering exited {code}")
        require(env["result"]["k4_free"] and env["result"]["has_triangle"],
                f"bad ordering report {env['result']}")
        return env["result"]

    return [
        Job("cli/reduce", "cli", key, reduce_run, reduce_check),
        Job("cli/to_ordering", "cli", key, order_run, order_check),
        Job("cli/verify_ordering", "cli", key, verify_run, verify_check),
    ]


def compile_(rng: random.Random, scale: float, workdir: str) -> list[list[Job]]:
    chains = [
        construction_chain("d2", "pi", c3(), 63, workdir, d2_jobs()),
        construction_chain("pi_r5", "pi", r5(), 1265, workdir, []),
        construction_chain("amplifier_c3", "amplifier", c3(), 315, workdir,
                           [audit_job(rng, 2000)]),
        [refused_job()],
    ]
    # sizes 5..40 stratified on a log scale, one draw per stratum
    count = scaled(30, scale)
    lo, hi = math.log(5), math.log(41)
    for i in range(count):
        a = lo + (hi - lo) * i / count
        b = lo + (hi - lo) * (i + 1) / count
        n_vars = min(40, int(math.exp(rng.uniform(a, b))))
        formula, assignment = planted_formula(rng, n_vars)
        chains.append(reduction_chain(f"sat/{i:02d}/v{n_vars}", formula, assignment))
    # the CLI gets its own formula, so that no input is timed twice; at 40
    # variables its three calls alone would take 40% of the run
    formula, assignment = planted_formula(rng, CLI_VARIABLES)
    chains.append(cli_chain(formula, assignment, workdir))
    return chains


WORKLOADS = {"decide": decide, "enumerate": enumerate_, "compile": compile_}


def chains_for(name: str, seed: int, seconds: float, workdir: str) -> list[list[Job]]:
    """All inputs of one run, drawn from `seed`, with the chains shuffled."""
    rng = random.Random(f"{name}:{seed}")
    chains = WORKLOADS[name](rng, seconds / REFERENCE_SECONDS, workdir)
    rng.shuffle(chains)
    return chains
