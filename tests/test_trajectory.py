"""Golden digests of the exact searches' paths.

Both searches are deterministic, so what they produce is a fixed function
of the input.  ``CNF_DIGEST`` covers models, conflict counts and the clause
database, learnt clauses included, of seeded raw CNF runs with ``reset()``
and re-solves: it pins the conflict-driven kernel in ``_sat``, whose
tie-breaking, watch order, restarts or phase saving would all change it.
``CHI_DIGEST`` covers per-k ``chi_decide`` verdicts, classes and dead-end
counts on seeded random tournaments and digraphs: it pins the class-mask
search, its cycle rule for open masks and its branching rule.  A change
that alters a search on purpose records the new digest and says so.
``CHI_TOURNAMENT_DIGEST`` covers the tournament records alone, where every
vertex a class drops closes a directed triangle with it.
``CHI_VERDICT_DIGEST`` covers only the (n, k, decision) part of the same
records, which no change to the search may alter.
"""

import hashlib
import itertools
import random

from backedge._sat import Solver, lit
from backedge.core import Digraph, Tournament
from backedge.solvers import chi_decide

from labeled import labeled_count, labeled_tournament

CNF_DIGEST = "d6bdf5254fa2f00d856a5942caece72404ac0eb0dd1bf05dd48a8fb8569ec451"
CHI_DIGEST = "436db8f1c090549fe32af40b5db7cf59e9f17baff3ab4766b92757c55441b6e4"
CHI_TOURNAMENT_DIGEST = "df9deba9a2971d937f799719e81cd4b229a3cac6dc029d676b04929dc88ba9b8"
CHI_VERDICT_DIGEST = "b6f686ab147ff582ee105c8b4414f4c571f53b84fcbc4e4350d01ce3f85cbdb3"


def _chi_records(tournaments_only=False):
    rng = random.Random(20240501)
    digraphs = [
        labeled_tournament(n, rng.randrange(labeled_count(n)))
        for n in range(8, 25)
        for _ in range(2)
    ]
    # sparse digraphs have cycles without a triangle, so a class also drops
    # vertices that close longer cycles with it
    for n in range(8, 15):
        arcs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < 0.3]
        digraphs.append(Digraph.from_arcs(n, arcs))
    for d in digraphs:
        if tournaments_only and not isinstance(d, Tournament):
            continue
        for k in itertools.count(1):
            res = chi_decide(d, k)
            yield (d.n, k, res.decision, res.classes, res.conflicts)
            if res.decision:
                break


def _model_bits(model):
    return None if model is None else sum(1 << v for v, value in enumerate(model) if value)


def _cnf_records():
    rng = random.Random(20240502)
    for _ in range(16):
        n_vars = rng.randint(40, 90)
        solver = Solver(n_vars)
        for _ in range(int(4.26 * n_vars)):
            variables = rng.sample(range(n_vars), 3)
            solver.add_clause([lit(v, rng.random() < 0.5) for v in variables])
        for _ in range(4):
            model = solver.solve()
            learnt = tuple(tuple(sorted(clause)) for clause in solver.clauses)
            yield (_model_bits(model), solver.conflicts, solver.n_vars, solver.ok, learnt)
            if model is None:
                break
            # forbid part of the model and mention one fresh variable, so the
            # next solve grows the solver and learns on top of kept clauses
            solver.reset()
            head = rng.sample(range(solver.n_vars), 6)
            solver.add_clause([lit(v, not model[v]) for v in head] + [lit(solver.n_vars, True)])
            solver.add_clause([lit(solver.n_vars - 1, False), lit(rng.randrange(n_vars), True)])


def _digest(records):
    h = hashlib.sha256()
    for record in records:
        h.update(repr(record).encode())
    return h.hexdigest()


def test_search_trajectory_is_pinned():
    assert _digest(_cnf_records()) == CNF_DIGEST


def test_chi_trajectory_is_pinned():
    assert _digest(_chi_records()) == CHI_DIGEST


def test_chi_tournament_trajectory_is_pinned():
    assert _digest(_chi_records(tournaments_only=True)) == CHI_TOURNAMENT_DIGEST


def test_chi_verdicts_are_pinned():
    assert _digest((n, k, decision) for n, k, decision, _, _ in _chi_records()) == CHI_VERDICT_DIGEST
