"""Fuzz the built-in conflict-driven solver against brute force."""

import collections
import copy
import gc
import itertools
import random

import pytest

from backedge._sat import Solver, lit
from backedge.core import BudgetExhausted


def brute_force(n_vars, clauses):
    for bits in itertools.product((False, True), repeat=n_vars):
        if all(any(bits[l // 2] != (l % 2) for l in clause) for clause in clauses):
            return bits
    return None


def random_clauses(rng, n_vars, n_clauses):
    clauses = []
    for _ in range(n_clauses):
        width = rng.choice((1, 2, 3, 3, 3))
        variables = rng.sample(range(n_vars), min(width, n_vars))
        clauses.append([lit(v, rng.random() < 0.5) for v in variables])
    return clauses


def check_model(model, clauses):
    return all(
        any(model[l // 2] == (l % 2 == 0) for l in clause) for clause in clauses
    )


def test_solver_matches_brute_force():
    rng = random.Random(97)
    sat = unsat = 0
    for _ in range(300):
        n_vars = rng.randint(3, 9)
        clauses = random_clauses(rng, n_vars, rng.randint(1, 6 * n_vars))
        solver = Solver(n_vars)
        for clause in clauses:
            solver.add_clause(clause)
        model = solver.solve()
        expected = brute_force(n_vars, clauses)
        if expected is None:
            assert model is None
            unsat += 1
        else:
            assert model is not None
            assert check_model(model, clauses)
            sat += 1
    # the mix must genuinely exercise both outcomes
    assert sat > 50 and unsat > 50


def test_solver_incremental_clause_addition():
    # the lazy-cut pattern: solve, forbid the returned model, repeat
    rng = random.Random(101)
    for _ in range(30):
        n_vars = rng.randint(3, 6)
        clauses = random_clauses(rng, n_vars, rng.randint(1, 2 * n_vars))
        solver = Solver(n_vars)
        for clause in clauses:
            solver.add_clause(clause)
        seen = set()
        while True:
            model = solver.solve()
            if model is None:
                assert brute_force(n_vars, clauses) is None
                break
            key = tuple(model[:n_vars])
            assert key not in seen, "solver repeated a forbidden model"
            assert check_model(model, clauses)
            seen.add(key)
            blocking = [lit(v, not model[v]) for v in range(n_vars)]
            solver.reset()
            solver.add_clause(blocking)
            clauses.append(blocking)


def test_solver_learns_through_deep_conflicts():
    # pigeonhole: 7 pigeons, 6 holes; small but needs real clause learning
    pigeons, holes = 7, 6

    def var(p, h):
        return p * holes + h

    solver = Solver(pigeons * holes)
    for p in range(pigeons):
        solver.add_clause([lit(var(p, h), True) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                solver.add_clause([lit(var(p1, h), False), lit(var(p2, h), False)])
    assert solver.solve() is None
    assert solver.conflicts > 10


def test_solver_determinism():
    rng = random.Random(103)
    clauses = random_clauses(rng, 8, 30)
    outcomes = []
    for _ in range(3):
        solver = Solver(8)
        for clause in clauses:
            solver.add_clause(clause)
        model = solver.solve()
        outcomes.append(None if model is None else tuple(model))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_activity_rescale_keeps_the_search():
    # var_inc grows by 1/0.95 per conflict, so from 1.0 the rescale past 1e100
    # needs thousands of conflicts; from 1e99 a few bumps reach it.  Scaling
    # every activity by one factor changes no decision: same model, same
    # number of conflicts, rescaled or not.
    rng = random.Random(5)
    rescaled = 0
    for _ in range(200):
        n_vars = rng.randint(8, 22)
        clauses = [
            [lit(v, rng.random() < 0.5) for v in rng.sample(range(n_vars), 3)]
            for _ in range(int(4.3 * n_vars))
        ]
        runs = []
        for var_inc in (1.0, 1e99):
            solver = Solver(n_vars)
            solver.var_inc = var_inc
            solver.add_clauses(clauses)
            runs.append((solver.solve(), solver.conflicts, solver.var_inc))
        (model, conflicts, inc), (big_model, big_conflicts, big_inc) = runs
        assert (big_model, big_conflicts) == (model, conflicts)
        rescaled += big_inc < 1e99 * inc / 2
    assert rescaled > 0


def test_unit_and_empty_clause_handling():
    solver = Solver(2)
    solver.add_clause([lit(0, True)])
    solver.add_clause([lit(0, False), lit(1, True)])
    model = solver.solve()
    assert model[0] and model[1]
    solver2 = Solver(1)
    solver2.add_clause([lit(0, True)])
    solver2.add_clause([lit(0, False)])
    assert solver2.solve() is None
    solver3 = Solver(1)
    solver3.add_clause([lit(0, True), lit(0, False)])  # tautology dropped
    assert solver3.solve() is not None


# --- oracles: the per-clause loader and the propagation loop they replaced ---


def add_clause_oracle(solver, lits):
    """One clause at a time, as `Solver.add_clause` loaded clauses before the
    bulk loader; returns what happened to the clause."""
    if not solver.ok:
        return "ignored"
    seen = set()
    clause = []
    for l in lits:
        if l ^ 1 in seen:
            clause = None  # tautology
            break
        if l not in seen:
            seen.add(l)
            clause.append(l)
    grew = False
    if seen:
        top = max(seen) >> 1
        if top >= solver.n_vars:
            solver._grow(top + 1)
            grew = True
    if clause is None:
        return "tautology"
    if solver.trail_lim:
        raise RuntimeError("clauses may only be added at decision level 0")
    val = solver.val
    free = []
    for l in clause:
        value = val[l]
        if value == 1:
            return "satisfied"
        if value == 0:
            free.append(l)
    if not free:
        solver.ok = False
        return "empty"
    if len(free) == 1:
        solver._enqueue(free[0], -1)
        if solver._propagate() is not None:
            solver.ok = False
            return "conflict"
        return "unit"
    idx = len(solver.clauses)
    solver.clauses.append(free)
    solver.watches[free[0] ^ 1].append(idx)
    solver.watches[free[1] ^ 1].append(idx)
    if len(free) < len(lits):
        return "shortened"
    return "grew" if grew else "added"


class ReferenceSolver(Solver):
    """The solver with the propagation loop and conflict analysis it had
    before they were tightened; the search must not tell them apart."""

    def _propagate(self):
        val = self.val
        clauses = self.clauses
        watches = self.watches
        level = self.level
        reason = self.reason
        trail = self.trail
        cur_level = len(self.trail_lim)
        qhead = self.qhead
        while qhead < len(trail):
            l = trail[qhead]
            qhead += 1
            false_lit = l ^ 1
            watch = watches[l]
            i = 0
            while i < len(watch):
                ci = watch[i]
                clause = clauses[ci]
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if val[first] == 1:
                    i += 1
                    continue
                for j in range(2, len(clause)):
                    q = clause[j]
                    if val[q] != -1:
                        clause[j] = clause[1]
                        clause[1] = q
                        watches[q ^ 1].append(ci)
                        watch[i] = watch[-1]
                        watch.pop()
                        break
                else:
                    if val[first] == -1:
                        self.qhead = qhead
                        return ci
                    val[first] = 1
                    val[first ^ 1] = -1
                    v = first >> 1
                    level[v] = cur_level
                    reason[v] = ci
                    trail.append(first)
                    i += 1
        self.qhead = qhead
        return None

    def _analyze(self, confl):
        clauses = self.clauses
        trail = self.trail
        level = self.level
        activity = self.activity
        learnt = [0]
        seen = [False] * self.n_vars
        counter = 0
        l = -1
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        clause = clauses[confl]
        while True:
            for q in clause if l == -1 else clause[1:]:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    activity[v] += self.var_inc
                    if activity[v] > 1e100:
                        for u in range(self.n_vars):
                            activity[u] *= 1e-100
                        self.var_inc *= 1e-100
                    if level[v] == cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while True:
                l = trail[idx]
                idx -= 1
                if seen[l >> 1]:
                    break
            counter -= 1
            seen[l >> 1] = False
            if counter == 0:
                break
            clause = clauses[self.reason[l >> 1]]
            if clause[0] != l:
                k = clause.index(l)
                clause[0], clause[k] = clause[k], clause[0]
        learnt[0] = l ^ 1
        if len(learnt) == 1:
            return learnt, 0
        bj = max(level[q >> 1] for q in learnt[1:])
        for k in range(1, len(learnt)):
            if level[learnt[k] >> 1] == bj:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, bj


def solver_state(solver):
    return (
        solver.n_vars, solver.ok, solver.clauses, solver.watches, solver.val,
        solver.trail, solver.trail_lim, solver.qhead, solver.level, solver.reason,
        solver.activity, solver.phase, solver.var_inc, solver.conflicts,
    )


def messy_clauses(rng, n_vars, count):
    """Clauses with repeated literals, tautologies, units and literals of
    variables past n_vars."""
    clauses = []
    for _ in range(count):
        width = rng.choice((1, 2, 2, 3, 3, 3, 4))
        lits = [lit(rng.randrange(n_vars + 2), rng.random() < 0.5) for _ in range(width)]
        if rng.random() < 0.15:
            lits.insert(rng.randrange(len(lits) + 1), rng.choice(lits))
        if rng.random() < 0.1:
            lits.insert(rng.randrange(len(lits) + 1), rng.choice(lits) ^ 1)
        clauses.append(lits)
    if rng.random() < 0.25:
        clauses.insert(rng.randrange(len(clauses) + 1), [])
    return clauses


def solved_then_reset(rng, n_vars):
    """A solver back at level 0 after a solve on random 3-CNF, so it may hold
    learnt clauses and root units."""
    solver = Solver(n_vars)
    solver.add_clauses(
        [lit(v, rng.random() < 0.5) for v in rng.sample(range(n_vars), 3)]
        for _ in range(4 * n_vars)
    )
    solver.solve()
    solver.reset()
    return solver


def test_add_clauses_matches_per_clause_loading():
    rng = random.Random(107)
    outcomes = collections.Counter()
    with_learnt = 0
    for trial in range(400):
        if trial % 2:
            n_vars = rng.randint(10, 30)
            bulk = solved_then_reset(rng, n_vars)
            with_learnt += len(bulk.clauses) > 4 * n_vars
        else:
            n_vars = rng.randint(3, 12)
            bulk = Solver(n_vars)
        single = copy.deepcopy(bulk)
        clauses = messy_clauses(rng, n_vars, rng.randint(1, 3 * n_vars))
        bulk.add_clauses(iter(clauses))
        for clause in clauses:
            outcomes[add_clause_oracle(single, clause)] += 1
        assert solver_state(bulk) == solver_state(single)
        # the caller's lists are copied, never kept and reordered
        assert all(c is not d for c in bulk.clauses for d in clauses)
    for outcome in ("added", "grew", "shortened", "satisfied", "tautology",
                    "unit", "conflict", "empty", "ignored"):
        assert outcomes[outcome] > 0, outcome
    assert with_learnt > 50


def test_add_clauses_refuses_above_level_zero_like_per_clause_loading():
    rng = random.Random(109)
    raised = 0
    for _ in range(60):
        n_vars = rng.randint(4, 10)
        bulk = Solver(n_vars)
        bulk.add_clauses(random_clauses(rng, n_vars, 2 * n_vars))
        if bulk.solve() is None or not bulk.trail_lim:
            continue
        single = copy.deepcopy(bulk)
        clauses = messy_clauses(rng, n_vars, 6)
        errors = []
        for solver, load in ((bulk, lambda s: s.add_clauses(clauses)),
                             (single, lambda s: [add_clause_oracle(s, c) for c in clauses])):
            try:
                load(solver)
                errors.append(None)
            except RuntimeError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]
        raised += errors[0] is not None
        assert solver_state(bulk) == solver_state(single)
    assert raised > 20


def short_clauses(rng, n_vars, count):
    """Two- and three-literal clauses, the widths of most loaded clauses, with
    repeated and clashing literals and variables up to n_vars + 1."""
    clauses = []
    for _ in range(count):
        lits = [lit(rng.randrange(n_vars + 2), rng.random() < 0.5)
                for _ in range(rng.choice((2, 3, 3)))]
        if rng.random() < 0.15:
            lits[rng.randrange(len(lits))] = rng.choice(lits) ^ rng.randrange(2)
        clauses.append(lits)
    return clauses


def test_add_clauses_screen_matches_per_clause_loading():
    rng = random.Random(127)
    outcomes = collections.Counter()
    for trial in range(300):
        n_vars = rng.randint(4, 14)
        bulk = Solver(n_vars)
        # root units, so that later clauses are shortened, satisfied or units
        bulk.add_clauses([lit(v, rng.random() < 0.5)] for v in rng.sample(range(n_vars), trial % 4))
        single = copy.deepcopy(bulk)
        clauses = short_clauses(rng, n_vars, rng.randint(1, 3 * n_vars))
        bulk.add_clauses(iter(clauses))
        for clause in clauses:
            outcomes[add_clause_oracle(single, clause)] += 1
        assert solver_state(bulk) == solver_state(single)
    for outcome in ("added", "grew", "shortened", "satisfied", "tautology",
                    "unit", "conflict"):
        assert outcomes[outcome] > 0, outcome
    assert outcomes["added"] > outcomes["shortened"]


def test_add_clauses_screen_refuses_above_level_zero():
    rng = random.Random(131)
    raised = 0
    for _ in range(40):
        n_vars = rng.randint(6, 12)
        bulk = Solver(n_vars)
        bulk.add_clauses(short_clauses(rng, n_vars - 2, n_vars))
        free = [v for v in range(bulk.n_vars) if not bulk.val[2 * v]]
        if not bulk.ok or not free:
            continue
        # one decision, which leaves variables unassigned above the root
        bulk.trail_lim.append(len(bulk.trail))
        bulk._enqueue(lit(rng.choice(free), True), -1)
        if bulk._propagate() is not None:
            continue
        single = copy.deepcopy(bulk)
        # a short clause on distinct unassigned variables, some past
        # n_vars, is kept at the root; above it, it is refused
        free = [v for v in range(bulk.n_vars) if not bulk.val[2 * v]]
        free += range(bulk.n_vars, bulk.n_vars + 2)
        clause = [lit(v, rng.random() < 0.5) for v in rng.sample(free, rng.choice((2, 3)))]
        with pytest.raises(RuntimeError, match="decision level 0"):
            bulk.add_clauses([clause])
        with pytest.raises(RuntimeError, match="decision level 0"):
            add_clause_oracle(single, clause)
        assert solver_state(bulk) == solver_state(single)
        raised += 1
    assert raised > 20


def exhausted_after(clauses):
    yield from clauses
    raise BudgetExhausted("budget exhausted")


def test_add_clauses_restores_the_collector():
    was_enabled = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            # a clause source that raises part-way through the load
            solver = Solver(4)
            with pytest.raises(BudgetExhausted):
                solver.add_clauses(exhausted_after([[0, 2], [1, 4]]))
            assert gc.isenabled() == enabled
            assert solver.clauses == [[0, 2], [1, 4]]
            solver = Solver(4)
            solver.add_clauses([[0, 2, 4], [1, 6], [0, 3]])
            assert solver.solve() is not None and solver.trail_lim
            with pytest.raises(RuntimeError, match="decision level 0"):
                solver.add_clauses([[1, 3, 5]])
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_search_matches_the_reference_propagation_loop():
    rng = random.Random(113)
    conflicts = 0
    for _ in range(40):
        n_vars = rng.randint(20, 60)
        clauses = [
            [lit(v, rng.random() < 0.5) for v in rng.sample(range(n_vars), 3)]
            for _ in range(int(4.2 * n_vars))
        ]
        solvers = [Solver(n_vars), ReferenceSolver(n_vars)]
        for solver in solvers:
            solver.add_clauses(clauses)
        for _ in range(5):
            models = [solver.solve() for solver in solvers]
            assert models[0] == models[1]
            assert solver_state(solvers[0]) == solver_state(solvers[1])
            if models[0] is None:
                break
            # forbid part of the model and mention a fresh variable
            head = rng.sample(range(n_vars), 5)
            extra = [
                [lit(v, not models[0][v]) for v in head] + [lit(solvers[0].n_vars, True)],
                [lit(solvers[0].n_vars - 1, False), lit(rng.randrange(n_vars), True)],
            ]
            for solver in solvers:
                solver.reset()
                solver.add_clauses(extra)
        conflicts += solvers[0].conflicts
    assert conflicts > 1000
