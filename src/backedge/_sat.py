"""Minimal conflict-driven clause-learning SAT solver.

No module of the package imports it: the χ search is a class-mask branch
and bound of its own.  It serves the tests as an independent χ oracle (a
clause-learning search with vertex 0 pinned) and is the engine that the
SAT encoding of ordering decisions is planned on (ROADMAP item 2).
Deterministic: no randomness anywhere, ties broken by variable index, so
repeated runs produce identical models and refutations.

Literal convention: variable v >= 0 yields literals 2*v (positive) and
2*v + 1 (negative).  Values are kept per literal: ``val[l]`` is 1 when l is
true, -1 when it is false and 0 while its variable is unassigned, so
``val[l ^ 1] == -val[l]`` always holds.

Clauses enter through one loader, `Solver.add_clauses`, which takes them in
order and simplifies each against the root assignment as it comes, so a unit
early in a batch shortens or drops the clauses after it; `add_clause` is the
one-clause call of it.  Every clause, whatever its width, takes the same
path, and the loader stores a fresh list, never the caller's.  A clause
watches its literals at positions 0 and 1; `Solver._attach` stores every
kept clause that way, loaded or learnt.
``watches[l]`` lists the clauses watching ``l ^ 1``, the literal that ``l``
falsifies.  During propagation a watch list is only popped while it is
scanned (a clause leaves it for the list of a non-false literal, never of
the literal being scanned), so the scan tracks the list's length itself.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .core import Deadline


def lit(var: int, positive: bool) -> int:
    return 2 * var + (0 if positive else 1)


class Solver:
    def __init__(self, n_vars: int = 0):
        self.n_vars = 0
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = []  # literal -> clause indices watching it
        self.val: list[int] = []  # literal -> 0 unassigned, 1 true, -1 false
        self.level: list[int] = []
        self.reason: list[int] = []  # var -> clause index or -1 for decisions
        self.activity: list[float] = []
        self.phase: list[bool] = []
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.var_inc = 1.0
        self.ok = True
        self.conflicts = 0
        if n_vars:
            self._grow(n_vars)

    def _grow(self, n_vars: int) -> None:
        extra = n_vars - self.n_vars
        if extra <= 0:
            return
        self.n_vars = n_vars
        self.watches.extend([] for _ in range(2 * extra))
        self.val.extend([0] * (2 * extra))
        self.level.extend([0] * extra)
        self.reason.extend([-1] * extra)
        self.activity.extend([0.0] * extra)
        self.phase.extend([False] * extra)

    def add_clause(self, lits: Sequence[int]) -> None:
        """Add one clause; see `add_clauses`."""
        self.add_clauses((lits,))

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> None:
        """Add clauses in order.  May be called between solve() runs, at
        decision level 0 only.

        Each clause keeps the first occurrence of each literal, in order, and
        a tautology is dropped.  The variables of the literals a clause
        mentions exist from then on (for a tautology, those read before the
        clashing literal).  Already-false literals are dropped, a satisfied
        clause is dropped, and a unit is assigned and propagated at once, so
        later clauses of the same call see it.  An empty or conflicting clause
        clears ``ok``, and every later clause is ignored.  Every clause takes
        this one path, whatever its width; a kept clause is stored as a fresh
        list of its remaining literals, in the given order.
        """
        if not self.ok:
            return
        val = self.val
        at_root = not self.trail_lim
        for lits in clauses:
            # drop repeated literals, or the whole tautology (scanning the
            # kept literals is quadratic, but beats a set at short widths)
            clause = []
            for l in lits:
                if l ^ 1 in clause:
                    self._grow((max(clause) >> 1) + 1)
                    clause = None
                    break
                if l not in clause:
                    clause.append(l)
            if clause is None:
                continue
            try:
                values = list(map(val.__getitem__, clause))
            except IndexError:  # a literal past n_vars; _grow extends val in place
                self._grow((max(clause) >> 1) + 1)
                values = list(map(val.__getitem__, clause))
            if not at_root:
                raise RuntimeError("clauses may only be added at decision level 0")
            if any(values):
                if 1 in values:
                    continue
                clause = [l for l, value in zip(clause, values) if not value]
            if not clause:
                self.ok = False
                return
            if len(clause) == 1:
                self._enqueue(clause[0], -1)
                if self._propagate() is not None:
                    self.ok = False
                    return
                continue
            self._attach(clause)

    def _attach(self, clause: list[int]) -> int:
        """Store ``clause`` (two or more literals) watching its first two
        literals; returns its index."""
        idx = len(self.clauses)
        self.clauses.append(clause)
        self.watches[clause[0] ^ 1].append(idx)
        self.watches[clause[1] ^ 1].append(idx)
        return idx

    def _enqueue(self, l: int, reason: int) -> None:
        """Assign literal ``l`` true at the current level; ``l`` is unassigned."""
        self.val[l] = 1
        self.val[l ^ 1] = -1
        v = l >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(l)

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
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
            # only this scan pops from watch, and it never appends to it
            # (a clause moves to watches[q ^ 1] with q non-false, q != l ^ 1)
            end = len(watch)
            i = 0
            while i < end:
                ci = watch[i]
                clause = clauses[ci]
                # ensure the falsified literal sits at position 1
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if val[first] == 1:
                    i += 1
                    continue
                size = len(clause)
                j = 2
                while j < size:
                    q = clause[j]
                    if val[q] != -1:
                        clause[j] = false_lit
                        clause[1] = q
                        watches[q ^ 1].append(ci)
                        end -= 1
                        watch[i] = watch[end]
                        watch.pop()
                        break
                    j += 1
                else:
                    # unit or conflict
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

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP conflict analysis; returns learnt clause and backjump level."""
        clauses = self.clauses
        trail = self.trail
        level = self.level
        reason = self.reason
        activity = self.activity
        var_inc = self.var_inc
        learnt = [0]
        seen = [False] * self.n_vars
        counter = 0
        idx = len(trail) - 1
        cur_level = len(self.trail_lim)
        clause = clauses[confl]
        while True:
            # a reason clause's implied literal stays seen, so it is skipped
            for q in clause:
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    act = activity[v] + var_inc
                    activity[v] = act
                    if act > 1e100:
                        for u in range(self.n_vars):
                            activity[u] *= 1e-100
                        var_inc *= 1e-100
                        self.var_inc = var_inc
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
            if counter == 0:
                break
            clause = clauses[reason[l >> 1]]
        learnt[0] = l ^ 1
        if len(learnt) == 1:
            return learnt, 0
        # move the first max-level literal to position 1 for watching
        k = 1
        bj = level[learnt[1] >> 1]
        for j in range(2, len(learnt)):
            lv = level[learnt[j] >> 1]
            if lv > bj:
                bj = lv
                k = j
        learnt[1], learnt[k] = learnt[k], learnt[1]
        return learnt, bj

    def _backjump(self, target: int) -> None:
        trail_lim = self.trail_lim
        if len(trail_lim) > target:
            trail = self.trail
            val = self.val
            phase = self.phase
            limit = trail_lim[target]
            for l in trail[limit:]:
                phase[l >> 1] = not l & 1
                val[l] = 0
                val[l ^ 1] = 0
            del trail[limit:]
            del trail_lim[target:]
        self.qhead = len(self.trail)

    def reset(self) -> None:
        """Undo all decisions so further clauses may be added."""
        self._backjump(0)

    def _decide(self) -> int:
        val = self.val
        best = -1
        best_act = -1.0
        for v, act in enumerate(self.activity):
            if act > best_act and not val[v << 1]:
                best = v
                best_act = act
        if best < 0:
            return -1
        return lit(best, self.phase[best])

    def solve(self, deadline: Deadline = Deadline()) -> Optional[list[bool]]:
        """Return a model as a list of booleans, or None when unsatisfiable."""
        if not self.ok:
            return None
        if self._propagate() is not None:
            self.ok = False
            return None
        restart_limit = 100
        conflicts_here = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                self.conflicts += 1
                conflicts_here += 1
                if self.conflicts % 256 == 0:
                    deadline.check()
                if not self.trail_lim:
                    self.ok = False
                    return None
                learnt, bj = self._analyze(confl)
                self._backjump(bj)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    self._enqueue(learnt[0], self._attach(learnt))
                self.var_inc /= 0.95
                continue
            if conflicts_here >= restart_limit:
                conflicts_here = 0
                restart_limit = int(restart_limit * 1.5)
                self._backjump(0)
                continue
            l = self._decide()
            if l == -1:
                return [value == 1 for value in self.val[0::2]]
            self.trail_lim.append(len(self.trail))
            self._enqueue(l, -1)
