"""Minimal conflict-driven clause-learning SAT solver.

Backs the lazy-cut search for acyclic vertex partitions.  Deterministic:
no randomness anywhere, ties broken by variable index, so repeated runs
produce identical models and identical refutations.

Literal convention: variable v >= 0 yields literals 2*v (positive) and
2*v + 1 (negative).  Values are kept per literal: ``val[l]`` is 1 when l is
true, -1 when it is false and 0 while its variable is unassigned, so
``val[l ^ 1] == -val[l]`` always holds.
"""

from __future__ import annotations

from typing import Optional, Sequence


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
        """Add a clause (list of literals).  May be called between solve() runs."""
        if not self.ok:
            return
        seen = set()
        clause = []
        for l in lits:
            if l ^ 1 in seen:
                clause = None  # tautology
                break
            if l not in seen:
                seen.add(l)
                clause.append(l)
        # the variables of the literals read so far exist from now on
        if seen:
            top = max(seen) >> 1
            if top >= self.n_vars:
                self._grow(top + 1)
        if clause is None:
            return
        # at the root level, drop already-false literals and detect units
        if self.trail_lim:
            raise RuntimeError("clauses may only be added at decision level 0")
        val = self.val
        free = []
        for l in clause:
            value = val[l]
            if value == 1:
                return
            if value == 0:
                free.append(l)
        if not free:
            self.ok = False
            return
        if len(free) == 1:
            self._enqueue(free[0], -1)
            if self._propagate() is not None:
                self.ok = False
            return
        idx = len(self.clauses)
        self.clauses.append(free)
        self.watches[free[0] ^ 1].append(idx)
        self.watches[free[1] ^ 1].append(idx)

    def _enqueue(self, l: int, reason: int) -> bool:
        value = self.val[l]
        if value:
            return value == 1
        self.val[l] = 1
        self.val[l ^ 1] = -1
        v = l >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(l)
        return True

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
            i = 0
            while i < len(watch):
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
            # put the implied literal first so the slice from 1 skips it
            clause = clauses[self.reason[l >> 1]]
            if clause[0] != l:
                k = clause.index(l)
                clause[0], clause[k] = clause[k], clause[0]
        learnt[0] = l ^ 1
        if len(learnt) == 1:
            return learnt, 0
        bj = max(level[q >> 1] for q in learnt[1:])
        # move a max-level literal to position 1 for watching
        for k in range(1, len(learnt)):
            if level[learnt[k] >> 1] == bj:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
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

    def solve(self, deadline=None) -> Optional[list[bool]]:
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
                if deadline is not None and self.conflicts % 256 == 0:
                    deadline.check()
                if not self.trail_lim:
                    self.ok = False
                    return None
                learnt, bj = self._analyze(confl)
                self._backjump(bj)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], -1)
                else:
                    idx = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches[learnt[0] ^ 1].append(idx)
                    self.watches[learnt[1] ^ 1].append(idx)
                    self._enqueue(learnt[0], idx)
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
