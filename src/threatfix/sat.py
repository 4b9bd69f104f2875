"""Embedded SAT/MaxSAT core.

A compact CDCL solver (two-watched literals, first-UIP learning, Luby
restarts) behind a push/pop assertion stack, plus a weighted MaxSAT loop:
linear SAT-to-UNSAT descent over a pseudo-Boolean bound encoded with a
sequential weighted counter.

The descent is solution-guided (Demirović & Stuckey, CP 2019): every solve
of a MaxSAT search decides the literals of the soft clauses first, each in
the polarity that satisfies it.  For a repair the softs are the keep-away
units on non-current values, so the first model already keeps every cell
it can on its current value and the descent usually ends after one UNSAT
step.  Only phases and initial activities change; clauses, bounds and
verdicts do not.

Decisions come from a binary heap keyed (-activity, var) over the variables
that occur in at least one clause, MiniSat style: the top is the most active
unassigned variable, the lowest index among ties.  A variable in no clause
propagates nothing, so deciding it could neither cause a conflict nor change
what is learnt; it is never decided and reads False in the model.

Everything is deterministic for a fixed seed and insertion order; solve()
re-derives verdicts from the flattened clause set, so stack traces and flat
re-solves always agree.
"""
from __future__ import annotations

import random
from heapq import heapify, heappop, heappush
from itertools import chain
from typing import Iterable, Optional

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

_RESTART_BASE = 100
_ACT_DECAY = 0.95
_ACT_RESCALE = 1e100
_HEAP_SLACK = 2   # the decision heap is rebuilt past this many entries per live var


def _luby(x: int) -> int:
    # Luby sequence 1 1 2 1 1 2 4 ..., 0-based
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


class _Cdcl:
    """One-shot CDCL run over a fixed clause list.

    Each literal of `prefer` is decided before any other variable, in its
    own polarity: its activity starts 1.0 above the seeded noise.
    """

    def __init__(self, num_vars: int, clauses: Iterable[Iterable[int]],
                 seed: int = 0, conflict_budget: Optional[int] = None,
                 prefer: Iterable[int] = ()):
        self.n = num_vars
        self.assign = [0] * (num_vars + 1)        # 0 unassigned, +1 true, -1 false
        self.level = [0] * (num_vars + 1)
        self.reason: list[Optional[int]] = [None] * (num_vars + 1)
        self.phase = [False] * (num_vars + 1)     # all-false default assignment
        self.activity = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.lim: list[int] = []
        self.qhead = 0
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        self.conflicts = 0
        self.budget = conflict_budget
        self.ok = True
        self.seen = [False] * (num_vars + 1)      # scratch for _analyze
        self.live: list[int] = []                 # variables worth deciding
        self.heap: list[tuple[float, int]] = []   # (-activity, var), see solve()
        if seed:
            rng = random.Random(seed)
            for v in range(1, num_vars + 1):
                self.activity[v] = rng.random() * 1e-6
        for lit in prefer:
            self.phase[abs(lit)] = lit > 0
            self.activity[abs(lit)] += 1.0
        for clause in clauses:
            self._attach(list(clause))

    # -- assignment primitives ---------------------------------------------

    def _value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _enqueue(self, lit: int, reason: Optional[int]) -> bool:
        val = self._value(lit)
        if val != 0:
            return val > 0
        v = abs(lit)
        self.assign[v] = 1 if lit > 0 else -1
        self.level[v] = len(self.lim)
        self.reason[v] = reason
        self.trail.append(lit)
        return True

    def _attach(self, clause: list[int]) -> None:
        if not self.ok:
            return
        if not clause:
            self.ok = False
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self.ok = False
            return
        idx = len(self.clauses)
        self.clauses.append(clause)
        self.watches.setdefault(clause[0], []).append(idx)
        self.watches.setdefault(clause[1], []).append(idx)

    def _propagate(self) -> Optional[int]:
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = -lit
            old = self.watches.pop(false_lit, [])
            keep: list[int] = []
            for pos, ci in enumerate(old):
                clause = self.clauses[ci]
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], clause[0]
                if self._value(clause[0]) > 0:
                    keep.append(ci)
                    continue
                for j in range(2, len(clause)):
                    if self._value(clause[j]) >= 0:
                        clause[1], clause[j] = clause[j], clause[1]
                        self.watches.setdefault(clause[1], []).append(ci)
                        break
                else:
                    keep.append(ci)
                    if self._value(clause[0]) < 0:
                        keep.extend(old[pos + 1:])
                        self.watches[false_lit] = keep
                        self.qhead = len(self.trail)
                        return ci
                    self._enqueue(clause[0], ci)
            if keep:
                self.watches[false_lit] = keep
        return None

    # -- conflict handling ----------------------------------------------------

    def _rebuild_heap(self) -> None:
        assign, activity = self.assign, self.activity
        self.heap = [(-activity[v], v) for v in self.live if assign[v] == 0]
        heapify(self.heap)

    def _bump(self, v: int) -> None:
        # v is assigned, so its next heap entry is pushed when it is unassigned
        self.activity[v] += self.var_inc
        if self.activity[v] > _ACT_RESCALE:
            for u in range(1, self.n + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()   # every key changed

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        learnt: list[int] = []
        seen = self.seen   # all False between calls
        counter = 0
        lits = list(self.clauses[conflict])
        idx = len(self.trail) - 1
        p = 0
        current = len(self.lim)
        while True:
            for q in lits:
                if q == p:
                    continue   # the literal this reason clause propagated
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] == current:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            seen[abs(p)] = False
            counter -= 1
            if counter == 0:
                break
            lits = self.clauses[self.reason[abs(p)]]
        for q in learnt:
            seen[abs(q)] = False   # only lower-level literals are still marked
        learnt.insert(0, -p)
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(q)] for q in learnt[1:])
        # place a literal of the backjump level in the second watch slot
        for j in range(1, len(learnt)):
            if self.level[abs(learnt[j])] == back:
                learnt[1], learnt[j] = learnt[j], learnt[1]
                break
        return learnt, back

    def _backtrack(self, target: int) -> None:
        heap, activity = self.heap, self.activity
        while len(self.lim) > target:
            bound = self.lim.pop()
            while len(self.trail) > bound:
                lit = self.trail.pop()
                v = abs(lit)
                self.phase[v] = lit > 0
                self.assign[v] = 0
                self.reason[v] = None
                heappush(heap, (-activity[v], v))
        self.qhead = min(self.qhead, len(self.trail))
        if len(heap) > _HEAP_SLACK * len(self.live):
            self._rebuild_heap()   # drop the entries of assigned and bumped vars

    def _decide(self) -> int:
        heap, assign = self.heap, self.assign
        while heap:
            v = heappop(heap)[1]
            # Activities only grow between rebuilds, so an entry older than
            # a var's last bump sorts after its newest one and can surface
            # only once the var is assigned again.
            if assign[v] == 0:
                return v
        return 0

    def solve(self) -> str:
        if not self.ok:
            return UNSAT
        if self._propagate() is not None:
            self.conflicts += 1
            return UNSAT
        if len(self.trail) < self.n:
            # Order what level 0 left free.  Nothing is learnt yet, so these
            # are the vars of the input clauses; unit-clause vars are assigned.
            self.live = list(set(map(abs, chain.from_iterable(self.clauses))))
            self._rebuild_heap()
        restarts = 0
        next_restart = _RESTART_BASE * _luby(0)
        since_restart = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                since_restart += 1
                if not self.lim:
                    return UNSAT
                if self.budget is not None and self.conflicts > self.budget:
                    return UNKNOWN
                learnt, back = self._analyze(conflict)
                self._backtrack(back)
                if len(learnt) == 1:
                    if not self._enqueue(learnt[0], None):
                        return UNSAT
                else:
                    idx = len(self.clauses)
                    self.clauses.append(learnt)
                    self.watches.setdefault(learnt[0], []).append(idx)
                    self.watches.setdefault(learnt[1], []).append(idx)
                    self._enqueue(learnt[0], idx)
                self.var_inc /= _ACT_DECAY
                continue
            if since_restart >= next_restart:
                restarts += 1
                since_restart = 0
                next_restart = _RESTART_BASE * _luby(restarts)
                self._backtrack(0)
                continue
            v = self._decide()
            if v == 0:
                return SAT
            self.lim.append(len(self.trail))
            self._enqueue(v if self.phase[v] else -v, None)

    def model(self) -> list[bool]:
        # index 0 unused
        return [False] + [self.assign[v] > 0 for v in range(1, self.n + 1)]


def solve_clauses(clauses: list[list[int]], num_vars: int, seed: int = 0,
                  conflict_budget: Optional[int] = None,
                  prefer: Iterable[int] = ()
                  ) -> tuple[str, Optional[list[bool]]]:
    solver = _Cdcl(num_vars, clauses, seed=seed, conflict_budget=conflict_budget,
                   prefer=prefer)
    verdict = solver.solve()
    return verdict, solver.model() if verdict == SAT else None


def weighted_bound_clauses(terms: list[tuple[int, int]], k: int,
                           next_var: int) -> tuple[list[list[int]], int]:
    """Clauses enforcing sum(w for lit true) <= k via a sequential counter.

    terms are (lit, weight) with weight >= 1; returns (clauses, next free var).
    Register s[i][j] (i-th prefix sum >= j) is constrained in one direction
    only, which is all the bound needs.
    """
    clauses: list[list[int]] = []
    if k < 0:
        return [[]], next_var
    if k == 0:
        return [[-lit] for lit, w in terms if w > 0], next_var
    # terms too heavy for the bound are forced off and leave the chain
    chain = []
    for lit, w in terms:
        if w > k:
            clauses.append([-lit])
        elif w > 0:
            chain.append((lit, w))
    m = len(chain)
    reg: list[dict[int, int]] = [dict() for _ in range(m)]   # reg[i-1][j] -> var

    def s(i: int, j: int) -> int:  # 1-based term index
        nonlocal next_var
        if j not in reg[i - 1]:
            reg[i - 1][j] = next_var
            next_var += 1
        return reg[i - 1][j]

    for i, (lit, w) in enumerate(chain, start=1):
        if i < m:
            for j in range(1, w + 1):
                clauses.append([-lit, s(i, j)])
        if i >= 2:
            if i < m:
                for j in range(1, k + 1):
                    if j in reg[i - 2]:
                        clauses.append([-reg[i - 2][j], s(i, j)])
                for j in range(1, k - w + 1):
                    if j in reg[i - 2]:
                        clauses.append([-lit, -reg[i - 2][j], s(i, j + w)])
            if (k + 1 - w) in reg[i - 2]:
                clauses.append([-lit, -reg[i - 2][k + 1 - w]])
    return clauses, next_var


class SolverStack:
    """Assertion stack over the CDCL core; not an incremental solver.

    push records the lengths of the hard-clause and soft-group lists and pop
    truncates them back; nothing else is kept between calls.  Each solve and
    max_solve starts a fresh CDCL run over the flattened current clauses, so
    no learnt clause or activity survives, and any trace of stack operations
    matches a from-scratch solve of the same clauses.
    """

    def __init__(self, seed: int = 0, conflict_budget: Optional[int] = None):
        self.seed = seed
        self.conflict_budget = conflict_budget
        self.hard: list[list[int]] = []
        self.soft: list[tuple[list[list[int]], int]] = []   # (clauses, weight)
        self.num_vars = 0
        self.frames: list[tuple[int, int]] = []
        self._model: Optional[list[bool]] = None

    # -- stack discipline ---------------------------------------------------

    def push(self) -> None:
        self.frames.append((len(self.hard), len(self.soft)))

    def pop(self) -> None:
        if not self.frames:
            raise IndexError("pop on an empty solver stack")
        n_hard, n_soft = self.frames.pop()
        del self.hard[n_hard:]
        del self.soft[n_soft:]

    def _note_vars(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            for lit in clause:
                if abs(lit) > self.num_vars:
                    self.num_vars = abs(lit)

    def add(self, clauses: Iterable[Iterable[int]]) -> None:
        for clause in clauses:
            lits = sorted(set(clause), key=abs)
            if len({abs(lit) for lit in lits}) < len(lits):
                continue   # tautology: distinct literals sharing a var are x, -x
            if lits and abs(lits[-1]) > self.num_vars:
                self.num_vars = abs(lits[-1])
            self.hard.append(lits)

    def add_soft(self, clauses: Iterable[Iterable[int]], cost: int) -> int:
        if cost <= 0:
            raise ValueError(f"soft cost must be positive, got {cost}")
        group = [sorted(set(c), key=abs) for c in clauses]
        self._note_vars(group)
        self.soft.append((group, cost))
        return len(self.soft) - 1

    # -- solving --------------------------------------------------------------

    def solve(self) -> str:
        verdict, model = solve_clauses(self.hard, self.num_vars, self.seed,
                                       self.conflict_budget)
        self._model = model
        return verdict

    def _group_cost(self, model: list[bool]) -> int:
        def lit_true(lit: int) -> bool:
            return model[abs(lit)] if lit > 0 else not model[abs(lit)]

        total = 0
        for group, weight in self.soft:
            if any(all(not lit_true(lit) for lit in clause) for clause in group):
                total += weight
        return total

    def max_solve(self) -> tuple[str, Optional[int]]:
        """Minimize the weight of violated soft groups; returns (verdict, cost).

        Linear SAT-to-UNSAT descent: each SAT step bounds the cost below the
        best model so far.  Every solve decides the soft-clause literals
        first, so the first model sits next to the optimum and few steps
        follow it.
        """
        prefer = [lit for group, _ in self.soft for clause in group for lit in clause]
        verdict, model = solve_clauses(self.hard, self.num_vars, self.seed,
                                       self.conflict_budget, prefer)
        if verdict != SAT:
            self._model = None
            return verdict, None
        if not self.soft:
            self._model = model
            return SAT, 0
        # relax each soft group behind a fresh selector
        next_var = self.num_vars + 1
        relaxed = list(self.hard)
        terms: list[tuple[int, int]] = []
        for group, weight in self.soft:
            r = next_var
            next_var += 1
            for clause in group:
                relaxed.append(clause + [r])
            terms.append((r, weight))
        base_vars = next_var - 1
        # pad the model over the selector range before costing it
        best_model = model + [False] * (base_vars - len(model) + 1)
        best_cost = self._group_cost(best_model)
        while best_cost > 0:
            bound, counter_top = weighted_bound_clauses(terms, best_cost - 1, base_vars + 1)
            verdict, model = solve_clauses(relaxed + bound, counter_top - 1,
                                           self.seed, self.conflict_budget, prefer)
            if verdict == UNKNOWN:
                self._model = None
                return UNKNOWN, None
            if verdict == UNSAT:
                break
            best_model = model
            best_cost = self._group_cost(model)
        self._model = best_model
        return SAT, best_cost

    def model(self) -> list[bool]:
        if self._model is None:
            raise RuntimeError("no model available; last solve was not sat")
        return self._model
