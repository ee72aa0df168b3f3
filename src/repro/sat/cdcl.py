"""Conflict-driven clause learning SAT solver.

A compact but complete CDCL implementation.  It serves two callers: the
obligation certificate's constant-word and conflict-core solves
(:mod:`repro.synthesis.invariants`), and the bounded dual
(:mod:`repro.synthesis.bounded`), the only caller that adds clauses
after an answer and reads :meth:`CDCLSolver.stats`.  It has:

* two-watched-literal propagation with blocker literals (MiniSat-style:
  each watcher carries a cached literal from the clause; when the blocker
  is already true the clause body is never dereferenced),
* first-UIP conflict analysis with self-subsumption clause minimisation,
* exponential VSIDS activity with decay and phase saving,
* Luby-sequence restarts,
* learnt-clause database reduction scored by literal-block distance
  (Glucose-style: the LBD is tagged at learn time; every
  :data:`REDUCE_INTERVAL` conflicts the learnt DB is halved, keeping
  binary clauses, "glue" clauses with LBD <= 2 and clauses locked as
  reasons),
* incremental solving under assumptions with implication-graph failed
  assumption cores,
* MiniSat-style solver reuse: :meth:`CDCLSolver.add_clause` is valid
  *between* :meth:`CDCLSolver.solve` calls (the solver returns to
  decision level 0 after every answer, so new clauses are simplified
  against the permanent root-level trail and watched correctly), and
  learnt clauses, VSIDS activity and saved phases all survive into the
  next call.  Callers gate constraints that must be retractable behind
  activation literals passed as assumptions — adding the unit clause
  ``[-activation]`` later retires the whole group at root level.  The
  ``incremental`` block of :meth:`CDCLSolver.stats` counts reuse:
  solve calls, clauses added after the first answer, and learnt clauses
  carried into subsequent calls.

The solver is deterministic: identical inputs yield identical models, which
keeps the benchmark tables and tests reproducible.

The pre-watcher reference scheme, which re-scans the full body of every
clause containing a freshly falsified literal, lives with the tests
(``tests/oracles/sat.py``) as a subclass that swaps the propagation step
and shares the search loop, conflict analysis and cores, so any
divergence in verdicts is a bug the differential suite will catch.
:meth:`CDCLSolver.stats` exposes counters (propagations, conflicts,
decisions, restarts, clause visits, learnt clauses) so benchmarks can
assert that watched propagation actually visits fewer clauses instead of
guessing from timings.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..obs.trace import leaf_span, tracing_active
from .cnf import CNF, Lit

#: Conflicts between restarts, scaled by the Luby sequence 1, 1, 2, 1, 1, 2, 4, ...
RESTART_INTERVAL = 100
#: Per-conflict VSIDS activity decay factor.
VAR_DECAY = 0.95
#: Conflicts between learnt-database reductions.  Deleting learnt clauses
#: is always sound, so the verdict never depends on this value.
REDUCE_INTERVAL = 2000


@dataclass
class SatResult:
    """Outcome of a :meth:`CDCLSolver.solve` call."""

    satisfiable: bool
    model: Optional[Dict[int, bool]] = None
    failed_assumptions: Optional[List[Lit]] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    clause_visits: int = 0

    def __bool__(self) -> bool:
        return self.satisfiable


def _code(lit: Lit) -> int:
    """Dense index of a literal: positive -> 2v, negative -> 2v+1."""
    return (abs(lit) << 1) | (lit < 0)


class CDCLSolver:
    """CDCL solver over a :class:`~repro.sat.cnf.CNF` instance."""

    def __init__(self, cnf: CNF) -> None:
        self.num_vars = cnf.num_vars
        # clause database: each clause is a list of literals whose indices
        # 0/1 are the watched literals.  Slots of learnt clauses deleted by
        # database reduction are tombstoned with None (clause indices
        # stored in watchers/reasons must stay stable).
        self.clauses: List[Optional[List[Lit]]] = []
        # Per-literal watcher lists (indexed by _code) of
        # (clause index, blocker literal) pairs.
        self.watches: List[List[Tuple[int, Lit]]] = [
            [] for _ in range(2 * (self.num_vars + 1))
        ]
        self.assign: List[int] = [0] * (self.num_vars + 1)  # 0 unset, ±1
        self.level: List[int] = [0] * (self.num_vars + 1)
        self.reason: List[Optional[int]] = [None] * (self.num_vars + 1)
        self.trail: List[Lit] = []
        self.trail_lim: List[int] = []
        self.queue_head = 0
        self.activity: List[float] = [0.0] * (self.num_vars + 1)
        # Max-heap (negated activity) with lazy deletion for branch picking.
        self.heap: List[tuple] = []
        self.var_inc = 1.0
        self.saved_phase: List[bool] = [False] * (self.num_vars + 1)
        self.ok = True
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        self.clause_visits = 0
        self.learnt_clauses = 0
        # Learnt-database reduction state: indices of live learnt clauses,
        # their LBD scores (tagged at learn time), and the conflict count
        # that triggers the next halving.
        self.learnt: List[int] = []
        self.lbd: Dict[int, int] = {}
        self.learnt_dropped = 0
        self.next_reduce = REDUCE_INTERVAL
        # Incremental-reuse counters: solve() calls, clauses added after
        # the first answer, and learnt clauses alive at the start of each
        # subsequent call (the work a from-scratch solver would redo).
        self.solves = 0
        self.clauses_added_incremental = 0
        self.learnt_carried = 0
        for clause in cnf.clauses:
            self.add_clause(clause)
        self.heap = [(0.0, var) for var in range(1, self.num_vars + 1)]
        heapq.heapify(self.heap)

    # ------------------------------------------------------------------ API
    def add_clause(self, lits: Iterable[Lit]) -> None:
        """Add a clause at decision level 0.

        Safe between :meth:`solve` calls: every answer leaves the solver
        back at level 0, so the clause is simplified against the
        permanent root trail only (dropped literals are root-falsified
        facts, which can never be unassigned again), watchers are
        attached to unassigned literals, and a clause that is unit under
        the root trail is propagated immediately — conflicts here make
        the instance permanently unsatisfiable (``ok = False``).
        """
        if self.solves:
            self.clauses_added_incremental += 1
        if not self.ok:
            return
        seen: Set[Lit] = set()
        clause: List[Lit] = []
        for lit in lits:
            if abs(lit) > self.num_vars:
                self._grow(abs(lit))
            if -lit in seen:
                return  # tautology
            if lit in seen:
                continue
            value = self._value(lit)
            if value == 1 and self.level[abs(lit)] == 0:
                return  # already satisfied at root
            if value == -1 and self.level[abs(lit)] == 0:
                continue  # falsified at root: drop the literal
            seen.add(lit)
            clause.append(lit)
        if not clause:
            self.ok = False
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self.ok = False
            elif self._propagate() is not None:
                self.ok = False
            return
        self._attach(clause)

    def stats(self) -> Dict[str, object]:
        """Work counters since construction.

        ``clause_visits`` counts how many times a clause body was actually
        scanned during propagation — the quantity the two-watched-literal
        scheme exists to shrink.  Blocker hits and satisfied-watch
        short-circuits do not dereference the clause and are not counted.
        The nested ``incremental`` block counts solver reuse: total
        :meth:`solve` calls, clauses added after the first answer, and
        learnt clauses carried into subsequent calls.
        """
        return {
            "propagations": self.propagations,
            "conflicts": self.conflicts,
            "decisions": self.decisions,
            "restarts": self.restarts,
            "clause_visits": self.clause_visits,
            "learnt_clauses": self.learnt_clauses,
            "learnt_kept": len(self.learnt),
            "learnt_dropped": self.learnt_dropped,
            "clauses": sum(1 for clause in self.clauses if clause is not None),
            "vars": self.num_vars,
            "incremental": {
                "solves": self.solves,
                "clauses_added": self.clauses_added_incremental,
                "learnt_carried": self.learnt_carried,
            },
        }

    def solve(self, assumptions: Sequence[Lit] = ()) -> SatResult:
        """Search for a model extending *assumptions*."""
        if not tracing_active():
            return self._solve(assumptions)
        start_ns = time.perf_counter_ns()
        result = self._solve(assumptions)
        leaf_span(
            "sat.solve",
            start_ns,
            vars=self.num_vars,
            assumptions=len(assumptions),
            sat=result.satisfiable,
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
            restarts=self.restarts,
            clause_visits=self.clause_visits,
        )
        return result

    def _solve(self, assumptions: Sequence[Lit] = ()) -> SatResult:
        self.solves += 1
        if self.solves > 1:
            self.learnt_carried += len(self.learnt)
        if not self.ok:
            return SatResult(False, failed_assumptions=[], conflicts=self.conflicts)
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self.ok = False
            return SatResult(False, failed_assumptions=[], conflicts=self.conflicts)

        assumption_list = list(assumptions)
        luby_index = 1
        conflicts_since_restart = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_since_restart += 1
                if self._decision_level() == 0:
                    self.ok = False
                    return self._unsat_result([])
                learnt, backjump = self._analyze(conflict)
                # LBD = distinct decision levels in the learnt clause; must
                # be read before backtracking unassigns the literals.
                lbd = len({self.level[abs(lit)] for lit in learnt})
                self._backtrack(backjump)
                self.learnt_clauses += 1
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    index = self._attach(learnt)
                    self.learnt.append(index)
                    self.lbd[index] = lbd
                    self._enqueue(learnt[0], index)
                self.var_inc *= 1.0 / VAR_DECAY
                if self.conflicts >= self.next_reduce:
                    self._reduce_learnts()
                    self.next_reduce = self.conflicts + REDUCE_INTERVAL
                continue

            if conflicts_since_restart >= RESTART_INTERVAL * _luby(luby_index):
                luby_index += 1
                conflicts_since_restart = 0
                self.restarts += 1
                self._backtrack(0)
                continue

            # Place pending assumptions as decisions.  Already-satisfied
            # assumptions are skipped without opening a decision level —
            # empty levels would break the first-UIP invariant.
            pending: Optional[Lit] = None
            for lit in assumption_list:
                value = self._value(lit)
                if value == -1:
                    core = self._assumption_core(assumption_list, failed=lit)
                    self._backtrack(0)
                    return self._unsat_result(core)
                if value == 0:
                    pending = lit
                    break
            if pending is not None:
                self.trail_lim.append(len(self.trail))
                self._enqueue(pending, None)
                continue

            lit = self._pick_branch()
            if lit is None:
                model = {
                    var: self.assign[var] == 1 for var in range(1, self.num_vars + 1)
                }
                self._backtrack(0)
                return SatResult(
                    True,
                    model=model,
                    conflicts=self.conflicts,
                    decisions=self.decisions,
                    propagations=self.propagations,
                    restarts=self.restarts,
                    clause_visits=self.clause_visits,
                )
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None)

    # ------------------------------------------------------------ internals
    def _grow(self, var: int) -> None:
        extra = var - self.num_vars
        self.assign.extend([0] * extra)
        self.level.extend([0] * extra)
        self.reason.extend([None] * extra)
        self.activity.extend([0.0] * extra)
        self.saved_phase.extend([False] * extra)
        for _ in range(2 * extra):
            self.watches.append([])
        for fresh in range(self.num_vars + 1, var + 1):
            heapq.heappush(self.heap, (0.0, fresh))
        self.num_vars = var

    def _value(self, lit: Lit) -> int:
        value = self.assign[abs(lit)]
        return value if lit > 0 else -value

    def _decision_level(self) -> int:
        return len(self.trail_lim)

    def _attach(self, clause: List[Lit]) -> int:
        index = len(self.clauses)
        self.clauses.append(clause)
        # Each watcher caches the other watched literal as its blocker.
        self.watches[_code(clause[0])].append((index, clause[1]))
        self.watches[_code(clause[1])].append((index, clause[0]))
        return index

    def _reduce_learnts(self) -> None:
        """Halve the learnt-clause database, keeping the glue.

        Binary clauses, "glue" clauses (LBD <= 2) and clauses locked as
        the reason of a literal on the current trail are always kept; the
        remaining candidates are ranked by (LBD, size, index) and the
        worse half is dropped.  Learnt clauses are implied by the input
        CNF, so deletion never changes the verdict — it only bounds the
        watcher lists the propagation loop has to traverse.  The ranking
        is deterministic, so identical inputs still yield identical
        models.
        """
        locked = {
            self.reason[abs(lit)]
            for lit in self.trail
            if self.reason[abs(lit)] is not None
        }
        candidates = [
            index
            for index in self.learnt
            if index not in locked
            and self.lbd[index] > 2
            and len(self.clauses[index]) > 2
        ]
        if len(candidates) < 2:
            return
        candidates.sort(
            key=lambda index: (self.lbd[index], len(self.clauses[index]), index)
        )
        drop = set(candidates[len(candidates) // 2 :])
        for index in drop:
            self.clauses[index] = None
            del self.lbd[index]
        self.learnt = [index for index in self.learnt if index not in drop]
        self.learnt_dropped += len(drop)
        # Detach the tombstoned clauses from the watcher lists.
        for watch_list in self.watches:
            if watch_list:
                watch_list[:] = [pair for pair in watch_list if pair[0] not in drop]

    def _enqueue(self, lit: Lit, reason: Optional[int]) -> bool:
        value = self._value(lit)
        if value == -1:
            return False
        if value == 1:
            return True
        var = abs(lit)
        self.assign[var] = 1 if lit > 0 else -1
        self.level[var] = self._decision_level()
        self.reason[var] = reason
        self.saved_phase[var] = lit > 0
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        """Unit propagation; returns a conflicting clause index or None."""
        value = self._value
        clauses = self.clauses
        while self.queue_head < len(self.trail):
            lit = self.trail[self.queue_head]
            self.queue_head += 1
            self.propagations += 1
            falsified = -lit
            watch_list = self.watches[_code(falsified)]
            if not watch_list:
                continue
            keep = 0  # in-place compaction: watchers [0, keep) survive
            i = 0
            conflict: Optional[int] = None
            while i < len(watch_list):
                index, blocker = watch_list[i]
                i += 1
                if value(blocker) == 1:
                    watch_list[keep] = (index, blocker)
                    keep += 1
                    continue
                clause = clauses[index]
                self.clause_visits += 1
                if clause[0] == falsified:
                    clause[0], clause[1] = clause[1], clause[0]
                # clause[1] is the falsified watcher now.
                first = clause[0]
                if first != blocker and value(first) == 1:
                    watch_list[keep] = (index, first)
                    keep += 1
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if value(clause[k]) != -1:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches[_code(clause[1])].append((index, first))
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit (or conflicting) under the current trail.
                watch_list[keep] = (index, first)
                keep += 1
                if not self._enqueue(first, index):
                    conflict = index
                    while i < len(watch_list):
                        watch_list[keep] = watch_list[i]
                        keep += 1
                        i += 1
                    break
            del watch_list[keep:]
            if conflict is not None:
                return conflict
        return None

    def _analyze(self, conflict_index: int):
        """First-UIP conflict analysis; returns (learnt clause, backjump)."""
        learnt: List[Lit] = [0]  # reserve slot for the asserting literal
        seen = [False] * (self.num_vars + 1)
        counter = 0
        lit = 0
        index = len(self.trail) - 1
        clause = self.clauses[conflict_index]
        current_level = self._decision_level()

        while True:
            for reason_lit in clause:
                if reason_lit == -lit:
                    # Skip the literal whose reason clause we are expanding.
                    continue
                var = abs(reason_lit)
                if not seen[var] and self.level[var] > 0:
                    seen[var] = True
                    self._bump(var)
                    if self.level[var] >= current_level:
                        counter += 1
                    else:
                        learnt.append(reason_lit)
            while not seen[abs(self.trail[index])]:
                index -= 1
            lit = -self.trail[index]
            var = abs(lit)
            seen[var] = False
            counter -= 1
            index -= 1
            if counter == 0:
                break
            reason_index = self.reason[var]
            assert reason_index is not None, "UIP literal must have a reason"
            clause = self.clauses[reason_index]

        learnt[0] = lit
        learnt = self._minimise(learnt, seen)
        if len(learnt) == 1:
            return learnt, 0
        # Move the second-highest level literal to index 1 for watching.
        best = max(range(1, len(learnt)), key=lambda k: self.level[abs(learnt[k])])
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return learnt, self.level[abs(learnt[1])]

    def _minimise(self, learnt: List[Lit], seen: List[bool]) -> List[Lit]:
        """Drop literals implied by the rest of the learnt clause."""
        for lit in learnt[1:]:
            seen[abs(lit)] = True
        result = [learnt[0]]
        for lit in learnt[1:]:
            reason_index = self.reason[abs(lit)]
            if reason_index is None:
                result.append(lit)
                continue
            redundant = all(
                seen[abs(other)] or self.level[abs(other)] == 0
                for other in self.clauses[reason_index]
                if abs(other) != abs(lit)
            )
            if not redundant:
                result.append(lit)
        for lit in learnt[1:]:
            seen[abs(lit)] = False
        return result

    def _assumption_core(
        self, assumptions: Sequence[Lit], failed: Optional[Lit] = None
    ) -> List[Lit]:
        """A subset of assumptions sufficient for unsatisfiability.

        When assumption *failed* is found falsified, its complement was
        implied by the trail; walking that literal's implication graph back
        to its roots collects exactly the assumptions involved.  (At that
        point every decision on the trail is an assumption: free decisions
        only happen once all assumptions are placed, and any backjump that
        unassigns an assumption removes the free decisions above it.)  The
        core is sufficient but not guaranteed minimal.
        """
        assumption_set = set(assumptions)
        core: Set[Lit] = set()
        if failed is None:
            return []
        core.add(failed)
        pending: List[int] = [abs(failed)]
        visited: Set[int] = set()
        while pending:
            var = pending.pop()
            if var in visited or self.level[var] == 0:
                continue  # root facts need no assumptions
            visited.add(var)
            reason_index = self.reason[var]
            if reason_index is None:
                lit = var if self.assign[var] == 1 else -var
                if lit in assumption_set:
                    core.add(lit)
                continue
            for other in self.clauses[reason_index]:
                if abs(other) != var:
                    pending.append(abs(other))
        return sorted(core, key=abs)

    def _bump(self, var: int) -> None:
        self.activity[var] += self.var_inc
        heapq.heappush(self.heap, (-self.activity[var], var))
        if self.activity[var] > 1e100:
            for v in range(1, self.num_vars + 1):
                self.activity[v] *= 1e-100
            self.var_inc *= 1e-100
            self.heap = [(-self.activity[v], v) for v in range(1, self.num_vars + 1)]
            heapq.heapify(self.heap)

    def _pick_branch(self) -> Optional[Lit]:
        while self.heap:
            negated_activity, var = self.heap[0]
            if self.assign[var] != 0 or -negated_activity != self.activity[var]:
                heapq.heappop(self.heap)  # stale entry
                continue
            return var if self.saved_phase[var] else -var
        # Heap exhausted: fall back to a linear scan for untouched vars.
        for var in range(1, self.num_vars + 1):
            if self.assign[var] == 0:
                return var if self.saved_phase[var] else -var
        return None

    def _backtrack(self, target_level: int) -> None:
        if self._decision_level() <= target_level:
            return
        boundary = self.trail_lim[target_level]
        for lit in self.trail[boundary:]:
            var = abs(lit)
            self.assign[var] = 0
            self.reason[var] = None
            heapq.heappush(self.heap, (-self.activity[var], var))
        del self.trail[boundary:]
        del self.trail_lim[target_level:]
        self.queue_head = min(self.queue_head, len(self.trail))

    def _unsat_result(self, core: List[Lit]) -> SatResult:
        return SatResult(
            False,
            failed_assumptions=core,
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
            restarts=self.restarts,
            clause_visits=self.clause_visits,
        )


def _luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,… (*i* is 1-based)."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq
