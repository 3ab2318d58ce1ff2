"""A conflict-driven clause-learning (CDCL) SAT solver.

Implements the standard modern architecture:

* two-watched-literal unit propagation;
* first-UIP conflict analysis with clause learning and non-chronological
  backjumping;
* EVSIDS variable activities (exponentially rescaled bumps on an indexed
  max-heap, with a MiniSat-style decay ramp) and phase saving that skips
  assumption levels so one query's polarity cannot pollute the next;
* Luby-sequence restarts;
* learned-clause garbage collection by activity.

The solver supports incremental solving under assumptions, which the CEC
engine uses for equivalence sweeping (one CNF, many queries).  When a
call comes back UNSAT under assumptions, final-conflict analysis (the
``analyzeFinal`` of MiniSat) reports *which* assumptions the refutation
actually used in :attr:`SATResult.core` — the incremental-SAT analogue
of an unsatisfiable core, which the sweep uses to retire whole families
of candidate queries without re-solving them.

Every ``solve`` call can be resource-bounded: ``conflict_limit`` and
``propagation_limit`` cap the search effort, and ``deadline`` (an absolute
``time.monotonic()`` timestamp) is polled periodically inside the CDCL
loop.  Exhausting any of them reports UNKNOWN (``last_unknown`` set, with
the cause in ``last_unknown_reason``) rather than hanging — the contract
the budget-governed CEC cascade relies on.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.runtime.budget import (
    REASON_CONFLICT_LIMIT,
    REASON_PROPAGATION_LIMIT,
    REASON_TIMEOUT,
)
from repro.sat.cnf import CNF

__all__ = ["Solver", "SATResult"]


@dataclass
class SATResult:
    """Outcome of a :meth:`Solver.solve` call.

    ``model`` maps DIMACS variables to their values and covers only the
    variables the solver actually assigned (on an incremental solver every
    variable is assigned at SAT, so in practice that is all of them — but
    an unassigned variable is *unconstrained*, and reporting it as False
    would be inventing a value).

    ``conflicts`` / ``decisions`` / ``propagations`` are the solver's
    *cumulative lifetime totals* at the end of the call, not this call's
    effort — on an incremental solver they grow monotonically across
    calls.  Per-call deltas live in :attr:`Solver.last_call_stats`.

    ``core`` is only meaningful on UNSAT results: the subset of this
    call's assumption literals (verbatim, as passed) that final-conflict
    analysis found the refutation to depend on.  An empty core means the
    formula is unsatisfiable regardless of assumptions; any superset of
    a reported core is guaranteed UNSAT without another solver call.  On
    SAT and UNKNOWN results ``core`` is None.
    """

    satisfiable: bool
    model: Optional[Dict[int, bool]] = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    core: Optional[List[int]] = None

    def __bool__(self) -> bool:
        return self.satisfiable


#: The solver indexes its tables by ``abs(lit) - 1``, so a literal 0
#: would silently alias the last variable; it is rejected instead.
_ZERO_LITERAL = "literal 0 is reserved"


def _luby(i: int) -> int:
    """The Luby restart sequence 1,1,2,1,1,2,4,... (1-indexed).

    MiniSat's iterative formulation with ``x = i - 1`` zero-based.
    """
    if i < 1:
        raise ValueError("Luby index is 1-based")
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return 1 << seq


class _Learned(list):
    """A learned clause: its literal list, plus the activity that ranks it
    for deletion.  An original clause is a plain ``list``."""

    __slots__ = ("activity",)


class _VarOrder:
    """Indexed binary max-heap of variables ordered by activity.

    The MiniSat ``Heap`` (sst-sat's ``heap.h``): ``pos`` maps each
    variable to its heap slot (-1 when absent) so an activity bump can
    percolate the variable up in O(log n) instead of the old O(n) linear
    scan per decision.  Rescaling multiplies every activity by the same
    factor, which preserves heap order — only bumps need fixing up.

    The two hot operations work on these lists directly, with their sift
    loops inlined: the pop in :meth:`Solver._pick_branch` and the
    re-insert of unassigned variables in :meth:`Solver._cancel_until`.
    New variables are appended by :meth:`Solver.ensure_vars`.
    """

    __slots__ = ("heap", "pos", "activity")

    def __init__(self, activity: List[float]) -> None:
        self.heap: List[int] = []
        self.pos: List[int] = []
        self.activity = activity

    def update(self, var: int) -> None:
        """Restore heap order after ``var``'s activity increased."""
        if var < len(self.pos) and self.pos[var] >= 0:
            self._up(self.pos[var])

    def _up(self, i: int) -> None:
        heap, pos, act = self.heap, self.pos, self.activity
        var = heap[i]
        key = act[var]
        while i > 0:
            parent = (i - 1) >> 1
            pvar = heap[parent]
            if act[pvar] >= key:
                break
            heap[i] = pvar
            pos[pvar] = i
            i = parent
        heap[i] = var
        pos[var] = i


class Solver:
    """CDCL solver over DIMACS-style integer literals."""

    #: Conflicts between each +0.01 step of the variable-decay ramp.
    _DECAY_RAMP_CONFLICTS = 5000
    #: Decay ramp endpoint.
    _DECAY_RAMP_TARGET = 0.95

    def __init__(self) -> None:
        self._num_vars = 0
        # Clauses are literal lists, each held once: the watch lists and
        # the reasons refer to these same lists.
        self._clauses: List[List[int]] = []
        self._learned: List[_Learned] = []
        # watches[lit] = clauses to visit when lit becomes true (they
        # watch -lit)
        self._watches: Dict[int, List[List[int]]] = {}
        self._assign: List[int] = []  # var -> -1 unassigned / 0 false / 1 true
        self._level: List[int] = []
        self._reason: List[Optional[List[int]]] = []
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._activity: List[float] = []
        self._order = _VarOrder(self._activity)
        self._var_inc = 1.0
        # EVSIDS decay ramp (MiniSat-style): start forgetful at 0.8 so
        # early bumps wash out fast, then step toward 0.95 every
        # _DECAY_RAMP_CONFLICTS conflicts as the search matures.
        self._var_decay = 0.8
        self._decay_countdown = self._DECAY_RAMP_CONFLICTS
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._phase: List[bool] = []
        # Marks variables currently assigned *as assumption
        # pseudo-decisions* — the trail positions final-conflict
        # analysis must report as core members (a formula-implied unit
        # enqueued at an assumption level also has reason None, so
        # reasonlessness alone cannot identify assumptions).
        self._assumption_mark: List[bool] = []
        self._ok = True
        self.stats_conflicts = 0
        self.stats_decisions = 0
        self.stats_propagations = 0
        # Per-call search state.  All of this used to live as class-level
        # attributes, which made ``last_call_stats`` (a mutable dict) and
        # the unknown/limit flags shared across *every* Solver instance;
        # per-instance initialisation keeps concurrent solvers independent.
        self._num_assumed = 0
        self._last_search_conflicts = 0
        self._deadline_at: Optional[float] = None
        self._prop_stop: Optional[int] = None
        self._poll_tick = 0
        #: True when the last ``solve`` call gave up on a resource limit.
        self.last_unknown = False
        #: The ``REASON_*`` code of the exhausted resource, else None.
        self.last_unknown_reason: Optional[str] = None
        #: Mirror of the last UNSAT result's assumption core (None on
        #: SAT/UNKNOWN), for callers that only kept the solver handle.
        self.last_core: Optional[List[int]] = None
        # Core computed by _search at the conflict site, before
        # backtracking erases the trail it was derived from.
        self._pending_core: Optional[List[int]] = None
        #: Per-call effort deltas of the last ``solve`` call.
        self.last_call_stats: Dict[str, int] = {}
        #: Optional ``repro.obs.metrics.MetricsRegistry``; when attached,
        #: every call feeds the ``sat.*`` counters and per-call histograms.
        self.metrics = None

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    def ensure_vars(self, num_vars: int) -> None:
        """Grow the variable tables up to ``num_vars``.

        A new variable is unassigned, with activity 0; no activity is
        below 0, so the new variables join the branching heap at its end,
        in order.
        """
        first = self._num_vars
        grow = num_vars - first
        if grow <= 0:
            return
        self._num_vars = num_vars
        self._assign += [-1] * grow
        self._level += [-1] * grow
        self._reason += [None] * grow
        self._activity += [0.0] * grow
        self._phase += [False] * grow
        self._assumption_mark += [False] * grow
        heap = self._order.heap
        self._order.pos += range(len(heap), len(heap) + grow)
        heap += range(first, num_vars)

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        The one-clause case of :meth:`add_clauses`.  Raises
        :class:`ValueError` on literal 0, as :meth:`CNF.add_clause` does.
        """
        return self.add_clauses((list(literals),))

    def add_clauses(self, clauses: Iterable[Sequence[int]]) -> bool:
        """Add clauses in order; False at the first that makes the formula
        UNSAT, leaving the rest unread.

        Each clause (a list or tuple of literals) is simplified at the
        root: it is dropped when it holds a root-true literal or a literal
        and its complement, and loses its root-false and repeated
        literals.  What is left is stored as a new list, watched on its
        first two literals; a single literal is enqueued and propagated at
        once, so later clauses simplify against everything it implies; an
        empty clause makes the formula UNSAT.  A clause holding literal 0
        raises :class:`ValueError` before any of it is loaded, with the
        clauses before it loaded.  Loading a sequence in one call is the
        same as one :meth:`add_clause` per clause: the same stored
        clauses, watch order and root trail.
        """
        assign = self._assign
        level = self._level
        stored = self._clauses
        num_vars = self._num_vars
        for clause in clauses:
            if 0 in clause:
                raise ValueError(_ZERO_LITERAL)
            if not self._ok:
                return False
            lits: List[int] = []
            kept: Set[int] = set()
            for lit in clause:
                var = (lit if lit > 0 else -lit) - 1
                if var >= num_vars:
                    self.ensure_vars(var + 1)
                    num_vars = self._num_vars
                elif level[var] == 0:
                    if assign[var] == (lit > 0):
                        break  # satisfied at the root: drop the clause
                    continue  # false at the root: drop the literal
                if lit in kept:
                    continue
                if -lit in kept:
                    break  # tautology: drop the clause
                lits.append(lit)
                kept.add(lit)
            else:
                if len(lits) > 1:
                    stored.append(lits)
                    self._watch(lits)
                    continue
                if not lits:
                    self._ok = False
                    return False
                if self._trail_lim:
                    raise RuntimeError("unit clauses must be added at root level")
                # Unassigned at the root, so the enqueue cannot fail.
                self._enqueue(lits[0], None)
                if self._propagate() is not None:
                    self._ok = False
                    return False
        return True

    def add_cnf(self, cnf: CNF) -> bool:
        """Add all clauses of a CNF; False if trivially UNSAT."""
        self.ensure_vars(cnf.num_vars)
        return self.add_clauses(cnf.clauses)

    def root_clauses(self) -> Iterator[Sequence[int]]:
        """The root-level problem, read in place.

        Yields each root-level implied literal as a unit clause, then
        every original (non-learned) clause: everything a fresh solver
        needs to reproduce this solver's problem.  Learned clauses are
        left out (they are consequences, and only valid for the full
        formula).  A solver already UNSAT at the root yields the empty
        clause alone.  The original clauses are the solver's own lists,
        whose literal order moves with the search: read them, and copy
        what must outlive the next ``solve`` or ``add_clause`` call.
        """
        if not self._ok:
            yield ()
            return
        trail = self._trail
        root_len = self._trail_lim[0] if self._trail_lim else len(trail)
        for i in range(root_len):
            yield (trail[i],)
        yield from self._clauses

    def export_clauses(
        self, variables: Optional[Iterable[int]] = None
    ) -> List[List[int]]:
        """:meth:`root_clauses` as a list of new lists.

        With ``variables``, only the clauses that mention no other
        variable: the CNF slice of one fanin cone.
        """
        if variables is None:
            return [list(clause) for clause in self.root_clauses()]
        var_set = set(variables)
        return [
            list(clause)
            for clause in self.root_clauses()
            if all(abs(lit) in var_set for lit in clause)
        ]

    def root_value(self, lit: int) -> int:
        """``lit``'s value *at the root level*: -1 unknown, 0 false, 1 true.

        A non-(-1) answer means the formula itself implies the literal's
        value, independent of any assumptions — the fast path that lets
        the sweep retire an assumption set containing a root-false
        literal without a solver call.  Raises :class:`ValueError` on
        literal 0.
        """
        if lit == 0:
            raise ValueError(_ZERO_LITERAL)
        var = abs(lit) - 1
        if (
            var >= self._num_vars
            or self._assign[var] == -1
            or self._level[var] != 0
        ):
            return -1
        return self._value(lit)

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        conflict_limit: Optional[int] = None,
        propagation_limit: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> SATResult:
        """Solve under assumptions.

        ``conflict_limit`` bounds this call's conflicts exactly — each
        restart's Luby budget is capped at the limit's remainder, so the
        search stops at (never beyond) the limit;
        ``propagation_limit`` bounds total propagations; ``deadline`` is an
        absolute ``time.monotonic()`` timestamp polled inside the search
        loop.  When any limit is exceeded the result is reported
        unsatisfiable=False with model=None and the caller should treat it
        as UNKNOWN (exposed via the :attr:`last_unknown` flag, with the
        exhausted resource named in :attr:`last_unknown_reason`).

        Per-call effort (the deltas of the cumulative ``stats_*``
        counters) lands in :attr:`last_call_stats` after every call; with
        a :class:`~repro.obs.metrics.MetricsRegistry` attached via
        :attr:`metrics`, each call also feeds the ``sat.*_per_call``
        histograms and the ``sat.calls`` / ``sat.unknowns`` counters.

        Raises :class:`ValueError`, before any search or bookkeeping, when
        an assumption is literal 0.
        """
        assumptions = list(assumptions)
        if 0 in assumptions:
            raise ValueError(_ZERO_LITERAL)
        c0 = self.stats_conflicts
        d0 = self.stats_decisions
        p0 = self.stats_propagations
        try:
            return self._solve_impl(
                assumptions, conflict_limit, propagation_limit, deadline
            )
        finally:
            self.last_call_stats = {
                "conflicts": self.stats_conflicts - c0,
                "decisions": self.stats_decisions - d0,
                "propagations": self.stats_propagations - p0,
            }
            if self.metrics is not None:
                self._record_call_metrics()

    def _record_call_metrics(self) -> None:
        registry = self.metrics
        registry.inc("sat.calls")
        if self.last_unknown:
            registry.inc("sat.unknowns")
        if self.last_core is not None:
            registry.inc("sat.cores")
            registry.observe("sat.core_size_per_call", len(self.last_core))
        for key, value in self.last_call_stats.items():
            registry.inc(f"sat.{key}", value)
            registry.observe(f"sat.{key}_per_call", value)

    def _solve_impl(
        self,
        assumptions: List[int],
        conflict_limit: Optional[int],
        propagation_limit: Optional[int],
        deadline: Optional[float],
    ) -> SATResult:
        self.last_unknown = False
        self.last_unknown_reason = None
        self.last_core = None
        self._pending_core: Optional[List[int]] = None
        if not self._ok:
            # Formula UNSAT before any assumption: the empty core.
            return self._result(False, core=[])
        self._cancel_until(0)
        conflicts_this_call = 0
        restart_count = 0
        self._deadline_at = deadline
        self._prop_stop = (
            self.stats_propagations + propagation_limit
            if propagation_limit is not None
            else None
        )
        if deadline is not None and time.monotonic() >= deadline:
            return self._unknown_result(REASON_TIMEOUT)

        # Install assumptions as pseudo-decisions, one level each.
        for lit in assumptions:
            self.ensure_vars(abs(lit))

        while True:
            budget = 64 * _luby(restart_count + 1)
            if conflict_limit is not None:
                # Cap the restart's budget at what is left of the caller's
                # limit, so the search hands control back *at* the limit
                # instead of overrunning to the next Luby restart boundary
                # (the floor of 64 made small limits overshoot by >10x).
                remaining = conflict_limit - conflicts_this_call
                if remaining <= 0:
                    return self._unknown_result(REASON_CONFLICT_LIMIT)
                budget = min(budget, remaining)
            restart_count += 1
            status = self._search(budget, assumptions)
            conflicts_this_call += self._last_search_conflicts
            if status == "budget-time":
                return self._unknown_result(REASON_TIMEOUT)
            if status == "budget-propagations":
                return self._unknown_result(REASON_PROPAGATION_LIMIT)
            if status == "sat":
                model = {
                    v + 1: self._assign[v] == 1
                    for v in range(self._num_vars)
                    if self._assign[v] != -1
                }
                self._cancel_until(0)
                return SATResult(
                    True,
                    model,
                    self.stats_conflicts,
                    self.stats_decisions,
                    self.stats_propagations,
                )
            if status == "unsat":
                # Refuted at the root: UNSAT under *any* assumptions.
                self._cancel_until(0)
                return self._result(False, core=[])
            if status == "assumption-conflict":
                core = self._pending_core
                self._cancel_until(0)
                return self._result(False, core=core if core is not None else [])
            # restart
            self._cancel_until(0)
            if conflict_limit is not None and conflicts_this_call >= conflict_limit:
                return self._unknown_result(REASON_CONFLICT_LIMIT)

    def _unknown_result(self, reason: str) -> SATResult:
        """Give up on this call: flag UNKNOWN with its reason code."""
        self.last_unknown = True
        self.last_unknown_reason = reason
        self._cancel_until(0)
        return self._result(False)

    def _result(
        self, sat: bool, core: Optional[List[int]] = None
    ) -> SATResult:
        self.last_core = core
        return SATResult(
            sat,
            None,
            self.stats_conflicts,
            self.stats_decisions,
            self.stats_propagations,
            core=core,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> int:
        """-1 unassigned, 0 false, 1 true."""
        val = self._assign[abs(lit) - 1]
        if val == -1:
            return -1
        return val if lit > 0 else 1 - val

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _watch(self, clause: List[int]) -> None:
        self._watches.setdefault(-clause[0], []).append(clause)
        self._watches.setdefault(-clause[1], []).append(clause)

    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> bool:
        val = self._value(lit)
        if val == 0:
            return False
        if val == 1:
            return True
        var = abs(lit) - 1
        self._assign[var] = 1 if lit > 0 else 0
        self._level[var] = self._decision_level()
        self._reason[var] = reason
        if self._decision_level() > self._num_assumed:
            # Save phases only below the assumption prefix: an
            # assumption pseudo-decision (and everything it propagates)
            # is the *query's* polarity, not the search's preference,
            # and saving it would bias the next query's opposite
            # direction toward the just-refuted phase.
            self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[List[int]]:
        """Unit propagation; returns a conflicting clause or None.

        The solver's innermost loop, so ``_value`` and ``_enqueue`` are
        inlined.  With ``v = self._assign[abs(x) - 1]``, literal ``x`` is
        true when ``v == (x > 0)`` and false when ``v == (x < 0)``; an
        unassigned -1 equals neither.  Each watch list is compacted in
        place: the watchers that stay slide down over the ones that moved
        to another literal, so the list keeps exactly the order a fresh
        rebuild would give, and with it the search trajectory.
        """
        trail = self._trail
        qhead = start = self._qhead
        watches = self._watches
        assign = self._assign
        level = self._level
        reason = self._reason
        phase = self._phase
        current = len(self._trail_lim)
        # Phases are saved only below the assumption prefix (see _enqueue).
        save_phase = current > self._num_assumed
        conflict: Optional[List[int]] = None
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            watchers = watches.get(lit)
            if not watchers:
                continue
            false_lit = -lit
            size = len(watchers)
            i = kept = 0
            while i < size:
                clause = watchers[i]
                i += 1
                # Make sure the falsified literal is at position 1.
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if assign[abs(first) - 1] == (first > 0):
                    watchers[kept] = clause
                    kept += 1
                    continue
                # Look for a new watch: any literal not false.
                for k in range(2, len(clause)):
                    other = clause[k]
                    if assign[abs(other) - 1] != (other < 0):
                        clause[1] = other
                        clause[k] = false_lit
                        moved = watches.get(-other)
                        if moved is None:
                            watches[-other] = [clause]
                        else:
                            moved.append(clause)
                        break
                else:
                    # Clause is unit or conflicting.
                    watchers[kept] = clause
                    kept += 1
                    var = abs(first) - 1
                    if assign[var] != -1:
                        conflict = clause
                        # Keep the watchers not yet visited.
                        del watchers[kept:i]
                        break
                    assign[var] = 1 if first > 0 else 0
                    level[var] = current
                    reason[var] = clause
                    if save_phase:
                        phase[var] = first > 0
                    trail.append(first)
            if conflict is not None:
                break
            if kept < size:
                del watchers[kept:]
        self._qhead = qhead
        self.stats_propagations += qhead - start
        return conflict

    def _search(self, conflict_budget: int, assumptions: List[int]) -> str:
        """CDCL until SAT, a refutation, an assumption conflict, a resource
        limit or ``conflict_budget`` conflicts (a restart).

        Assumption installs and decisions inline ``_enqueue``.
        """
        self._last_search_conflicts = 0
        trail = self._trail
        trail_lim = self._trail_lim
        assign = self._assign
        level = self._level
        reason = self._reason
        propagate = self._propagate
        prop_stop = self._prop_stop
        deadline = self._deadline_at
        n_assumptions = len(assumptions)
        while True:
            if prop_stop is not None and self.stats_propagations >= prop_stop:
                return "budget-propagations"
            if deadline is not None:
                # Poll the wall clock every few iterations: cheap enough to
                # keep the unbudgeted path unchanged, frequent enough that a
                # deadline overrun stays far below the caller's 2x margin.
                self._poll_tick += 1
                if (self._poll_tick & 63) == 0 and time.monotonic() >= deadline:
                    return "budget-time"
            conflict = propagate()
            current = len(trail_lim)
            if conflict is not None:
                self.stats_conflicts += 1
                self._last_search_conflicts += 1
                if current == 0:
                    return "unsat"
                if current <= self._num_assumed:
                    self._pending_core = self._analyze_final(conflict, None)
                    return "assumption-conflict"
                learned, backjump = self._analyze(conflict)
                self._cancel_until(max(backjump, self._num_assumed))
                self._record_learned(learned)
                self._decay_activities()
                if self._last_search_conflicts >= conflict_budget:
                    return "restart"
                continue
            # No conflict: extend assumptions, then decide.
            if current < n_assumptions:
                lit = assumptions[current]
                var = abs(lit) - 1
                val = assign[var]
                if val == (lit < 0):
                    self._pending_core = self._analyze_final(None, lit)
                    return "assumption-conflict"
                # A new level; empty when the assumption is already implied.
                trail_lim.append(len(trail))
                if self._num_assumed <= current:
                    self._num_assumed = current + 1
                if val == -1:
                    # No phase saving: this level is inside the prefix.
                    assign[var] = 1 if lit > 0 else 0
                    level[var] = current + 1
                    reason[var] = None
                    trail.append(lit)
                    self._assumption_mark[var] = True
                continue
            lit = self._pick_branch()
            if lit == 0:
                return "sat"
            self.stats_decisions += 1
            trail_lim.append(len(trail))
            # Decisions lie below the assumption prefix, where _enqueue saves
            # phases; that save is a no-op here, as the literal was picked
            # in its saved phase.
            var = abs(lit) - 1
            assign[var] = 1 if lit > 0 else 0
            level[var] = current + 1
            reason[var] = None
            trail.append(lit)

    def _pick_branch(self) -> int:
        """The most active unassigned variable in its saved phase, or 0.

        Lazy heap discipline: assigned variables stay in the heap until
        popped here (and are re-inserted by _cancel_until when unassigned),
        so each decision costs O(log n) amortised.  The pop and its
        sift-down are inlined.
        """
        order = self._order
        heap = order.heap
        pos = order.pos
        act = self._activity
        assign = self._assign
        while heap:
            top = heap[0]
            last = heap.pop()
            pos[top] = -1
            size = len(heap)
            if size:
                # Sift ``last`` down from the root.
                key = act[last]
                i = 0
                child = 1
                while child < size:
                    right = child + 1
                    if right < size and act[heap[right]] > act[heap[child]]:
                        child = right
                    cvar = heap[child]
                    if key >= act[cvar]:
                        break
                    heap[i] = cvar
                    pos[cvar] = i
                    i = child
                    child = 2 * i + 1
                heap[i] = last
                pos[last] = i
            if assign[top] == -1:
                return (top + 1) if self._phase[top] else -(top + 1)
        return 0

    def _analyze_final(
        self, conflict: Optional[List[int]], failed: Optional[int]
    ) -> List[int]:
        """Final-conflict analysis (MiniSat's ``analyzeFinal``).

        Called at an assumption conflict, *before* backtracking, with
        either the conflicting clause or the assumption literal that was
        already falsified at install time.  Walks the trail from the top
        resolving each marked literal through its reason; literals whose
        reason is an assumption pseudo-decision are the assumptions the
        refutation rests on — returned verbatim as the core.  Reasonless
        trail literals that are *not* assumptions (formula-implied units
        enqueued at an assumption level by clause learning) need no
        assumption support and are skipped.
        """
        core: List[int] = []
        seen = [False] * self._num_vars
        if failed is not None:
            core.append(failed)
            seen[abs(failed) - 1] = True
        if conflict is not None:
            for lit in conflict:
                var = abs(lit) - 1
                if self._level[var] > 0:
                    seen[var] = True
        root_len = self._trail_lim[0] if self._trail_lim else len(self._trail)
        for i in range(len(self._trail) - 1, root_len - 1, -1):
            lit = self._trail[i]
            var = abs(lit) - 1
            if not seen[var]:
                continue
            seen[var] = False
            reason = self._reason[var]
            if reason is None:
                if self._assumption_mark[var]:
                    core.append(lit)
            else:
                for q in reason:
                    qvar = abs(q) - 1
                    if self._level[qvar] > 0:
                        seen[qvar] = True
        return core

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int]:
        """First-UIP learning; returns (learned clause, backjump level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = [False] * self._num_vars
        counter = 0
        resolved_lit = 0  # the implied literal of the current reason clause
        clause: Optional[List[int]] = conflict
        index = len(self._trail)
        current_level = self._decision_level()
        while True:
            assert clause is not None
            if type(clause) is _Learned:
                self._bump_clause(clause)
            for q in clause:
                if q == resolved_lit:
                    continue
                var = abs(q) - 1
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Find the next literal to resolve on (last assigned, seen).
            while True:
                index -= 1
                resolved_lit = self._trail[index]
                if seen[abs(resolved_lit) - 1]:
                    break
            var = abs(resolved_lit) - 1
            seen[var] = False
            counter -= 1
            if counter == 0:
                learned[0] = -resolved_lit
                break
            clause = self._reason[var]
        # Minimisation: drop literals implied by the rest (simple self-subsumption).
        learned = self._minimize(learned, seen)
        # Compute backjump level.
        if len(learned) == 1:
            back = 0
        else:
            levels = sorted(
                (self._level[abs(l) - 1] for l in learned[1:]), reverse=True
            )
            back = levels[0]
        return learned, back

    def _minimize(self, learned: List[int], seen: List[bool]) -> List[int]:
        marked = set(abs(l) - 1 for l in learned)
        result = [learned[0]]
        for lit in learned[1:]:
            var = abs(lit) - 1
            reason = self._reason[var]
            if reason is None:
                result.append(lit)
                continue
            redundant = all(
                abs(q) - 1 in marked or self._level[abs(q) - 1] == 0
                for q in reason
                if q != -lit
            )
            if not redundant:
                result.append(lit)
        return result

    def _record_learned(self, lits: List[int]) -> None:
        if len(lits) == 1:
            self._enqueue(lits[0], None)
            return
        # Put a literal of the backjump level in position 1 for watching.
        max_idx = 1
        for i in range(2, len(lits)):
            if self._level[abs(lits[i]) - 1] > self._level[abs(lits[max_idx]) - 1]:
                max_idx = i
        lits[1], lits[max_idx] = lits[max_idx], lits[1]
        clause = _Learned(lits)
        clause.activity = self._cla_inc
        self._learned.append(clause)
        self._watch(clause)
        self._enqueue(lits[0], clause)
        if len(self._learned) > 4000 + 16 * len(self._clauses) ** 0.5:
            self._reduce_learned()

    def _reduce_learned(self) -> None:
        """Drop the less active half of learned clauses not currently reasons."""
        reasons = {id(r) for r in self._reason if r is not None}
        self._learned.sort(key=lambda c: c.activity)
        keep_from = len(self._learned) // 2
        dropped = {
            id(c)
            for c in self._learned[:keep_from]
            if id(c) not in reasons and len(c) > 2
        }
        if not dropped:
            return
        self._learned = [c for c in self._learned if id(c) not in dropped]
        for lit, watchers in self._watches.items():
            self._watches[lit] = [c for c in watchers if id(c) not in dropped]

    def _cancel_until(self, level: int) -> None:
        """Backtrack to ``level``, newest assignment first.

        Each unassigned variable goes back into the branching heap unless
        it is still there; the insert and its sift-up are inlined.
        """
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        limit = trail_lim[level]
        assign = self._assign
        reason = self._reason
        var_level = self._level
        mark = self._assumption_mark
        heap = self._order.heap
        pos = self._order.pos
        act = self._activity
        for lit in reversed(trail[limit:]):
            var = abs(lit) - 1
            assign[var] = -1
            reason[var] = None
            var_level[var] = -1
            mark[var] = False
            if pos[var] < 0:
                i = len(heap)
                heap.append(var)
                key = act[var]
                while i:
                    parent = (i - 1) >> 1
                    pvar = heap[parent]
                    if act[pvar] >= key:
                        break
                    heap[i] = pvar
                    pos[pvar] = i
                    i = parent
                heap[i] = var
                pos[var] = i
        del trail[limit:]
        del trail_lim[level:]
        if self._qhead > limit:
            self._qhead = limit
        if self._num_assumed > level:
            self._num_assumed = level

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            # EVSIDS rescale: multiply everything down by the same
            # factor.  Relative order is preserved, so the heap needs no
            # repair — only the single bumped variable percolates.
            for i in range(self._num_vars):
                self._activity[i] *= 1e-100
            self._var_inc *= 1e-100
        self._order.update(var)

    def _bump_clause(self, clause: _Learned) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _decay_activities(self) -> None:
        self._var_inc /= self._var_decay
        self._cla_inc /= self._cla_decay
        self._decay_countdown -= 1
        if self._decay_countdown <= 0:
            self._decay_countdown = self._DECAY_RAMP_CONFLICTS
            if self._var_decay < self._DECAY_RAMP_TARGET:
                self._var_decay = min(
                    self._DECAY_RAMP_TARGET, self._var_decay + 0.01
                )
