"""Budget semantics and their enforcement inside the proving engines."""

from __future__ import annotations

import time

import pytest

from repro.bdd.bdd import BDD
from repro.runtime.budget import (
    KNOWN_REASONS,
    REASON_BDD_BLOWUP,
    REASON_CONFLICT_LIMIT,
    REASON_PROPAGATION_LIMIT,
    REASON_TIMEOUT,
    Budget,
)
from repro.runtime.errors import BddBlowupError, BudgetExceededError
from repro.runtime.retry import run_with_retries
from repro.sat.solver import Solver


def pigeonhole_cnf(holes: int):
    """PHP(holes+1, holes): unsatisfiable and hard for CDCL (no short proof)."""
    pigeons = holes + 1

    def var(i: int, j: int) -> int:
        return i * holes + j + 1

    clauses = [[var(i, j) for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                clauses.append([-var(i, j), -var(k, j)])
    return pigeons * holes, clauses


def _loaded_solver(holes: int) -> Solver:
    num_vars, clauses = pigeonhole_cnf(holes)
    solver = Solver()
    solver.ensure_vars(num_vars)
    for clause in clauses:
        assert solver.add_clause(clause)
    return solver


class TestBudgetObject:
    def test_coerce(self):
        assert Budget.coerce(None) is None
        b = Budget(sat_conflicts=5)
        assert Budget.coerce(b) is b
        b2 = Budget.coerce(2.5)
        assert b2.wall_seconds == 2.5
        assert b2.sat_conflicts is None

    def test_unlimited(self):
        assert Budget().unlimited
        assert not Budget(wall_seconds=1).unlimited
        assert not Budget(sat_propagations=10).unlimited

    def test_lazy_clock_and_remaining(self):
        b = Budget(wall_seconds=10.0)
        assert b._deadline is None  # clock not started at construction
        remaining = b.remaining()
        assert remaining is not None and 9.0 < remaining <= 10.0
        assert not b.expired()
        assert Budget().remaining() is None

    def test_zero_budget_is_expired(self):
        b = Budget(wall_seconds=0.0)
        assert b.expired()
        with pytest.raises(BudgetExceededError) as info:
            b.check("unit test")
        assert info.value.reason == REASON_TIMEOUT
        assert "unit test" in str(info.value)

    def test_start_is_idempotent(self):
        b = Budget(wall_seconds=5.0).start()
        deadline = b.deadline
        time.sleep(0.01)
        assert b.start().deadline == deadline

    def test_slice_inherits_caps_and_clips_deadline(self):
        parent = Budget(
            wall_seconds=10.0, sat_conflicts=100, sat_propagations=1000
        ).start()
        child = parent.slice(4)
        assert child.sat_conflicts == 100
        assert child.sat_propagations == 1000
        share = child.remaining()
        assert share is not None and share <= 10.0 / 4 + 0.01
        assert child.deadline <= parent.deadline

    def test_slice_of_untimed_budget_is_a_copy(self):
        child = Budget(sat_conflicts=7).slice(3)
        assert child.sat_conflicts == 7
        assert child.remaining() is None

    def test_reason_codes_are_stable(self):
        assert {
            "timeout",
            "conflict-limit",
            "propagation-limit",
            "bdd-blowup",
            "worker-failure",
        } <= KNOWN_REASONS


class TestSolverBudgets:
    def test_unbudgeted_php_is_unsat(self):
        solver = _loaded_solver(4)
        result = solver.solve()
        assert not result.satisfiable
        assert not solver.last_unknown
        assert solver.last_unknown_reason is None

    def test_conflict_limit_reports_reason(self):
        solver = _loaded_solver(6)
        result = solver.solve(conflict_limit=3)
        assert not result.satisfiable
        assert solver.last_unknown
        assert solver.last_unknown_reason == REASON_CONFLICT_LIMIT

    def test_propagation_limit_reports_reason(self):
        solver = _loaded_solver(6)
        result = solver.solve(propagation_limit=10)
        assert not result.satisfiable
        assert solver.last_unknown
        assert solver.last_unknown_reason == REASON_PROPAGATION_LIMIT

    def test_expired_deadline_returns_immediately(self):
        solver = _loaded_solver(6)
        t0 = time.monotonic()
        solver.solve(deadline=time.monotonic() - 1.0)
        assert time.monotonic() - t0 < 0.1
        assert solver.last_unknown
        assert solver.last_unknown_reason == REASON_TIMEOUT

    def test_mid_search_deadline_stops_promptly(self):
        solver = _loaded_solver(8)  # minutes of CDCL without a budget
        window = 0.2
        t0 = time.monotonic()
        solver.solve(deadline=time.monotonic() + window)
        elapsed = time.monotonic() - t0
        assert solver.last_unknown
        assert solver.last_unknown_reason == REASON_TIMEOUT
        assert elapsed < window * 2 + 0.2  # the ~2x-budget return contract

    def test_limit_never_degrades_a_finished_answer(self):
        # PHP(5,4) refutes in 28 conflicts, so a limit the search finishes
        # within must not turn the real UNSAT into UNKNOWN.  (A limit
        # *below* the finishing cost now correctly reports UNKNOWN — the
        # limit is exact, no longer checked only at restart boundaries.)
        solver = _loaded_solver(4)
        result = solver.solve(conflict_limit=64)
        assert not result.satisfiable
        assert not solver.last_unknown

    def test_limit_below_finishing_cost_is_unknown(self):
        solver = _loaded_solver(4)
        result = solver.solve(conflict_limit=1)
        assert not result.satisfiable
        assert solver.last_unknown
        assert solver.last_unknown_reason == REASON_CONFLICT_LIMIT
        assert solver.last_call_stats["conflicts"] <= 1

    def test_unknown_state_clears_on_next_solve(self):
        solver = _loaded_solver(6)
        solver.solve(conflict_limit=3)
        assert solver.last_unknown
        result = solver.solve()
        assert not result.satisfiable
        assert not solver.last_unknown
        assert solver.last_unknown_reason is None


def _xor_tower(manager: BDD, n: int) -> int:
    node = manager.add_var("x0")
    for i in range(1, n):
        node = manager.apply_xor(node, manager.add_var(f"x{i}"))
    return node


class TestBddNodeLimit:
    def test_blowup_raises_catchable_error(self):
        manager = BDD(node_limit=20)
        with pytest.raises(BddBlowupError) as info:
            _xor_tower(manager, 32)
        assert info.value.reason == REASON_BDD_BLOWUP
        assert info.value.limit == 20
        assert info.value.nodes >= 20

    def test_limit_can_be_lifted(self):
        manager = BDD(node_limit=10)
        manager.set_node_limit(None)
        _xor_tower(manager, 32)  # must not raise

    def test_generous_limit_is_inert(self):
        manager = BDD(node_limit=10_000)
        a = manager.add_var("a")
        b = manager.add_var("b")
        assert manager.apply_xor(a, b) == manager.apply_xor(a, b)


class TestRetry:
    def test_success_first_try(self):
        result, error, retries = run_with_retries(lambda: 42)
        assert (result, error, retries) == (42, None, 0)

    def test_transient_failure_then_success(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient")
            return "ok"

        result, error, retries = run_with_retries(
            flaky, attempts=3, backoff_seconds=0.0
        )
        assert result == "ok"
        assert error is None
        assert retries == 1

    def test_persistent_failure_returns_last_error(self):
        def broken():
            raise ValueError("always")

        result, error, retries = run_with_retries(
            broken, attempts=3, backoff_seconds=0.0
        )
        assert result is None
        assert isinstance(error, ValueError)
        assert retries == 2

    def test_deadline_blocks_reattempts(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("always")

        run_with_retries(
            broken,
            attempts=5,
            backoff_seconds=0.0,
            deadline=time.monotonic() - 1.0,
        )
        assert len(calls) == 1  # first attempt always runs, retries blocked

    def test_keyboard_interrupt_propagates(self):
        def interrupted():
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_with_retries(interrupted, attempts=3)
