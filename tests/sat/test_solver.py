"""CDCL solver tests: unit, brute-force cross-checks, classics."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.budget import REASON_CONFLICT_LIMIT
from repro.sat.cnf import CNF
from repro.sat.solver import Solver


def brute_force(n, clauses):
    for bits in itertools.product([False, True], repeat=n):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in cl) for cl in clauses):
            return True
    return False


def random_instance(rng, n_max=8, m_max=25):
    n = rng.randint(1, n_max)
    m = rng.randint(1, m_max)
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(3, n))
        vs = rng.sample(range(1, n + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return n, clauses


class TestBasics:
    def test_empty_problem_sat(self):
        assert Solver().solve().satisfiable

    def test_unit_propagation(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1, 2])
        r = s.solve()
        assert r.satisfiable and r.model[1] and r.model[2]

    def test_contradiction(self):
        s = Solver()
        s.add_clause([1])
        assert not s.add_clause([-1])
        assert not s.solve().satisfiable

    def test_tautological_clause_ignored(self):
        s = Solver()
        assert s.add_clause([1, -1])
        assert s.solve().satisfiable

    def test_duplicate_literals(self):
        s = Solver()
        s.add_clause([1, 1, 2])
        assert s.solve().satisfiable

    def test_model_satisfies(self):
        s = Solver()
        clauses = [[1, 2, 3], [-1, -2], [-2, -3], [2]]
        for cl in clauses:
            s.add_clause(cl)
        r = s.solve()
        assert r.satisfiable
        for cl in clauses:
            assert any(r.model[abs(l)] == (l > 0) for l in cl)


class TestAssumptions:
    def test_assumption_forces_value(self):
        s = Solver()
        s.add_clause([1, 2])
        r = s.solve(assumptions=[-1])
        assert r.satisfiable and r.model[2]

    def test_conflicting_assumptions(self):
        s = Solver()
        s.add_clause([1, 2])
        assert not s.solve(assumptions=[-1, -2]).satisfiable

    def test_incremental_reuse(self):
        s = Solver()
        s.add_clause([1, 2])
        s.add_clause([-1, 3])
        assert not s.solve(assumptions=[-2, -3]).satisfiable
        assert s.solve(assumptions=[-2]).satisfiable
        assert s.solve().satisfiable

    def test_assumption_of_fresh_variable(self):
        s = Solver()
        s.add_clause([1])
        r = s.solve(assumptions=[5])
        assert r.satisfiable and r.model[5]


class TestZeroLiteral:
    """Literal 0 is DIMACS's clause terminator, not a variable.  The solver
    indexes by ``abs(lit) - 1``, so a 0 would alias the last variable; it
    is rejected as :meth:`CNF.add_clause` rejects it."""

    def test_add_clause_rejects_zero(self):
        s = Solver()
        with pytest.raises(ValueError):
            s.add_clause([0, 1])
        assert s.export_clauses() == []

    def test_zero_assumption_rejected(self):
        # x2 is false at the root, and _assign[-1] is x2's slot.
        s = Solver()
        s.add_clause([1, 2])
        s.add_clause([-2])
        with pytest.raises(ValueError):
            s.solve(assumptions=[0])
        with pytest.raises(ValueError):
            s.root_value(0)
        assert s.solve(assumptions=[1]).satisfiable


class TestCrossCheck:
    @pytest.mark.parametrize("seed", range(30))
    def test_random_vs_brute_force(self, seed):
        rng = random.Random(seed)
        n, clauses = random_instance(rng)
        s = Solver()
        ok = True
        for cl in clauses:
            if not s.add_clause(cl):
                ok = False
                break
        got = s.solve().satisfiable if ok else False
        assert got == brute_force(n, clauses)

    def test_pigeonhole_unsat(self):
        def php(p, h):
            s = Solver()
            v = lambda i, j: i * h + j + 1
            s.ensure_vars(p * h)
            for i in range(p):
                s.add_clause([v(i, j) for j in range(h)])
            for j in range(h):
                for i1 in range(p):
                    for i2 in range(i1 + 1, p):
                        s.add_clause([-v(i1, j), -v(i2, j)])
            return s.solve()

        assert not php(5, 4).satisfiable
        assert php(4, 4).satisfiable

    def test_xor_chain_unsat(self):
        """x1 ^ x2, x2 ^ x3, ..., with odd parity constraint — unsat."""
        s = Solver()
        n = 8
        for i in range(1, n):
            # xi != xi+1
            s.add_clause([i, i + 1])
            s.add_clause([-i, -(i + 1)])
        # force x1 == xn, contradicting alternation for even n
        s.add_clause([1, -n])
        s.add_clause([-1, n])
        assert not s.solve().satisfiable

    def test_conflict_limit_reports_unknown(self):
        s = Solver()
        # A moderately hard unsat instance with a tiny budget.
        p, h = 7, 6
        v = lambda i, j: i * h + j + 1
        s.ensure_vars(p * h)
        for i in range(p):
            s.add_clause([v(i, j) for j in range(h)])
        for j in range(h):
            for i1 in range(p):
                for i2 in range(i1 + 1, p):
                    s.add_clause([-v(i1, j), -v(i2, j)])
        r = s.solve(conflict_limit=5)
        assert not r.satisfiable
        assert s.last_unknown


class TestCNF:
    def test_dimacs_roundtrip(self):
        cnf = CNF()
        a, b = cnf.new_var(), cnf.new_var()
        cnf.add_clause([a, -b])
        cnf.add_clause([b])
        text = cnf.to_dimacs()
        back = CNF.from_dimacs(text)
        assert back.num_vars == 2
        assert back.clauses == [(1, -2), (2,)]

    def test_rejects_zero_literal(self):
        cnf = CNF(2)
        with pytest.raises(ValueError):
            cnf.add_clause([0])

    def test_rejects_out_of_range(self):
        cnf = CNF(1)
        with pytest.raises(ValueError):
            cnf.add_clause([5])

    def test_extend_from(self):
        a = CNF(2)
        a.add_clause([1, -2])
        b = CNF(1)
        b.add_clause([-1])
        a.extend_from(b, offset=2)
        assert a.num_vars == 3
        assert a.clauses[-1] == (-3,)


def _pigeonhole_solver(holes: int) -> Solver:
    """PHP(holes+1, holes): UNSAT with no short proof — reliably hard."""
    pigeons = holes + 1

    def var(i: int, j: int) -> int:
        return i * holes + j + 1

    solver = Solver()
    solver.ensure_vars(pigeons * holes)
    for i in range(pigeons):
        assert solver.add_clause([var(i, j) for j in range(holes)])
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                assert solver.add_clause([-var(i, j), -var(k, j)])
    return solver


class TestConflictLimitContract:
    """conflict_limit is exact: stop *at* the limit, never beyond it."""

    @pytest.mark.parametrize("limit", [1, 8, 30])
    def test_limit_is_never_overrun(self, limit):
        # The historical bug: limits were only checked at restart
        # boundaries, whose Luby budgets have a floor of 64 conflicts, so
        # conflict_limit=8 could burn 64+ conflicts before reporting.
        solver = _pigeonhole_solver(6)
        result = solver.solve(conflict_limit=limit)
        assert solver.last_call_stats["conflicts"] <= limit
        if solver.last_unknown:
            assert solver.last_unknown_reason == REASON_CONFLICT_LIMIT
            assert not result.satisfiable
            assert result.model is None

    def test_limit_eight_reports_conflict_limit(self):
        solver = _pigeonhole_solver(6)
        result = solver.solve(conflict_limit=8)
        assert not result.satisfiable
        assert solver.last_unknown
        assert solver.last_unknown_reason == REASON_CONFLICT_LIMIT
        assert solver.last_call_stats["conflicts"] <= 8

    def test_limit_spanning_restarts_accumulates(self):
        # A limit above one Luby window (64) must still be exact across
        # the restart boundary.
        solver = _pigeonhole_solver(7)
        solver.solve(conflict_limit=100)
        assert solver.last_call_stats["conflicts"] <= 100

    def test_limit_zero_is_immediate_unknown(self):
        solver = _pigeonhole_solver(6)
        result = solver.solve(conflict_limit=0)
        assert not result.satisfiable
        assert solver.last_unknown
        assert solver.last_unknown_reason == REASON_CONFLICT_LIMIT
        assert solver.last_call_stats["conflicts"] == 0


class TestInstanceState:
    """Per-call state is per-instance, never shared across solvers."""

    def test_last_call_stats_not_shared(self):
        a, b = Solver(), Solver()
        assert a.last_call_stats is not b.last_call_stats
        a.add_clause([1, 2])
        a.solve()
        assert a.last_call_stats["decisions"] >= 0
        assert b.last_call_stats == {}

    def test_unknown_flags_not_shared(self):
        limited = _pigeonhole_solver(6)
        fresh = Solver()
        limited.solve(conflict_limit=1)
        assert limited.last_unknown
        assert not fresh.last_unknown
        assert fresh.last_unknown_reason is None

    def test_sat_model_covers_only_assigned_vars(self):
        # ensure_vars can grow the tables past what the clauses constrain;
        # the model must not invent False for untouched variables.
        s = Solver()
        s.add_clause([1])
        result = s.solve()
        assert result.satisfiable
        assert result.model is not None
        assert result.model[1] is True
        assert all(v in (True, False) for v in result.model.values())

    def test_results_report_cumulative_totals(self):
        s = _pigeonhole_solver(4)
        r1 = s.solve()
        r2 = s.solve()
        # Cumulative solver totals grow monotonically across calls...
        assert r2.conflicts >= r1.conflicts
        assert r2.propagations >= r1.propagations
        # ...while per-call effort lives in last_call_stats.
        assert s.last_call_stats["conflicts"] == r2.conflicts - r1.conflicts


class TestAssumptionCores:
    """Final-conflict analysis: ``SATResult.core`` on UNSAT answers."""

    def test_sat_has_no_core(self):
        s = Solver()
        s.add_clause([1, 2])
        r = s.solve(assumptions=[1])
        assert r.satisfiable and r.core is None

    def test_formula_unsat_gives_empty_core(self):
        s = Solver()
        s.add_clause([1])
        s.add_clause([-1])
        r = s.solve(assumptions=[2, 3])
        assert not r.satisfiable
        assert r.core == []

    def test_contradictory_assumptions(self):
        s = Solver()
        s.ensure_vars(1)
        r = s.solve(assumptions=[1, -1])
        assert not r.satisfiable
        assert sorted(r.core) == [-1, 1]

    def test_root_false_assumption_is_singleton_core(self):
        s = Solver()
        s.add_clause([-1])
        r = s.solve(assumptions=[1])
        assert not r.satisfiable
        assert r.core == [1]

    def test_core_excludes_irrelevant_assumptions(self):
        # 1 -> 2 -> ... -> 5; assuming 1 and -5 is UNSAT, assuming 6 is
        # idle decoration the refutation never touches.
        s = Solver()
        for v in range(1, 5):
            s.add_clause([-v, v + 1])
        s.ensure_vars(6)
        r = s.solve(assumptions=[6, 1, -5])
        assert not r.satisfiable
        assert r.core is not None
        assert set(r.core) <= {1, -5}
        assert set(r.core) == {1, -5}  # both really needed here

    def test_core_is_subset_and_unsat_on_its_own(self):
        s = Solver()
        s.add_clause([-1, -2])
        r = s.solve(assumptions=[3, 1, 2])
        assert not r.satisfiable
        core = r.core
        assert core is not None and set(core) <= {3, 1, 2}
        # The core alone must already be refutable.
        s2 = Solver()
        s2.add_clause([-1, -2])
        assert not s2.solve(assumptions=core).satisfiable

    def test_any_superset_of_core_stays_unsat(self):
        s = Solver()
        s.add_clause([-1, -2])
        core = s.solve(assumptions=[1, 2]).core
        assert core is not None
        assert not s.solve(assumptions=core + [3, -4]).satisfiable

    def test_incremental_cores_across_calls(self):
        s = Solver()
        s.add_clause([1, 2])
        assert s.solve(assumptions=[-1]).satisfiable
        s.add_clause([-2])
        r = s.solve(assumptions=[-1])
        assert not r.satisfiable
        assert r.core == [-1]
        # Formula-level UNSAT after one more unit: empty core.
        s.add_clause([-1])
        assert s.solve(assumptions=[-1]).core == []


class TestPhaseSavingUnderAssumptions:
    """Assumption pseudo-decisions must not pollute saved phases."""

    def test_assumptions_leave_saved_phases_alone(self):
        # 1 <-> 2, plus 1 -> (3 and -3) so assuming 1 is always UNSAT.
        s = Solver()
        for cl in ([-1, 2], [1, -2], [-1, 3], [-1, -3]):
            s.add_clause(cl)
        assert s.solve().satisfiable
        saved = list(s._phase)
        # Two-direction EQ query on the pair (1, 2): both UNSAT.
        assert not s.solve(assumptions=[-1, 2]).satisfiable
        assert not s.solve(assumptions=[1, -2]).satisfiable
        assert list(s._phase) == saved

    def test_decisions_do_not_regress_after_eq_query(self):
        # Regression for the phase-pollution bug: the second direction's
        # assumption 1=True used to overwrite var 1's saved phase, so the
        # follow-up model search re-decided 1=True, hit the 3/-3 conflict
        # it had already avoided, and paid an extra conflict + decision.
        s = Solver()
        for cl in ([-1, 2], [1, -2], [-1, 3], [-1, -3]):
            s.add_clause(cl)
        r_first = s.solve()
        assert r_first.satisfiable
        first_decisions = s.last_call_stats["decisions"]
        assert not s.solve(assumptions=[-1, 2]).satisfiable
        assert not s.solve(assumptions=[1, -2]).satisfiable
        r_final = s.solve()
        assert r_final.satisfiable
        assert s.last_call_stats["conflicts"] == 0
        assert s.last_call_stats["decisions"] <= first_decisions
