"""Differential solver fuzz: incremental solve() sequences vs enumeration.

Each seed builds a small random CNF and drives one Solver instance
through a sequence of incremental queries — random assumption sets,
occasional mid-sequence clause additions, and occasional tiny conflict
limits.  Every decided answer is cross-checked against exhaustive
enumeration; every UNSAT core is checked for soundness (a subset of the
assumptions that is UNSAT on its own) and for being no wider than the
assumption set.  A final pass cross-checks ``export_clauses``, the
round trip every sweep unit's CNF slice makes: a fresh solver loaded
with the first solver's exported root state (root-level units, derived
ones included, plus the original clauses) must still agree with
enumeration on every query, and a scoped export is exactly the full
export's clauses inside the scope.

The bulk loader ``add_clauses`` is held to one ``add_clause`` call per
clause on messy input (units, repeated and complementary literals,
literals already decided at the root, a clause that makes the formula
UNSAT, a literal 0): the two solvers must hold the same clauses, watch
lists and root trail, and answer every later query the same way, down
to its effort counts, core and model.

Deterministically seeded and small (n <= 6 variables) so the whole
module stays well under the CI smoke budget.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.sat.solver import Solver
from tests.sat.test_solver_trajectory import _call


def enum_sat(n, clauses, assumptions=()):
    """Exhaustive satisfiability of ``clauses`` under unit assumptions."""
    constraints = list(clauses) + [[lit] for lit in assumptions]
    for bits in itertools.product([False, True], repeat=n):
        if all(
            any(bits[abs(l) - 1] == (l > 0) for l in cl)
            for cl in constraints
        ):
            return True
    return False


def random_clauses(rng, n, m):
    clauses = []
    for _ in range(m):
        k = rng.randint(1, min(3, n))
        vs = rng.sample(range(1, n + 1), k)
        clauses.append([v if rng.random() < 0.5 else -v for v in vs])
    return clauses


def random_assumptions(rng, n):
    k = rng.randint(0, n)
    vs = rng.sample(range(1, n + 1), k)
    return [v if rng.random() < 0.5 else -v for v in vs]


def check_core(n, clauses, assumptions, core):
    """Cores are subsets of the assumptions, UNSAT on their own, and
    never wider than what was assumed."""
    assert core is not None
    assert set(core) <= set(assumptions)
    assert len(core) <= len(assumptions)
    assert not enum_sat(n, clauses, core)


@pytest.mark.parametrize("seed", range(40))
def test_incremental_sequences_match_enumeration(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    clauses = random_clauses(rng, n, rng.randint(2, 18))
    s = Solver()
    s.ensure_vars(n)
    ok = all(s.add_clause(cl) for cl in clauses)
    for _ in range(6):
        if rng.random() < 0.3:
            extra = random_clauses(rng, n, 1)[0]
            clauses.append(extra)
            ok = s.add_clause(extra) and ok
        assumptions = random_assumptions(rng, n)
        limit = 2 if rng.random() < 0.2 else None
        r = s.solve(assumptions=assumptions, conflict_limit=limit)
        if s.last_unknown:
            continue  # limited call gave up: nothing to cross-check
        expected = enum_sat(n, clauses, assumptions)
        assert r.satisfiable == expected
        if r.satisfiable:
            assert r.core is None
            model = r.model
            # The model satisfies every clause and every assumption.
            for cl in clauses:
                assert any(model.get(abs(l), l < 0) == (l > 0) for l in cl)
            for lit in assumptions:
                assert model.get(abs(lit)) == (lit > 0)
        else:
            check_core(n, clauses, assumptions, r.core)
            if not enum_sat(n, clauses):
                assert r.core == []
    assert ok == enum_sat(n, clauses) or not ok


@pytest.mark.parametrize("seed", range(15))
def test_export_import_preserves_answers(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(3, 6)
    clauses = random_clauses(rng, n, rng.randint(6, 20))
    donor = Solver()
    donor.ensure_vars(n)
    for cl in clauses:
        donor.add_clause(cl)
    for _ in range(4):  # learn, and derive some root-level units
        donor.solve(assumptions=random_assumptions(rng, n))
    exported = donor.export_clauses()

    recipient = Solver()
    recipient.ensure_vars(n)
    for cl in exported:
        recipient.add_clause(cl)
    for _ in range(6):
        assumptions = random_assumptions(rng, n)
        r = recipient.solve(assumptions=assumptions)
        expected = enum_sat(n, clauses, assumptions)
        assert r.satisfiable == expected
        if not r.satisfiable:
            check_core(n, clauses, assumptions, r.core)


@pytest.mark.parametrize("seed", range(10))
def test_scoped_export_stays_inside_variable_slice(seed):
    rng = random.Random(2000 + seed)
    n = 6
    clauses = random_clauses(rng, n, 20)
    s = Solver()
    s.ensure_vars(n)
    for cl in clauses:
        s.add_clause(cl)
    for _ in range(4):
        s.solve(assumptions=random_assumptions(rng, n))
    scope = {1, 2, 3}
    scoped = s.export_clauses(variables=scope)
    for cl in scoped:
        assert {abs(l) for l in cl} <= scope
    assert scoped == [
        cl for cl in s.export_clauses() if {abs(l) for l in cl} <= scope
    ]


def messy_clauses(rng, n, m):
    """Clauses as loaders meet them, not as a generator would write them.

    Units (about one clause in eight) decide literals at the root, so
    later clauses hold literals already true or false there; some
    clauses repeat a literal or hold one with its complement; sometimes
    a later clause contradicts an earlier unit, or is empty, and makes
    the formula UNSAT.
    """
    clauses = []
    for _ in range(m):
        width = 1 if rng.random() < 0.125 else rng.randint(2, 4)
        lits = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(width)]
        roll = rng.random()
        if roll < 0.15:
            lits.insert(rng.randrange(len(lits) + 1), rng.choice(lits))
        elif roll < 0.25:
            lits.insert(rng.randrange(len(lits) + 1), -rng.choice(lits))
        clauses.append(lits)
    units = [i for i, cl in enumerate(clauses) if len(cl) == 1]
    if units and rng.random() < 0.3:
        i = rng.choice(units)
        clauses.insert(rng.randint(i + 1, len(clauses)), [-clauses[i][0]])
    if rng.random() < 0.1:
        clauses.insert(rng.randrange(len(clauses) + 1), [])
    return clauses


def load_one_by_one(clauses):
    """One ``add_clause`` per clause, stopping at the first False."""
    solver = Solver()
    try:
        return solver, all(solver.add_clause(clause) for clause in clauses)
    except ValueError as exc:
        return solver, str(exc)


def load_in_bulk(clauses):
    """One ``add_clauses`` call."""
    solver = Solver()
    try:
        return solver, solver.add_clauses(clauses)
    except ValueError as exc:
        return solver, str(exc)


def loaded_state(solver):
    return (
        solver._num_vars,
        solver._ok,
        solver._clauses,
        solver._watches,
        solver._trail,
        solver._trail_lim,
    )


@pytest.mark.parametrize("seed", range(60))
def test_bulk_load_matches_one_clause_at_a_time(seed):
    rng = random.Random(3000 + seed)
    n = rng.randint(3, 9)
    clauses = messy_clauses(rng, n, rng.randint(4, 20))
    if rng.random() < 0.15:
        clauses.insert(rng.randrange(len(clauses) + 1), [rng.randint(1, n), 0])
    single, single_ok = load_one_by_one(clauses)
    bulk, bulk_ok = load_in_bulk(clauses)
    assert bulk_ok == single_ok
    # The same clauses loaded: on a literal 0, those before its clause.
    assert loaded_state(bulk) == loaded_state(single)
    if single_ok is not True:
        if single_ok is False:
            assert bulk.solve().core == single.solve().core == []
        return
    for _ in range(6):
        assumptions = random_assumptions(rng, n)
        limit = 1 if rng.random() < 0.2 else None
        # Answer, unknown reason, effort, core and model digest.
        assert _call(bulk, assumptions, conflict_limit=limit) == _call(
            single, assumptions, conflict_limit=limit
        )
    # Searching moves literals inside the clauses, in step on both.
    assert loaded_state(bulk) == loaded_state(single)


def root_simplified(clause, true_at_root):
    """What the root rules keep of ``clause``; None when it is dropped."""
    kept = []
    for lit in clause:
        if lit in true_at_root:
            return None
        if -lit in true_at_root or lit in kept:
            continue
        if -lit in kept:
            return None
        kept.append(lit)
    return kept


@pytest.mark.parametrize("seed", range(30))
def test_root_rules_hold_on_long_repetitive_clauses(seed):
    """Units, then clauses of 2 to 30 literals over few variables, each
    variable mostly in one phase: long clauses repeat literals, some hold
    a complement, and later ones meet literals decided at the root.  Each
    simplifies to what the rules say."""
    rng = random.Random(4000 + seed)
    n = rng.randint(8, 16)
    phase = {v: rng.choice((1, -1)) for v in range(1, n + 1)}
    solver = Solver()
    for _ in range(14):
        width = rng.choice((1, 2, 3, 5, 8, 9, 12, 20, 30))
        clause = [
            v * phase[v] * (-1 if rng.random() < 0.04 else 1)
            for v in (rng.randint(1, n) for _ in range(width))
        ]
        expected = root_simplified(clause, set(solver._trail))
        stored, trail = list(solver._clauses), list(solver._trail)
        ok = solver.add_clause(clause)
        if expected is None:
            assert ok and (solver._clauses, solver._trail) == (stored, trail)
        elif len(expected) > 1:
            assert ok and solver._clauses == stored + [expected]
        elif not expected:
            assert not ok
            return
        else:
            assert solver._clauses == stored
            assert solver._trail[len(trail)] == expected[0]
            if not ok:
                return
