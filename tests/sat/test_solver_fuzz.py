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

Deterministically seeded and small (n <= 6 variables) so the whole
module stays well under the CI smoke budget.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.sat.solver import Solver


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
