"""Assumption-core retirement in the sweep and its units.

Pins the guarantees:

* :class:`~repro.sat.cores.CoreIndex` subsumption semantics — the empty
  core retires everything, singletons retire by membership, wide cores
  by subset, and ``core_retires`` records root-false assumptions;
* stuck-at-constant signature classes retire sweep queries without a
  solver call (``cec.sat.core_retired`` > 0) while the verdict is
  untouched;
* a sweep unit fed ``known_cores`` retires at least as much as a cold
  one and answers identically;
* a unit's cores come home in the *parent* variable space.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cec import SAT_PORTFOLIO, CecOptions
from repro.cec.engine import (
    CecVerdict,
    _class_candidates,
    _initial_signatures,
    _signature_classes,
    check_equivalence,
)
from repro.cec.miter import build_miter
from repro.cec.parallel import sweep_unit_payloads, sweep_units
from repro.cec.partition import partition_candidates
from repro.netlist.build import CircuitBuilder
from repro.sat.cores import CoreIndex, core_retires
from repro.sat.solver import Solver


def hidden_const_circuit(name, decorated):
    """``o = core [OR two hidden stuck-at-0 nodes]``.

    The constant cones are ``(a AND d) AND (NOT a AND d)`` — semantically
    0 but invisible to structural hashing, so with ``preprocess=False``
    they survive into the sweep and join the constant signature class.
    """
    b = CircuitBuilder(name)
    a, x, d, e, f = b.inputs("a", "x", "d", "e", "f")
    core = b.XOR(b.AND(d, e), f)
    if decorated:
        z1 = b.AND(b.AND(a, d), b.AND(b.NOT(a), d))
        z2 = b.AND(b.AND(x, e), b.AND(b.NOT(x), e))
        o = b.OR(b.OR(z1, z2), core)
    else:
        o = core
    b.output(o, name="o")
    return b.circuit


_LITERAL = st.integers(-6, 6).filter(bool)


class TestCoreIndex:
    def test_empty_core_retires_everything(self):
        idx = CoreIndex()
        idx.add([])
        assert idx.subsumed([]) and idx.subsumed([5, -7])

    def test_singleton_membership(self):
        idx = CoreIndex()
        idx.add([3])
        assert idx.subsumed([1, 3])
        assert not idx.subsumed([1, -3])

    def test_wide_core_subset(self):
        idx = CoreIndex()
        idx.add([2, -4])
        assert idx.subsumed([2, -4, 9])
        assert not idx.subsumed([2, 4, 9])

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(st.just("add"), st.lists(_LITERAL, max_size=4)),
                st.tuples(st.just("ask"), st.lists(_LITERAL, max_size=9)),
            ),
            max_size=40,
        )
    )
    def test_matches_linear_scan(self, ops):
        """Interleaved adds of empty, singleton and wide cores answer every
        lookup as a scan over all cores does, also after an export."""
        idx = CoreIndex()
        cores = []
        asked = []
        for op, lits in ops:
            if op == "add":
                idx.add(lits)
                cores.append(frozenset(lits))
            else:
                aset = set(lits)
                assert idx.subsumed(lits) == any(core <= aset for core in cores)
                asked.append(lits)
        clone = CoreIndex()
        clone.add_many(idx.export())
        for lits in asked:
            assert clone.subsumed(lits) == idx.subsumed(lits)

    def test_duplicates_collapse(self):
        idx = CoreIndex()
        idx.add([1, 2])
        idx.add([2, 1])
        assert len(idx) == 1

    def test_export_round_trips(self):
        idx = CoreIndex()
        idx.add_many([[3], [1, -2], []])
        clone = CoreIndex()
        clone.add_many(idx.export())
        assert clone.subsumed([3, 7])
        assert clone.subsumed([])  # the empty core survived the trip

    def test_core_retires_records_root_false(self):
        s = Solver()
        s.add_clause([-1])
        s.solve()
        idx = CoreIndex()
        assert core_retires(s, idx, [1, 2])
        # The singleton was recorded: the next check needs no solver.
        assert idx.subsumed([1, 5])

    def test_none_index_never_retires(self):
        s = Solver()
        s.add_clause([-1])
        s.solve()
        assert not core_retires(s, None, [1])


class TestConstantClassRetirement:
    def test_constant_class_queries_retired(self):
        # Name the SAT portfolio: the truth-table phase of a default
        # check would decide this pair before the sweep.
        r = check_equivalence(
            hidden_const_circuit("l", True),
            hidden_const_circuit("r", False),
            CecOptions(preprocess=False, engines=SAT_PORTFOLIO),
        )
        assert r.verdict is CecVerdict.EQUIVALENT
        assert r.stats["core_retired"] >= 1
        # Retired directions were never solved, so the query count stays
        # below what two directions per candidate would cost.
        assert r.stats["sat_queries"] < 2 * r.stats["sweep_candidates"] + 2


def _unit_payloads(c1, c2, **payload_kwargs):
    """Payloads for the miter's sweep units (test scaffolding)."""
    m = build_miter(c1, c2)
    solver = Solver()
    solver.ensure_vars(m.aig.num_nodes())
    assert solver.add_clauses(m.aig.cnf_clauses())
    signatures, mask = _initial_signatures(m.aig, 4, 64, 0)
    classes = _signature_classes(signatures, mask, range(m.aig.num_nodes()))
    units = partition_candidates(
        m.aig, _class_candidates(m.aig, classes, signatures)
    )
    assert units
    return solver, sweep_unit_payloads(solver, units, 2000, **payload_kwargs)


class TestWorkerSharing:
    def test_known_cores_retire_in_worker(self):
        c1 = hidden_const_circuit("l", True)
        c2 = hidden_const_circuit("r", False)
        _, payloads = _unit_payloads(c1, c2)
        cold = sweep_units(payloads)
        retired_cold = sum(result.core_retired for result in cold)
        assert retired_cold >= 1  # constant-class directions retire cold
        # A second pass fed the harvested cores answers identically and
        # retires at least as much.
        cores = [core for result in cold for core in result.cores]
        _, payloads = _unit_payloads(c1, c2, known_cores=cores)
        warm = sweep_units(payloads)
        for result, expected in zip(warm, cold):
            assert result.statuses == expected.statuses
        assert sum(result.core_retired for result in warm) >= retired_cold

    def test_worker_extras_come_home_in_parent_space(self):
        c1 = hidden_const_circuit("l", True)
        c2 = hidden_const_circuit("r", False)
        solver, payloads = _unit_payloads(c1, c2)
        results = sweep_units(payloads)
        assert any(result.cores for result in results)
        for result in results:
            for lits in result.cores:
                for lit in lits:
                    assert 1 <= abs(lit) <= solver._num_vars
