"""Assumption-core retirement and cross-worker clause sharing (PR 10).

Pins the tentpole's guarantees:

* :class:`~repro.sat.cores.CoreIndex` subsumption semantics — the empty
  core retires everything, singletons retire by membership, wide cores
  by subset, and ``core_retires`` records root-false assumptions;
* stuck-at-constant signature classes retire sweep queries without a
  solver call (``cec.sat.core_retired`` > 0) while the verdict and the
  serial/parallel identity are untouched;
* a worker fed ``known_cores`` retires at least as much as a cold one
  and answers identically; a worker fed valid ``shared_clauses``
  imports them and still answers identically;
* worker extras (learned clauses, cores) come home in the *parent*
  variable space;
* ``share_learned=False`` changes no verdict, serially or in parallel.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.random_circuits import random_combinational
from repro.cec import CecOptions
from repro.cec.engine import (
    CecVerdict,
    _class_candidates,
    _initial_signatures,
    _signature_classes,
    check_equivalence,
)
from repro.cec.miter import build_miter
from repro.cec.parallel import _sweep_unit_worker, sweep_unit_payloads
from repro.cec.partition import partition_candidates
from repro.netlist.build import CircuitBuilder
from repro.sat.cores import CoreIndex, core_retires
from repro.sat.solver import Solver
from repro.synth.script import script_delay


def xor_chain(n, name="chain"):
    b = CircuitBuilder(name)
    xs = b.inputs(*[f"x{i}" for i in range(n)])
    acc = xs[0]
    for x in xs[1:]:
        acc = b.XOR(acc, x)
    b.output(acc, name="o")
    return b.circuit


def xor_tree(n, name="tree"):
    b = CircuitBuilder(name)
    xs = list(b.inputs(*[f"x{i}" for i in range(n)]))
    while len(xs) > 1:
        nxt = [b.XOR(xs[i], xs[i + 1]) for i in range(0, len(xs) - 1, 2)]
        if len(xs) % 2:
            nxt.append(xs[-1])
        xs = nxt
    b.output(xs[0], name="o")
    return b.circuit


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
        r = check_equivalence(
            hidden_const_circuit("l", True),
            hidden_const_circuit("r", False),
            CecOptions(preprocess=False),
        )
        assert r.verdict is CecVerdict.EQUIVALENT
        assert r.stats["core_retired"] >= 1
        # Retired directions were never solved, so the query count stays
        # below what two directions per candidate would cost.
        assert r.stats["sat_queries"] < 2 * r.stats["sweep_candidates"] + 2

    def test_retirement_identical_in_parallel(self):
        options = CecOptions(preprocess=False)
        serial = check_equivalence(
            hidden_const_circuit("l", True),
            hidden_const_circuit("r", False),
            options,
        )
        parallel = check_equivalence(
            hidden_const_circuit("l", True),
            hidden_const_circuit("r", False),
            options,
            n_jobs=2,
        )
        assert serial.verdict is parallel.verdict is CecVerdict.EQUIVALENT
        assert parallel.stats["core_retired"] >= 1


class TestShareLearnedKnob:
    @pytest.mark.parametrize("seed", range(3))
    def test_verdicts_identical_with_and_without_sharing(self, seed):
        c1 = random_combinational(n_inputs=8, n_gates=60, seed=seed, name="g")
        c2 = c1.copy("r")
        script_delay(c2)
        baseline = check_equivalence(c1, c2)
        for share, n_jobs in ((False, 1), (True, 2), (False, 2)):
            r = check_equivalence(
                c1, c2, CecOptions(share_learned=share), n_jobs=n_jobs
            )
            assert r.verdict is baseline.verdict

    def test_neq_verdict_survives_sharing_modes(self):
        c1 = random_combinational(n_inputs=8, n_gates=60, seed=0, name="g")
        c3 = random_combinational(n_inputs=8, n_gates=60, seed=9, name="u")
        baseline = check_equivalence(c1, c3)
        for share, n_jobs in ((False, 1), (True, 2), (False, 2)):
            r = check_equivalence(
                c1, c3, CecOptions(share_learned=share), n_jobs=n_jobs
            )
            assert r.verdict is baseline.verdict


def _unit_payloads(c1, c2, **payload_kwargs):
    """Worker payloads for the miter's sweep units (test scaffolding)."""
    m = build_miter(c1, c2)
    cnf, _ = m.aig.to_cnf()
    solver = Solver()
    assert solver.add_cnf(cnf)
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
        cold_statuses, cores, retired_cold = [], [], 0
        for payload in payloads:
            statuses, _nq, _el, _obs, _models, extras = _sweep_unit_worker(
                payload
            )
            cold_statuses.append(statuses)
            assert extras is not None
            cores.extend(extras["cores"])
            retired_cold += extras["core_retired"]
        assert retired_cold >= 1  # constant-class directions retire cold
        # A second pass fed the harvested cores answers identically and
        # retires at least as much.
        _, payloads = _unit_payloads(c1, c2, known_cores=cores)
        retired_warm = 0
        for payload, expected in zip(payloads, cold_statuses):
            statuses, _nq, _el, _obs, _models, extras = _sweep_unit_worker(
                payload
            )
            assert statuses == expected
            retired_warm += extras["core_retired"]
        assert retired_warm >= retired_cold

    def test_shared_clauses_imported_without_changing_answers(self):
        c1, c2 = xor_chain(8, "a"), xor_tree(8, "b")
        _, payloads = _unit_payloads(c1, c2)
        baseline = [
            _sweep_unit_worker(payload)[0] for payload in payloads
        ]
        # Feed each worker a clause it already owns — trivially valid,
        # short enough for the import filter — and check it is counted
        # and harmless.
        _, payloads = _unit_payloads(c1, c2)
        for payload, expected in zip(payloads, baseline):
            clause = next(
                cl for cl in payload.clauses if 1 < len(cl) <= 4
            )
            reshipped = payload._replace(shared_clauses=[list(clause)])
            statuses, _nq, _el, _obs, _models, extras = _sweep_unit_worker(
                reshipped
            )
            assert statuses == expected
            assert extras["shared_imported"] >= 1

    def test_worker_extras_come_home_in_parent_space(self):
        c1 = hidden_const_circuit("l", True)
        c2 = hidden_const_circuit("r", False)
        solver, payloads = _unit_payloads(c1, c2)
        for payload in payloads:
            _st, _nq, _el, _obs, _models, extras = _sweep_unit_worker(payload)
            for group in (extras["learned"], extras["cores"]):
                for lits in group:
                    for lit in lits:
                        assert 1 <= abs(lit) <= solver._num_vars
