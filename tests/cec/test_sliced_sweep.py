"""One sweep path: every cone-disjoint unit on its own cone-sliced solver.

The sweep slices every unit's CNF off the parent solver in one pass per
round and runs each unit, in-process, on a fresh solver over only its
cone.  These tests hold the one-pass slices to the per-unit reference
filter, the parent solver to answering no sweep query, and a refuting
witness to its failing cone.
"""

from __future__ import annotations

import pytest

from benchmarks.bench_cec import corpus
from repro.aig.aig import lit_to_cnf
from repro.bench.iscas_like import build_table1_circuit
from repro.bench.mutations import sample_mutations
from repro.cec import engine
from repro.cec.engine import CecVerdict, check_equivalence
from repro.cec.miter import build_miter
from repro.cec.parallel import sweep_unit_payloads
from repro.cec.partition import partition_candidates
from repro.core.expose import prepare_circuit
from repro.core.verify import (
    SeqVerdict,
    _trace_distinguishes,
    check_sequential_equivalence,
)
from repro.obs.metrics import MetricsRegistry
from repro.sat.solver import Solver

from tests.cec.test_robustness import multi_block_pair
from tests.cec.test_sweep_parallel import (
    SAT_PATH,
    _sweep_classes,
    lowered_cbf_pair,
)


def _remap(groups, var_of):
    """Per-unit reference: keep groups inside ``var_of``, remap them."""
    return [
        [var_of[abs(lit)] * (1 if lit > 0 else -1) for lit in group]
        for group in groups
        if all(abs(lit) in var_of for lit in group)
    ]


class TestOnePassSlices:
    def test_slices_equal_the_per_unit_reference(self):
        m = build_miter(*multi_block_pair())
        units = partition_candidates(m.aig, _sweep_classes(m.aig))
        assert len(units) == 4
        solver = Solver()
        solver.ensure_vars(m.aig.num_nodes())
        assert solver.add_clauses(m.aig.cnf_clauses())
        # A merge clause across two units (in no slice), a clause over
        # shared PIs only (in every unit holding both) and a root unit;
        # cores inside one unit, across two, over PIs only, and empty.
        a = lit_to_cnf(units[0].candidates[0].node_lit)
        b = lit_to_cnf(units[1].candidates[0].node_lit)
        pis = [node + 1 for node in m.aig.pis]
        assert solver.add_clause([-a, b])
        assert solver.add_clause([pis[0], -pis[1]])
        assert solver.add_clause([pis[2]])
        cores = [[a], [-a, b], [-b, pis[1]], [pis[5], -pis[6]], []]
        payloads = sweep_unit_payloads(solver, units, 2000, known_cores=cores)
        assert len(payloads) == len(units)
        for unit, payload in zip(units, payloads):
            nodes = sorted(unit.cone)
            var_of = {node + 1: i + 1 for i, node in enumerate(nodes)}
            assert payload.global_vars == [node + 1 for node in nodes]
            assert payload.clauses == _remap(
                solver.export_clauses(var_of), var_of
            )
            assert payload.known_cores == _remap(cores, var_of)
            assert payload.unit_index == unit.index

    @pytest.mark.parametrize("name_index", range(4))
    def test_slices_on_corpus_miters(self, name_index):
        _, golden, revised = corpus()[name_index]
        m = build_miter(golden, revised)
        units = partition_candidates(m.aig, _sweep_classes(m.aig))
        solver = Solver()
        solver.ensure_vars(m.aig.num_nodes())
        assert solver.add_clauses(m.aig.cnf_clauses())
        for unit, payload in zip(units, sweep_unit_payloads(solver, units, 2000)):
            var_of = {node + 1: i + 1 for i, node in enumerate(sorted(unit.cone))}
            assert payload.clauses == _remap(
                solver.export_clauses(var_of), var_of
            )


class TestParentSolverOffTheSweep:
    def test_sweep_queries_all_come_from_unit_solvers(self, monkeypatch):
        phase = ["encode"]
        parent_calls = []

        class ParentSolver(Solver):
            def solve(self, *args, **kwargs):
                parent_calls.append(phase[0])
                return super().solve(*args, **kwargs)

        sweep = engine._sweep

        def tracked_sweep(*args, **kwargs):
            phase[0] = "sweep"
            try:
                return sweep(*args, **kwargs)
            finally:
                phase[0] = "outputs"

        monkeypatch.setattr(engine, "Solver", ParentSolver)
        monkeypatch.setattr(engine, "_sweep", tracked_sweep)
        metrics = MetricsRegistry()
        result = check_equivalence(
            *multi_block_pair(), SAT_PATH, metrics=metrics
        )
        assert result.verdict is CecVerdict.EQUIVALENT
        assert "sweep" not in parent_calls
        # Every solver call is a counted query; the sweep asked real
        # questions, all of them on unit solvers, and the parent
        # answered only the output phase's.
        calls = metrics.counter("sat.calls")
        assert calls == result.stats["sat_queries"]
        assert calls - len(parent_calls) > 0


class TestWitnessCone:
    def test_out_of_cone_inputs_are_false_and_trace_distinguishes(self):
        # s713 with its feedback exposed: a failing output reads a few
        # of its 22 lowered inputs, so most of a witness is out of cone.
        circuit = prepare_circuit(
            build_table1_circuit("s713"), use_unateness=False
        ).circuit
        checked = 0
        outside = 0
        for _mutation, mutant in sample_mutations(circuit, count=4, seed=0):
            comb1, comb2 = lowered_cbf_pair(circuit, mutant)
            result = check_equivalence(comb1, comb2)
            if result.verdict is not CecVerdict.NOT_EQUIVALENT:
                continue
            miter = build_miter(comb1, comb2)
            (l1, l2) = [
                (a, b)
                for name, a, b in miter.output_pairs
                if name == result.failing_output
            ][0]
            cone = miter.aig.cone_nodes((l1, l2))
            for node, pi in zip(miter.aig.pis, miter.aig.pi_names):
                if node not in cone:
                    outside += 1
                    assert result.counterexample[pi] is False, pi
            seq = check_sequential_equivalence(circuit, mutant)
            assert seq.verdict is SeqVerdict.NOT_EQUIVALENT
            assert seq.method == "cbf"
            assert _trace_distinguishes(circuit, mutant, seq.counterexample)
            checked += 1
        assert checked == 4
        assert outside > 0  # some witness had inputs outside its cone
