"""Parallel / cache-aware sweeping tests plus sweep-path regressions.

Covers the scaling layers of :mod:`repro.cec` (partitioning, the
multiprocessing dispatcher, the persistent proof cache) and pins down the
three sweep/miter bugfixes: union-of-inputs miter matching, the
``sweep_unknown`` / ``sweep_refuted`` distinction, and counterexample
re-validation.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.pipeline import pipeline_circuit
from repro.bench.random_circuits import random_combinational
from repro.cec import CecOptions
from repro.cec.cache import EQ, NEQ, ProofCache
from repro.cec.engine import (
    CecVerdict,
    check_equivalence,
    check_equivalence_bdd,
)
from repro.cec.engines import validate_counterexample
from repro.cec.miter import build_miter
from repro.cec.parallel import sweep_unit_payload
from repro.cec.partition import partition_candidates
from repro.core.cbf import compute_cbf
from repro.core.eq2comb import cbf_to_circuit
from repro.core.timedvar import ExprTable
from repro.core.verify import check_sequential_equivalence
from repro.netlist.build import CircuitBuilder
from repro.retime.apply import retime_min_period
from repro.sat.solver import Solver
from repro.sim.logic2 import simulate
from repro.synth.script import optimize_sequential_delay


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


def lowered_cbf_pair(c1, c2):
    """Lower two sequential circuits to combinational CBF circuits (H/J)."""
    table = ExprTable()
    cbf1 = compute_cbf(c1, table)
    cbf2 = compute_cbf(c2, table)
    all_vars = sorted(cbf1.variables() | cbf2.variables(), key=repr)
    comb1 = cbf_to_circuit(cbf1, name=c1.name + "_H", extra_inputs=all_vars)
    comb2 = cbf_to_circuit(cbf2, name=c2.name + "_J", extra_inputs=all_vars)
    return comb1, comb2


def retimed_resynthesised_pair(seed=0):
    """A pipeline and its retimed+resynthesised version, CBF-lowered."""
    c1 = pipeline_circuit(stages=3, width=3, seed=seed, name=f"pipe{seed}")
    retimed, _, _ = retime_min_period(c1)
    resynth = optimize_sequential_delay(retimed, "medium", name="resynth")
    return lowered_cbf_pair(c1, resynth)


class TestPartition:
    def _classes(self, aig, n=None):
        """Signature-class candidates straight from the engine's helpers."""
        from repro.cec.engine import (
            _class_candidates,
            _initial_signatures,
            _signature_classes,
        )

        signatures, mask = _initial_signatures(aig, rounds=4, width=64, seed=0)
        classes = _signature_classes(signatures, mask, range(aig.num_nodes()))
        return _class_candidates(aig, classes, signatures)

    def test_units_cover_all_candidates_once(self):
        m = build_miter(xor_chain(16), xor_tree(16))
        class_list = self._classes(m.aig)
        flat = sorted(
            (c.rep, c.node, c.phase_equal)
            for cls in class_list
            for c in cls
        )
        for n_units in (1, 2, 4, 8):
            units = partition_candidates(m.aig, class_list, n_units)
            got = sorted(
                (c.rep, c.node, c.phase_equal)
                for u in units
                for c in u.candidates
            )
            assert got == flat
            assert len(units) <= max(1, n_units)

    def test_units_contain_their_cones(self):
        m = build_miter(xor_chain(16), xor_tree(16))
        class_list = self._classes(m.aig)
        units = partition_candidates(m.aig, class_list, 4)
        assert len(units) > 1
        for unit in units:
            for cand in unit.candidates:
                cone = m.aig.cone_nodes([cand.rep_lit, cand.node_lit])
                assert cone <= unit.cone

    def test_partition_is_deterministic(self):
        m = build_miter(xor_chain(16), xor_tree(16))
        class_list = self._classes(m.aig)
        a = partition_candidates(m.aig, class_list, 4)
        b = partition_candidates(m.aig, class_list, 4)
        assert [u.candidates for u in a] == [u.candidates for u in b]
        assert [u.cone for u in a] == [u.cone for u in b]


class TestParallelSweep:
    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_verdicts_match_serial_equivalent(self, n_jobs):
        c1, c2 = xor_chain(16), xor_tree(16)
        serial = check_equivalence(c1, c2)
        parallel = check_equivalence(c1, c2, n_jobs=n_jobs)
        assert serial.verdict is CecVerdict.EQUIVALENT
        assert parallel.verdict is serial.verdict
        assert parallel.stats["sweep_merges"] == serial.stats["sweep_merges"]

    @pytest.mark.parametrize("seed", range(4))
    def test_verdicts_match_serial_random(self, seed):
        c1 = random_combinational(n_inputs=8, n_gates=60, seed=seed)
        c2 = random_combinational(
            n_inputs=8, n_gates=60, seed=seed + 10, name="other"
        )
        serial = check_equivalence(c1, c2)
        parallel = check_equivalence(c1, c2, n_jobs=3)
        assert parallel.verdict is serial.verdict
        if parallel.verdict is CecVerdict.NOT_EQUIVALENT:
            vec = parallel.counterexample
            o1 = simulate(c1, [vec]).outputs[0]
            o2 = simulate(c2, [vec]).outputs[0]
            assert o1 != o2

    def test_serial_runs_are_deterministic(self):
        c1, c2 = xor_chain(12), xor_tree(12)
        a = check_equivalence(c1, c2, n_jobs=1)
        b = check_equivalence(c1, c2, n_jobs=1)
        assert a.verdict is b.verdict
        for key in ("sweep_merges", "sweep_refuted", "sweep_unknown",
                    "sat_queries"):
            assert a.stats[key] == b.stats[key]

    def test_worker_stats_reported(self):
        r = check_equivalence(xor_chain(16), xor_tree(16), n_jobs=4)
        assert r.engine is not None
        assert r.stats["n_units"] >= 1
        if r.stats["n_units"] > 1:
            assert 0.0 < r.stats["worker_utilisation"] <= 1.0

    def test_unit_payload_is_self_contained(self):
        m = build_miter(xor_chain(8), xor_tree(8))
        cnf, _ = m.aig.to_cnf()
        solver = Solver()
        assert solver.add_cnf(cnf)
        from repro.cec.engine import (
            _class_candidates,
            _initial_signatures,
            _signature_classes,
        )

        signatures, mask = _initial_signatures(m.aig, 4, 64, 0)
        classes = _signature_classes(
            signatures, mask, range(m.aig.num_nodes())
        )
        units = partition_candidates(
            m.aig, _class_candidates(m.aig, classes, signatures), 2
        )
        for unit in units:
            num_vars, clauses, queries = sweep_unit_payload(
                solver, unit, 2000
            )[:3]
            assert len(queries) == len(unit.candidates)
            for clause in clauses:
                assert all(1 <= abs(lit) <= num_vars for lit in clause)


class TestProofCache:
    def test_warm_cache_skips_queries(self):
        c1, c2 = xor_chain(16), xor_tree(16)
        cache = ProofCache()
        cold = check_equivalence(c1, c2, CecOptions(cache=cache))
        warm = check_equivalence(c1, c2, CecOptions(cache=cache))
        assert cold.stats["cache_hits"] == 0
        assert cold.stats["cache_stores"] > 0
        assert warm.stats["cache_hits"] > 0
        assert warm.stats["sat_queries"] < cold.stats["sat_queries"]
        assert warm.verdict is cold.verdict

    def test_cache_keys_are_name_independent(self):
        # The same structure under renamed inputs must hit the cache.
        options = CecOptions(cache=ProofCache())
        check_equivalence(xor_chain(8), xor_tree(8), options)
        renamed_chain = xor_chain(8)
        renamed_tree = xor_tree(8)
        warm = check_equivalence(renamed_chain, renamed_tree, options)
        assert warm.stats["cache_hits"] > 0

    def test_persistent_roundtrip(self, tmp_path):
        path = tmp_path / "proofs.json"
        cold = check_equivalence(
            xor_chain(12), xor_tree(12), CecOptions(cache=path)
        )
        assert path.exists()
        warm = check_equivalence(
            xor_chain(12), xor_tree(12), CecOptions(cache=str(path))
        )
        assert warm.stats["cache_hits"] > 0
        assert warm.verdict is cold.verdict

    def test_cached_neq_still_produces_counterexample(self):
        c1 = random_combinational(n_inputs=6, n_gates=40, seed=1)
        c2 = random_combinational(
            n_inputs=6, n_gates=40, seed=7, name="other"
        )
        cache = ProofCache()
        cold = check_equivalence(c1, c2, CecOptions(cache=cache))
        warm = check_equivalence(c1, c2, CecOptions(cache=cache))
        assert cold.verdict is warm.verdict
        if warm.verdict is CecVerdict.NOT_EQUIVALENT:
            vec = warm.counterexample
            assert simulate(c1, [vec]).outputs[0] != simulate(c2, [vec]).outputs[0]

    def test_corrupt_cache_file_is_tolerated(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json{{{")
        r = check_equivalence(
            xor_chain(8), xor_tree(8), CecOptions(cache=path)
        )
        assert r.verdict is CecVerdict.EQUIVALENT
        # The save replaced the corrupt file with valid JSON.
        assert isinstance(json.loads(path.read_text()), dict)

    def test_put_rejects_unknown(self):
        cache = ProofCache()
        with pytest.raises(ValueError):
            cache.put("k", "unknown")
        cache.put("k", EQ)
        assert cache.get("k") == EQ
        cache.put("k", NEQ)
        assert cache.get("k") == NEQ

    def test_save_merges_with_concurrent_writer(self, tmp_path):
        path = tmp_path / "shared.json"
        a = ProofCache(path)
        b = ProofCache(path)
        a.put("ka", EQ)
        a.save()
        b.put("kb", NEQ)
        b.save()
        merged = ProofCache(path)
        assert merged.get("ka") == EQ and merged.get("kb") == NEQ


class TestRetimedSweepCoverage:
    """The sweep path on the engine's real workload: retime+resynthesise."""

    @pytest.mark.parametrize("seed", range(3))
    def test_sweep_modes_and_bdd_agree(self, seed):
        comb1, comb2 = retimed_resynthesised_pair(seed)
        swept = check_equivalence(comb1, comb2, sweep=True)
        monolithic = check_equivalence(comb1, comb2, sweep=False)
        parallel = check_equivalence(comb1, comb2, sweep=True, n_jobs=2)
        bdd = check_equivalence_bdd(comb1, comb2)
        assert swept.verdict is CecVerdict.EQUIVALENT
        assert monolithic.verdict is swept.verdict
        assert parallel.verdict is swept.verdict
        assert bdd.verdict is swept.verdict

    def test_mutated_pair_detected_in_all_modes(self):
        comb1, comb2 = retimed_resynthesised_pair(1)
        # Break one output of the resynthesised side.
        out = sorted(comb2.outputs)[0]
        mutated = comb2.copy("mutated")
        gate = mutated.gates[out]
        mutated.gates[out] = type(gate)(
            gate.output, gate.inputs, gate.sop.complement()
        )
        for result in (
            check_equivalence(comb1, mutated, sweep=True),
            check_equivalence(comb1, mutated, sweep=False),
            check_equivalence(comb1, mutated, n_jobs=2),
            check_equivalence_bdd(comb1, mutated),
        ):
            assert result.verdict is CecVerdict.NOT_EQUIVALENT
            assert result.failing_output == out
            vec = result.counterexample
            o1 = simulate(comb1, [vec]).outputs[0]
            o2 = simulate(
                mutated,
                [{k: v for k, v in vec.items() if k in mutated.inputs}],
            ).outputs[0]
            assert o1 != o2

    def test_seq_checker_threads_cache_and_jobs(self):
        c1 = pipeline_circuit(stages=3, width=3, seed=0, name="pipe")
        retimed, _, _ = retime_min_period(c1)
        resynth = optimize_sequential_delay(retimed, "medium", name="resynth")
        options = CecOptions(cache=ProofCache())
        cold = check_sequential_equivalence(c1, resynth, options=options)
        warm = check_sequential_equivalence(
            c1, resynth, options=options, n_jobs=2
        )
        assert cold.equivalent and warm.equivalent
        assert warm.stats.get("cec_cache_hits", 0) > 0
        # The pre-facade ``cec_cache=`` spelling is gone, not ignored.
        with pytest.raises(TypeError, match="cec_cache"):
            check_sequential_equivalence(c1, resynth, cec_cache=ProofCache())


class TestBugfixRegressions:
    def test_miter_accepts_swept_unused_input(self):
        # Regression: resynthesis removed an unused PI; the pair is still
        # legitimate and equivalent.
        b1 = CircuitBuilder("a")
        x, y, _u = b1.inputs("x", "y", "u")
        b1.output(b1.AND(x, y), name="o")
        b2 = CircuitBuilder("b")
        x, y = b2.inputs("x", "y")
        b2.output(b2.AND(x, y), name="o")
        for result in (
            check_equivalence(b1.circuit, b2.circuit),
            check_equivalence(b1.circuit, b2.circuit, sweep=False),
            check_equivalence_bdd(b1.circuit, b2.circuit),
        ):
            assert result.verdict is CecVerdict.EQUIVALENT

    def test_miter_missing_input_is_unconstrained(self):
        # The side lacking the input must treat it as free — and a cex
        # over the union of inputs must genuinely distinguish the pair.
        b1 = CircuitBuilder("a")
        x, y = b1.inputs("x", "y")
        b1.output(b1.AND(x, y), name="o")
        b2 = CircuitBuilder("b")
        (x,) = b2.inputs("x")
        b2.output(x, name="o")
        r = check_equivalence(b1.circuit, b2.circuit)
        assert r.verdict is CecVerdict.NOT_EQUIVALENT
        vec = r.counterexample
        assert set(vec) == {"x", "y"}
        o1 = simulate(b1.circuit, [vec]).outputs[0]
        o2 = simulate(b2.circuit, [{"x": vec["x"]}]).outputs[0]
        assert o1 != o2

    def test_miter_output_mismatch_still_hard_error(self):
        b1 = CircuitBuilder("a")
        (x,) = b1.inputs("x")
        b1.output(x, name="o1")
        b2 = CircuitBuilder("b")
        (x,) = b2.inputs("x")
        b2.output(x, name="o2")
        with pytest.raises(ValueError, match="output sets differ"):
            build_miter(b1.circuit, b2.circuit)

    def test_conflict_limited_sweep_counts_unknown_not_refuted(self):
        # Regression: a query that hits the conflict limit used to be
        # counted in sweep_refuted.  The candidate classes of a parity
        # chain-vs-tree miter are all genuinely equivalent, so any
        # "refuted" here would be the bug resurfacing.
        c1, c2 = xor_chain(32), xor_tree(32)
        r = check_equivalence(c1, c2, conflict_limit=1)
        assert r.stats["sweep_unknown"] > 0
        assert r.stats["sweep_refuted"] == 0

    def test_generous_limit_has_no_unknowns(self):
        r = check_equivalence(xor_chain(16), xor_tree(16))
        assert r.stats["sweep_unknown"] == 0
        assert r.stats["sweep_merges"] > 0

    def test_counterexample_validation_rejects_bogus_assignment(self):
        m = build_miter(xor_chain(4, "c1"), xor_chain(4, "c2"))
        aig = m.aig
        # Both sides collapse to the same literal; any pair (lit, lit) can
        # never be distinguished, so validation must refuse it.
        name, l1, _ = m.output_pairs[0]
        with pytest.raises(RuntimeError, match="does not distinguish"):
            validate_counterexample(
                aig, {pi: False for pi in aig.pi_names}, l1, l1, name
            )

    def test_counterexamples_still_validated_end_to_end(self):
        b1 = CircuitBuilder("a")
        x, y = b1.inputs("x", "y")
        b1.output(b1.AND(x, y), name="o")
        b2 = CircuitBuilder("b")
        x, y = b2.inputs("x", "y")
        b2.output(b2.OR(x, y), name="o")
        r = check_equivalence(b1.circuit, b2.circuit)
        assert r.verdict is CecVerdict.NOT_EQUIVALENT
        assert r.counterexample["x"] != r.counterexample["y"]


class TestSolverExport:
    def test_export_reproduces_problem(self):
        s = Solver()
        s.ensure_vars(4)
        s.add_clause([1])
        s.add_clause([-1, 2])
        s.add_clause([-2, 3, 4])
        clauses = s.export_clauses()
        t = Solver()
        t.ensure_vars(4)
        for clause in clauses:
            assert t.add_clause(clause)
        assert t.solve().satisfiable
        assert not t.solve(assumptions=[-2]).satisfiable

    def test_export_restricts_to_variables(self):
        s = Solver()
        s.ensure_vars(6)
        s.add_clause([1, 2])
        s.add_clause([3, 4])
        s.add_clause([5, 6])
        sliced = s.export_clauses({3, 4})
        assert sliced == [[3, 4]]
