"""Partitioned sweeping tests plus sweep-path regressions.

Covers the scaling layers of :mod:`repro.cec` (partitioning and the
per-unit sweep) and pins down the three
sweep/miter bugfixes: union-of-inputs miter matching, the
``sweep_unknown`` / ``sweep_refuted`` distinction, and counterexample
re-validation.
"""

from __future__ import annotations


import pytest

from repro.bench.pipeline import pipeline_circuit
from repro.bench.random_circuits import random_combinational
from repro.cec import SAT_PORTFOLIO, CecOptions
from repro.cec.engine import (
    CecVerdict,
    check_equivalence,
    check_equivalence_bdd,
)
from repro.cec.engines import validate_counterexample
from repro.cec.miter import build_miter
from repro.cec.parallel import sweep_unit_payloads
from repro.cec.partition import partition_candidates
from repro.core.cbf import compute_cbf
from repro.core.eq2comb import cbf_to_circuit
from repro.core.timedvar import ExprTable
from repro.core.verify import check_sequential_equivalence
from repro.netlist.build import CircuitBuilder
from repro.retime.apply import retime_min_period
from repro.sat.solver import Solver
from repro.sim.logic2 import simulate
from repro.synth.script import optimize_sequential_delay, script_delay


#: The default portfolio, named: a check that names it runs no
#: truth-table phase, so a sweep test's pair reaches the sweep.
SAT_PATH = CecOptions(engines=SAT_PORTFOLIO)


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


def _sweep_classes(aig):
    """Signature-class candidates straight from the engine's helpers."""
    from repro.cec.engine import (
        _class_candidates,
        _initial_signatures,
        _signature_classes,
    )

    signatures, mask = _initial_signatures(aig, rounds=4, width=64, seed=0)
    classes = _signature_classes(signatures, mask, range(aig.num_nodes()))
    return _class_candidates(aig, classes, signatures)


def _partition_miters():
    """XOR chain/tree miters plus seeded random ones, some multi-cluster."""
    yield build_miter(xor_chain(16), xor_tree(16))
    yield build_miter(xor_chain(9, "a"), xor_tree(9, "b"))
    for seed in range(3):
        c1 = random_combinational(n_inputs=8, n_gates=60, seed=seed)
        resynth = c1.copy("resynth")
        script_delay(resynth)
        yield build_miter(c1, resynth)
        other = random_combinational(
            n_inputs=8, n_gates=60, seed=seed + 10, name="other"
        )
        yield build_miter(c1, other)


def _reference_clusters(aig, class_list):
    """Cone-disjoint clusters the slow way: full cones, pairwise overlap."""
    ands = [
        {
            n
            for n in aig.cone_nodes(
                lit for c in cls for lit in (c.rep_lit, c.node_lit)
            )
            if n and not aig.is_pi_node(n)
        }
        for cls in class_list
    ]
    cluster = list(range(len(class_list)))
    for i in range(len(class_list)):
        for j in range(i):
            if ands[i] & ands[j] and cluster[i] != cluster[j]:
                old, new = cluster[i], cluster[j]
                cluster = [new if c == old else c for c in cluster]
    return len(set(cluster))


class TestPartition:
    def test_units_cover_all_candidates_once(self):
        for m in _partition_miters():
            class_list = _sweep_classes(m.aig)
            units = partition_candidates(m.aig, class_list)
            flat = sorted(
                (c.rep, c.node, c.phase_equal)
                for cls in class_list
                for c in cls
            )
            got = sorted(
                (c.rep, c.node, c.phase_equal)
                for u in units
                for c in u.candidates
            )
            assert got == flat

    def test_one_unit_per_cone_disjoint_cluster(self):
        counts = []
        for m in _partition_miters():
            class_list = _sweep_classes(m.aig)
            units = partition_candidates(m.aig, class_list)
            seen = set()
            for unit in units:
                unit_ands = {
                    n for n in unit.cone if n and not m.aig.is_pi_node(n)
                }
                assert not unit_ands & seen  # no AND node in two units
                seen |= unit_ands
            assert len(units) == _reference_clusters(m.aig, class_list)
            assert [u.index for u in units] == list(range(len(units)))
            counts.append(len(units))
        assert max(counts) > 1  # some miter has several clusters

    def test_units_contain_their_cones(self):
        for m in _partition_miters():
            units = partition_candidates(m.aig, _sweep_classes(m.aig))
            for unit in units:
                for cand in unit.candidates:
                    cone = m.aig.cone_nodes([cand.rep_lit, cand.node_lit])
                    assert cone <= unit.cone

    def test_partition_is_deterministic(self):
        for m in _partition_miters():
            class_list = _sweep_classes(m.aig)
            a = partition_candidates(m.aig, class_list)
            b = partition_candidates(m.aig, class_list)
            assert [u.candidates for u in a] == [u.candidates for u in b]
            assert [u.cone for u in a] == [u.cone for u in b]


class TestParallelSweep:
    @pytest.mark.parametrize("seed", range(4))
    def test_verdicts_match_serial_random(self, seed):
        # The unit-by-unit sweep against monolithic SAT on the whole
        # miter: same verdict, and a refutation replays.
        c1 = random_combinational(n_inputs=8, n_gates=60, seed=seed)
        c2 = random_combinational(
            n_inputs=8, n_gates=60, seed=seed + 10, name="other"
        )
        serial = check_equivalence(c1, c2, SAT_PATH)
        monolithic = check_equivalence(c1, c2, SAT_PATH, sweep=False)
        assert monolithic.verdict is serial.verdict
        if serial.verdict is CecVerdict.NOT_EQUIVALENT:
            vec = serial.counterexample
            o1 = simulate(c1, [vec]).outputs[0]
            o2 = simulate(c2, [vec]).outputs[0]
            assert o1 != o2

    def test_serial_runs_are_deterministic(self):
        c1, c2 = xor_chain(12), xor_tree(12)
        a = check_equivalence(c1, c2, SAT_PATH)
        b = check_equivalence(c1, c2, SAT_PATH)
        assert a.verdict is b.verdict
        for key in ("sweep_merges", "sweep_refuted", "sweep_unknown",
                    "sat_queries"):
            assert a.stats[key] == b.stats[key]

    def test_worker_stats_reported(self):
        from tests.cec.test_robustness import multi_block_pair

        r = check_equivalence(*multi_block_pair(), SAT_PATH)
        assert r.engine is not None
        assert r.stats["n_units"] == 4
        assert r.stats["worker_failures"] == 0
        for gone in ("n_jobs", "worker_utilisation", "units_requeued"):
            assert gone not in r.stats

    def test_unit_payload_is_self_contained(self):
        m = build_miter(xor_chain(8), xor_tree(8))
        solver = Solver()
        solver.ensure_vars(m.aig.num_nodes())
        assert solver.add_clauses(m.aig.cnf_clauses())
        units = partition_candidates(m.aig, _sweep_classes(m.aig))
        for unit, payload in zip(
            units, sweep_unit_payloads(solver, units, 2000)
        ):
            assert len(payload.queries) == len(unit.candidates)
            for clause in payload.clauses:
                assert all(1 <= abs(lit) <= payload.num_vars for lit in clause)


class TestRetimedSweepCoverage:
    """The sweep path on the engine's real workload: retime+resynthesise."""

    @pytest.mark.parametrize("seed", range(3))
    def test_sweep_modes_and_bdd_agree(self, seed):
        comb1, comb2 = retimed_resynthesised_pair(seed)
        swept = check_equivalence(comb1, comb2, SAT_PATH, sweep=True)
        monolithic = check_equivalence(comb1, comb2, SAT_PATH, sweep=False)
        bdd = check_equivalence_bdd(comb1, comb2)
        assert swept.verdict is CecVerdict.EQUIVALENT
        assert monolithic.verdict is swept.verdict
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

    def test_seq_checker_rejects_removed_spellings(self):
        c1 = pipeline_circuit(stages=3, width=3, seed=0, name="pipe")
        retimed, _, _ = retime_min_period(c1)
        resynth = optimize_sequential_delay(retimed, "medium", name="resynth")
        options = CecOptions(refine=False)
        assert check_sequential_equivalence(
            c1, resynth, options=options
        ).equivalent
        # The pre-facade ``cec_cache=`` spelling, the sweep's worker count
        # (``n_jobs=``, removed in 1.4.0) and the proof cache (removed in
        # 1.5.0) are gone, not ignored.
        with pytest.raises(TypeError, match="cec_cache"):
            check_sequential_equivalence(c1, resynth, cec_cache="p.json")
        with pytest.raises(TypeError, match="n_jobs"):
            check_sequential_equivalence(
                c1, resynth, options=options, n_jobs=2
            )
        with pytest.raises(TypeError, match="cache"):
            CecOptions(cache="p.json")


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
        r = check_equivalence(xor_chain(16), xor_tree(16), SAT_PATH)
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
