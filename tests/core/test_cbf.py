"""CBF tests (paper Sec. 4.1/5.1, Figs. 3 and 7, Theorem 5.1, Lemma 5.1)."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.pipeline import fig3_circuit, pipeline_circuit
from repro.bench.random_circuits import random_acyclic_sequential
from repro.core.cbf import compute_cbf, sequential_depth, timed_var, topological_latch_depth
from repro.core.timedvar import ExprTable
from repro.netlist.build import CircuitBuilder
from repro.sim.logic2 import simulate


def cbf_matches_simulation(circuit, seed=0, trials=20):
    """Oracle: CBF value at the flush cycle equals simulation there.

    The observation cycle is the *topological* latch depth: by then every
    latch has been flushed (constant-fed latches too — they need the full
    structural depth even though the CBF folds them away), so the simulated
    output no longer depends on power-up.
    """
    cbf = compute_cbf(circuit)
    at = max(cbf.depth(), topological_latch_depth(circuit))
    rng = random.Random(seed)
    for _ in range(trials):
        seq = [
            {i: rng.random() < 0.5 for i in circuit.inputs}
            for _ in range(at + 1)
        ]
        tr = simulate(circuit, seq, {l: False for l in circuit.latches})
        assignment = {}
        for (tag, name, d) in cbf.variables():
            cycle = at - d
            assignment[(tag, name, d)] = seq[cycle][name] if cycle >= 0 else False
        values = cbf.table.eval(list(cbf.outputs.values()), assignment)
        for out, val in zip(cbf.outputs, values):
            assert val == tr.outputs[at][out], (out, seq)
    return True


class TestFig3:
    def test_depth_is_two(self):
        cbf = compute_cbf(fig3_circuit())
        assert cbf.depth() == 2
        assert sequential_depth(cbf) == 2

    def test_formula_matches_paper(self):
        """o(t) = a(t-1)a(t) · a(t-2)a(t-1) = a(t)a(t-1)a(t-2)."""
        cbf = compute_cbf(fig3_circuit())
        table = cbf.table
        node = cbf.outputs["o"]
        for bits in itertools.product([False, True], repeat=3):
            asg = {timed_var("a", d): bits[d] for d in range(3)}
            expect = bits[0] and bits[1] and bits[2]
            assert table.eval([node], asg)[0] == expect

    def test_matches_simulation(self):
        assert cbf_matches_simulation(fig3_circuit())


class TestCBFGeneral:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_acyclic_matches_simulation(self, seed):
        c = random_acyclic_sequential(seed=seed)
        assert cbf_matches_simulation(c, seed=seed)

    @pytest.mark.parametrize("stages", [1, 2, 4])
    def test_pipeline_depth(self, stages):
        c = pipeline_circuit(stages=stages, width=3, seed=1)
        cbf = compute_cbf(c)
        assert cbf.depth() <= stages
        assert cbf.depth() >= 1

    def test_rejects_enabled_latches(self, builder):
        d, e = builder.inputs("d", "e")
        builder.output(builder.latch(d, enable=e), name="o")
        with pytest.raises(ValueError, match="load-enabled"):
            compute_cbf(builder.circuit)

    def test_rejects_feedback(self, builder):
        (i,) = builder.inputs("i")
        builder.circuit.add_latch("q", "nq")
        builder.NOT("q", name="nq")
        builder.output("q", name="o")
        with pytest.raises(ValueError, match="feedback"):
            compute_cbf(builder.circuit)

    def test_rejects_combinational_cycle(self, builder):
        """Without an order, the function sorts the circuit itself."""
        (i,) = builder.inputs("i")
        builder.AND(i, "y", name="x")
        builder.NOT("x", name="y")
        builder.output(builder.latch("x"), name="o")
        with pytest.raises(ValueError, match="combinational cycle through 'x'"):
            compute_cbf(builder.circuit)

    def test_shared_table_gives_shared_variables(self):
        c1 = random_acyclic_sequential(seed=1, name="c1")
        c2 = random_acyclic_sequential(seed=1, name="c2")
        table = ExprTable()
        cbf1 = compute_cbf(c1, table)
        cbf2 = compute_cbf(c2, table)
        # identical circuits -> identical expression nodes
        for out in cbf1.outputs:
            assert cbf1.outputs[out] == cbf2.outputs[out]

    def test_false_dependency_pruned_by_semantic_depth(self, builder):
        """x XOR x through a latch: the delayed value cancels out."""
        (a,) = builder.inputs("a")
        q = builder.latch(a)
        dead = builder.XOR(q, q)
        builder.output(builder.OR(dead, a), name="o")
        cbf = compute_cbf(builder.circuit)
        assert cbf.depth() == 1  # syntactic
        assert sequential_depth(cbf) == 0  # semantic: a(t-1) cancels

    def test_topological_latch_depth(self, builder):
        (a,) = builder.inputs("a")
        q1 = builder.latch(a)
        q2 = builder.latch(q1)
        builder.output(builder.AND(q2, a), name="o")
        assert topological_latch_depth(builder.circuit) == 2


class TestLemma51:
    """Equivalent circuits have equal sequential depth."""

    def test_retimed_pair_same_depth(self):
        b1 = CircuitBuilder("r1")
        x, y = b1.inputs("x", "y")
        b1.output(b1.latch(b1.AND(x, y)), name="o")
        b2 = CircuitBuilder("r2")
        x, y = b2.inputs("x", "y")
        b2.output(b2.AND(b2.latch(x), b2.latch(y)), name="o")
        d1 = sequential_depth(compute_cbf(b1.circuit))
        d2 = sequential_depth(compute_cbf(b2.circuit))
        assert d1 == d2 == 1
