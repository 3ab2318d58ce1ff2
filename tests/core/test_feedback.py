"""Feedback remodelling tests (paper Sec. 6, Lemmas 6.1/6.2, Figs. 12-14)."""

from __future__ import annotations

import random

import pytest

from repro.bdd.bdd import BDD
from repro.bench.counterex import fig14_conditional_update
from repro.bench.industrial import build_table2_circuit
from repro.core.feedback import (
    analyze_feedback_latch,
    next_state_bdd,
    remodel_feedback_latches,
    topo_rank,
    unate_decomposition,
)
from repro.netlist.build import CircuitBuilder
from repro.netlist.graph import (
    combinational_fanin_cone,
    feedback_latches,
    self_loop_latches,
)
from repro.netlist.validate import validate_circuit
from repro.sim.exact3 import exact3_equivalent


def conditional_update_circuit():
    """q' = e·d + ē·q via an explicit MUX (Fig. 12/14 shape)."""
    b = CircuitBuilder("cond")
    d, e = b.inputs("d", "e")
    b.circuit.add_latch("q", "nxt")
    b.MUX(e, d, "q", name="nxt")
    b.output("q", name="o")
    return b.circuit


def toggle_circuit():
    b = CircuitBuilder("toggle")
    (i,) = b.inputs("i")
    b.circuit.add_latch("q", "nq")
    b.NOT("q", name="nq")
    b.output(b.AND("q", i), name="o")
    return b.circuit


def whole_order_next_state_bdd(circuit, latch_name):
    """:func:`next_state_bdd` built in the whole circuit's ``topo_gates()``
    order, skipping the gates outside the latch's cone."""
    manager = BDD()
    latch = circuit.latches[latch_name]
    roots = [latch.data] + ([latch.enable] if latch.enable is not None else [])
    cone = combinational_fanin_cone(circuit, roots)
    leaves, seen, stack = [], set(), list(roots)
    while stack:
        sig = stack.pop()
        if sig in seen:
            continue
        seen.add(sig)
        if sig in circuit.gates:
            stack.extend(reversed(circuit.gates[sig].inputs))
        elif sig not in leaves:
            leaves.append(sig)
    nodes = {leaf: manager.add_var(leaf) for leaf in leaves}
    for gate in circuit.topo_gates():
        if gate.output in cone:
            fanins = [nodes[s] for s in gate.inputs]
            nodes[gate.output] = manager.from_sop(gate.sop, fanins)
    data = nodes[latch.data]
    if latch.enable is None:
        return manager, data
    x = manager.add_var(latch_name)
    return manager, manager.ite(nodes[latch.enable], data, x)


def node_table(manager, root):
    """Everything that names a BDD node: its arrays, variables and root."""
    return manager._level, manager._low, manager._high, manager.var_names, root


class TestSharedRank:
    @pytest.mark.parametrize("name", ["ex2", "ex3", "ex7", "ex9"])
    def test_node_identical_to_whole_circuit_order(self, name):
        circuit = build_table2_circuit(name)
        rank = topo_rank(circuit)
        latches = sorted(self_loop_latches(circuit))
        assert latches
        for latch in latches:
            built = next_state_bdd(circuit, latch, rank=rank)
            assert node_table(*built) == node_table(
                *whole_order_next_state_bdd(circuit, latch)
            ), latch

    def test_rank_taken_before_the_cone_grew(self):
        """A latch remodelled twice reads gates the loop's rank predates."""
        c = conditional_update_circuit()
        rank = topo_rank(c)
        new, _, _ = remodel_feedback_latches(c)
        built = next_state_bdd(new, "q", rank=rank)
        assert node_table(*built) == node_table(*whole_order_next_state_bdd(new, "q"))


class TestUnateDecomposition:
    def test_lemma_61_positive_unate(self):
        """F = e·d + ē·x decomposes; e is unique; d canonical here."""
        mgr = BDD(["e", "d", "x"])
        e, d, x = mgr.var("e"), mgr.var("d"), mgr.var("x")
        f = mgr.ite(e, d, x)
        result = unate_decomposition(mgr, f, "x")
        assert result is not None
        e_bdd, d_bdd, canonical = result
        assert canonical  # supports {e} and {d} are disjoint (Lemma 6.2)
        assert e_bdd == e
        assert d_bdd == d

    def test_not_unate_returns_none(self):
        mgr = BDD(["a", "x"])
        f = mgr.apply_xor(mgr.var("a"), mgr.var("x"))
        assert unate_decomposition(mgr, f, "x") is None

    def test_rebuild_identity_checked(self):
        """The decomposition always satisfies F = e·d + ē·x."""
        rng = random.Random(5)
        names = ["a", "b", "x"]
        for _ in range(30):
            mgr = BDD(names)
            # random positive-unate-in-x function: f = g + h·x
            def rand_fn(over):
                f = mgr.ZERO
                for _ in range(rng.randint(1, 3)):
                    t = mgr.ONE
                    for v in over:
                        r = rng.random()
                        if r < 0.33:
                            t = mgr.apply_and(t, mgr.var(v))
                        elif r < 0.66:
                            t = mgr.apply_and(t, mgr.nvar(v))
                    f = mgr.apply_or(f, t)
                return f

            g = rand_fn(["a", "b"])
            h = rand_fn(["a", "b"])
            f = mgr.apply_or(g, mgr.apply_and(h, mgr.var("x")))
            result = unate_decomposition(mgr, f, "x")
            assert result is not None  # g + h·x is positive unate in x
            e_bdd, d_bdd, _ = result
            rebuilt = mgr.apply_or(
                mgr.apply_and(e_bdd, d_bdd),
                mgr.apply_and(mgr.apply_not(e_bdd), mgr.var("x")),
            )
            assert rebuilt == f
            assert "x" not in mgr.support(e_bdd)
            assert "x" not in mgr.support(d_bdd)


class TestAnalysis:
    def test_conditional_update_is_unate(self):
        c = conditional_update_circuit()
        analysis = analyze_feedback_latch(c, "q")
        assert analysis.positive_unate
        assert analysis.canonical
        mgr = analysis.manager
        assert mgr.support(analysis.enable_bdd) == {"e"}
        assert mgr.support(analysis.data_bdd) == {"d"}

    def test_toggle_is_not_unate(self):
        analysis = analyze_feedback_latch(toggle_circuit(), "q")
        assert not analysis.positive_unate

    def test_no_self_dependence_is_trivially_fine(self, builder):
        (a,) = builder.inputs("a")
        q = builder.latch(builder.NOT(a), name="q")
        builder.output(q, name="o")
        analysis = analyze_feedback_latch(builder.circuit, "q")
        assert analysis.positive_unate

    def test_enabled_latch_effective_function(self, builder):
        """Load-enabled latches analyse e·d + ē·x uniformly."""
        d, e = builder.inputs("d", "e")
        builder.latch(d, enable=e, name="q")
        builder.output("q", name="o")
        mgr, f = next_state_bdd(builder.circuit, "q")
        assert mgr.support(f) == {"d", "e", "q"}
        assert mgr.is_positive_unate(f, "q")


class TestRemodel:
    def test_remodel_preserves_behaviour(self):
        c = conditional_update_circuit()
        new, remodelled, failed = remodel_feedback_latches(c)
        assert remodelled == ["q"] and not failed
        validate_circuit(new)
        assert not feedback_latches(new)
        assert new.latches["q"].enable is not None
        rng = random.Random(0)
        seqs = [
            [{"d": rng.random() < 0.5, "e": rng.random() < 0.5} for _ in range(6)]
            for _ in range(30)
        ]
        assert exact3_equivalent(c, new, seqs)

    def test_fig14_multi_bit(self):
        c = fig14_conditional_update(width=3)
        new, remodelled, failed = remodel_feedback_latches(c)
        assert len(remodelled) == 3 and not failed
        validate_circuit(new)
        assert not feedback_latches(new)
        rng = random.Random(1)
        names = list(c.inputs)
        seqs = [
            [{n: rng.random() < 0.5 for n in names} for _ in range(5)]
            for _ in range(20)
        ]
        assert exact3_equivalent(c, new, seqs)

    def test_toggle_reported_failed(self):
        c = toggle_circuit()
        new, remodelled, failed = remodel_feedback_latches(c)
        assert failed == ["q"] and not remodelled

    def test_partial_update_with_complex_condition(self):
        """q' = (a+b)·d + (a+b)'·q — non-trivial enable cone."""
        b = CircuitBuilder("c2")
        a, bb, d = b.inputs("a", "b", "d")
        cond = b.OR(a, bb)
        b.circuit.add_latch("q", "nxt")
        b.MUX(cond, d, "q", name="nxt")
        b.output("q", name="o")
        c = b.circuit
        new, remodelled, failed = remodel_feedback_latches(c)
        assert remodelled == ["q"]
        rng = random.Random(2)
        seqs = [
            [
                {n: rng.random() < 0.5 for n in ["a", "b", "d"]}
                for _ in range(6)
            ]
            for _ in range(25)
        ]
        assert exact3_equivalent(c, new, seqs)
