"""Tests for structural graph analyses."""

from __future__ import annotations

from repro.netlist.build import CircuitBuilder
from repro.netlist.graph import (
    combinational_fanin_cone,
    feedback_latches,
    has_combinational_cycle,
    is_acyclic_sequential,
    latch_dependency_graph,
    latch_sccs,
    self_loop_latches,
    transitive_fanin,
    transitive_fanout,
)


def toggle_circuit():
    b = CircuitBuilder("toggle")
    (i,) = b.inputs("i")
    b.circuit.add_latch("q", "nq")
    b.NOT("q", name="nq")
    b.output(b.AND("q", i), name="o")
    return b.circuit


def two_latch_ring():
    b = CircuitBuilder("ring")
    (i,) = b.inputs("i")
    b.circuit.add_latch("q0", "d0")
    b.circuit.add_latch("q1", "q0")
    b.XOR("q1", i, name="d0")
    b.output("q1", name="o")
    return b.circuit


class TestFeedbackDetection:
    def test_self_loop(self):
        c = toggle_circuit()
        assert self_loop_latches(c) == {"q"}
        assert feedback_latches(c) == {"q"}
        assert not is_acyclic_sequential(c)

    def test_ring(self):
        c = two_latch_ring()
        assert self_loop_latches(c) == set()
        assert feedback_latches(c) == {"q0", "q1"}
        sccs = latch_sccs(c)
        assert len(sccs) == 1
        assert sccs[0] == frozenset({"q0", "q1"})

    def test_pipeline_is_acyclic(self, builder):
        (a,) = builder.inputs("a")
        builder.output(builder.latch(builder.latch(a)), name="o")
        assert is_acyclic_sequential(builder.circuit)
        assert feedback_latches(builder.circuit) == set()

    def test_enable_dependency_counts(self, builder):
        """A latch whose *enable* depends on a latch creates an edge."""
        (a,) = builder.inputs("a")
        q1 = builder.latch(a, name="q1")
        q2 = builder.latch(a, enable=q1, name="q2")
        g = latch_dependency_graph(builder.circuit)
        assert "q2" in g["q1"]

    def test_dependency_through_gates(self, builder):
        (a,) = builder.inputs("a")
        q1 = builder.latch(a, name="q1")
        x = builder.AND(q1, a)
        y = builder.NOT(x)
        builder.latch(y, name="q2")
        g = latch_dependency_graph(builder.circuit)
        assert "q2" in g["q1"]
        assert "q1" not in g["q2"]


class TestCones:
    def test_transitive_fanin_crosses_latches(self, builder):
        (a,) = builder.inputs("a")
        q = builder.latch(builder.NOT(a))
        o = builder.AND(q, a)
        builder.circuit.add_output(o)
        cone = transitive_fanin(builder.circuit, [o])
        assert "a" in cone and q in cone

    def test_combinational_cone_stops_at_latches(self, builder):
        (a,) = builder.inputs("a")
        g1 = builder.NOT(a)
        q = builder.latch(g1)
        g2 = builder.AND(q, a)
        cone = combinational_fanin_cone(builder.circuit, [g2])
        assert g2 in cone and q in cone and "a" in cone
        assert g1 not in cone  # behind the latch

    def test_transitive_fanout(self, builder):
        (a,) = builder.inputs("a")
        g = builder.NOT(a)
        q = builder.latch(g)
        fan = transitive_fanout(builder.circuit, [a])
        assert g in fan and q in fan

    def test_no_combinational_cycle(self, builder):
        (a,) = builder.inputs("a")
        builder.NOT(a)
        assert not has_combinational_cycle(builder.circuit)
