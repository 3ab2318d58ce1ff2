"""Unit tests for the Circuit model and builder."""

from __future__ import annotations

import pytest

from repro.netlist.build import CircuitBuilder
from repro.netlist.circuit import Circuit, Gate, Latch
from repro.netlist.cube import Sop
from repro.netlist.validate import CircuitError, validate_circuit


class TestCircuitConstruction:
    def test_single_driver_invariant(self, builder):
        builder.input("a")
        with pytest.raises(ValueError):
            builder.circuit.add_input("a")
        with pytest.raises(ValueError):
            builder.circuit.add_gate("a", (), Sop.const0(0))
        with pytest.raises(ValueError):
            builder.circuit.add_latch("a", "a")

    def test_gate_arity_checked(self, builder):
        a, b = builder.inputs("a", "b")
        with pytest.raises(ValueError):
            builder.circuit.add_gate("g", (a,), Sop.and_all(2))

    def test_driver_kind(self, builder):
        a = builder.input("a")
        g = builder.NOT(a)
        q = builder.latch(g)
        c = builder.circuit
        assert c.driver_kind(a) == "input"
        assert c.driver_kind(g) == "gate"
        assert c.driver_kind(q) == "latch"
        assert c.driver_kind("nope") is None

    def test_fanin_signals(self, builder):
        a, e = builder.inputs("a", "e")
        q = builder.latch(a, enable=e)
        c = builder.circuit
        assert set(c.fanin_signals(q)) == {a, e}

    def test_fanout_map(self, builder):
        a = builder.input("a")
        g = builder.NOT(a)
        h = builder.AND(a, g)
        fanouts = builder.circuit.fanout_map()
        assert set(fanouts[a]) == {g, h}
        assert fanouts[g] == [h]

    def test_topo_gates_order(self, builder):
        a = builder.input("a")
        g1 = builder.NOT(a)
        g2 = builder.NOT(g1)
        g3 = builder.AND(g1, g2)
        order = [g.output for g in builder.circuit.topo_gates()]
        assert order.index(g1) < order.index(g2) < order.index(g3)

    def test_topo_detects_cycle(self):
        c = Circuit("cyc")
        c.add_input("a")
        c.add_gate("x", ("y", "a"), Sop.and_all(2))
        c.add_gate("y", ("x",), Sop.and_all(1))
        with pytest.raises(ValueError):
            c.topo_gates()

    def test_latch_classes(self, builder):
        a, e = builder.inputs("a", "e")
        builder.latch(a)
        builder.latch(a, enable=e)
        builder.latch(a, enable=e)
        classes = builder.circuit.latch_classes()
        assert len(classes[None]) == 1
        assert len(classes[e]) == 2

    def test_stats(self, builder):
        a = builder.input("a")
        q = builder.latch(builder.NOT(a), name="o")
        builder.output(q)
        s = builder.circuit.stats()
        assert s == {
            "inputs": 1,
            "outputs": 1,
            "gates": 1,
            "latches": 1,
            "literals": 1,
        }


class TestCopyRename:
    def test_copy_is_detached(self, builder):
        a = builder.input("a")
        builder.output(builder.NOT(a), name="o")
        clone = builder.circuit.copy()
        clone.remove_output("o")
        assert "o" in builder.circuit.outputs

    def test_renamed(self, builder):
        a, e = builder.inputs("a", "e")
        q = builder.latch(a, enable=e, name="q")
        builder.output(q)
        renamed = builder.circuit.renamed({"q": "qq", "a": "aa"})
        assert "qq" in renamed.latches
        assert renamed.latches["qq"].data == "aa"
        assert renamed.latches["qq"].enable == "e"
        assert renamed.outputs == ["qq"]

    def test_with_prefix_keeps(self, builder):
        a = builder.input("a")
        g = builder.NOT(a)
        pref = builder.circuit.with_prefix("p_", keep=[a])
        assert "a" in pref.inputs
        assert ("p_" + g) in pref.gates

    def test_fresh_signal(self, builder):
        builder.input("a")
        assert builder.circuit.fresh_signal("a") != "a"
        assert builder.circuit.fresh_signal("b") == "b"


class TestValidate:
    def test_valid_circuit_passes(self, builder):
        a = builder.input("a")
        builder.output(builder.latch(builder.NOT(a)), name="o")
        # The order its cycle check computed, for the caller to reuse.
        assert validate_circuit(builder.circuit) == builder.circuit.topo_gates()

    def test_undriven_fanin(self):
        c = Circuit("bad")
        c.add_gate("g", ("ghost",), Sop.and_all(1))
        c.add_output("g")
        with pytest.raises(CircuitError):
            validate_circuit(c)

    def test_undriven_output(self):
        c = Circuit("bad")
        c.add_output("ghost")
        with pytest.raises(CircuitError):
            validate_circuit(c)

    def test_undriven_enable(self):
        c = Circuit("bad")
        c.add_input("a")
        c.add_latch("q", "a", enable="ghost")
        c.add_output("q")
        with pytest.raises(CircuitError):
            validate_circuit(c)


class TestBuilder:
    def test_gate_constructors_semantics(self, builder):
        a, b = builder.inputs("a", "b")
        from repro.sim.logic2 import simulate

        outs = {
            "and": builder.AND(a, b),
            "or": builder.OR(a, b),
            "nand": builder.NAND(a, b),
            "nor": builder.NOR(a, b),
            "xor": builder.XOR(a, b),
            "xnor": builder.XNOR(a, b),
            "not": builder.NOT(a),
            "andn": builder.ANDN(a, b),
            "implies": builder.IMPLIES(a, b),
        }
        for name, sig in outs.items():
            builder.output(sig, name="o_" + name)
        expected = {
            (0, 0): dict(and_=0, or_=0, nand=1, nor=1, xor=0, xnor=1, not_=1, andn=0, implies=1),
            (0, 1): dict(and_=0, or_=1, nand=1, nor=0, xor=1, xnor=0, not_=1, andn=0, implies=1),
            (1, 0): dict(and_=0, or_=1, nand=1, nor=0, xor=1, xnor=0, not_=0, andn=1, implies=0),
            (1, 1): dict(and_=1, or_=1, nand=0, nor=0, xor=0, xnor=1, not_=0, andn=0, implies=1),
        }
        key_map = {
            "and": "and_", "or": "or_", "nand": "nand", "nor": "nor",
            "xor": "xor", "xnor": "xnor", "not": "not_", "andn": "andn",
            "implies": "implies",
        }
        for (va, vb), exp in expected.items():
            tr = simulate(builder.circuit, [{"a": bool(va), "b": bool(vb)}])
            for name in outs:
                assert tr.outputs[0]["o_" + name] == bool(exp[key_map[name]]), name

    def test_xor_tree(self, builder):
        sigs = builder.inputs("a", "b", "c", "d", "e")
        out = builder.xor_tree(sigs, name="o")
        builder.circuit.add_output(out)
        from repro.sim.logic2 import simulate

        for m in range(32):
            vec = {s: bool((m >> i) & 1) for i, s in enumerate(sigs)}
            got = simulate(builder.circuit, [vec]).outputs[0]["o"]
            assert got == (bin(m).count("1") % 2 == 1)

    def test_latch_chain(self, builder):
        (a,) = builder.inputs("a")
        outs = builder.latch_chain(a, 3)
        assert len(outs) == 3
        assert builder.circuit.num_latches() == 3

    def test_const_gates(self, builder):
        one = builder.CONST1()
        zero = builder.CONST0()
        builder.output(one, name="o1")
        builder.output(zero, name="o0")
        from repro.sim.logic2 import simulate

        tr = simulate(builder.circuit, [{}])
        assert tr.outputs[0]["o1"] is True
        assert tr.outputs[0]["o0"] is False
