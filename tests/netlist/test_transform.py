"""Tests for structural transformations (exposure, cores, miters)."""

from __future__ import annotations

import pytest

from repro.bench.iscas_like import build_table1_circuit
from repro.bench.random_circuits import random_acyclic_sequential, random_combinational
from repro.netlist.build import CircuitBuilder
from repro.netlist.transform import (
    combinational_core,
    cone_of_influence,
    expose_latches,
    miter,
    rebuild_from_core,
    strip_dangling,
)
from repro.netlist.validate import validate_circuit
from repro.sim.logic2 import simulate
from tests.netlist.expose_scan import expose_latches_by_scan


class TestExpose:
    def test_expose_breaks_feedback(self):
        b = CircuitBuilder("t")
        (i,) = b.inputs("i")
        b.circuit.add_latch("q", "nq")
        b.NOT("q", name="nq")
        b.output("q", name="o")
        from repro.netlist.graph import feedback_latches

        assert feedback_latches(b.circuit)
        exposed = expose_latches(b.circuit, ["q"])
        validate_circuit(exposed.circuit)
        assert not feedback_latches(exposed.circuit)
        pseudo_in, pseudo_out = exposed.exposed["q"]
        assert pseudo_in in exposed.circuit.inputs
        assert pseudo_out in exposed.circuit.outputs

    def test_expose_enabled_latch_observes_enable(self):
        b = CircuitBuilder("t")
        d, e = b.inputs("d", "e")
        b.latch(d, enable=e, name="q")
        b.output("q", name="o")
        exposed = expose_latches(b.circuit, ["q"])
        # Data and enable nets both become observable.
        assert len(exposed.circuit.outputs) >= 2

    def test_expose_missing_latch_raises(self, builder):
        (a,) = builder.inputs("a")
        builder.latch(a, name="q")
        with pytest.raises(KeyError):
            expose_latches(builder.circuit, ["nope"])

    def test_exposed_output_rewired(self):
        """A PO that was the latch output is redirected to the pseudo PI."""
        b = CircuitBuilder("t")
        (i,) = b.inputs("i")
        q = b.latch(i, name="q")
        b.output("q")
        exposed = expose_latches(b.circuit, ["q"])
        validate_circuit(exposed.circuit)


def _snapshot(result):
    c = result.circuit
    return (
        c.name,
        list(c.inputs),
        list(c.outputs),
        list(c.gates.items()),
        list(c.latches.items()),
        result.exposed,
    )


class TestExposeMatchesScan:
    """The reader-indexed exposure builds the circuit the per-latch scan
    (``tests/netlist/expose_scan.py``) builds, in the same dict order."""

    def test_chained_exposures(self):
        b = CircuitBuilder("t")
        i, e = b.inputs("i", "e")
        b.circuit.add_latch("p", "n1")
        b.circuit.add_latch("q", "p")  # q's data is exposed latch p
        b.circuit.add_latch("r", "i", enable="q")  # enable reads q
        b.circuit.add_latch("s", "q")  # a kept latch reads q
        b.AND("p", "q", name="n1")  # one gate reads two exposed latches
        b.OR("n1", "s", "e", name="n2")
        b.output("q")  # a PO reads an exposed latch
        b.output("n2")
        b.output("p")
        order = ["q", "r", "p"]
        indexed = expose_latches(b.circuit, order)
        validate_circuit(indexed.circuit)
        assert _snapshot(indexed) == _snapshot(expose_latches_by_scan(b.circuit, order))
        gates = indexed.circuit.gates
        # q's observer was added reading p, then rewired when p went.
        assert gates[indexed.exposed["q"][1]].inputs == ("__exposed_in__p",)
        assert gates["__exposed_out__r__en"].inputs == ("__exposed_in__q",)
        assert gates["n1"].inputs == ("__exposed_in__p", "__exposed_in__q")
        assert indexed.circuit.latches["s"].data == "__exposed_in__q"
        assert indexed.circuit.outputs[:3] == ["__exposed_in__q", "n2", "__exposed_in__p"]

    @pytest.mark.parametrize("name", ["s1269", "s953"])
    def test_table1_feedback_exposure(self, name):
        circuit = build_table1_circuit(name)
        order = sorted(circuit.latches)
        assert _snapshot(expose_latches(circuit, order)) == _snapshot(
            expose_latches_by_scan(circuit, order)
        )

    def test_enabled_latches(self):
        circuit = random_acyclic_sequential(n_latches=8, n_gates=30, enabled=True, seed=3)
        order = sorted(circuit.latches)[::2] + sorted(circuit.latches)[1::2]
        assert _snapshot(expose_latches(circuit, order)) == _snapshot(
            expose_latches_by_scan(circuit, order)
        )


class TestCombCore:
    @pytest.mark.parametrize("seed", range(4))
    def test_core_roundtrip_preserves_behavior(self, seed):
        c = random_acyclic_sequential(seed=seed, enabled=(seed % 2 == 1))
        core = combinational_core(c)
        assert core.circuit.is_combinational()
        validate_circuit(core.circuit)
        rebuilt = rebuild_from_core(core)
        validate_circuit(rebuilt)
        import random

        rng = random.Random(seed)
        vecs = [{i: rng.random() < 0.5 for i in c.inputs} for _ in range(8)]
        init = {l: False for l in c.latches}
        assert (
            simulate(c, vecs, init).outputs
            == simulate(rebuilt, vecs, init).outputs
        )

    def test_repeated_core_extraction(self):
        """Cutting a rebuilt circuit again must not collide on names."""
        c = random_acyclic_sequential(seed=3)
        once = rebuild_from_core(combinational_core(c))
        twice = rebuild_from_core(combinational_core(once))
        validate_circuit(twice)


class TestMiter:
    def test_identical_circuits_miter_is_zero(self):
        c1 = random_combinational(seed=1)
        c2 = random_combinational(seed=1, name="copy")
        m = miter(c1, c2)
        validate_circuit(m)
        import itertools

        for bits in itertools.product([False, True], repeat=len(m.inputs)):
            vec = dict(zip(m.inputs, bits))
            assert simulate(m, [vec]).outputs[0]["__miter_out"] is False

    def test_different_circuits_miter_fires(self):
        b1 = CircuitBuilder("a")
        x, y = b1.inputs("x", "y")
        b1.output(b1.AND(x, y), name="o")
        b2 = CircuitBuilder("b")
        x, y = b2.inputs("x", "y")
        b2.output(b2.OR(x, y), name="o")
        m = miter(b1.circuit, b2.circuit)
        out = simulate(m, [{"x": True, "y": False}]).outputs[0]["__miter_out"]
        assert out is True

    def test_miter_rejects_sequential(self, builder):
        (a,) = builder.inputs("a")
        builder.output(builder.latch(a), name="o")
        with pytest.raises(ValueError):
            miter(builder.circuit, builder.circuit.copy())

    def test_miter_rejects_mismatched_io(self):
        c1 = random_combinational(n_inputs=3, seed=1)
        c2 = random_combinational(n_inputs=4, seed=1, name="other")
        with pytest.raises(ValueError):
            miter(c1, c2)


class TestStrip:
    def test_strip_dangling_removes_dead_logic(self, builder):
        a, b = builder.inputs("a", "b")
        keep = builder.AND(a, b, name="o")
        builder.NOT(a)  # dangling
        builder.latch(b)  # dangling latch
        builder.output(keep)
        stripped = strip_dangling(builder.circuit)
        assert stripped.num_gates() == 1
        assert stripped.num_latches() == 0

    def test_cone_of_influence_crosses_latches(self, builder):
        a, b = builder.inputs("a", "b")
        q = builder.latch(builder.NOT(a))
        builder.output(builder.AND(q, b), name="o")
        cone = cone_of_influence(builder.circuit)
        assert "a" in cone and "b" in cone
