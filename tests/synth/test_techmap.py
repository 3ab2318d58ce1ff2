"""Technology mapping tests (the paper's INV/NAND2/NOR2 unit-delay library)."""

from __future__ import annotations

import pytest

from repro.bench.iscas_like import build_table1_circuit
from repro.bench.random_circuits import random_acyclic_sequential, random_combinational
from repro.cec.engine import check_equivalence
from repro.core.verify import check_sequential_equivalence
from repro.netlist.build import CircuitBuilder
from repro.netlist.validate import validate_circuit
from repro.synth.network import fanout_counts
from repro.synth.script import optimize_sequential_delay, script_delay
from repro.synth.techmap import (
    MappedStats,
    _cancel_inverter_pairs,
    mapped_stats,
    tech_map,
)


class TestTechMap:
    @pytest.mark.parametrize("seed", range(4))
    def test_mapping_preserves_function(self, seed):
        c = random_combinational(n_inputs=5, n_gates=20, seed=seed)
        mapped = tech_map(c)
        validate_circuit(mapped)
        assert check_equivalence(c, mapped).equivalent

    @pytest.mark.parametrize("seed", range(4))
    def test_only_library_cells(self, seed):
        c = random_combinational(n_inputs=5, n_gates=20, seed=seed)
        mapped = tech_map(c)
        stats = mapped_stats(mapped)  # raises on non-library gates
        assert stats.area > 0
        assert set(stats.cells) <= {"inv", "nand2", "nor2", "buf", "const"}

    @pytest.mark.parametrize("seed", range(4))
    def test_fanout_limit_enforced(self, seed):
        c = random_combinational(n_inputs=4, n_gates=30, seed=seed)
        mapped = tech_map(c, fanout_limit=4)
        counts = fanout_counts(mapped)
        for sig in mapped.gates:
            gate_readers = sum(
                1
                for g in mapped.gates.values()
                for s in g.inputs
                if s == sig
            )
            assert gate_readers <= 4, sig

    def test_sequential_mapping(self):
        c = random_acyclic_sequential(seed=3)
        mapped = tech_map(c)
        validate_circuit(mapped)
        assert mapped.num_latches() == c.num_latches()
        r = check_sequential_equivalence(c, mapped)
        assert r.equivalent

    def test_xor_maps_to_four_nands(self, builder):
        a, b = builder.inputs("a", "b")
        builder.output(builder.XOR(a, b), name="o")
        mapped = tech_map(builder.circuit, fanout_limit=0)
        stats = mapped_stats(mapped)
        assert stats.cells.get("nand2", 0) == 4
        assert check_equivalence(builder.circuit, mapped).equivalent

    def test_inverter_pairs_cancel_through_rewired_readers(self, builder):
        """r first reads x after p's pair cancels, then x's pair cancels too."""
        z = builder.input("z")
        builder.NOT("q", name="p")
        builder.NOT("x", name="q")
        builder.NOT("y", name="x")
        builder.NOT(z, name="y")
        builder.output(builder.AND("p", z, name="r"))
        circuit = builder.circuit
        original = circuit.copy("orig")
        _cancel_inverter_pairs(circuit)
        assert circuit.gates["r"].inputs == ("z", "z")
        assert list(circuit.gates) == ["r"]
        assert check_equivalence(original, circuit).equivalent

    def test_stats_string(self):
        b = CircuitBuilder("t")
        a = b.input("a")
        b.output(b.NOT(a), name="o")
        mapped = tech_map(b.circuit)
        text = str(mapped_stats(mapped))
        assert "area" in text and "delay" in text


class TestScript:
    @pytest.mark.parametrize("seed", range(3))
    def test_script_delay_reduces_depth(self, seed):
        from repro.synth.depth import circuit_depth

        c = random_combinational(n_inputs=8, n_gates=60, seed=seed)
        original = c.copy("orig")
        before = circuit_depth(c)
        script_delay(c)
        validate_circuit(c)
        assert circuit_depth(c) <= before
        assert check_equivalence(original, c).equivalent

    def test_efforts(self):
        for effort in ("low", "medium", "high"):
            c = random_combinational(n_inputs=6, n_gates=30, seed=9)
            original = c.copy("orig")
            script_delay(c, effort=effort)
            assert check_equivalence(original, c).equivalent

    @pytest.mark.parametrize("seed", range(3))
    def test_sequential_wrapper(self, seed):
        c = random_acyclic_sequential(seed=seed)
        opt = optimize_sequential_delay(c)
        validate_circuit(opt)
        assert opt.num_latches() == c.num_latches()
        assert check_sequential_equivalence(c, opt).equivalent

    def test_enabled_sequential_wrapper(self):
        c = random_acyclic_sequential(seed=4, enabled=True)
        opt = optimize_sequential_delay(c)
        validate_circuit(opt)
        r = check_sequential_equivalence(c, opt)
        assert r.equivalent

    def test_script_rejects_sequential(self):
        c = random_acyclic_sequential(seed=1)
        with pytest.raises(ValueError):
            script_delay(c)


class TestGoldenTable1Synthesis:
    """Exact synthesis results on two Table 1 stand-ins (their D column).

    The passes break ties by gate-dict and cube order, so a speed-up that
    reorders anything moves these numbers even when every function stays
    correct.
    """

    @pytest.mark.parametrize(
        "name, gates, literals, area, delay, cells",
        [
            ("s953", 54, 85, 186.0, 15,
             {"buf": 62, "const": 5, "inv": 50, "nand2": 25, "nor2": 12}),
            ("s713", 80, 161, 348.0, 18,
             {"buf": 66, "const": 1, "inv": 118, "nand2": 54, "nor2": 28}),
        ],
    )
    def test_optimized_and_mapped(self, name, gates, literals, area, delay, cells):
        optimized = optimize_sequential_delay(build_table1_circuit(name))
        assert (optimized.num_gates(), optimized.num_literals()) == (gates, literals)
        stats = mapped_stats(tech_map(optimized))
        assert (stats.area, stats.delay, stats.cells) == (area, delay, cells)
