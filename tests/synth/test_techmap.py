"""Technology mapping tests (the paper's INV/NAND2/NOR2 unit-delay library)."""

from __future__ import annotations

import pytest

from repro.bench.iscas_like import build_table1_circuit
from repro.bench.random_circuits import random_acyclic_sequential, random_combinational
from repro.cec.engine import check_equivalence
from repro.core.expose import prepare_circuit
from repro.core.verify import check_sequential_equivalence
from repro.flows.flow import FlowResult, _retime_min_period_any
from repro.flows.table1 import QUICK_SET
from repro.netlist.build import CircuitBuilder
from repro.netlist.validate import validate_circuit
from repro.synth import techmap
from repro.synth.network import fanout_counts
from repro.synth.script import optimize_sequential_delay, script_delay
from repro.synth.techmap import (
    MappedStats,
    _cancel_inverter_pairs,
    mapped_stats,
    tech_map,
)
from tests.synth.fanout_oracle import limit_fanout_by_rounds
from tests.synth.row_calls import record_row, same_netlist


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


class TestLimitFanoutOracle:
    """One-pass fanout limiting maps exactly as whole-network rounds do."""

    @staticmethod
    def _mapped_both_ways(circuit, limit=4):
        mapped = tech_map(circuit, fanout_limit=limit)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(techmap, "_limit_fanout", limit_fanout_by_rounds)
            oracle = tech_map(circuit, fanout_limit=limit)
        assert same_netlist(mapped, oracle)
        return mapped

    @staticmethod
    def _buffers(mapped):
        return sum(name.startswith("__fob_") for name in mapped.gates)

    @pytest.mark.parametrize("name", QUICK_SET)
    def test_quick_rows_d_and_c(self, name):
        mapped = record_row(name).mapped
        for tag in ("D", "C"):
            self._mapped_both_ways(mapped[f"{name}_{tag}"])

    def test_s15850_d_and_c(self):
        a = build_table1_circuit("s15850")
        b = prepare_circuit(a, use_unateness=False).circuit
        c0 = optimize_sequential_delay(b, name="s15850_C0")
        c = _retime_min_period_any(c0, FlowResult("s15850"))
        for circuit in (
            optimize_sequential_delay(a, name="s15850_D"),
            optimize_sequential_delay(c, name="s15850_C"),
        ):
            assert self._buffers(self._mapped_both_ways(circuit)) > 300

    @pytest.mark.parametrize("limit", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(3))
    def test_random_circuits_every_limit(self, seed, limit):
        for circuit in (
            random_combinational(n_inputs=4, n_gates=40, seed=seed),
            random_acyclic_sequential(seed=seed),
        ):
            self._mapped_both_ways(circuit, limit)

    def test_limit_one_is_rejected(self):
        """A buffer driving one pin re-creates its driver's load."""
        circuit = random_combinational(n_inputs=4, n_gates=40, seed=0)
        with pytest.raises(ValueError, match="fanout_limit=1"):
            tech_map(circuit, fanout_limit=1)

    def test_signals_kept_overloaded_by_pos_and_latches(self, builder):
        """POs and latches read s, t and q, and their pins cannot move.

        A split leaves each signal as many gate pins as its POs and
        latches leave room for, so one split brings it to the limit.
        Every load ends within the limit, so the loop stops on the load,
        not on its 32-round bound.
        """
        x, y = builder.inputs("x", "y")
        s = builder.NAND(x, y, name="s")
        t = builder.NOR(x, y, name="t")
        builder.circuit.add_latch("q", s)
        for sig, readers in ((s, 9), (t, 9), ("q", 6)):
            for i in range(readers):
                builder.output(builder.NOT(sig, name=f"n_{sig}{i}"))
            builder.output(sig)
        circuit = builder.circuit
        validate_circuit(circuit)
        mapped = self._mapped_both_ways(circuit)
        counts = fanout_counts(mapped)
        assert [counts[sig] for sig in (s, t, "q")] == [4, 4, 4]
        assert max(counts.values()) == 4
        # s (PO and latch): 8 inverters behind a chain of 3 buffers;
        # t (PO): 7 behind 2; q (PO): 4 behind 1.
        assert self._buffers(mapped) == 6


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
