"""CEC engine tests: verdict correctness, counterexamples, cross-checks."""

from __future__ import annotations

import random

import pytest

from repro.bench.random_circuits import random_combinational
from repro.cec import SAT_PORTFOLIO, CecOptions
from repro.cec.engine import (
    CecVerdict,
    check_equivalence,
    check_equivalence_bdd,
    check_miter_unsat,
)
from repro.cec.miter import build_miter
from repro.netlist.build import CircuitBuilder
from repro.netlist.transform import miter as circuit_miter
from repro.sim.logic2 import simulate
from repro.synth.script import script_delay


class TestVerdicts:
    @pytest.mark.parametrize("seed", range(8))
    def test_identical_circuits(self, seed):
        c1 = random_combinational(seed=seed, name="c1")
        c2 = random_combinational(seed=seed, name="c2")
        r = check_equivalence(c1, c2)
        assert r.equivalent
        assert r.stats.get("structural") == 1  # collapsed in the shared AIG

    @pytest.mark.parametrize("seed", range(8))
    def test_sat_vs_bdd_agree(self, seed):
        c1 = random_combinational(seed=seed, name="c1")
        c3 = random_combinational(seed=seed + 50, name="c3")
        r_sat = check_equivalence(c1, c3)
        r_bdd = check_equivalence_bdd(c1, c3)
        assert r_sat.verdict == r_bdd.verdict

    @pytest.mark.parametrize("seed", range(8))
    def test_counterexample_is_real(self, seed):
        c1 = random_combinational(seed=seed, name="c1")
        c3 = random_combinational(seed=seed + 100, name="c3")
        r = check_equivalence(c1, c3)
        if r.verdict is CecVerdict.NOT_EQUIVALENT:
            vec = {k: bool(v) for k, v in r.counterexample.items()}
            o1 = simulate(c1, [vec]).outputs[0]
            o3 = simulate(c3, [vec]).outputs[0]
            assert o1 != o3

    @pytest.mark.parametrize("seed", range(5))
    def test_synthesised_circuit_equivalent(self, seed):
        """The engine proves synthesis-restructured circuits (the real use)."""
        c1 = random_combinational(n_inputs=6, n_gates=30, seed=seed, name="c1")
        c2 = c1.copy("c2")
        script_delay(c2)
        r = check_equivalence(c1, c2)
        assert r.equivalent

    def test_single_bit_difference_found(self):
        b1 = CircuitBuilder("a")
        xs = b1.inputs(*[f"x{i}" for i in range(6)])
        acc = xs[0]
        for x in xs[1:]:
            acc = b1.XOR(acc, x)
        b1.output(acc, name="o")
        b2 = CircuitBuilder("b")
        xs = b2.inputs(*[f"x{i}" for i in range(6)])
        acc = xs[0]
        for x in xs[1:]:
            acc = b2.XOR(acc, x)
        b2.output(b2.NOT(acc), name="o")  # complemented
        r = check_equivalence(b1.circuit, b2.circuit)
        assert r.verdict is CecVerdict.NOT_EQUIVALENT

    def test_no_sweep_mode(self):
        # A pair the shared AIG leaves open, on the SAT path named: a
        # default check decides it by truth tables, never reaching the
        # monolithic SAT check this test is about.
        c1 = random_combinational(n_inputs=9, n_gates=80, seed=11, name="c1")
        c2 = c1.copy("c2")
        script_delay(c2)
        r = check_equivalence(
            c1, c2, CecOptions(engines=SAT_PORTFOLIO), sweep=False
        )
        assert r.equivalent
        assert r.stats["n_units"] == 0  # no sweep unit ran
        assert r.stats["sat_queries"] > 0


class TestMiterPaths:
    def test_build_miter_pairs_outputs(self):
        c1 = random_combinational(seed=1, name="c1")
        c2 = random_combinational(seed=1, name="c2")
        m = build_miter(c1, c2)
        assert m.trivially_equivalent

    def test_build_miter_output_mismatch(self):
        b1 = CircuitBuilder("a")
        x, y = b1.inputs("x", "y")
        b1.output(b1.AND(x, y), name="o")
        b2 = CircuitBuilder("b")
        x, y = b2.inputs("x", "y")
        b2.output(b2.AND(x, y), name="other")
        with pytest.raises(ValueError):
            build_miter(b1.circuit, b2.circuit)

    def test_build_miter_input_mismatch_allowed(self):
        # Resynthesis may sweep away an unused PI; the miter matches over
        # the union of input names instead of rejecting the pair.
        c1 = random_combinational(n_inputs=3, seed=1)
        c2 = random_combinational(n_inputs=4, seed=2, name="other")
        m = build_miter(c1, c2)
        assert {"i0", "i1", "i2", "i3"} <= set(m.aig.pi_names)

    def test_check_miter_unsat_path(self):
        c1 = random_combinational(seed=4, name="c1")
        c2 = c1.copy("c2")
        script_delay(c2)
        m = circuit_miter(c1, c2)
        r = check_miter_unsat(m)
        assert r.equivalent

    def test_check_miter_sat_path(self):
        b1 = CircuitBuilder("a")
        x, y = b1.inputs("x", "y")
        b1.output(b1.AND(x, y), name="o")
        b2 = CircuitBuilder("b")
        x, y = b2.inputs("x", "y")
        b2.output(b2.OR(x, y), name="o")
        m = circuit_miter(b1.circuit, b2.circuit)
        r = check_miter_unsat(m)
        assert r.verdict is CecVerdict.NOT_EQUIVALENT
        vec = r.counterexample
        assert vec["x"] != vec["y"]
