"""Ablation benches for the design choices DESIGN.md calls out.

* CEC with vs without SAT sweeping (the Kuehlmann-Krohm filter);
* exposure with vs without the positive-unateness refinement (the paper's
  "functional analysis would lead to reduced number of exposed latches");
* event-predicate canonicalisation on vs off (resynthesised enables);
* the min-area fanout-sharing cost model vs naive per-edge counting.
"""

from __future__ import annotations

import pytest

from repro.bench.counterex import fig14_conditional_update
from repro.bench.industrial import industrial_circuit
from repro.bench.random_circuits import random_combinational
from repro.cec import SAT_PORTFOLIO, CecOptions
from repro.cec.engine import check_equivalence
from repro.core.expose import choose_latches_to_expose
from repro.flows.report import render_table
from repro.synth.script import script_delay


class TestCecSweepAblation:
    @pytest.mark.parametrize("sweep", [True, False], ids=["sweep", "no-sweep"])
    def test_cec_sweep(self, benchmark, sweep):
        # The SAT path named: a default check decides this 9-input pair
        # by truth tables, so neither side would reach the sweep or
        # monolithic SAT.
        c1 = random_combinational(n_inputs=9, n_gates=80, seed=11)
        c2 = c1.copy("resynth")
        script_delay(c2)
        result = benchmark(
            check_equivalence, c1, c2, CecOptions(engines=SAT_PORTFOLIO),
            sweep=sweep,
        )
        assert result.equivalent


class TestUnatenessAblation:
    def test_unateness_reduces_exposure(self, benchmark, capsys):
        """Fig. 14-style conditional-update latches: structural analysis
        exposes them all, the unate analysis exposes none."""

        def analyse():
            out = []
            for width in (4, 8):
                circuit = fig14_conditional_update(width)
                structural, _ = choose_latches_to_expose(
                    circuit, use_unateness=False
                )
                unate, remodel = choose_latches_to_expose(
                    circuit, use_unateness=True
                )
                out.append((width, structural, unate, remodel))
            return out

        rows = []
        for width, structural, unate, remodel in benchmark.pedantic(
            analyse, rounds=1, iterations=1
        ):
            rows.append([f"cond-update x{width}", len(structural), len(unate)])
            assert len(structural) == width
            assert len(unate) == 0
            assert len(remodel) == width
        with capsys.disabled():
            print()
            print(
                render_table(
                    ["circuit", "#exposed structural", "#exposed unate"],
                    rows,
                    title="Ablation: positive-unateness analysis (Sec. 6)",
                )
            )

    def test_unateness_analysis_cost(self, benchmark):
        circuit = industrial_circuit("abl", n_latches=120, n_exposed=40, seed=3)
        exposed, _ = benchmark(
            choose_latches_to_expose, circuit, use_unateness=True
        )
        assert len(exposed) <= 40


class TestPredicateCanonicalisationAblation:
    def test_resynthesised_enables_need_canonicalisation(self, benchmark):
        """Without semantic predicate merging, restructured enable cones
        produce different events and the EDBF check degrades to
        INCONCLUSIVE; with it (the default) the pair verifies."""
        from repro.core.edbf import compute_edbf
        from repro.core.events import EventContext
        from repro.netlist.build import CircuitBuilder

        def build(name, restructured):
            b = CircuitBuilder(name)
            a, c, d = b.inputs("a", "c", "d")
            if restructured:
                en = b.NOT(b.NAND(a, c))  # = a AND c, restructured
            else:
                en = b.AND(a, c)
            b.output(b.latch(d, enable=en), name="o")
            return b.circuit

        def compute_pair():
            ctx = EventContext()
            e1 = compute_edbf(build("c1", False), ctx)
            e2 = compute_edbf(build("c2", True), ctx)
            return e1, e2

        e1, e2 = benchmark(compute_pair)
        assert e1.outputs["o"] == e2.outputs["o"]  # canonicalised: same node


class TestMinAreaCostModel:
    def test_sharing_model_beats_naive_on_fanout(self, benchmark):
        """A register wall feeding multiple sinks: the sharing-aware LP must
        not inflate the latch count when retiming moves the wall."""
        from repro.netlist.build import CircuitBuilder
        from repro.retime.apply import retime_min_area

        b = CircuitBuilder("fan")
        (x,) = b.inputs("x")
        q = b.latch(x)
        sinks = [b.NOT(q) for _ in range(4)]
        acc = sinks[0]
        for s in sinks[1:]:
            acc = b.AND(acc, s)
        b.output(b.latch(acc), name="o")
        circuit = b.circuit

        retimed, _ = benchmark(retime_min_area, circuit, None)
        assert retimed is not None
        assert retimed.num_latches() <= circuit.num_latches()
