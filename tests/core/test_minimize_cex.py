"""Counterexample minimisation tests."""

from __future__ import annotations

import pytest

from repro.bench.mutations import sample_mutations
from repro.core.verify import (
    SeqVerdict,
    check_sequential_equivalence,
    minimize_counterexample,
)
from repro.netlist.build import CircuitBuilder
from tests.cec.test_sweep_trajectory import table1_pair


def and_vs_or_pair():
    b1 = CircuitBuilder("g")
    x, y = b1.inputs("x", "y")
    b1.output(b1.latch(b1.AND(x, y)), name="o")
    b2 = CircuitBuilder("i")
    x, y = b2.inputs("x", "y")
    b2.output(b2.latch(b2.OR(x, y)), name="o")
    return b1.circuit, b2.circuit


class TestMinimize:
    def test_leading_cycles_trimmed(self):
        c1, c2 = and_vs_or_pair()
        padded = [
            {"x": False, "y": False},
            {"x": False, "y": False},
            {"x": True, "y": False},  # distinguishing stimulus
            {"x": False, "y": False},  # observation cycle
        ]
        small = minimize_counterexample(c1, c2, padded)
        assert len(small) < len(padded)
        from repro.core.verify import _trace_distinguishes

        assert _trace_distinguishes(c1, c2, small)

    def test_bits_canonicalised(self):
        c1, c2 = and_vs_or_pair()
        noisy = [
            {"x": True, "y": False},
            {"x": True, "y": True},  # irrelevant late toggles
        ]
        small = minimize_counterexample(c1, c2, noisy)
        # The second cycle's values are irrelevant to the cycle-1 output.
        assert small[-1] == {"x": False, "y": False}

    def test_non_distinguishing_trace_unchanged(self):
        c1, c2 = and_vs_or_pair()
        boring = [{"x": False, "y": False}]
        assert minimize_counterexample(c1, c2, boring) == boring

    def test_checker_returns_minimized_trace(self):
        c1, c2 = and_vs_or_pair()
        result = check_sequential_equivalence(c1, c2)
        assert result.verdict is SeqVerdict.NOT_EQUIVALENT
        assert result.counterexample is not None
        # The AND/OR difference needs exactly two cycles: stimulate, observe.
        assert len(result.counterexample) == 2
        # and the distinguishing bit pattern is the canonical one-hot.
        assert result.counterexample[0] in (
            {"x": True, "y": False},
            {"x": False, "y": True},
        )


class TestRecordedWitnesses:
    """Minimised witnesses of mutants of the s1269 Table 1 pair, recorded
    before the replay stopped re-sorting each circuit per simulation: the
    per-cycle inputs set True, and the output that failed."""

    def test_witnesses_unchanged(self):
        golden, revised = table1_pair("s1269")
        recorded = [
            ("negation @ __exposed_out__rg3_2", "__exposed_out__rg3_2", [[], [], []]),
            ("stuck_at_0 @ n15", "__exposed_out__fsm0", [["i0", "i5"]]),
            ("negation @ __td140_and", "__exposed_out__fsm3", [[]]),
            ("stuck_at_1 @ __td47_and", "__exposed_out__fsm11", [[]]),
        ]
        witnesses = []
        for mutation, mutant in sample_mutations(revised, 10, 0):
            result = check_sequential_equivalence(golden, mutant)
            if result.verdict is not SeqVerdict.NOT_EQUIVALENT:
                continue
            assert all(set(row) == set(golden.inputs) for row in result.counterexample)
            witnesses.append(
                (
                    mutation.describe(),
                    result.failing_output,
                    [sorted(n for n, v in row.items() if v) for row in result.counterexample],
                )
            )
            if len(witnesses) == len(recorded):
                break
        assert witnesses == recorded
