"""Counterexample minimisation tests."""

from __future__ import annotations

import pytest

import repro.core.verify as verify_module
from repro.bench.counterex import fig10_pair, fig11_pair
from repro.bench.mutations import sample_mutations
from repro.bench.pipeline import pipeline_circuit
from repro.core.verify import (
    SeqVerdict,
    _search_distinguishing_trace,
    check_sequential_equivalence,
    minimize_counterexample,
)
from repro.netlist.build import CircuitBuilder
from tests.cec.test_sweep_trajectory import table1_pair
from tests.core.cex_oracle import minimize_one_at_a_time, search_one_at_a_time


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


def rare_pair(width, pad=0):
    """Differ only after a cycle with all ``width`` inputs set.  ``pad``
    latches that nothing reads widen the second circuit's power-up block
    to ``2^(pad + 1)`` lanes, so fewer trials fit in one run."""
    b1 = CircuitBuilder("all")
    names = b1.inputs(*[f"i{j}" for j in range(width)])
    b1.output(b1.latch(b1.AND(*names)), name="o")
    b2 = CircuitBuilder("never")
    names = b2.inputs(*[f"i{j}" for j in range(width)])
    b2.output(b2.latch(b2.AND(names[0], b2.NOT(names[0]))), name="o")
    for j in range(pad):
        b2.latch(names[j % width])
    return b1.circuit, b2.circuit


def edbf_mutant_pair():
    """A load-enabled pipeline and a mutant the EDBF path refutes by
    search; the earliest distinguishing trial is the third."""
    circuit = pipeline_circuit(stages=2, width=3, seed=1, enable=True)
    mutant = next(
        m for mutation, m in sample_mutations(circuit, 12, 0)
        if mutation.describe() == "stuck_at_1 @ n3"
    )
    return circuit, mutant


class TestBatchedAgainstOracle:
    """The batched minimiser and search pick the traces that trying one
    candidate at a time picks (``tests/core/cex_oracle.py``)."""

    @pytest.mark.parametrize("name", ["s1269", "s953"])
    def test_minimiser_on_refuted_mutants(self, name, monkeypatch):
        golden, revised = table1_pair(name)
        batched = verify_module.minimize_counterexample
        cases = []

        def both(c1, c2, sequence, **orders):
            result = batched(c1, c2, sequence, **orders)
            cases.append((c2.name, result, minimize_one_at_a_time(c1, c2, sequence)))
            return result

        monkeypatch.setattr(verify_module, "minimize_counterexample", both)
        refuted = 0
        for _, mutant in sample_mutations(revised, 40, 0):
            result = check_sequential_equivalence(golden, mutant)
            refuted += result.verdict is SeqVerdict.NOT_EQUIVALENT
        assert refuted > 0 and len(cases) == refuted
        assert [mutant for mutant, got, want in cases if got != want] == []

    @pytest.mark.parametrize(
        "make_pair, trials",
        [
            (edbf_mutant_pair, 64),
            (fig10_pair, 64),
            (fig11_pair, 64),
            (lambda: rare_pair(5), 64),  # earliest hit: the 4th trial
            (lambda: rare_pair(8), 64),  # earliest hit: the 10th trial
            (lambda: rare_pair(8, pad=10), 64),  # 2 trials a run: the hit is in run 5
            (lambda: rare_pair(8), 9),  # no hit among the trials
        ],
    )
    def test_search_picks_the_earliest_trial(self, make_pair, trials):
        c1, c2 = make_pair()
        assert _search_distinguishing_trace(c1, c2, trials) == search_one_at_a_time(
            c1, c2, trials
        )

    def test_search_cases_cover_a_refutation_and_a_miss(self):
        result = check_sequential_equivalence(*edbf_mutant_pair())
        assert (result.verdict, result.method) == (SeqVerdict.NOT_EQUIVALENT, "edbf")
        assert search_one_at_a_time(*fig11_pair()) is None

    def test_reported_witness_is_replayed_once(self, monkeypatch):
        c1, c2 = and_vs_or_pair()
        original = verify_module.exact3_outputs
        replayed = []

        def recording(circuit, sequence, *args, **kwargs):
            replayed.append((circuit.name, [dict(v) for v in sequence]))
            return original(circuit, sequence, *args, **kwargs)

        monkeypatch.setattr(verify_module, "exact3_outputs", recording)
        result = check_sequential_equivalence(c1, c2)
        assert result.stats["cex_confirmed"] == 1.0
        assert replayed == [
            ("g", result.counterexample),
            ("i", result.counterexample),
        ]

    def test_cbf_raises_when_replay_contradicts_the_batches(self, monkeypatch):
        """Batches that call every trace distinguishing shrink the witness
        to one all-False cycle, which the replay cannot confirm."""
        monkeypatch.setattr(
            verify_module,
            "exact3_distinguishes",
            lambda c1, c2, traces, **kwargs: iter([True] * len(traces)),
        )
        c1, c2 = and_vs_or_pair()
        with pytest.raises(RuntimeError, match="does not distinguish"):
            check_sequential_equivalence(c1, c2)


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
