"""The table phase of a default check: truth tables before SAT.

A check that names no portfolio simulates every open output pair
exhaustively when each reads at most ``_TABLE_INPUTS`` AIG inputs.  Equal
tables everywhere are EQUIVALENT, with no preprocessing, encoding,
sweeping or solver; otherwise the first differing pair in output order
is refuted from its lowest differing row.  Anything wider runs the
structural-then-SAT path unchanged.  These tests hold the default check
to that portfolio named outright: the same verdict, failing output and
reason everywhere.  A counterexample from the SAT path is the same one;
a counterexample from the tables must tell the two circuits themselves
apart under two-valued evaluation.
"""

from __future__ import annotations

import random

import pytest

from repro.aig.aig import AIG
from repro.api import VerifyRequest, verify_pair
from repro.bench.mutations import sample_mutations
from repro.bench.random_circuits import random_combinational
from repro.cec.engine import _TABLE_INPUTS, CecVerdict, check_equivalence
from repro.netlist.build import CircuitBuilder
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.runtime.budget import REASON_TIMEOUT, Budget
from repro.sim.logic2 import evaluate_combinational
from repro.synth.script import script_delay

from tests.cec.test_sweep_parallel import (
    SAT_PATH,
    lowered_cbf_pair,
    xor_chain,
    xor_tree,
)
from tests.cec.test_sweep_trajectory import table1_pair


def output_values(c1, c2, assignment, output):
    """``output`` of each circuit on ``assignment``, by gate evaluation."""
    values = []
    for circuit in (c1, c2):
        inputs = {pi: int(assignment.get(pi, False)) for pi in circuit.inputs}
        values.append(evaluate_combinational(circuit, inputs, 1)[output])
    return values


def assert_same_decision(c1, c2):
    """The default check against the SAT portfolio; the default's result."""
    default = check_equivalence(c1, c2)
    sat = check_equivalence(c1, c2, SAT_PATH)
    assert default.verdict is sat.verdict
    assert default.failing_output == sat.failing_output
    assert default.reason == sat.reason
    if decided_by_tables(default) and not default.equivalent:
        v1, v2 = output_values(
            c1, c2, default.counterexample, default.failing_output
        )
        assert v1 != v2
    else:
        assert default.counterexample == sat.counterexample
    return default


def decided_by_tables(result) -> bool:
    return result.stats.get("engine_tables", 0) > 0


def chains_circuit(n_inputs, widths, seed, name="chains"):
    """One output per width: a chain of random AND/OR/XOR/XNOR gates
    over that many distinct random inputs, so it reads every one."""
    rng = random.Random(seed)
    b = CircuitBuilder(name)
    xs = list(b.inputs(*[f"i{k}" for k in range(n_inputs)]))
    ops = (b.AND, b.OR, b.XOR, b.XNOR)
    for j, width in enumerate(widths):
        acc, *rest = rng.sample(xs, width)
        for x in rest:
            acc = rng.choice(ops)(acc, x)
        b.output(acc, name=f"o{j}")
    return b.circuit


def random_pairs():
    """Seeded pairs: each circuit against its resynthesised self, an
    unrelated circuit with the same outputs, and mutants of the
    resynthesised side.

    The ``random_combinational`` circuits read a few inputs an output;
    the chain circuits read 8 to 23, around the cut-off, in several
    output groups per pair.
    """
    pairs = []
    for seed in range(4):
        widths = (8, 17, 17, _TABLE_INPUTS) + (_TABLE_INPUTS + 1,) * (seed % 2)
        for make in (
            lambda s: random_combinational(
                n_inputs=9, n_gates=80, n_outputs=4, seed=s
            ),
            lambda s: chains_circuit(26, widths, s),
        ):
            c1 = make(seed)
            c2 = c1.copy("resynth")
            script_delay(c2)
            pairs.append((c1, c2))
            pairs.append((c1, make(seed + 50)))
            pairs.extend(
                (c1, mutant) for _, mutant in sample_mutations(c2, 4, seed)
            )
    return pairs


class TestDifferential:
    def test_random_pairs(self):
        verdicts = []
        for c1, c2 in random_pairs():
            result = assert_same_decision(c1, c2)
            verdicts.append((result.verdict, decided_by_tables(result)))
        # Tables prove and refute the narrow pairs; a pair with a
        # 23-input output goes to SAT either way.
        assert (CecVerdict.EQUIVALENT, True) in verdicts
        assert (CecVerdict.NOT_EQUIVALENT, True) in verdicts
        assert (CecVerdict.NOT_EQUIVALENT, False) in verdicts

    @pytest.mark.parametrize(
        "name, count",
        [("s9234", 12), ("s3271", 6), ("s3384", 12), ("s6669", 12)],
    )
    def test_table1_mutants(self, name, count):
        golden, revised = table1_pair(name)
        outcomes = set()
        for mutation, mutant in sample_mutations(revised, count, 0):
            comb1, comb2 = lowered_cbf_pair(golden, mutant)
            result = assert_same_decision(comb1, comb2)
            assert decided_by_tables(result), mutation.describe()
            assert result.stats["sat_queries"] == 0, mutation.describe()
            outcomes.add(result.verdict)
        assert outcomes == {CecVerdict.EQUIVALENT, CecVerdict.NOT_EQUIVALENT}


def two_sided(build1, build2, inputs):
    """Circuits ``a`` and ``b`` over ``inputs``, one output ``o`` each."""
    circuits = []
    for name, build in (("a", build1), ("b", build2)):
        b = CircuitBuilder(name)
        b.inputs(*inputs)
        b.output(build(b), name="o")
        circuits.append(b.circuit)
    return circuits


def xor_parts(b):
    """An XOR and an XNOR of ``x``, ``y`` that no hash table can pair."""
    return b.XOR("x", "y"), b.XNOR("x", "y")


def complemented_tree(n):
    """``xor_tree(n)`` with its output complemented: it differs from
    ``xor_chain(n)`` on every row."""
    tree = xor_tree(n)
    gate = tree.gates["o"]
    tree.gates["o"] = type(gate)(
        gate.output, gate.inputs, gate.sop.complement()
    )
    return tree


def parity_pair(n_inputs, outputs):
    """Circuits ``a`` and ``b`` over ``x0..``, one output per entry of
    ``outputs``: ``name -> (input indexes, flip)``.

    Each output is the parity of its inputs, a chain in ``a`` and a tree
    in ``b``, so no hash table pairs them.  ``b`` XORs in ``flip(builder)``
    where ``flip`` is not None, so the pair differs exactly where it is 1.
    """
    circuits = []
    for name in ("a", "b"):
        b = CircuitBuilder(name)
        b.inputs(*[f"x{i}" for i in range(n_inputs)])
        for out, (indexes, flip) in outputs.items():
            xs = [f"x{i}" for i in indexes]
            if name == "a":
                signal = xs[0]
                for x in xs[1:]:
                    signal = b.XOR(signal, x)
            else:
                signal = b.xor_tree(xs)
                if flip is not None:
                    signal = b.XOR(signal, flip(b))
            b.output(signal, name=out)
        circuits.append(b.circuit)
    return circuits


def slice_pair(b_differs):
    """Outputs ``a`` and ``b`` that read x0..x19: one group of 16 slices,
    x16..x19 counted up by the slice number.

    ``a`` differs only where x3 and x16..x19 are True, so first in slice
    15, at row ``1 << 3``.  ``b`` differs, when ``b_differs``, where x0 is
    True and x19 False, so first in slice 0.
    """
    flip_a = lambda b: b.AND("x3", "x16", "x17", "x18", "x19")
    flip_b = (lambda b: b.ANDN("x0", "x19")) if b_differs else None
    every = range(20)
    return parity_pair(20, {"a": (every, flip_a), "b": (every, flip_b)})


def expire_after_first_slice(monkeypatch, budget):
    """Make ``budget`` run out while the first table slice is computed;
    returns the list the slices taken are appended to."""
    taken = []
    cone_tables = AIG.cone_tables

    def tables(aig, lits):
        for words in cone_tables(aig, lits):
            taken.append(words)
            monkeypatch.setattr(budget, "expired", lambda: True)
            yield words

    monkeypatch.setattr(AIG, "cone_tables", tables)
    return taken


class TestEdges:
    def test_cutoff_output_is_decided_by_tables(self):
        result = assert_same_decision(
            xor_chain(_TABLE_INPUTS), xor_tree(_TABLE_INPUTS)
        )
        assert result.equivalent
        assert result.stats["engine_tables"] == 1
        assert result.stats["sat_queries"] == 0

    def test_wider_output_falls_through_to_sat(self):
        n = _TABLE_INPUTS + 1
        result = assert_same_decision(xor_chain(n), xor_tree(n))
        assert result.equivalent
        assert result.stats.get("engine_tables", 0) == 0
        assert result.stats["sat_queries"] > 0

    def test_cutoff_output_that_differs_is_refuted_by_tables(self):
        result = assert_same_decision(
            xor_chain(_TABLE_INPUTS), complemented_tree(_TABLE_INPUTS)
        )
        assert result.verdict is CecVerdict.NOT_EQUIVALENT
        assert result.stats["engine_tables"] == 1
        assert result.stats["sat_queries"] == 0
        # Row 0 already differs: every input False.
        assert not any(result.counterexample.values())

    def test_wider_output_that_differs_is_refuted_by_sat(self):
        n = _TABLE_INPUTS + 1
        result = assert_same_decision(xor_chain(n), complemented_tree(n))
        assert result.verdict is CecVerdict.NOT_EQUIVALENT
        assert result.stats.get("engine_tables", 0) == 0
        assert result.stats["sat_queries"] > 0

    def test_first_output_in_order_is_reported(self):
        # Outputs a and c read x0..x3 and b reads x4..x7, so the {x0..x3}
        # group comes first.  It finds c's difference, and the {x4..x7}
        # group still runs, because b comes before c.
        flip = lambda b: b.CONST1()
        a, b = parity_pair(
            8,
            {
                "a": (range(4), None),
                "b": (range(4, 8), flip),
                "c": (range(4), flip),
            },
        )
        result = assert_same_decision(a, b)
        assert result.failing_output == "b"
        assert result.stats["engine_tables"] == 2
        assert result.stats["sat_queries"] == 0

    def test_earlier_output_differing_in_a_later_slice_is_reported(self):
        result = assert_same_decision(*slice_pair(b_differs=True))
        assert result.failing_output == "a"
        assert result.stats["engine_tables"] == 1
        assert result.stats["sat_queries"] == 0

    def test_high_inputs_come_from_the_slice_number(self):
        result = assert_same_decision(*slice_pair(b_differs=False))
        assert result.failing_output == "a"
        assert result.stats["sat_queries"] == 0
        # The lowest differing row, 15 << 16 | 1 << 3.
        assert result.counterexample == {
            f"x{i}": i in (3, 16, 17, 18, 19) for i in range(20)
        }

    def test_counterexample_is_validated(self, monkeypatch):
        # A row mapping that returns a row where a agrees must raise
        # instead of refuting the check.
        def row_zero(aig, lits, slice_no, bit):
            return dict.fromkeys(aig.pi_names, False)

        monkeypatch.setattr(AIG, "cone_table_row", row_zero)
        with pytest.raises(RuntimeError, match="does not distinguish"):
            check_equivalence(*slice_pair(b_differs=False))

    def test_input_on_one_side_only(self):
        # ``b`` reads d in both phases, so the union of the two cones
        # holds an input that ``a`` lacks.
        def with_d(b):
            b.inputs("d")
            return b.AND(b.OR(b.AND("d", "x"), b.ANDN("x", "d")), "y")

        a, b = two_sided(lambda b: b.AND("x", "y"), with_d, ["x", "y"])
        result = assert_same_decision(a, b)
        assert result.equivalent and decided_by_tables(result)

        def reads_d(b):
            b.inputs("d")
            return b.AND("x", "y", "d")

        a, b = two_sided(lambda b: b.AND("x", "y"), reads_d, ["x", "y"])
        result = assert_same_decision(a, b)
        assert result.verdict is CecVerdict.NOT_EQUIVALENT
        assert result.counterexample["d"] is False

    @pytest.mark.parametrize("constant", [0, 1])
    def test_constant_output_literal(self, constant):
        def const(b):
            return b.CONST1() if constant else b.CONST0()

        def hidden(b):
            xor, xnor = xor_parts(b)
            return b.OR(xor, xnor) if constant else b.AND(xor, xnor)

        a, b = two_sided(const, hidden, ["x", "y"])
        result = assert_same_decision(a, b)
        assert result.equivalent and decided_by_tables(result)

        a, b = two_sided(const, lambda b: xor_parts(b)[0], ["x", "y"])
        assert assert_same_decision(a, b).verdict is CecVerdict.NOT_EQUIVALENT

    def test_complemented_output_literals(self):
        a, b = two_sided(
            lambda b: b.NOT(b.XOR("x", "y")),
            lambda b: b.XNOR("x", "y"),
            ["x", "y"],
        )
        result = assert_same_decision(a, b)
        assert result.equivalent and decided_by_tables(result)

        a, b = two_sided(
            lambda b: b.NOT(b.XOR("x", "y")),
            lambda b: b.NOT(b.XNOR("x", "y")),
            ["x", "y"],
        )
        assert assert_same_decision(a, b).verdict is CecVerdict.NOT_EQUIVALENT

    def test_spent_budget_skips_the_phase(self):
        result = check_equivalence(xor_chain(8), xor_tree(8), budget=0.0)
        assert result.verdict is CecVerdict.UNKNOWN
        assert result.reason == REASON_TIMEOUT
        assert "time_tables" not in result.stats

    def test_budget_is_read_before_every_slice(self, monkeypatch):
        # 20 inputs make 16 slices of 2^16 rows.  A budget that runs out
        # during the first stops the phase before the second, and the
        # SAT path reports the timeout.
        budget = Budget(wall_seconds=1e4)
        taken = expire_after_first_slice(monkeypatch, budget)
        result = check_equivalence(xor_chain(20), xor_tree(20), budget=budget)
        assert len(taken) == 1
        assert result.verdict is CecVerdict.UNKNOWN
        assert result.reason == REASON_TIMEOUT
        assert "engine_tables" not in result.stats

    def test_budget_spent_before_the_encoding_encodes_nothing(
        self, monkeypatch
    ):
        # The output phase would stop at the first open pair, a; the
        # check stops there without encoding the miter to CNF.
        budget = Budget(wall_seconds=1e4)
        expire_after_first_slice(monkeypatch, budget)
        tracer = Tracer(sink=[])
        result = check_equivalence(
            *slice_pair(b_differs=True), budget=budget, tracer=tracer
        )
        tracer.close()
        assert result.verdict is CecVerdict.UNKNOWN
        assert result.reason == REASON_TIMEOUT
        assert result.stats["budget_exhausted"] == 1
        assert "time_encode" not in result.stats
        assert "time_outputs" not in result.stats
        (instant,) = [
            e for e in tracer.events if e["name"] == "budget.exhausted"
        ]
        assert instant["args"] == {"output": "a", "reason": REASON_TIMEOUT}

    def test_budget_spent_inside_a_refuting_group(self, monkeypatch):
        # The first slice refutes b, but a, before it in output order, is
        # not proven equal yet: the check is UNKNOWN, not a refutation.
        budget = Budget(wall_seconds=1e4)
        taken = expire_after_first_slice(monkeypatch, budget)
        result = check_equivalence(*slice_pair(b_differs=True), budget=budget)
        assert len(taken) == 1
        assert result.verdict is CecVerdict.UNKNOWN
        assert result.reason == REASON_TIMEOUT
        assert "engine_tables" not in result.stats

    def test_unspent_budget_changes_nothing(self):
        c1, c2 = xor_chain(12), xor_tree(12)
        free = check_equivalence(c1, c2)
        bounded = check_equivalence(c1, c2, budget=Budget(wall_seconds=1e4))
        assert bounded.equivalent and free.equivalent
        assert bounded.stats["engine_tables"] == free.stats["engine_tables"]

    def test_named_portfolio_runs_no_tables(self):
        result = check_equivalence(xor_chain(8), xor_tree(8), SAT_PATH)
        assert "time_tables" not in result.stats
        assert "engine_tables" not in result.stats
        assert result.stats["sat_queries"] > 0


class TestReporting:
    def test_traced_check_shows_the_phase_under_the_check(self):
        tracer = Tracer(sink=[])
        metrics = MetricsRegistry()
        c1, c2 = xor_chain(10), xor_tree(10)
        result = check_equivalence(c1, c2, tracer=tracer, metrics=metrics)
        tracer.close()
        spans = {e["name"]: e for e in tracer.events if e["type"] == "span"}
        phase = spans["cec.phase.tables"]
        assert phase["parent"] == spans["cec.check"]["id"]
        assert phase["cat"] == "phase"
        assert phase["args"]["decided"] == 1
        assert phase["args"]["widest_support"] == 10
        assert "cec.phase.encode" not in spans
        assert metrics.gauge("cec.tables.widest_support") == 10
        assert metrics.counter("cec.engine.tables.decided") == 1
        assert result.stats["time_tables"] > 0
        assert "refuted" not in phase["args"]

    def test_refuting_span_names_the_failing_output(self):
        # Outputs a, b and c: a is proven equal, b refuted, c left open,
        # so the phase settled two pairs, as the SAT output phase would.
        flip = lambda b: b.CONST1()
        c1, c2 = parity_pair(
            6,
            {
                "a": (range(6), None),
                "b": (range(6), flip),
                "c": (range(6), flip),
            },
        )
        tracer = Tracer(sink=[])
        metrics = MetricsRegistry()
        result = check_equivalence(c1, c2, tracer=tracer, metrics=metrics)
        tracer.close()
        spans = {e["name"]: e for e in tracer.events if e["type"] == "span"}
        assert spans["cec.phase.tables"]["args"]["refuted"] == "b"
        assert spans["cec.phase.tables"]["args"]["decided"] == 2
        assert "cec.phase.encode" not in spans
        assert metrics.counter("cec.engine.tables.decided") == 2
        sat = check_equivalence(c1, c2, SAT_PATH)
        assert sat.engine.engines_used == {"sat": 2}
        assert result.failing_output == sat.failing_output == "b"

    def test_report_names_tables_in_engine_used(self):
        golden, revised = table1_pair("s9234")
        report = verify_pair(VerifyRequest(golden=golden, revised=revised))
        assert report.equivalent
        assert set(report.engine_used) == {"tables"}
        assert report.stats["cec_sat_queries"] == 0

    def test_refuted_report_names_tables_in_engine_used(self):
        golden, revised = table1_pair("s9234")
        for _, mutant in sample_mutations(revised, 12, 0):
            report = verify_pair(VerifyRequest(golden=golden, revised=mutant))
            if not report.equivalent:
                break
        assert report.verdict == "not_equivalent"
        assert set(report.engine_used) == {"tables"}
        assert report.stats["cec_sat_queries"] == 0
        assert report.counterexample
