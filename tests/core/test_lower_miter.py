"""Lowering a CBF/EDBF pair straight into the miter AIG (Sec. 7.4).

The sequential check lowers its CBF or EDBF pair with
:func:`expr_to_miter` instead of building the combinational pair H/J
(:func:`expr_to_circuit`) and importing both into one AIG
(:func:`build_miter`).  The contract is identity: the AIG the check runs
is, node for node, the one ``build_miter(H, J)`` builds — the same AND
nodes in the same order, the same PIs, registered outputs and output
pairs — and the ``comb_gates*``/``depth*`` stats are H's and J's gate
counts and the CBFs' depths.  These tests build H and J, the independent
path, and compare.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro.core.verify as core_verify
from repro.api import VerifyRequest, verify_pair
from repro.bench.industrial import build_table2_circuit
from repro.bench.mutations import sample_mutations
from repro.cec.miter import build_miter
from repro.core.cbf import compute_cbf
from repro.core.edbf import compute_edbf
from repro.core.eq2comb import (
    cbf_to_circuit,
    edbf_to_circuit,
    expr_to_circuit,
    expr_to_miter,
)
from repro.core.events import EventContext
from repro.core.expose import prepare_circuit
from repro.core.timedvar import CONST0, CONST1, ExprTable
from repro.flows.table1 import QUICK_SET
from repro.netlist.bench_format import parse_bench_file
from repro.netlist.build import CircuitBuilder
from repro.netlist.cube import Sop
from repro.synth.script import optimize_sequential_delay
from tests.cec.test_sweep_trajectory import table1_pair

DATA = Path(__file__).parent.parent / "data"


def aig_arrays(miter):
    """Everything the identity covers, copied out of a miter."""
    aig = miter.aig
    return {
        "fanin0": list(aig._fanin0),
        "fanin1": list(aig._fanin1),
        "pis": list(aig.pis),
        "pi_names": list(aig.pi_names),
        "outputs": list(aig.outputs),
        "output_pairs": list(miter.output_pairs),
        "names": miter.names,
    }


def lowered_circuits(c1, c2, event_rewrite=None):
    """H and J, the two sides' stats, from the circuit path.

    ``event_rewrite`` None lowers CBFs, else EDBFs in a context with that
    rewrite setting.
    """
    if event_rewrite is None:
        table = ExprTable()
        f1, f2 = compute_cbf(c1, table), compute_cbf(c2, table)
        to_circuit = cbf_to_circuit
    else:
        context = EventContext(rewrite=event_rewrite)
        f1, f2 = compute_edbf(c1, context), compute_edbf(c2, context)
        to_circuit = edbf_to_circuit
    union = sorted(f1.variables() | f2.variables(), key=repr)
    h = to_circuit(f1, name=c1.name + "_H", extra_inputs=union)
    j = to_circuit(f2, name=c2.name + "_J", extra_inputs=union)
    stats = {"comb_gates1": h.num_gates(), "comb_gates2": j.num_gates()}
    if event_rewrite is None:
        stats["depth1"], stats["depth2"] = f1.depth(), f2.depth()
    return (f1, f2), (h, j), stats


def assert_same_lowering(c1, c2, event_rewrite=None):
    """The lowering, alone and inside ``verify_pair``, equals H/J's miter."""
    (f1, f2), (h, j), stats = lowered_circuits(c1, c2, event_rewrite)
    expected = aig_arrays(build_miter(h, j))
    names = (c1.name + "_H", c2.name + "_J")
    lowered = expr_to_miter(f1.table, f1.outputs, f2.outputs, names)
    if event_rewrite is None:
        depths = [max((k[2] for k in v), default=0) for v in lowered.variables]
        assert depths == [f1.depth(), f2.depth()]
    assert aig_arrays(lowered.miter) == expected
    assert lowered.gates == (h.num_gates(), j.num_gates())
    assert lowered.variables == (f1.variables(), f2.variables())

    # The miter the sequential check hands to the engine.
    seen = []
    original = core_verify.check_miter

    def spy(miter, *args, **kwargs):
        seen.append(aig_arrays(miter))
        return original(miter, *args, **kwargs)

    core_verify.check_miter = spy
    try:
        report = verify_pair(
            VerifyRequest(
                golden=c1,
                revised=c2,
                event_rewrite=bool(event_rewrite),
            )
        )
    finally:
        core_verify.check_miter = original
    assert seen == [expected]
    assert {key: report.stats[key] for key in stats} == stats
    assert report.method == ("cbf" if event_rewrite is None else "edbf")
    return report


@pytest.mark.parametrize("name", QUICK_SET)
def test_quick_table1_pairs(name):
    golden, revised = table1_pair(name)
    report = assert_same_lowering(golden, revised)
    assert report.verdict == "equivalent"


def test_s27():
    s27 = parse_bench_file(DATA / "s27.bench")
    golden = prepare_circuit(s27, use_unateness=False).circuit
    revised = optimize_sequential_delay(golden, name="s27_C")
    report = assert_same_lowering(golden, revised)
    assert report.verdict == "equivalent"


def test_refuted_mutant():
    golden, revised = table1_pair("s953")
    for _, mutant in sample_mutations(revised, 40, 0):
        report = verify_pair(VerifyRequest(golden=golden, revised=mutant))
        if report.verdict == "not_equivalent":
            break
    else:
        pytest.fail("no refuted mutant")
    refuted = assert_same_lowering(golden, mutant)
    for key in ("verdict", "failing_output", "counterexample"):
        assert getattr(refuted, key) == getattr(report, key)
    assert refuted.counterexample


@pytest.mark.parametrize("name", ["ex5", "ex10", "ex11"])
@pytest.mark.parametrize("event_rewrite", [False, True])
def test_edbf_pairs(name, event_rewrite):
    golden = prepare_circuit(build_table2_circuit(name), use_unateness=True).circuit
    revised = optimize_sequential_delay(golden, name=name + "_C")
    report = assert_same_lowering(golden, revised, event_rewrite)
    assert report.verdict in ("equivalent", "inconclusive")


def _pair(build_golden, build_revised, inputs=("a", "b")):
    circuits = []
    for name, build in (("g", build_golden), ("r", build_revised)):
        b = CircuitBuilder(name)
        build(b, *b.inputs(*inputs))
        circuits.append(b.circuit)
    return circuits


class TestEdgeCases:
    def test_constant_outputs(self):
        def golden(b, a, c):
            b.output(b.latch(b.CONST1()), name="one")
            b.output(b.AND(a, b.CONST0()), name="zero")
            b.output(b.latch(b.XOR(a, c)), name="x")

        def revised(b, a, c):
            b.output(b.CONST0(), name="one")
            b.output(b.latch(b.CONST0()), name="zero")
            b.output(b.latch(b.XOR(c, a)), name="x")

        g, r = _pair(golden, revised)
        assert_same_lowering(g, r)
        table = ExprTable()
        cbf = compute_cbf(g, table)
        assert {cbf.outputs["one"], cbf.outputs["zero"]} == {CONST0, CONST1}

    def test_output_on_a_bare_input(self):
        def golden(b, a, c):
            b.output(b.latch(a), name="o")
            b.output(c, name="p")

        def revised(b, a, c):
            b.output(b.latch(b.OR(a, b.AND(a, c))), name="o")
            b.output(b.BUF(c), name="p")

        g, r = _pair(golden, revised)
        assert_same_lowering(g, r)
        table = ExprTable()
        cbf = compute_cbf(g, table)
        assert table.kind(cbf.outputs["o"]) == table.kind(cbf.outputs["p"]) == "v"

    def test_two_outputs_on_one_node(self):
        def golden(b, a, c):
            x = b.latch(b.OR(a, c))
            b.output(x, name="o1")
            b.output(b.BUF(x), name="o2")

        def revised(b, a, c):
            b.output(b.latch(b.OR(c, a)), name="o1")
            b.output(b.latch(b.NOT(b.AND(b.NOT(a), b.NOT(c)))), name="o2")

        g, r = _pair(golden, revised)
        assert_same_lowering(g, r)
        table = ExprTable()
        cbf = compute_cbf(g, table)
        assert cbf.outputs["o1"] == cbf.outputs["o2"]

    def test_input_only_one_side_reads(self):
        def golden(b, a, c, d):
            b.output(b.latch(b.AND(a, c)), name="o")
            b.output(b.latch(b.latch(d)), name="p")

        def revised(b, a, c, d):
            b.output(b.latch(b.AND(a, a)), name="o")
            b.output(b.latch(b.latch(d)), name="p")

        g, r = _pair(golden, revised, inputs=("a", "c", "d"))
        report = assert_same_lowering(g, r)
        assert report.verdict == "not_equivalent"
        table = ExprTable()
        f1, f2 = compute_cbf(g, table), compute_cbf(r, table)
        low = expr_to_miter(table, f1.outputs, f2.outputs, ("g", "r"))
        assert ("t", "c", 1) in low.variables[0] - low.variables[1]
        assert "c@1" in low.miter.aig.pi_names

    def test_raw_table_with_constant_and_shared_roots(self):
        table = ExprTable()
        x, y = table.var(("t", "x", 0)), table.var(("t", "y", 2))
        xor = table.apply(Sop.xor2(), [x, y])
        outputs1 = {"k": CONST1, "s": xor, "t": xor, "v": y}
        xor_again = table.apply(Sop(2, ("01", "10")), [x, y])
        outputs2 = {"k": CONST0, "s": xor_again, "t": x, "v": y}
        lowered = expr_to_miter(table, outputs1, outputs2, ("H", "J"))
        union = sorted({("t", "x", 0), ("t", "y", 2)}, key=repr)
        h = expr_to_circuit(table, outputs1, "H", union)
        j = expr_to_circuit(table, outputs2, "J", union)
        assert aig_arrays(lowered.miter) == aig_arrays(build_miter(h, j))
        # One constant and one operation node, and four output buffers.
        assert lowered.gates == (h.num_gates(), j.num_gates()) == (6, 6)

    def test_output_sets_must_match(self):
        table = ExprTable()
        with pytest.raises(ValueError, match="output sets differ"):
            expr_to_miter(table, {"a": CONST0}, {"b": CONST0}, ("H", "J"))
