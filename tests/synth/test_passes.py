"""Synthesis-pass tests: every pass must preserve every output function."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.random_circuits import random_combinational
from repro.cec.engine import check_equivalence
from repro.netlist.build import CircuitBuilder
from repro.netlist.circuit import Gate
from repro.netlist.cube import Sop
from repro.netlist.validate import validate_circuit
from repro.synth.decomp import algebraic_decomp, tech_decomp
from repro.synth.depth import circuit_depth, reduce_depth
from repro.synth.eliminate import eliminate, node_value
from repro.synth.fx import fast_extract
from repro.synth.network import compose_sop, fanout_counts
from repro.synth.resub import _try_divide, resubstitute
from repro.synth.simplify import simplify_network
from repro.synth.sweep import sweep

PASSES = {
    "sweep": sweep,
    "decomp": algebraic_decomp,
    "tech_decomp": tech_decomp,
    "resub": resubstitute,
    "reduce_depth": reduce_depth,
    "eliminate": lambda c: eliminate(c, threshold=-1),
    "simplify": simplify_network,
    "fx": fast_extract,
}


@pytest.mark.parametrize("name", sorted(PASSES))
@pytest.mark.parametrize("seed", range(4))
def test_pass_preserves_function(name, seed):
    c = random_combinational(n_inputs=6, n_gates=25, seed=seed)
    original = c.copy("orig")
    PASSES[name](c)
    validate_circuit(c)
    assert check_equivalence(original, c).equivalent, name


@pytest.mark.parametrize("seed", range(3))
def test_pass_pipeline_preserves_function(seed):
    """All passes chained (the script order) stay correct."""
    c = random_combinational(n_inputs=7, n_gates=40, seed=seed)
    original = c.copy("orig")
    for name in [
        "sweep",
        "decomp",
        "tech_decomp",
        "resub",
        "sweep",
        "reduce_depth",
        "eliminate",
        "simplify",
        "sweep",
        "decomp",
        "fx",
        "tech_decomp",
    ]:
        PASSES[name](c)
        validate_circuit(c)
    assert check_equivalence(original, c).equivalent


class TestSweep:
    def test_removes_dangling(self, builder):
        a, b = builder.inputs("a", "b")
        keep = builder.AND(a, b, name="o")
        builder.NOT(a)
        builder.output(keep)
        sweep(builder.circuit)
        assert builder.circuit.num_gates() == 1

    def test_folds_constants(self, builder):
        a = builder.input("a")
        one = builder.CONST1()
        g = builder.AND(a, one, name="o")
        builder.output(g)
        sweep(builder.circuit)
        gate = builder.circuit.gates["o"]
        assert gate.inputs == ("a",)

    def test_bypasses_buffers(self, builder):
        a = builder.input("a")
        buf = builder.BUF(a)
        g = builder.NOT(buf, name="o")
        builder.output(g)
        sweep(builder.circuit)
        assert builder.circuit.gates["o"].inputs == ("a",)

    def test_merges_inverters(self, builder):
        a, b = builder.inputs("a", "b")
        na = builder.NOT(a)
        g = builder.AND(na, b, name="o")
        builder.output(g)
        sweep(builder.circuit)
        gate = builder.circuit.gates["o"]
        assert set(gate.inputs) == {"a", "b"}
        assert builder.circuit.num_gates() == 1

    def test_keeps_po_constants(self, builder):
        builder.inputs("a")
        one = builder.CONST1(name="o")
        builder.output(one)
        sweep(builder.circuit)
        assert "o" in builder.circuit.gates


class TestEliminate:
    def test_node_value_formula(self, builder):
        a, b = builder.inputs("a", "b")
        g = builder.AND(a, b)  # 2 literals
        u1 = builder.NOT(g, name="o1")
        u2 = builder.BUF(g, name="o2")
        builder.output(u1)
        builder.output(u2)
        counts = fanout_counts(builder.circuit)
        # value = (2-1)*2 - 2 = 0
        assert node_value(builder.circuit, g, counts) == 0

    def test_reader_gained_in_a_round_is_collapsed_into(self, builder):
        """m1 goes first (name order at equal value), so r reads n1 only
        after that collapse; n1's collapse in the same round must reach r."""
        a, b, c, d = builder.inputs("a", "b", "c", "d")
        builder.AND(a, b, name="n1")
        builder.OR("n1", c, name="m1")
        builder.output(builder.AND("m1", d, name="r"))
        circuit = builder.circuit
        original = circuit.copy("orig")
        eliminate(circuit, threshold=-1, max_rounds=1)
        assert list(circuit.gates) == ["r"]
        assert set(circuit.gates["r"].inputs) == {"a", "b", "c", "d"}
        assert check_equivalence(original, circuit).equivalent

    def test_collapse_guard_respects_limit(self, builder):
        """XOR-chain collapse would blow up; the guard must prevent it."""
        sigs = list(builder.inputs(*[f"x{i}" for i in range(12)]))
        acc = sigs[0]
        for s in sigs[1:]:
            acc = builder.XOR(acc, s)
        builder.output(acc, name="o")
        c = builder.circuit
        original = c.copy("orig")
        eliminate(c, threshold=100, max_literals=60)
        validate_circuit(c)
        for gate in c.gates.values():
            assert gate.num_literals <= 60
        assert check_equivalence(original, c).equivalent


def _compose_reference(outer, outer_inputs, inner_signal, inner, inner_inputs):
    """The original composition: complements ``inner`` whether or not used."""
    merged = [s for s in outer_inputs if s != inner_signal]
    for s in inner_inputs:
        if s not in merged:
            merged.append(s)
    index = {s: i for i, s in enumerate(merged)}
    n = len(merged)
    if inner_signal not in outer_inputs:
        return outer.permute([index[s] for s in outer_inputs], n), tuple(merged)
    inner_mapped = inner.permute([index[s] for s in inner_inputs], n)
    inner_comp = inner_mapped.complement()
    cubes = []
    for cube in outer.cubes:
        phase, rest_chars, contradictory = None, ["-"] * n, False
        for i, ch in enumerate(cube):
            if ch == "-":
                continue
            s = outer_inputs[i]
            if s == inner_signal:
                if phase is not None and phase != (ch == "1"):
                    contradictory = True
                    break
                phase = ch == "1"
            else:
                j = index[s]
                if rest_chars[j] not in ("-", ch):
                    contradictory = True
                    break
                rest_chars[j] = ch
        if contradictory:
            continue
        rest = Sop(n, ("".join(rest_chars),))
        if phase is None:
            cubes.extend(rest.cubes)
        else:
            cubes.extend(rest.and_(inner_mapped if phase else inner_comp).cubes)
    return Sop(n, tuple(cubes)).scc_minimal(), tuple(merged)


def _covers(ninputs):
    cube = st.text(alphabet="01-", min_size=ninputs, max_size=ninputs)
    return st.lists(cube, max_size=5).map(lambda cs: Sop(ninputs, tuple(cs)))


def _resub_all_pairs(circuit):
    """Reference resubstitution: every gate is tried as a divisor, in order."""
    names = list(circuit.gates)
    for target_name in names:
        target = circuit.gates[target_name]
        if len(target.sop.cubes) < 2 or len(set(target.inputs)) != len(target.inputs):
            continue
        best = None
        for div_name in names:
            divisor = circuit.gates[div_name]
            if (
                div_name == target_name
                or len(divisor.sop.cubes) < 2
                or divisor.num_literals > 30
                or not set(divisor.inputs) <= set(target.inputs)
            ):
                continue
            rewritten = _try_divide(target, divisor)
            if rewritten is not None and rewritten[0] > 0:
                if best is None or rewritten[0] > best[0]:
                    best = rewritten
        if best is not None:
            circuit.replace_gate(Gate(target_name, best[2], best[1]))


class TestResub:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_network_as_the_all_pairs_scan(self, seed):
        c = random_combinational(n_inputs=5, n_gates=30, seed=seed)
        reference = c.copy("ref")
        _resub_all_pairs(reference)
        resubstitute(c)
        assert c.gates == reference.gates
        assert list(c.gates) == list(reference.gates)


class TestComposeSop:
    # outer reads (x, g, y, a); g is the inner node over (a, b, c).
    OUTER = ["x", "g", "y", "a"]
    INNER = ["a", "b", "c"]

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_cover_identical_to_reference(self, data):
        # Positive-only reads of g never need the complement; mixed reads do.
        g_phases = data.draw(st.sampled_from(["1-", "01-"]))
        cubes = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from("01-"),
                    st.sampled_from(g_phases),
                    st.sampled_from("01-"),
                    st.sampled_from("01-"),
                ).map("".join),
                max_size=5,
            )
        )
        outer = Sop(4, tuple(cubes))
        inner = data.draw(_covers(3))
        args = (outer, self.OUTER, "g", inner, self.INNER)
        assert compose_sop(*args) == _compose_reference(*args)

    def test_positive_and_negated_reads_pinned(self):
        inner = Sop(2, ("1-", "-1"))  # g = a + b
        positive = Sop(2, ("11", "0-"))  # x g + x'
        assert compose_sop(positive, ["x", "g"], "g", inner, ["a", "b"]) == (
            Sop(3, ("1-1", "11-", "0--")),
            ("x", "a", "b"),
        )
        negated = Sop(2, ("10", "01"))  # x g' + x' g
        assert compose_sop(negated, ["x", "g"], "g", inner, ["a", "b"]) == (
            Sop(3, ("100", "0-1", "01-")),
            ("x", "a", "b"),
        )

    def test_substitution_semantics(self):
        # outer = x AND y over [x, inner]; inner = a OR b
        outer = Sop(2, ("11",))
        inner = Sop(2, ("1-", "-1"))
        sop, fanins = compose_sop(outer, ["x", "g"], "g", inner, ["a", "b"])
        assert set(fanins) == {"x", "a", "b"}
        idx = {s: i for i, s in enumerate(fanins)}
        for x in (False, True):
            for a in (False, True):
                for b in (False, True):
                    vec = {"x": x, "a": a, "b": b}
                    asg = [vec[fanins[i]] for i in range(len(fanins))]
                    assert sop.eval_bool(asg) == (x and (a or b))

    def test_negative_literal_substitution(self):
        outer = Sop(1, ("0",))  # NOT g
        inner = Sop(2, ("11",))  # a AND b
        sop, fanins = compose_sop(outer, ["g"], "g", inner, ["a", "b"])
        idx = {s: i for i, s in enumerate(fanins)}
        for a in (False, True):
            for b in (False, True):
                vec = {"a": a, "b": b}
                asg = [vec[s] for s in fanins]
                assert sop.eval_bool(asg) == (not (a and b))


class TestDepth:
    def test_reduce_depth_balances_chain(self, builder):
        sigs = list(builder.inputs(*[f"x{i}" for i in range(8)]))
        acc = sigs[0]
        for s in sigs[1:]:
            acc = builder.AND(acc, s)
        builder.output(acc, name="o")
        c = builder.circuit
        original = c.copy("orig")
        before = circuit_depth(c)
        reduce_depth(c)
        validate_circuit(c)
        after = circuit_depth(c)
        assert after < before
        assert after == 3  # ceil(log2(8))
        assert check_equivalence(original, c).equivalent

    def test_circuit_depth_ignores_buffers(self, builder):
        a = builder.input("a")
        buf = builder.BUF(a)
        g = builder.NOT(buf, name="o")
        builder.output(g)
        assert circuit_depth(builder.circuit) == 1
