"""Synthesis-pass tests: every pass must preserve every output function."""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.iscas_like import build_table1_circuit
from repro.bench.random_circuits import random_combinational
from repro.cec.engine import check_equivalence
from repro.netlist.build import CircuitBuilder
from repro.netlist.circuit import Circuit, Gate
from repro.netlist.cube import Sop
from repro.netlist.validate import validate_circuit
from repro.synth import fx, script
from repro.synth.decomp import algebraic_decomp, tech_decomp
from repro.synth.depth import circuit_depth, reduce_depth
from repro.synth.division import weak_divide
from repro.synth.eliminate import eliminate, node_value
from repro.synth.fx import fast_extract
from repro.synth.network import (
    CoverTable,
    compose_sop,
    fanout_counts,
    reader_index,
)
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

    def test_settles_when_inverter_reader_reads_its_source(self, builder, monkeypatch):
        """``g`` reads both ``a`` and ``NOT(a)``, so the inverter cannot be
        merged into it; a round that rewrites nothing must end the sweep
        instead of running to ``max_rounds``."""
        sweep_module = sys.modules["repro.synth.sweep"]
        rounds = []

        def counting_reader_index(circuit):
            rounds.append(1)
            return reader_index(circuit)

        monkeypatch.setattr(sweep_module, "reader_index", counting_reader_index)
        a, x = builder.inputs("a", "x")
        i = builder.NOT(a, name="i")
        g = builder.AND(a, i, name="g")
        builder.output(builder.OR(g, x, name="o"))
        sweep(builder.circuit)
        assert len(rounds) == 1
        assert [gate.inputs for gate in builder.circuit.gates.values()] == [
            ("a",),
            ("a", "i"),
            ("g", "x"),
        ]


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


def _check_table_compose(outer, outer_inputs, inner_signal, inner, inner_inputs):
    """The table composes as :func:`compose_sop`, keyed by wiring alone.

    A second reader and node with every signal renamed but the same wiring
    must get the renamed answer from the first one's entry.
    """
    table = CoverTable()
    args = (outer, outer_inputs, inner_signal, inner, inner_inputs)
    try:
        expected = compose_sop(*args)
    except ValueError:  # g's pins on one signal with clashing literals
        with pytest.raises(ValueError):
            table.compose(*args)
        return
    assert table.compose(*args) == expected
    rename = {s: "r_" + s for s in [*outer_inputs, inner_signal, *inner_inputs]}
    renamed = (
        outer,
        [rename[s] for s in outer_inputs],
        rename[inner_signal],
        inner,
        [rename[s] for s in inner_inputs],
    )
    assert table.compose(*renamed) == compose_sop(*renamed)
    assert table.compose(*renamed)[1] == tuple(rename[s] for s in expected[1])
    assert len(table._composed) == 1  # one entry answered all three


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


def _saving_all_covers(covers, divisor):
    """Reference ``_divisor_saving``: weak-divides every cover."""
    div_lits = sum(len(c) for c in divisor)
    saved = 0
    uses = 0
    for cover in covers.values():
        q, _ = weak_divide(cover, list(divisor))
        if q:
            uses += 1
            q_lits = sum(len(c) for c in q)
            saved += (len(divisor) - 1) * q_lits + len(q) * div_lits - len(q)
    if uses < 2:
        return -1
    return saved - div_lits


def _fx_all_covers(circuit, max_iterations=50, max_node_cubes=40):
    """Reference ``fast_extract``: no literal index, every cover scanned."""
    for counter in range(1, max_iterations + 1):
        signals = list(circuit.signals())
        global_index = {s: i for i, s in enumerate(signals)}
        covers = {
            name: fx._node_alg(gate, global_index)
            for name, gate in circuit.gates.items()
            if 2 <= len(gate.sop.cubes) <= max_node_cubes
        }
        best = None
        for divisor in set().union(*map(fx._candidates_of, covers.values())):
            saving = _saving_all_covers(covers, divisor)
            if saving > 0 and (
                best is None
                or saving > best[0]
                or (saving == best[0] and fx._div_key(divisor) < fx._div_key(best[1]))
            ):
                best = (saving, divisor)
        if best is None:
            return
        fx._extract(circuit, best[1], signals, global_index, covers, counter)


def _sop_network(seed, n_inputs=7, n_gates=10):
    """Multi-cube gates over a few shared inputs, so fx finds divisors."""
    rng = random.Random(seed)
    c = Circuit(f"sop{seed}")
    inputs = [f"x{i}" for i in range(n_inputs)]
    for x in inputs:
        c.add_input(x)
    for g in range(n_gates):
        fanins = tuple(rng.sample(inputs, rng.randint(3, 5)))
        cubes = {"1" + "-" * (len(fanins) - 1), "-0" + "-" * (len(fanins) - 2)}
        for _ in range(rng.randint(1, 5)):
            cubes.add("".join(rng.choice("01--") for _ in fanins))
        c.add_gate(f"g{g}", fanins, Sop(len(fanins), tuple(sorted(cubes))))
        c.add_output(f"g{g}")
    return c


def _extracted(circuit):
    return [
        (g.output, g.inputs, g.sop.cubes)
        for name, g in circuit.gates.items()
        if name.startswith("__fx")
    ]


class TestFx:
    @pytest.mark.parametrize("seed", range(16))
    def test_same_network_as_the_all_covers_scan(self, seed):
        c = _sop_network(seed)
        reference = c.copy("ref")
        _fx_all_covers(reference)
        fast_extract(c)
        assert c.gates == reference.gates
        assert list(c.gates) == list(reference.gates)

    def test_sop_networks_give_fx_work(self):
        extracted = [len(_extracted(fast_extract(_sop_network(s)))) for s in range(16)]
        assert sum(extracted) >= 16

    def test_minmax_row_divisors_pinned(self, monkeypatch):
        """The divisors fx extracts while synthesising the minmax10 row's A."""
        fx_inputs = []

        def recording(circuit):
            fx_inputs.append(circuit.copy())
            return fast_extract(circuit)

        monkeypatch.setattr(script, "fast_extract", recording)
        script.optimize_sequential_delay(build_table1_circuit("minmax10"))
        (c,) = fx_inputs
        reference = c.copy("ref")
        _fx_all_covers(reference)
        fast_extract(c)
        assert c.gates == reference.gates
        assert list(c.gates) == list(reference.gates)
        assert _extracted(c) == [
            ("__fx1", ("r3", "max3"), ("1-", "-0")),
            ("__fx2", ("r4", "min4"), ("0-", "-1")),
            ("__fx3", ("r6", "max6"), ("1-", "-0")),
            ("__fx4", ("r7", "min7"), ("0-", "-1")),
            ("__fx5", ("r9", "max9"), ("1-", "-0")),
        ]


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
        _check_table_compose(*args)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_table_composition_on_any_wiring(self, data):
        # Pins may repeat a signal, read g twice or not at all, or read
        # g's own fanins; g may be a constant (no fanins).
        outer_inputs = data.draw(st.lists(st.sampled_from("gxab"), min_size=1, max_size=4))
        inner_inputs = data.draw(st.lists(st.sampled_from("abc"), max_size=3))
        outer = data.draw(_covers(len(outer_inputs)))
        inner = data.draw(_covers(len(inner_inputs)))
        _check_table_compose(outer, outer_inputs, "g", inner, inner_inputs)

    @pytest.mark.parametrize(
        "outer_inputs, outer_cubes, inner_inputs, inner_cubes",
        [
            (["x", "g", "x"], ("11-", "-01"), ["a", "a"], ("11", "1-")),
            (["g", "x", "g"], ("1-1", "01-"), ["a", "b"], ("1-", "-1")),
            (["a", "g"], ("11", "0-"), ["a", "b"], ("10", "01")),
            (["x", "g"], ("10", "01"), ["a", "b"], ("11",)),
            (["x", "g"], ("11", "00"), [], ("",)),
            (["x", "g"], ("11", "00"), [], ()),
        ],
        ids=[
            "repeated-fanins",
            "g-on-two-pins",
            "reader-reads-a-fanin-of-g",
            "g-read-negated",
            "constant-1-node",
            "constant-0-node",
        ],
    )
    def test_table_composition_cases(
        self, outer_inputs, outer_cubes, inner_inputs, inner_cubes
    ):
        outer = Sop(len(outer_inputs), outer_cubes)
        inner = Sop(len(inner_inputs), inner_cubes)
        _check_table_compose(outer, outer_inputs, "g", inner, inner_inputs)

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
