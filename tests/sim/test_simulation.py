"""Simulator tests: 2-valued, conservative 3-valued, exact 3-valued."""

from __future__ import annotations

import itertools
import random

import pytest

import repro.sim.exact3 as exact3_module
from repro.bench.counterex import fig1_pair
from repro.bench.mutations import sample_mutations
from repro.bench.random_circuits import random_acyclic_sequential
from repro.netlist.build import CircuitBuilder
from repro.sim.exact3 import (
    BATCH_LANES,
    BOT,
    exact3_batch_size,
    exact3_distinguishes,
    exact3_equivalent,
    exact3_outputs,
)
from repro.sim.logic2 import simulate, simulate_parallel
from repro.sim.logic3 import X, simulate3
from tests.core.cex_oracle import distinguishes_alone


class TestLogic2:
    def test_latch_delays_by_one(self, builder):
        (a,) = builder.inputs("a")
        builder.output(builder.latch(a), name="o")
        tr = simulate(
            builder.circuit,
            [{"a": True}, {"a": False}, {"a": True}],
            None,
        )
        assert [t["o"] for t in tr.outputs] == [False, True, False]

    def test_enabled_latch_holds(self, builder):
        d, e = builder.inputs("d", "e")
        builder.output(builder.latch(d, enable=e), name="o")
        vecs = [
            {"d": 1, "e": 1},  # loads 1
            {"d": 0, "e": 0},  # holds
            {"d": 0, "e": 1},  # loads 0
            {"d": 1, "e": 0},  # holds
        ]
        tr = simulate(builder.circuit, [{k: bool(v) for k, v in t.items()} for t in vecs], None)
        assert [t["o"] for t in tr.outputs] == [False, True, True, False]

    def test_parallel_matches_scalar(self):
        c = random_acyclic_sequential(seed=5, enabled=True)
        rng = random.Random(0)
        vecs = [{i: rng.random() < 0.5 for i in c.inputs} for _ in range(6)]
        init = {l: rng.random() < 0.5 for l in c.latches}
        scalar = simulate(c, vecs, init)
        words = [
            {i: (1 if vec[i] else 0) for i in c.inputs} for vec in vecs
        ]
        par = simulate_parallel(
            c, words, {l: (1 if v else 0) for l, v in init.items()}, 1
        )
        for t in range(6):
            for o in c.outputs:
                assert bool(par[t][o]) == scalar.outputs[t][o]

    def test_missing_input_raises(self, builder):
        (a,) = builder.inputs("a")
        builder.output(builder.BUF(a), name="o")
        with pytest.raises(KeyError):
            simulate_parallel(builder.circuit, [{}], {}, 1)


class TestLogic3:
    def test_x_propagates_conservatively(self, builder):
        a, b = builder.inputs("a", "b")
        builder.output(builder.AND(a, b), name="o")
        out = simulate3(builder.circuit, [{"a": X, "b": False}])
        assert out[0]["o"] is False  # AND with 0 kills X
        out = simulate3(builder.circuit, [{"a": X, "b": True}])
        assert out[0]["o"] is X

    def test_uncorrelated_x(self):
        """The Fig. 1 phenomenon: q XOR q is X for a 3-valued simulator."""
        fig1a, _ = fig1_pair()
        out = simulate3(fig1a, [{"i": False}])
        assert out[0]["o"] is X

    def test_known_powerup_resolves(self):
        fig1a, _ = fig1_pair()
        out = simulate3(fig1a, [{"i": False}], initial_state={"q": True})
        assert out[0]["o"] is False

    def test_enabled_latch_x_enable(self, builder):
        d, e = builder.inputs("d", "e")
        builder.output(builder.latch(d, enable=e), name="o")
        # cycle 0: X enable, data 1, held X -> next state X
        out = simulate3(
            builder.circuit, [{"d": True, "e": X}, {"d": True, "e": False}]
        )
        assert out[1]["o"] is X


class TestExact3:
    def test_fig1_is_defined(self):
        """Exact semantics correlates the two uses of the same latch."""
        fig1a, fig1b = fig1_pair()
        out = exact3_outputs(fig1a, [{"i": False}])
        assert out[0]["o"] is False
        assert exact3_equivalent(
            fig1a, fig1b, [[{"i": False}], [{"i": True}, {"i": False}]]
        )

    def test_undefined_before_flush(self, builder):
        (a,) = builder.inputs("a")
        builder.output(builder.latch(a, name="q"), name="o")
        out = exact3_outputs(builder.circuit, [{"a": True}, {"a": False}])
        assert out[0]["o"] is BOT  # still power-up dependent
        assert out[1]["o"] is True

    def test_exact3_differs_from_sim3(self, builder):
        """Conservative X where the exact value is defined."""
        (a,) = builder.inputs("a")
        q = builder.latch(a, name="q")
        builder.output(builder.OR(q, builder.NOT(q)), name="o")
        assert simulate3(builder.circuit, [{"a": False}])[0]["o"] is X
        assert exact3_outputs(builder.circuit, [{"a": False}])[0]["o"] is True

    def test_sampling_path_for_large_circuits(self):
        c = random_acyclic_sequential(
            n_latches=20, n_gates=30, seed=9
        )  # > enumeration limit
        out = exact3_outputs(c, [{i: False for i in c.inputs}], samples=64)
        assert set(out[0]) == set(c.outputs)

    def test_equivalence_rejects_different(self, builder):
        b2 = CircuitBuilder("other")
        (a,) = builder.inputs("a")
        builder.output(builder.latch(a), name="o")
        (a2,) = b2.inputs("a")
        b2.output(b2.latch(b2.NOT(a2)), name="o")
        seqs = [[{"a": True}, {"a": True}]]
        assert not exact3_equivalent(builder.circuit, b2.circuit, seqs)

    def test_io_mismatch_raises(self, builder):
        (a,) = builder.inputs("a")
        builder.output(a, name="o")
        b2 = CircuitBuilder("b2")
        b2.inputs("z")
        b2.output("z", name="o")
        with pytest.raises(ValueError):
            exact3_equivalent(builder.circuit, b2.circuit, [])


def _with_unread_latches(circuit, count):
    """``circuit`` plus ``count`` latches nothing reads: the same function
    over a wider power-up block."""
    wider = circuit.copy(circuit.name + f"_w{count}")
    for j in range(count):
        wider.add_latch(f"unread{j}", circuit.inputs[j % len(circuit.inputs)])
    return wider


class TestExact3Batches:
    @pytest.mark.parametrize(
        "latches, enabled, unread",
        [
            (0, False, 0),
            (0, False, 3),  # 1 lane against 8 per trace
            (3, False, 0),
            (5, True, 2),
            (16, False, 0),  # 65,536 lanes: one trace per run
            (16, False, 1),  # enumerated against 256 samples
            (20, False, 0),
            (20, True, 0),
        ],
    )
    @pytest.mark.parametrize("seed", range(2))
    def test_batch_answers_equal_one_trace_answers(self, latches, enabled, unread, seed):
        c1 = random_acyclic_sequential(
            n_latches=latches, n_gates=20, n_outputs=3, enabled=enabled, seed=seed
        )
        rng = random.Random(seed)
        answers = []
        for c2 in [c1] + [m for _, m in sample_mutations(c1, 6, seed)]:
            c2 = _with_unread_latches(c2, unread)
            traces = [
                [{i: rng.random() < 0.5 for i in c1.inputs} for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 12))
            ]
            batch = list(exact3_distinguishes(c1, c2, traces))
            assert batch == [distinguishes_alone(c1, c2, trace) for trace in traces]
            answers += batch
        assert True in answers and False in answers

    def test_lane_bound_sets_the_batch_size(self):
        sampled = random_acyclic_sequential(n_latches=20, seed=1)
        assert exact3_batch_size(sampled, sampled) == BATCH_LANES // 256
        enumerated = random_acyclic_sequential(n_latches=16, seed=1)
        assert exact3_batch_size(enumerated, sampled) == 1

    def test_a_run_starts_when_its_first_answer_is_asked_for(self, monkeypatch):
        circuit = random_acyclic_sequential(n_latches=16, seed=1)
        runs = []

        def counting(*args, **kwargs):
            runs.append(1)
            return simulate_parallel(*args, **kwargs)

        monkeypatch.setattr(exact3_module, "simulate_parallel", counting)
        trace = [{i: False for i in circuit.inputs}]
        answers = exact3_distinguishes(circuit, circuit, [trace] * 3)
        assert next(answers) is False
        assert len(runs) == 2  # one run: one simulation per circuit
        assert list(answers) == [False, False] and len(runs) == 6

    @pytest.mark.parametrize("latches", range(6))
    def test_enumerated_lane_holds_its_powerup_state(self, latches):
        circuit = random_acyclic_sequential(n_latches=latches, seed=2)
        words = exact3_module._powerup_words(circuit, 256, 0)
        for i, latch in enumerate(circuit.latches):
            for lane in range(1 << latches):
                assert (words[latch] >> lane) & 1 == (lane >> i) & 1
