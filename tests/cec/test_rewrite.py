"""Pre-sweep AIG rewriting: semantics preservation and verdict identity."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.aig.aig import AIG, FALSE_LIT, TRUE_LIT, aig_from_circuit
from repro.aig.rewrite import (
    and_rewrite,
    preprocess_miter,
    remap_literal,
    rewrite_cone,
)
from repro.bench.mutations import sample_mutations
from repro.bench.random_circuits import random_combinational
from repro.cec import SAT_PORTFOLIO, CecOptions
from repro.cec.engine import CecVerdict, check_equivalence
from repro.cec.miter import build_miter
from repro.synth.script import script_delay


def _lit_value(aig: AIG, words, lit: int) -> int:
    return (words[lit >> 1] & 1) ^ (lit & 1)


class TestAndRewrite:
    """The two-level rules are semantic AND in every case."""

    def test_rules_exhaustively_against_truth_tables(self):
        # Every operand shape one fanin level deep: a, ¬a, ab, ¬(ab) ...
        aig = AIG()
        a, b, c = aig.add_pi("a"), aig.add_pi("b"), aig.add_pi("c")
        operands = [
            TRUE_LIT,
            FALSE_LIT,
            a,
            a ^ 1,
            aig.and_(a, b),
            aig.and_(a, b) ^ 1,
            aig.and_(b, c),
            aig.and_(b, c) ^ 1,
            aig.and_(a ^ 1, c),
            aig.and_(a ^ 1, c) ^ 1,
        ]
        for x, y in itertools.product(operands, repeat=2):
            lit = and_rewrite(aig, x, y)
            for va, vb, vc in itertools.product([0, 1], repeat=3):
                words = aig.simulate({"a": va, "b": vb, "c": vc}, 1)
                expect = _lit_value(aig, words, x) & _lit_value(aig, words, y)
                assert _lit_value(aig, words, lit) == expect, (x, y)

    def test_absorption_shrinks(self):
        aig = AIG()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        ab = aig.and_(a, b)
        assert and_rewrite(aig, ab, a) == ab
        assert and_rewrite(aig, ab, a ^ 1) == FALSE_LIT
        assert and_rewrite(aig, ab ^ 1, a ^ 1) == a ^ 1


class TestRewriteCone:
    @pytest.mark.parametrize("seed", range(6))
    def test_output_functions_preserved(self, seed):
        circuit = random_combinational(
            n_inputs=7, n_gates=60, n_outputs=4, seed=seed
        )
        aig, lits = aig_from_circuit(circuit)
        roots = list(lits.values())
        new, node_map = rewrite_cone(aig, roots)
        assert new.num_ands() <= aig.num_ands()
        assert new.pi_names == aig.pi_names
        rng = random.Random(seed)
        pi_words = {name: rng.getrandbits(64) for name in aig.pi_names}
        mask = (1 << 64) - 1
        old_words = aig.simulate(dict(pi_words), mask)
        new_words = new.simulate(dict(pi_words), mask)
        for lit in roots:
            mapped = remap_literal(node_map, lit)
            old = old_words[lit >> 1] ^ (mask if lit & 1 else 0)
            got = new_words[mapped >> 1] ^ (mask if mapped & 1 else 0)
            assert got == old

    def test_dead_nodes_dropped(self):
        aig = AIG()
        a, b, c = aig.add_pi("a"), aig.add_pi("b"), aig.add_pi("c")
        keep = aig.and_(a, b)
        aig.and_(aig.and_(b, c), aig.and_(a, c))  # orphaned cone
        new, node_map = rewrite_cone(aig, [keep])
        assert new.num_ands() == 1
        assert (keep >> 1) in node_map


class TestPreprocessMiter:
    @pytest.mark.parametrize("seed", range(4))
    def test_pair_semantics_preserved(self, seed):
        c1 = random_combinational(n_inputs=8, n_gates=70, seed=seed)
        c2 = c1.copy("resynth")
        script_delay(c2)
        miter = build_miter(c1, c2)
        pre, removed = preprocess_miter(miter)
        assert removed >= 0
        assert pre.aig.num_ands() == miter.aig.num_ands() - removed
        assert [p[0] for p in pre.output_pairs] == [
            p[0] for p in miter.output_pairs
        ]
        rng = random.Random(seed ^ 0xBEEF)
        pi_words = {
            name: rng.getrandbits(64) for name in miter.aig.pi_names
        }
        mask = (1 << 64) - 1
        old_words = miter.aig.simulate(dict(pi_words), mask)
        new_words = pre.aig.simulate(dict(pi_words), mask)

        def lit_word(words, lit):
            return words[lit >> 1] ^ (mask if lit & 1 else 0)

        for (name, o1, o2), (_, n1, n2) in zip(
            miter.output_pairs, pre.output_pairs
        ):
            assert lit_word(new_words, n1) == lit_word(old_words, o1), name
            assert lit_word(new_words, n2) == lit_word(old_words, o2), name

    def test_resynthesised_pair_collapses_structurally(self):
        # Rebuilding both cones through one fresh strash table merges a
        # circuit with its resynthesised self far more than import did.
        c1 = random_combinational(n_inputs=8, n_gates=70, seed=11)
        c2 = c1.copy("resynth")
        script_delay(c2)
        miter = build_miter(c1, c2)
        pre, removed = preprocess_miter(miter)
        assert removed > 0


#: Preprocessing runs on the SAT path only: a default check whose
#: truth-table phase decides a pair never reaches it.
PRE_ON = CecOptions(preprocess=True, engines=SAT_PORTFOLIO)
PRE_OFF = CecOptions(preprocess=False, engines=SAT_PORTFOLIO)


class TestVerdictIdentity:
    """preprocess on/off must never change a verdict (PR 5 invariant +)."""

    def _pairs(self):
        pairs = []
        for seed in range(2):
            c1 = random_combinational(n_inputs=7, n_gates=50, seed=seed)
            c2 = c1.copy("resynth")
            script_delay(c2)
            pairs.append((c1, c2))
            other = random_combinational(
                n_inputs=7, n_gates=50, seed=seed + 100, name="other"
            )
            pairs.append((c1, other))
        base = random_combinational(n_inputs=7, n_gates=50, seed=31)
        for _, mutant in sample_mutations(base, 2, seed=5):
            pairs.append((base, mutant))
        return pairs

    def test_preprocess_on_off_verdicts_identical(self):
        for c1, c2 in self._pairs():
            plain = check_equivalence(c1, c2, PRE_OFF)
            pre = check_equivalence(c1, c2, PRE_ON)
            assert pre.verdict == plain.verdict
            if pre.verdict is CecVerdict.NOT_EQUIVALENT:
                # Counterexamples are assignments over the original PIs
                # and both must be genuine (the engine re-validates).
                assert set(pre.counterexample) == set(plain.counterexample)

    def test_preprocess_counterexample_replays_on_originals(self):
        base = random_combinational(n_inputs=7, n_gates=50, seed=5)
        mutants = [m for _, m in sample_mutations(base, 6, seed=7)]
        checked = 0
        for mutant in mutants:
            result = check_equivalence(base, mutant, PRE_ON)
            if result.verdict is not CecVerdict.NOT_EQUIVALENT:
                continue
            checked += 1
            aig, lits = aig_from_circuit(base)
            aig, lits2 = aig_from_circuit(mutant, aig)
            out = result.failing_output
            v1, v2 = aig.eval_literals(
                [lits[out], lits2[out]], result.counterexample
            )
            assert v1 != v2
        assert checked > 0

    def test_stats_key_set_stable_across_preprocess(self):
        c1 = random_combinational(n_inputs=6, n_gates=30, seed=1)
        c2 = c1.copy("resynth")
        script_delay(c2)
        on = check_equivalence(c1, c2, PRE_ON)
        off = check_equivalence(c1, c2, PRE_OFF)
        assert "preprocess_removed" in on.stats
        assert "preprocess_removed" in off.stats
        assert on.stats["aig_ands_preprocessed"] <= on.stats["aig_ands"]
