"""AIG structural hashing and simulation tests."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.aig.aig import (
    AIG,
    FALSE_LIT,
    TRUE_LIT,
    aig_from_circuit,
    lit_to_cnf,
)
from repro.bench.random_circuits import random_combinational
from repro.sim.logic2 import simulate


class TestStructuralHashing:
    def test_constants(self):
        aig = AIG()
        a = aig.add_pi("a")
        assert aig.and_(a, FALSE_LIT) == FALSE_LIT
        assert aig.and_(a, TRUE_LIT) == a
        assert aig.and_(a, a) == a
        assert aig.and_(a, a ^ 1) == FALSE_LIT

    def test_commutative_hashing(self):
        aig = AIG()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        assert aig.and_(a, b) == aig.and_(b, a)

    def test_de_morgan_sharing(self):
        aig = AIG()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        nand = aig.and_(a, b) ^ 1
        or_ = aig.or_(a ^ 1, b ^ 1)
        assert nand == or_

    def test_xor(self):
        aig = AIG()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        x = aig.xor(a, b)
        aig.add_output("x", x)
        for va, vb in itertools.product([False, True], repeat=2):
            assert aig.eval_outputs({"a": va, "b": vb})["x"] == (va != vb)

    def test_mux(self):
        aig = AIG()
        s, a, b = aig.add_pi("s"), aig.add_pi("a"), aig.add_pi("b")
        aig.add_output("m", aig.mux(s, a, b))
        for vs, va, vb in itertools.product([False, True], repeat=3):
            expect = va if vs else vb
            assert aig.eval_outputs({"s": vs, "a": va, "b": vb})["m"] == expect

    def test_and_all_empty(self):
        aig = AIG()
        assert aig.and_all([]) == TRUE_LIT
        assert aig.or_all([]) == FALSE_LIT


class TestImport:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_simulation(self, seed):
        c = random_combinational(n_inputs=5, n_gates=18, seed=seed)
        aig, _ = aig_from_circuit(c)
        rng = random.Random(seed)
        for _ in range(25):
            vec = {i: rng.random() < 0.5 for i in c.inputs}
            sim = simulate(c, [vec]).outputs[0]
            got = aig.eval_outputs(vec)
            for out in c.outputs:
                assert got[out] == sim[out]

    def test_shared_import_collapses_identical(self):
        c1 = random_combinational(seed=3, name="c1")
        c2 = random_combinational(seed=3, name="c2")
        aig = AIG()
        aig, lits1 = aig_from_circuit(c1, aig)
        before = aig.num_nodes()
        aig, lits2 = aig_from_circuit(c2, aig)
        # Identical structure: no new AND nodes.
        assert aig.num_nodes() == before
        for out in c1.outputs:
            assert lits1[out] == lits2[out]

    def test_rejects_sequential(self):
        from repro.netlist.build import CircuitBuilder

        b = CircuitBuilder("t")
        (a,) = b.inputs("a")
        b.output(b.latch(a), name="o")
        with pytest.raises(ValueError):
            aig_from_circuit(b.circuit)

    def test_random_simulation_is_deterministic(self):
        c = random_combinational(seed=4)
        aig, _ = aig_from_circuit(c)
        w1, m1 = aig.random_simulate(seed=11)
        w2, m2 = aig.random_simulate(seed=11)
        assert w1 == w2 and m1 == m2

    def test_to_cnf_consistency(self):
        from repro.sat.solver import Solver

        c = random_combinational(n_inputs=4, n_gates=10, seed=5)
        aig, lits = aig_from_circuit(c)
        clauses = list(aig.cnf_clauses())
        for bits in itertools.product([False, True], repeat=4):
            vec = dict(zip(c.inputs, bits))
            s = Solver()
            s.ensure_vars(aig.num_nodes())
            s.add_clauses(clauses)
            assumptions = []
            for node, name in zip(aig.pis, aig.pi_names):
                v = lit_to_cnf(2 * node)
                assumptions.append(v if vec[name] else -v)
            r = s.solve(assumptions=assumptions)
            assert r.satisfiable
            expect = aig.eval_outputs(vec)
            for out, lit in aig.outputs:
                var = lit_to_cnf(lit)
                val = r.model[abs(var)] == (var > 0)
                assert val == expect[out]


def _random_aig(seed: int, n_inputs: int = 7, n_gates: int = 60) -> AIG:
    aig, _ = aig_from_circuit(
        random_combinational(
            n_inputs=n_inputs, n_gates=n_gates, n_outputs=4, seed=seed
        )
    )
    return aig


class TestCorpusSimulation:
    def test_simulate_patterns_empty_corpus(self):
        aig = _random_aig(0)
        words, mask = aig.simulate_patterns([])
        assert mask == 0
        assert words == [0] * aig.num_nodes()

    def test_simulate_patterns_multi_lane_corpus(self):
        # More than 64 patterns: every node word spans several 64-bit lanes.
        aig = _random_aig(1, n_inputs=5, n_gates=40)
        rng = random.Random(42)
        patterns = [
            {name: rng.random() < 0.5 for name in aig.pi_names}
            for _ in range(130)
        ]
        words, mask = aig.simulate_patterns(patterns)
        assert mask == (1 << 130) - 1
        # Cross-check a sample of columns against single-pattern eval.
        for col in (0, 63, 64, 129):
            expected = aig.simulate(
                {n: int(patterns[col][n]) for n in aig.pi_names}, 1
            )
            assert [(w >> col) & 1 for w in words] == expected

    def test_missing_pis_default_to_zero(self):
        aig = _random_aig(4)
        scalar = aig.simulate(
            {name: 0 for name in aig.pi_names}, (1 << 16) - 1
        )
        assert aig.simulate_words({}, 16) == scalar


def _table_from_slices(aig: AIG, lits) -> list:
    """Each literal's full table: the ``cone_tables`` slices concatenated."""
    tables = [0] * len(lits)
    for index, words in enumerate(aig.cone_tables(lits)):
        for i, word in enumerate(words):
            assert word.bit_length() <= 1 << 16
            tables[i] |= word << (index << 16)
    return tables


class TestConeTables:
    def test_support_masks_match_cones(self):
        aig = _random_aig(5, n_inputs=9, n_gates=80)
        masks = aig.support_masks()
        for node in range(aig.num_nodes()):
            cone_pis = {
                i
                for i, pi in enumerate(aig.pis)
                if pi in aig.cone_nodes([2 * node])
            }
            assert masks[node] == sum(1 << i for i in cone_pis)

    @pytest.mark.parametrize("seed", range(4))
    def test_small_tables_match_per_row_evaluation(self, seed):
        aig = _random_aig(seed, n_inputs=6, n_gates=50)
        lits = [lit for _, lit in aig.outputs] + [FALSE_LIT, TRUE_LIT]
        lits += [lit ^ 1 for lit in lits]
        (words,) = list(aig.cone_tables(lits))
        support = sorted(
            pi for pi in aig.cone_nodes(lits) if aig.is_pi_node(pi)
        )
        names = {pi: name for pi, name in zip(aig.pis, aig.pi_names)}
        for row in range(1 << len(support)):
            values = {
                names[pi]: bool(row >> i & 1) for i, pi in enumerate(support)
            }
            expected = aig.eval_literals(lits, values)
            assert [bool(w >> row & 1) for w in words] == expected

    def test_wide_tables_come_in_slices(self):
        # 19 inputs: the low 16 get projection words, the top three are
        # counted up over 8 slices of 2^16 rows each.
        aig = AIG()
        xs = [aig.add_pi(f"x{i}") for i in range(19)]
        parity = FALSE_LIT
        for x in xs:
            parity = aig.xor(parity, x)
        top = aig.and_all(xs[16:])
        lits = [parity, top, aig.or_(parity, top) ^ 1]
        assert len(list(aig.cone_tables(lits))) == 8
        parity_table, top_table, nor_table = _table_from_slices(aig, lits)
        rng = random.Random(7)
        for row in [0, (1 << 19) - 1] + [rng.getrandbits(19) for _ in range(200)]:
            assert parity_table >> row & 1 == bin(row).count("1") % 2
            assert top_table >> row & 1 == (row >> 16 == 7)
            assert nor_table >> row & 1 == 1 - (
                (parity_table | top_table) >> row & 1
            )

    @pytest.mark.parametrize("n_inputs", [6, 19])
    def test_rows_map_back_to_their_assignments(self, n_inputs):
        # Input "pad" sits outside the cone; its value is always False.
        aig = AIG()
        aig.add_pi("pad")
        xs = [aig.add_pi(f"x{i}") for i in range(n_inputs)]
        parity = FALSE_LIT
        for x in xs:
            parity = aig.xor(parity, x)
        lits = [parity, aig.and_all(xs[::3]), aig.or_(xs[1], xs[-1])]
        tables = _table_from_slices(aig, lits)
        rng = random.Random(n_inputs)
        for row in [0, (1 << n_inputs) - 1] + [
            rng.getrandbits(n_inputs) for _ in range(50)
        ]:
            slice_no, bit = divmod(row, 1 << min(n_inputs, 16))
            assignment = aig.cone_table_row(lits, slice_no, bit)
            assert assignment == {
                "pad": False,
                **{f"x{i}": bool(row >> i & 1) for i in range(n_inputs)},
            }
            assert aig.eval_literals(lits, assignment) == [
                bool(table >> row & 1) for table in tables
            ]

    def test_constant_literals_read_no_input(self):
        aig = AIG()
        aig.add_pi("a")
        assert list(aig.cone_tables([FALSE_LIT, TRUE_LIT])) == [[0, 1]]
