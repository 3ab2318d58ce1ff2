"""Unit and property tests for cube/SOP algebra."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.cube import (
    Sop,
    cube_and,
    cube_contains,
    cube_distance,
    cube_from_literals,
    cube_literals,
)


def cubes(ninputs: int):
    return st.text(alphabet="01-", min_size=ninputs, max_size=ninputs)


def sops(ninputs: int, max_cubes: int = 4):
    return st.lists(cubes(ninputs), min_size=0, max_size=max_cubes).map(
        lambda cs: Sop(ninputs, tuple(cs))
    )


def assignments(ninputs: int):
    return st.lists(st.booleans(), min_size=ninputs, max_size=ninputs)


def _two_pass_scc(cubes):
    """Reference single-cube containment: the original two-pass scan."""
    kept = []
    for cube in sorted(set(cubes), key=lambda c: (c.count("-"), c)):
        if not any(cube_contains(k, cube) for k in kept):
            kept.append(cube)
    return tuple(
        cube
        for i, cube in enumerate(kept)
        if not any(j != i and cube_contains(o, cube) for j, o in enumerate(kept))
    )


class TestCubeOps:
    def test_cube_and_basic(self):
        assert cube_and("1-0", "-10") == "110"
        assert cube_and("1--", "0--") is None
        assert cube_and("---", "101") == "101"

    def test_cube_contains(self):
        assert cube_contains("1--", "10-")
        assert not cube_contains("10-", "1--")
        assert cube_contains("---", "010")

    def test_cube_distance(self):
        assert cube_distance("10-", "01-") == 2
        assert cube_distance("1--", "-0-") == 0
        assert cube_distance("111", "110") == 1

    def test_literal_roundtrip(self):
        for cube in ["101", "-1-", "---", "000"]:
            lits = cube_literals(cube)
            assert cube_from_literals(lits, 3) == cube

    def test_literal_conflict_raises(self):
        with pytest.raises(ValueError):
            cube_from_literals({0, 1}, 2)  # x0 negative and positive

    def test_literal_out_of_range(self):
        with pytest.raises(ValueError):
            cube_from_literals({10}, 2)


class TestSopBasics:
    def test_const0(self):
        s = Sop.const0(3)
        assert s.is_const0()
        assert not s.eval_bool([True, True, True])

    def test_const1(self):
        s = Sop.const1(3)
        assert s.is_const1_syntactic()
        assert s.eval_bool([False, False, False])

    def test_const1_zero_arity(self):
        assert Sop.const1(0).eval_bool([])

    def test_arity_check(self):
        with pytest.raises(ValueError):
            Sop(2, ("101",))

    def test_bad_character(self):
        with pytest.raises(ValueError):
            Sop(2, ("1x",))

    def test_literal_function(self):
        s = Sop.literal(3, 1, True)
        assert s.eval_bool([False, True, False])
        assert not s.eval_bool([True, False, True])
        n = Sop.literal(3, 1, False)
        assert n.eval_bool([True, False, True])

    def test_and_or_all(self):
        a = Sop.and_all(3)
        assert a.eval_bool([True, True, True])
        assert not a.eval_bool([True, True, False])
        o = Sop.or_all(3)
        assert o.eval_bool([False, False, True])
        assert not o.eval_bool([False, False, False])

    def test_xor2(self):
        s = Sop.xor2()
        assert s.eval_bool([True, False])
        assert not s.eval_bool([True, True])

    def test_mux(self):
        s = Sop.mux()
        assert s.eval_bool([True, True, False])  # sel -> a
        assert not s.eval_bool([True, False, True])
        assert s.eval_bool([False, False, True])  # !sel -> b

    def test_truth_table_roundtrip(self):
        for bits in range(16):
            s = Sop.from_truth_table(2, bits)
            assert s.truth_table() == bits

    def test_num_literals(self):
        assert Sop(3, ("1-0", "01-")).num_literals == 4

    def test_support(self):
        assert Sop(3, ("1--", "-0-")).support() == {0, 1}
        assert Sop(0, ("",)).support() == frozenset()
        assert Sop(12, ("0" + "-" * 10 + "1",)).support() == {0, 11}

    def test_bad_character_error_names_the_first_one(self):
        with pytest.raises(ValueError, match="invalid cube character 'x' in '1x-y'"):
            Sop(4, ("1x-y",))

    @given(st.integers(min_value=0, max_value=5).flatmap(lambda n: sops(n, 5)))
    @settings(max_examples=100, deadline=None)
    def test_cached_facts_leave_identity_alone(self, s):
        # Covers are dict keys, compared with ==, and pickled to workers.
        fresh = Sop(s.ninputs, s.cubes)
        payload = pickle.dumps(fresh)
        facts = (s.num_literals, s.support(), s.is_const1_syntactic())
        assert facts == (
            sum(1 for cube in s.cubes for ch in cube if ch != "-"),
            frozenset(i for cube in s.cubes for i, ch in enumerate(cube) if ch != "-"),
            any(set(cube) <= {"-"} for cube in s.cubes),
        )
        assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)
        assert {fresh: 1}[s] == 1
        assert pickle.dumps(s) == payload
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s and vars(clone) == {"ninputs": s.ninputs, "cubes": s.cubes}
        assert copy.deepcopy(s) == s

    def test_eval_parallel_matches_bool(self):
        s = Sop(3, ("1-0", "011"))
        words = [0b1010, 0b1100, 0b0110]
        out = s.eval_parallel(words, 0b1111)
        for bit in range(4):
            assignment = [(w >> bit) & 1 == 1 for w in words]
            assert ((out >> bit) & 1 == 1) == s.eval_bool(assignment)


class TestSopSemantics:
    @given(sops(3), assignments(3))
    @settings(max_examples=200, deadline=None)
    def test_complement_correct(self, s, asg):
        assert s.complement().eval_bool(asg) != s.eval_bool(asg)

    @given(sops(3), sops(3), assignments(3))
    @settings(max_examples=200, deadline=None)
    def test_and_or_correct(self, a, b, asg):
        assert a.and_(b).eval_bool(asg) == (a.eval_bool(asg) and b.eval_bool(asg))
        assert a.or_(b).eval_bool(asg) == (a.eval_bool(asg) or b.eval_bool(asg))

    @given(sops(4))
    @settings(max_examples=150, deadline=None)
    def test_minimized_preserves_function(self, s):
        m = s.minimized()
        assert m.truth_table() == s.truth_table()
        assert m.num_literals <= s.num_literals

    @given(sops(4))
    @settings(max_examples=150, deadline=None)
    def test_scc_minimal_preserves_function(self, s):
        assert s.scc_minimal().truth_table() == s.truth_table()

    @given(st.integers(min_value=0, max_value=7).flatmap(lambda n: sops(n, 10)))
    @settings(max_examples=400, deadline=None)
    def test_scc_minimal_keeps_the_two_pass_cube_order(self, s):
        # Synthesis breaks ties by cube order, so the exact tuple matters.
        assert s.scc_minimal().cubes == _two_pass_scc(s.cubes)

    def test_scc_minimal_drops_contained_and_duplicate_cubes(self):
        s = Sop(3, ("110", "1--", "-01", "110", "0-1", "--1"))
        assert s.scc_minimal().cubes == ("--1", "1--")

    def test_tautology_of_the_empty_cover_is_false(self):
        assert not Sop.const0(0).is_tautology()
        assert not Sop.const0(3).is_tautology()

    @given(sops(3))
    @settings(max_examples=100, deadline=None)
    def test_tautology_matches_truth_table(self, s):
        assert s.is_tautology() == (s.truth_table() == (1 << 8) - 1)

    @given(sops(3), sops(3))
    @settings(max_examples=100, deadline=None)
    def test_implies_matches_truth_tables(self, a, b):
        ta, tb = a.truth_table(), b.truth_table()
        assert a.implies(b) == ((ta & ~tb) == 0)

    @given(sops(3), st.integers(min_value=0, max_value=2), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_cofactor(self, s, index, phase):
        c = s.cofactor(index, phase)
        for m in range(8):
            asg = [(m >> i) & 1 == 1 for i in range(3)]
            if asg[index] == phase:
                assert c.eval_bool(asg) == s.eval_bool(asg)

    @given(sops(3))
    @settings(max_examples=100, deadline=None)
    def test_xor_self_is_zero(self, s):
        assert s.xor(s).truth_table() == 0

    def test_negate_input(self):
        s = Sop(2, ("10",))
        n = s.negate_input(0)
        assert n.eval_bool([False, False])
        assert not n.eval_bool([True, False])

    def test_permute(self):
        s = Sop(2, ("10",))  # x0 AND NOT x1
        p = s.permute([1, 0], 2)
        assert p.eval_bool([False, True])
        assert not p.eval_bool([True, False])

    def test_remove_input_requires_nonsupport(self):
        s = Sop(2, ("1-",))
        with pytest.raises(ValueError):
            s.remove_input(0)
        r = s.remove_input(1)
        assert r.ninputs == 1
