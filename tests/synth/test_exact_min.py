"""Exact minimisation tests and heuristic-quality cross-checks."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netlist.cube import Sop
from tests.synth.exact_min import exact_minimize, prime_implicants


def sops(ninputs, max_cubes=5):
    cube = st.text(alphabet="01-", min_size=ninputs, max_size=ninputs)
    return st.lists(cube, min_size=0, max_size=max_cubes).map(
        lambda cs: Sop(ninputs, tuple(cs))
    )


class TestPrimes:
    def test_xor_primes(self):
        s = Sop.xor2()
        primes = prime_implicants(s)
        assert sorted(primes) == ["01", "10"]

    def test_consensus_prime_found(self):
        """ab + a'c has the consensus prime bc."""
        s = Sop(3, ("11-", "0-1"))
        primes = set(prime_implicants(s))
        assert "-11" in primes
        assert "11-" in primes and "0-1" in primes

    def test_tautology(self):
        s = Sop(2, ("1-", "0-"))
        assert prime_implicants(s) == ["--"]

    def test_too_many_inputs_raises(self):
        with pytest.raises(ValueError):
            prime_implicants(Sop.and_all(13))


class TestExactMinimize:
    def test_constants(self):
        assert exact_minimize(Sop.const0(3)).is_const0()
        assert exact_minimize(Sop(2, ("1-", "0-"))).is_const1_syntactic()

    def test_redundant_cover_shrinks(self):
        # ab + ab'c + abc' ... a classic redundant cover of a(b+c)
        s = Sop(3, ("11-", "101", "110"))
        m = exact_minimize(s)
        assert m.truth_table() == s.truth_table()
        assert m.num_cubes <= 2

    @given(sops(4))
    @settings(max_examples=120, deadline=None)
    def test_preserves_function(self, s):
        m = exact_minimize(s)
        assert m.truth_table() == s.truth_table()

    @given(sops(4))
    @settings(max_examples=120, deadline=None)
    def test_heuristic_never_beats_exact(self, s):
        """espresso-lite must not produce fewer cubes than the optimum."""
        exact = exact_minimize(s)
        heuristic = s.minimized()
        assert heuristic.truth_table() == s.truth_table()
        assert exact.num_cubes <= heuristic.num_cubes

    @given(sops(3))
    @settings(max_examples=80, deadline=None)
    def test_result_cubes_are_primes(self, s):
        m = exact_minimize(s)
        if m.is_const0() or m.is_const1_syntactic():
            return
        primes = set(prime_implicants(s))
        for cube in m.cubes:
            assert cube in primes

    def test_heuristic_quality_on_benchmarkish_covers(self):
        """On random 5-input covers the heuristic stays within 1 cube of
        the optimum at least 80% of the time (quality regression guard)."""
        import random

        rng = random.Random(42)
        close = 0
        total = 40
        for _ in range(total):
            cubes = tuple(
                "".join(rng.choice("01--") for _ in range(5))
                for _ in range(rng.randint(2, 6))
            )
            s = Sop(5, cubes)
            exact = exact_minimize(s)
            heuristic = s.minimized()
            if heuristic.num_cubes <= exact.num_cubes + 1:
                close += 1
        assert close >= int(0.8 * total), close
