"""W/D-matrix exact retiming tests (cross-check against FEAS)."""

from __future__ import annotations

import pytest

from repro.bench.pipeline import pipeline_circuit, trapped_latch_circuit
from repro.core.verify import check_sequential_equivalence
from repro.netlist.build import CircuitBuilder
from repro.retime.apply import apply_retiming
from repro.retime.minperiod import clock_period, min_period_retiming
from repro.retime.rgraph import HOST, build_retiming_graph
from tests.retime.wdmatrix import bellman_ford_feasible, exact_min_period, wd_matrices


class TestWDMatrices:
    def test_simple_chain(self):
        b = CircuitBuilder("chain")
        (a,) = b.inputs("a")
        g1 = b.NOT(a)
        q = b.latch(g1)
        g2 = b.NOT(q)
        b.output(g2, name="o")
        g = build_retiming_graph(b.circuit)
        w, d = wd_matrices(g)
        assert w[(g1, g2)] == 1  # one latch between them
        assert d[(g1, g2)] == 2  # both unit delays

    def test_w_zero_on_combinational_path(self):
        b = CircuitBuilder("comb")
        a, c = b.inputs("a", "c")
        g1 = b.AND(a, c)
        g2 = b.NOT(g1)
        b.output(g2, name="o")
        g = build_retiming_graph(b.circuit)
        w, d = wd_matrices(g)
        assert w[(g1, g2)] == 0
        assert d[(g1, g2)] == 2

    def test_no_paths_through_host(self):
        """A PI→PO comb circuit must not produce gate→gate paths via HOST."""
        b = CircuitBuilder("two")
        a, c = b.inputs("a", "c")
        g1 = b.NOT(a)
        g2 = b.NOT(c)
        b.output(g1, name="o1")
        b.output(g2, name="o2")
        g = build_retiming_graph(b.circuit)
        w, _ = wd_matrices(g)
        assert (g1, g2) not in w
        assert (g2, g1) not in w


class TestBellmanFord:
    def test_feasible_system(self):
        sol = bellman_ford_feasible(
            ["a", "b"], [("a", "b", 2), ("b", "a", 1)]
        )
        assert sol is not None
        assert sol["a"] - sol["b"] <= 2
        assert sol["b"] - sol["a"] <= 1

    def test_infeasible_system(self):
        assert (
            bellman_ford_feasible(
                ["a", "b"], [("a", "b", -1), ("b", "a", -1)]
            )
            is None
        )


class TestExactMinPeriod:
    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_feas(self, seed):
        c = pipeline_circuit(stages=2 + seed % 2, width=3, seed=seed)
        g = build_retiming_graph(c)
        p_feas, _ = min_period_retiming(g)
        p_exact, r = exact_min_period(g)
        assert p_feas == p_exact
        assert clock_period(g, r) <= p_exact
        assert r[HOST] == 0

    @pytest.mark.parametrize("seed", range(3))
    def test_retiming_vector_is_applicable(self, seed):
        c = trapped_latch_circuit(width=3, seed=seed)
        g = build_retiming_graph(c)
        period, r = exact_min_period(g)
        retimed = apply_retiming(c, g, r)
        assert clock_period(build_retiming_graph(retimed)) <= period
        assert check_sequential_equivalence(c, retimed).equivalent

    def test_cyclic_circuit(self):
        """Feedback latches are fine for retiming (only CBF needs acyclicity)."""
        b = CircuitBuilder("cyc")
        (i,) = b.inputs("i")
        b.circuit.add_latch("q", "d")
        x = b.XOR("q", i)
        y = b.NOT(x)
        b.BUF(y, name="d")
        b.output("q", name="o")
        g = build_retiming_graph(b.circuit)
        p_feas, _ = min_period_retiming(g)
        p_exact, _ = exact_min_period(g)
        assert p_feas == p_exact
