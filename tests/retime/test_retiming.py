"""Retiming tests: graph construction, min-period, min-area, rebuild."""

from __future__ import annotations

import random

import numpy as np
import pytest
import scipy.optimize
from scipy.sparse import csc_array

from repro.bench.iscas_like import build_table1_circuit
from repro.bench.pipeline import pipeline_circuit
from repro.core.verify import check_sequential_equivalence
from repro.netlist.build import CircuitBuilder
from repro.netlist.validate import validate_circuit
from repro.retime import minarea
from repro.retime.apply import apply_retiming, retime_min_area, retime_min_period
from repro.retime.minarea import min_area_retiming
from repro.retime.minperiod import clock_period, feasible_retiming, min_period_retiming
from repro.retime.rgraph import HOST, build_retiming_graph
from repro.synth.script import optimize_sequential_delay


def correlator():
    """The classic Leiserson-Saxe correlator shape: a latch ring candidate."""
    b = CircuitBuilder("corr")
    (x,) = b.inputs("x")
    d1 = b.latch(x)
    d2 = b.latch(d1)
    d3 = b.latch(d2)
    c1 = b.XNOR(x, d3)
    c2 = b.XNOR(d1, d3)
    s1 = b.OR(c1, c2)
    c3 = b.XNOR(d2, d3)
    s2 = b.OR(s1, c3)
    b.output(s2, name="o")
    return b.circuit


class TestGraph:
    def test_latch_counts_on_edges(self):
        c = correlator()
        g = build_retiming_graph(c)
        assert g.num_latches() >= 3  # per-edge counting may exceed sharing
        assert HOST in g.vertices

    def test_buffers_are_zero_delay(self, builder):
        (a,) = builder.inputs("a")
        buf = builder.BUF(a)
        g1 = builder.AND(buf, a)
        builder.output(g1, name="o")
        g = build_retiming_graph(builder.circuit)
        assert g.delay[buf] == 0
        assert g.delay[g1] == 1

    def test_uniform_class_detection(self, builder):
        a, e = builder.inputs("a", "e")
        q = builder.latch(a, enable=e)
        builder.output(builder.NOT(q), name="o")
        g = build_retiming_graph(builder.circuit)
        uniform, cls = g.uniform_class()
        assert uniform and cls == "e"

    def test_derived_enable_rejected(self, builder):
        a, e1, e2 = builder.inputs("a", "e1", "e2")
        en = builder.AND(e1, e2)
        q = builder.latch(a, enable=en)
        builder.output(q, name="o")
        with pytest.raises(ValueError, match="derived logic"):
            build_retiming_graph(builder.circuit)


class TestMinPeriod:
    def test_correlator_optimal_and_rebuildable(self):
        c = correlator()
        g = build_retiming_graph(c)
        base = clock_period(g)
        period, r = min_period_retiming(g)
        assert period <= base
        retimed = apply_retiming(c, g, r)
        validate_circuit(retimed)
        assert clock_period(build_retiming_graph(retimed)) == period

    def test_latch_wall_improves(self):
        """Input-register wall before deep logic: retiming must cut depth."""
        b = CircuitBuilder("wall")
        ins = b.inputs("a", "b", "c", "d")
        lat = [b.latch(i) for i in ins]
        x = b.AND(lat[0], lat[1])
        y = b.OR(x, lat[2])
        z = b.XOR(y, lat[3])
        w = b.AND(z, lat[0])
        b.output(b.latch(w), name="o")
        g = build_retiming_graph(b.circuit)
        base = clock_period(g)
        period, r = min_period_retiming(g)
        assert period < base
        retimed = apply_retiming(b.circuit, g, r)
        validate_circuit(retimed)
        assert check_sequential_equivalence(b.circuit, retimed).equivalent

    def test_infeasible_period_returns_none(self):
        c = correlator()
        g = build_retiming_graph(c)
        assert feasible_retiming(g, 0) is None

    def test_zero_latch_circuit_unchanged(self, builder):
        a, b = builder.inputs("a", "b")
        builder.output(builder.AND(a, b), name="o")
        g = build_retiming_graph(builder.circuit)
        period, r = min_period_retiming(g)
        assert period == clock_period(g)
        assert all(v == 0 for v in r.values())

    @pytest.mark.parametrize("seed", range(5))
    def test_retiming_preserves_equivalence(self, seed):
        c = pipeline_circuit(stages=2, width=3, seed=seed)
        retimed, old, new = retime_min_period(c)
        validate_circuit(retimed)
        assert new <= old
        assert check_sequential_equivalence(c, retimed).equivalent

    def test_latch_free_pi_po_path_not_a_cycle(self, builder):
        """Regression: combinational PI→PO paths must not look like cycles
        through the host vertex."""
        a, b = builder.inputs("a", "b")
        builder.output(builder.AND(a, b), name="comb_out")
        builder.output(builder.latch(builder.NOT(a)), name="seq_out")
        g = build_retiming_graph(builder.circuit)
        assert clock_period(g) is not None


class TestMinArea:
    def test_reduces_latches_at_relaxed_period(self):
        """Input-register wall can merge after the fanout point."""
        b = CircuitBuilder("share")
        (x,) = b.inputs("x")
        q1 = b.latch(x)
        n1 = b.NOT(q1)
        n2 = b.BUF(q1)
        q2 = b.latch(n1)
        q3 = b.latch(n2)
        b.output(b.AND(q2, q3), name="o")
        c = b.circuit
        g = build_retiming_graph(c)
        base_period = clock_period(g)
        r = min_area_retiming(g, period=base_period + 2)
        assert r is not None
        retimed = apply_retiming(c, g, r)
        validate_circuit(retimed)
        assert retimed.num_latches() <= c.num_latches()
        assert check_sequential_equivalence(c, retimed).equivalent

    def test_respects_period_constraint(self):
        c = correlator()
        g = build_retiming_graph(c)
        minp, _ = min_period_retiming(g)
        r = min_area_retiming(g, period=minp)
        assert r is not None
        assert clock_period(g, r) <= minp

    def test_infeasible_returns_none(self):
        c = correlator()
        g = build_retiming_graph(c)
        assert min_area_retiming(g, period=0) is None

    @pytest.mark.parametrize("seed", range(4))
    def test_never_worse_than_original_at_own_period(self, seed):
        c = pipeline_circuit(stages=3, width=3, seed=seed)
        retimed, period = retime_min_area(c)
        assert retimed is not None
        validate_circuit(retimed)
        assert retimed.num_latches() <= c.num_latches()
        g = build_retiming_graph(retimed)
        assert clock_period(g) <= period
        assert check_sequential_equivalence(c, retimed).equivalent

    def test_fixed_vertices_stay(self):
        c = correlator()
        g = build_retiming_graph(c)
        gates = [v for v in g.vertices if v != HOST]
        r = min_area_retiming(g, period=clock_period(g), fixed=gates)
        assert r is not None
        assert all(r[v] == 0 for v in gates)


def _solve_lp_dense(variables, objective, constraints, bound):
    """Reference ``_solve_lp``: the same LP with a dense constraint matrix."""
    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    c = np.zeros(n)
    for v, coeff in objective.items():
        c[index[v]] += coeff
    a_ub = np.zeros((len(constraints), n))
    b_ub = np.zeros(len(constraints))
    for i, (u, v, b) in enumerate(constraints):
        a_ub[i, index[u]] += 1.0
        a_ub[i, index[v]] -= 1.0
        b_ub[i] = b
    result = scipy.optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=[(-bound, bound)] * n, method="highs"
    )
    if not result.success:
        return None
    return {v: int(round(result.x[index[v]])) for v in variables}


class TestSparseLp:
    @pytest.mark.parametrize("name", ["minmax10", "s1423"])
    def test_same_retiming_as_the_dense_lp(self, name, monkeypatch):
        """Every LP of a min-area run on a synthesised Table 1 circuit."""
        sparse = minarea._solve_lp
        rounds = []

        def both(variables, objective, constraints, bound):
            solution = sparse(variables, objective, constraints, bound)
            assert solution == _solve_lp_dense(variables, objective, constraints, bound)
            rounds.append(len(constraints))
            return solution

        monkeypatch.setattr(minarea, "_solve_lp", both)
        graph = build_retiming_graph(optimize_sequential_delay(build_table1_circuit(name)))
        min_period, _ = min_period_retiming(graph)
        for period in (min_period, clock_period(graph)):
            assert min_area_retiming(graph, period) is not None
        assert len(rounds) >= 2

    def test_self_loop_and_repeated_rows(self, monkeypatch):
        """A ``u == v`` row sums to zeros and a repeated row stays two rows:
        HiGHS gets the matrix the dense array would give it."""
        variables = ["a", "b", "c"]
        objective = {"a": 1.0, "b": -2.0, "c": 1.0}
        constraints = [
            ("a", "a", 0),
            ("a", "b", 1),
            ("b", "c", 2),
            ("a", "b", 1),
            ("c", "a", -1),
            ("b", "b", 3),
        ]
        linprog = scipy.optimize.linprog
        matrices = []

        def recording(c, A_ub, **kwargs):
            matrices.append(csc_array(A_ub))
            return linprog(c, A_ub=A_ub, **kwargs)

        monkeypatch.setattr(scipy.optimize, "linprog", recording)
        solution = minarea._solve_lp(variables, objective, constraints, 10.0)
        assert solution == _solve_lp_dense(variables, objective, constraints, 10.0)
        assert solution is not None
        sparse, dense = matrices
        assert sparse.shape == dense.shape == (6, 3)
        assert sparse.nnz == dense.nnz == 8
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sparse, field), getattr(dense, field))
