"""Substrate micro-benchmarks: BDD, SAT, CEC, CBF/EDBF, retiming, synthesis.

Not part of the paper's tables, but they document where the reduction's
time goes and guard against performance regressions in the substrates.
"""

from __future__ import annotations

import pytest

from repro.bench.minmax import minmax_circuit
from repro.bench.mutations import Mutation, apply_mutation
from repro.bench.pipeline import pipeline_circuit
from repro.bench.random_circuits import random_combinational
from repro.bdd.bdd import BDD
from repro.bdd.circuit2bdd import output_bdds
from repro.cec.engine import CecVerdict, check_equivalence
from repro.netlist.build import CircuitBuilder
from repro.core.cbf import compute_cbf
from repro.core.edbf import compute_edbf
from repro.core.eq2comb import cbf_to_circuit
from repro.retime.minperiod import min_period_retiming
from repro.retime.rgraph import build_retiming_graph
from repro.sat.solver import Solver
from repro.sim.logic2 import evaluate_combinational
from repro.synth.script import script_delay


def test_bdd_circuit_build(benchmark):
    circuit = random_combinational(n_inputs=12, n_gates=120, seed=5)
    benchmark(output_bdds, circuit)


def test_bdd_ite_heavy(benchmark):
    def build():
        mgr = BDD([f"x{i}" for i in range(14)])
        acc = mgr.ZERO
        for i in range(13):
            acc = mgr.apply_xor(acc, mgr.apply_and(mgr.var(f"x{i}"), mgr.var(f"x{i+1}")))
        return mgr.num_nodes()

    benchmark(build)


def test_sat_pigeonhole(benchmark):
    def php():
        s = Solver()
        p, h = 7, 6
        v = lambda i, j: i * h + j + 1
        s.ensure_vars(p * h)
        for i in range(p):
            s.add_clause([v(i, j) for j in range(h)])
        for j in range(h):
            for i1 in range(p):
                for i2 in range(i1 + 1, p):
                    s.add_clause([-v(i1, j), -v(i2, j)])
        return s.solve()

    result = benchmark(php)
    assert not result.satisfiable


def test_cec_on_resynthesised(benchmark):
    # No shared structure: the check is decided by the table phase, not
    # at the miter build.
    c1, c2 = _xor_chain_tree_pair(16)
    result = benchmark(check_equivalence, c1, c2)
    assert result.equivalent
    assert "structural" not in result.stats
    assert result.stats["engine_tables"] > 0


def test_cec_refutes_mutant(benchmark):
    c1, tree = _xor_chain_tree_pair(16)
    first_xor = tree.topo_gates()[0].output
    mutant = apply_mutation(tree, Mutation("stuck_at_0", first_xor))
    result = benchmark(check_equivalence, c1, mutant)
    assert result.verdict is CecVerdict.NOT_EQUIVALENT
    assert result.stats["engine_tables"] > 0
    assert result.stats["sat_queries"] == 0
    values = [
        evaluate_combinational(
            circuit,
            {pi: int(result.counterexample[pi]) for pi in circuit.inputs},
            1,
        )[result.failing_output]
        for circuit in (c1, mutant)
    ]
    assert values[0] != values[1]


def _xor_chain_tree_pair(n):
    """Structurally distinct but equivalent parity circuits: truth tables
    decide them up to 22 inputs, a SAT sweep above."""
    chain = CircuitBuilder("chain")
    xs = chain.inputs(*[f"x{i}" for i in range(n)])
    acc = xs[0]
    for x in xs[1:]:
        acc = chain.XOR(acc, x)
    chain.output(acc, name="o")

    tree = CircuitBuilder("tree")
    xs = list(tree.inputs(*[f"x{i}" for i in range(n)]))
    while len(xs) > 1:
        nxt = [tree.XOR(xs[i], xs[i + 1]) for i in range(0, len(xs) - 1, 2)]
        if len(xs) % 2:
            nxt.append(xs[-1])
        xs = nxt
    tree.output(xs[0], name="o")
    return chain.circuit, tree.circuit


def test_cec_sweep_units(benchmark):
    c1, c2 = _xor_chain_tree_pair(32)
    result = benchmark(check_equivalence, c1, c2)
    assert result.equivalent
    assert result.stats["n_units"] >= 1


def test_cbf_computation(benchmark):
    circuit = pipeline_circuit(stages=4, width=5, seed=2)
    cbf = benchmark(compute_cbf, circuit)
    assert cbf.depth() >= 1


def test_cbf_lowering(benchmark):
    circuit = pipeline_circuit(stages=4, width=5, seed=2)
    cbf = compute_cbf(circuit)
    comb = benchmark(cbf_to_circuit, cbf)
    assert comb.is_combinational()


def test_edbf_computation(benchmark):
    circuit = pipeline_circuit(stages=3, width=4, seed=2, enable=True)
    edbf = benchmark(compute_edbf, circuit)
    assert edbf.events_used()


def test_min_period_retiming_speed(benchmark):
    circuit = minmax_circuit(12)
    from repro.core.expose import prepare_circuit

    prepared = prepare_circuit(circuit, use_unateness=False).circuit
    graph = build_retiming_graph(prepared)
    period, r = benchmark(min_period_retiming, graph)
    assert period >= 1


def test_synthesis_script_speed(benchmark):
    def run():
        c = random_combinational(n_inputs=10, n_gates=120, seed=4)
        script_delay(c)
        return c

    result = benchmark(run)
    assert result.num_gates() > 0
