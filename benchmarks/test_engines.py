"""Substrate micro-benchmarks: BDD, SAT, CEC, CBF/EDBF, retiming, synthesis.

Not part of the paper's tables, but they document where the reduction's
time goes and guard against performance regressions in the substrates.
"""

from __future__ import annotations

import pytest

from repro.bench.minmax import minmax_circuit
from repro.bench.pipeline import pipeline_circuit
from repro.bench.random_circuits import random_combinational
from repro.bdd.bdd import BDD
from repro.bdd.circuit2bdd import output_bdds
from repro.cec import CecOptions
from repro.cec.cache import ProofCache
from repro.cec.engine import check_equivalence
from repro.netlist.build import CircuitBuilder
from repro.core.cbf import compute_cbf
from repro.core.edbf import compute_edbf
from repro.core.eq2comb import cbf_to_circuit
from repro.retime.minperiod import min_period_retiming
from repro.retime.rgraph import build_retiming_graph
from repro.sat.solver import Solver
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
    c1 = random_combinational(n_inputs=10, n_gates=100, seed=3)
    c2 = c1.copy("resynth")
    script_delay(c2)
    result = benchmark(check_equivalence, c1, c2)
    assert result.equivalent


def _xor_chain_tree_pair(n):
    """Structurally distinct but equivalent parity circuits (real sweep work)."""
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


def test_cec_parallel_sweep(benchmark):
    c1, c2 = _xor_chain_tree_pair(32)
    serial = check_equivalence(c1, c2, n_jobs=1)
    result = benchmark(check_equivalence, c1, c2, n_jobs=4)
    assert result.verdict is serial.verdict
    assert result.stats["n_units"] >= 1


def test_cec_warm_proof_cache(benchmark):
    c1, c2 = _xor_chain_tree_pair(32)
    options = CecOptions(cache=ProofCache())
    cold = check_equivalence(c1, c2, options)
    result = benchmark(check_equivalence, c1, c2, options)
    assert result.verdict is cold.verdict
    assert result.stats["cache_hits"] > 0
    assert result.stats["sat_queries"] < cold.stats["sat_queries"]


@pytest.mark.parametrize("seed", range(6))
def test_cec_parallel_matches_serial_corpus(seed):
    """Acceptance check: n_jobs=4 verdicts identical to n_jobs=1."""
    c1 = random_combinational(n_inputs=9, n_gates=80, seed=seed)
    c2 = c1.copy("resynth")
    script_delay(c2)
    swapped = random_combinational(
        n_inputs=9, n_gates=80, seed=seed + 31, name="other"
    )
    for a, b in ((c1, c2), (c1, swapped)):
        serial = check_equivalence(a, b, n_jobs=1)
        parallel = check_equivalence(a, b, n_jobs=4)
        assert parallel.verdict is serial.verdict


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
