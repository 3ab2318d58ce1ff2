"""``Circuit.topo_gates`` against the depth-first search it replaced.

``tests/netlist/topo_oracle.py`` keeps that search.  Both must return the
same gate list, or raise a :class:`ValueError` with the same text, on
seeded random circuits (shuffled gate dict orders, latches, self-loops and
longer cycles) and on the B, C and lowered H/J circuits of ``--quick``
Table 1 rows.  AIG node order, synthesis and every SAT pin depend on the
exact order, not just on its being topological.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.netlist.circuit import Circuit, Gate
from repro.netlist.cube import Sop
from tests.cec.test_sweep_parallel import lowered_cbf_pair
from tests.cec.test_sweep_trajectory import table1_pair
from tests.netlist.topo_oracle import topo_gates_dfs

SEEDS = 3000


def outcome(sort, circuit: Circuit):
    """The gate names in order, or the error text."""
    try:
        return [gate.output for gate in sort(circuit)]
    except ValueError as exc:
        return f"ValueError: {exc}"


def random_circuit(seed: int) -> Circuit:
    """Gates over inputs, latches, undriven names and each other.

    The gates are built in a random order, each reading earlier signals,
    and half of the circuits get back edges: a gate that reads a later
    gate or itself.  Most gate dicts are then shuffled; the rest keep the
    build order, which is topological when there is no back edge.
    """
    rng = random.Random(seed)
    circuit = Circuit(f"r{seed}")
    sources = [circuit.add_input(f"i{k}") for k in range(rng.randint(0, 4))]
    latches = [f"l{k}" for k in range(rng.randint(0, 4))]
    sources += latches + ["undriven"] * rng.randint(0, 1)
    names = [f"g{k}" for k in range(rng.randint(0, 30))]
    rng.shuffle(names)
    back_edges = rng.randint(0, 3) if rng.random() < 0.5 else 0
    gates = []
    for position, name in enumerate(names):
        pool = sources + names[:position]
        arity = rng.randint(0, 3) if pool else 0
        fanins = [rng.choice(pool) for _ in range(arity)]
        gates.append(Gate(name, tuple(fanins), Sop.and_all(len(fanins))))
    for _ in range(back_edges if gates else 0):
        position = rng.randrange(len(gates))
        gate = gates[position]
        target = names[rng.randrange(position, len(names))]
        fanins = (*gate.inputs, target)
        gates[position] = Gate(gate.output, fanins, Sop.and_all(len(fanins)))
    if rng.random() < 0.7:
        rng.shuffle(gates)
    circuit.gates = {gate.output: gate for gate in gates}
    for name in latches:
        circuit.add_latch(name, rng.choice(sources + names or ["undriven"]))
    return circuit


def kind(circuit: Circuit, want) -> str:
    """What a random case exercises."""
    if isinstance(want, str):
        looped = any(g.output in g.inputs for g in circuit.gates.values())
        return "self-loop" if looped else "longer cycle"
    if want == list(circuit.gates):
        return "dict order"
    return "search"


def test_random_circuits_match_the_search():
    kinds = Counter()
    for seed in range(SEEDS):
        circuit = random_circuit(seed)
        want = outcome(topo_gates_dfs, circuit)
        assert outcome(Circuit.topo_gates, circuit) == want, seed
        kinds[kind(circuit, want)] += 1
    # Every path of topo_gates is taken many times.
    paths = ("dict order", "search", "self-loop", "longer cycle")
    assert min(kinds[path] for path in paths) > 100, kinds


@pytest.mark.parametrize("seed", range(40))
def test_error_names_the_gate_reached_again(seed):
    """A ring of gates read in a shuffled order: one cycle, whose text the
    search fixes by where it enters the ring."""
    rng = random.Random(seed)
    circuit = Circuit("ring")
    circuit.add_input("a")
    size = rng.randint(1, 8)
    ring = [f"r{k}" for k in range(size)]
    gates = [
        Gate(name, ("a", ring[(k + 1) % size]), Sop.and_all(2))
        for k, name in enumerate(ring)
    ]
    rng.shuffle(gates)
    circuit.gates = {gate.output: gate for gate in gates}
    want = outcome(topo_gates_dfs, circuit)
    assert want.startswith("ValueError: combinational cycle through ")
    assert outcome(Circuit.topo_gates, circuit) == want


@pytest.mark.parametrize("name", ["minmax10", "s400", "s641", "s953", "s1238"])
def test_table1_circuits_match_the_search(name):
    b, c = table1_pair(name)
    h, j = lowered_cbf_pair(b, c)
    for circuit in (b, c, h, j):
        want = outcome(topo_gates_dfs, circuit)
        assert isinstance(want, list)
        assert outcome(Circuit.topo_gates, circuit) == want, circuit.name
    # The exposed B and the lowered H/J are built in topological order,
    # which is what the linear pass returns without a search.
    for circuit in (b, h, j):
        assert outcome(topo_gates_dfs, circuit) == list(circuit.gates), circuit.name
