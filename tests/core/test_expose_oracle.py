"""Exposure on successor sets against the networkx oracle.

On every Table 2 circuit and every ``--quick`` Table 1 circuit, the latch
dependency graph has the same edges as the oracle's ``nx.DiGraph``, and
:func:`~repro.core.expose.choose_latches_to_expose` returns the same
``(to_expose, to_remodel)`` as the oracle, structural and with unateness,
with and without pinned latches.
"""

from __future__ import annotations

import pytest

from repro.bench.industrial import TABLE2_CIRCUITS, build_table2_circuit
from repro.bench.iscas_like import build_table1_circuit
from repro.core.expose import choose_latches_to_expose
from repro.flows.table1 import QUICK_SET
from repro.netlist.graph import latch_dependency_graph
from tests.core.expose_oracle import (
    nx_choose_latches_to_expose,
    nx_latch_dependency_graph,
)

CIRCUITS = [("table2", entry[0]) for entry in TABLE2_CIRCUITS] + [
    ("table1", name) for name in QUICK_SET
]


def build(table: str, name: str):
    if table == "table2":
        return build_table2_circuit(name)
    return build_table1_circuit(name)


@pytest.mark.parametrize("table, name", CIRCUITS)
def test_same_latch_graph(table, name):
    circuit = build(table, name)
    graph = latch_dependency_graph(circuit)
    oracle = nx_latch_dependency_graph(circuit)
    assert list(graph) == list(oracle.nodes)
    assert graph == {node: set(oracle.succ[node]) for node in oracle}


@pytest.mark.parametrize("table, name", CIRCUITS)
def test_same_latches_exposed_and_remodelled(table, name):
    circuit = build(table, name)
    pinned = sorted(circuit.latches)[::7]
    for kwargs in (
        dict(use_unateness=False),
        dict(use_unateness=False, strategy="weighted"),
        dict(use_unateness=True),
        dict(use_unateness=True, pinned=pinned),
    ):
        chosen = choose_latches_to_expose(circuit, **kwargs)
        assert chosen == nx_choose_latches_to_expose(circuit, **kwargs), kwargs
