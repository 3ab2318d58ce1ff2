"""``eliminate`` — collapse low-value nodes into their fanouts.

The *value* of a node (SIS definition) is the literal saving it provides:

    value(n) = (fanouts(n) − 1) · literals(n) − fanouts(n)

(approximately: how many literals the network would gain if the node were
collapsed everywhere).  ``eliminate(threshold)`` collapses every node whose
value is at most the threshold, like SIS's ``eliminate -l <limit> <thresh>``.

Nodes read by latches or primary outputs are never removed (their function
must survive at their own name), but they may still absorb collapsed
fanins.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.netlist.circuit import Circuit
from repro.synth.network import (
    CoverTable,
    collapse_into,
    fanout_counts,
    reader_index,
)
from repro.synth.sweep import sweep

__all__ = ["eliminate", "node_value"]


def node_value(circuit: Circuit, name: str, counts: Dict[str, int]) -> int:
    """The SIS node value: (fanouts-1)*literals - fanouts."""
    gate = circuit.gates[name]
    n_fanout = counts.get(name, 0)
    lits = gate.num_literals
    return (n_fanout - 1) * lits - n_fanout


def eliminate(
    circuit: Circuit,
    threshold: int = 0,
    max_literals: int = 100,
    max_rounds: int = 10,
    table: Optional[CoverTable] = None,
) -> Circuit:
    """Collapse nodes with value ≤ threshold (in place).

    Compositions come from ``table`` (a fresh :class:`CoverTable` if none).
    """
    if table is None:
        table = CoverTable()
    for _ in range(max_rounds):
        counts = fanout_counts(circuit)
        readers = reader_index(circuit)
        candidates = []
        for name, gate in circuit.gates.items():
            if not gate.inputs:
                continue  # constants are sweep's job
            if gate.num_literals > max_literals:
                continue
            if not readers.get(name):
                continue  # no gate reads it
            value = node_value(circuit, name, counts)
            if value <= threshold:
                candidates.append((value, name))
        if not candidates:
            break
        candidates.sort()
        changed = False
        done: Set[str] = set()
        for _, name in candidates:
            if name in done or name not in circuit.gates:
                continue
            # Collapsing a node changes its readers' structure; re-collapse
            # conservatively one node per affected region per round.
            if collapse_into(
                circuit, name, readers, table, max_result_literals=max_literals
            ):
                changed = True
            done.add(name)
        sweep(circuit)
        if not changed:
            break
    return circuit
