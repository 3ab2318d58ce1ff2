"""``simplify`` — per-node two-level minimisation.

Runs the espresso-lite minimiser of :meth:`repro.netlist.cube.Sop.minimized`
on every gate cover and keeps the result when it has fewer literals or
cubes.  Fanins keep their pins even when they fall out of the support;
``sweep`` drops them.  A ``-l``-style guard skips nodes whose cover is
already tiny.
"""

from __future__ import annotations

from typing import Optional

from repro.netlist.circuit import Circuit, Gate
from repro.synth.network import CoverTable

__all__ = ["simplify_network"]


def simplify_network(
    circuit: Circuit,
    min_literals: int = 2,
    max_cubes: int = 32,
    max_literals: int = 120,
    table: Optional[CoverTable] = None,
) -> Circuit:
    """Minimise every node cover in place; returns the circuit.

    Nodes larger than the guards are only SCC-reduced (full minimisation of
    very wide covers is where two-level minimisers spend unbounded time).
    Minimised covers come from ``table`` (a fresh :class:`CoverTable` if
    none).
    """
    if table is None:
        table = CoverTable()
    for name in list(circuit.gates):
        gate = circuit.gates[name]
        if gate.num_literals <= min_literals:
            continue
        full = len(gate.sop.cubes) <= max_cubes and gate.num_literals <= max_literals
        reduced = table.minimized(gate.sop, full)
        if reduced.num_literals < gate.sop.num_literals or len(
            reduced.cubes
        ) < len(gate.sop.cubes):
            circuit.replace_gate(Gate(name, gate.inputs, reduced))
    return circuit
