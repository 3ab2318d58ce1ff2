"""Fanout limiting by whole-network rounds.

A test oracle: the loop ``repro.synth.techmap._limit_fanout`` replaced.
Every round recounts the fanout of the whole network and rescans every
gate pin for the overloaded signals.  ``tests/synth/test_techmap.py``
checks that the one-pass version gives the same netlist: the same
``__fob_`` buffers, in the same order, and the same pin moves.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.cube import Sop
from repro.synth.network import fanout_counts

__all__ = ["limit_fanout_by_rounds"]


def limit_fanout_by_rounds(circuit: Circuit, limit: int) -> None:
    """Insert buffer cells so no signal drives more than ``limit`` pins."""
    changed = True
    guard = 0
    while changed and guard < 32:
        guard += 1
        changed = False
        counts = fanout_counts(circuit)
        overloaded = [s for s in circuit.signals() if counts.get(s, 0) > limit]
        # Gate pins reading each overloaded signal, in gate-dict then pin
        # order.  Moving one signal's pins to its buffer leaves every other
        # signal's pins where they were, so the lists stay exact.
        pins: Dict[str, List[Tuple[str, int]]] = {s: [] for s in overloaded}
        for gate in circuit.gates.values():
            for pin, s in enumerate(gate.inputs):
                if s in pins:
                    pins[s].append((gate.output, pin))
        for sig in overloaded:
            readers = pins[sig]
            if len(readers) < limit:
                continue  # only gate pins move, and too few read sig
            # Leave the signal `limit` loads, its POs, latches and the new
            # buffer included (just those when they are more), and move
            # the other readers to the buffer; iterating builds a chain of
            # buffers, not a tree.
            movable = readers[max(0, limit - 1 - (counts[sig] - len(readers))) :]
            buf = circuit.fresh_signal(f"__fob_{sig}")
            circuit.add_gate(buf, (sig,), Sop.and_all(1))
            for gate_name, pin in movable:
                gate = circuit.gates[gate_name]
                new_inputs = list(gate.inputs)
                new_inputs[pin] = buf
                circuit.replace_gate(gate.with_inputs(tuple(new_inputs)))
            changed = True
