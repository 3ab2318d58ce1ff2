"""The state-dict depth-first search, kept as the order oracle.

A test oracle for :meth:`repro.netlist.circuit.Circuit.topo_gates`.  This
is the search that method ran before it gained its linear pass: one
``{signal: 0 | 1}`` state dict (0 on the search path, 1 done) and a stack
of ``(signal, phase)`` frames.  ``topo_gates`` must return the same gate
list and raise the same :class:`ValueError` text on every circuit:
``tests/netlist/test_topo_order.py`` runs both side by side.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.netlist.circuit import Circuit, Gate

__all__ = ["topo_gates_dfs"]


def topo_gates_dfs(circuit: Circuit) -> List[Gate]:
    """Gates in topological order; :class:`ValueError` on a cycle."""
    order: List[Gate] = []
    state: Dict[str, int] = {}  # 0 = visiting, 1 = done
    stack: List[Tuple[str, int]] = []
    for root in list(circuit.gates):
        if state.get(root) == 1:
            continue
        stack.append((root, 0))
        while stack:
            signal, phase = stack.pop()
            if phase == 0:
                if state.get(signal) == 1:
                    continue
                if state.get(signal) == 0:
                    raise ValueError(f"combinational cycle through {signal!r}")
                state[signal] = 0
                stack.append((signal, 1))
                for src in circuit.gates[signal].inputs:
                    if src in circuit.gates and state.get(src) != 1:
                        if state.get(src) == 0:
                            raise ValueError(
                                f"combinational cycle through {src!r}"
                            )
                        stack.append((src, 0))
            else:
                if state.get(signal) != 1:
                    state[signal] = 1
                    order.append(circuit.gates[signal])
    return order
