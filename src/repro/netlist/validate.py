"""Structural well-formedness checks for circuits."""

from __future__ import annotations

from typing import List

from repro.netlist.circuit import Circuit, Gate

__all__ = ["CircuitError", "validate_circuit"]


class CircuitError(Exception):
    """Raised when a circuit violates a structural invariant."""


def validate_circuit(circuit: Circuit) -> List[Gate]:
    """Check the circuit's structural invariants; raise on violation.

    Invariants checked:

    * every gate/latch fanin and every primary output is a driven signal;
    * no signal has two drivers (by construction, but re-checked);
    * no combinational cycles (latches are the only legal cycle breakers);
    * gate cover arity matches its fanin count (by construction).

    Returns the circuit's ``topo_gates()``, which the cycle check
    computes, so that a caller can sort the circuit only once.
    """
    problems: List[str] = []

    seen = set()
    for sig in circuit.inputs:
        if sig in seen:
            problems.append(f"duplicate driver for input {sig!r}")
        seen.add(sig)
    for sig in circuit.gates:
        if sig in seen:
            problems.append(f"duplicate driver for gate output {sig!r}")
        seen.add(sig)
    for sig in circuit.latches:
        if sig in seen:
            problems.append(f"duplicate driver for latch output {sig!r}")
        seen.add(sig)

    for gate in circuit.gates.values():
        for src in gate.inputs:
            if src not in seen:
                problems.append(f"gate {gate.output!r} reads undriven {src!r}")
    for latch in circuit.latches.values():
        if latch.data not in seen:
            problems.append(f"latch {latch.output!r} reads undriven {latch.data!r}")
        if latch.enable is not None and latch.enable not in seen:
            problems.append(
                f"latch {latch.output!r} enable {latch.enable!r} undriven"
            )
    for out in circuit.outputs:
        if out not in seen:
            problems.append(f"primary output {out!r} is undriven")

    order: List[Gate] = []
    if not problems:
        try:
            order = circuit.topo_gates()
        except ValueError as exc:
            problems.append(str(exc))

    if problems:
        raise CircuitError(
            f"circuit {circuit.name!r} invalid: " + "; ".join(problems)
        )
    return order
