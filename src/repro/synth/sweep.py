"""``sweep`` — network cleanup.

Mirrors SIS's sweep: iteratively

* fold constant gates into their readers;
* bypass buffers (readers read the buffer's fanin directly);
* collapse single-input gates (inverters merge into reader covers);
* merge aliased fanin positions created by buffer bypassing;
* drop gates that feed nothing (not read by a gate, latch, or PO).

Semantics-preserving per primary output / latch boundary.  A per-round
reader index keeps each round linear in the netlist size (the helpers
re-verify membership before rewriting, so mild staleness is harmless), and
a gate none of the rules can touch is classified once per sweep: later
rounds only check whether it went dead.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.netlist.circuit import Circuit, Gate, Latch
from repro.netlist.cube import Sop
from repro.synth.network import is_buffer, is_inverter, reader_index

__all__ = ["sweep"]


def _fold_constant(
    circuit: Circuit, name: str, value: bool, readers: Dict[str, List[str]]
) -> None:
    """Substitute a constant gate's value into gate readers."""
    for reader_name in readers.get(name, ()):
        gate = circuit.gates.get(reader_name)
        if gate is None or name not in gate.inputs:
            continue
        sop = gate.sop
        inputs = list(gate.inputs)
        while name in inputs:
            pos = inputs.index(name)
            sop = sop.cofactor(pos, value).remove_input(pos)
            inputs.pop(pos)
        circuit.replace_gate(Gate(gate.output, tuple(inputs), sop))


def _invert_into(
    circuit: Circuit, inv_out: str, src: str, readers: Dict[str, List[str]]
) -> None:
    """Rewrite gate readers of an inverter to read ``src`` complemented."""
    for reader_name in readers.get(inv_out, ()):
        gate = circuit.gates.get(reader_name)
        if gate is None or inv_out not in gate.inputs:
            continue
        if src in gate.inputs:
            # Retargeting would alias two positions with opposite phases
            # in one column; leave this reader to a later dedupe round.
            continue
        sop = gate.sop
        inputs = list(gate.inputs)
        for pos, s in enumerate(inputs):
            if s == inv_out:
                sop = sop.negate_input(pos)
                inputs[pos] = src
        circuit.replace_gate(Gate(gate.output, tuple(inputs), sop))
        readers.setdefault(src, []).append(gate.output)


def _dedupe_inputs(gate: Gate) -> Gate:
    """Merge duplicate fanin columns (buffer bypass can alias positions).

    Cubes demanding both phases of one signal are contradictions and drop.
    """
    merged: List[str] = []
    for s in gate.inputs:
        if s not in merged:
            merged.append(s)
    index = {s: i for i, s in enumerate(merged)}
    cubes = []
    for cube in gate.sop.cubes:
        chars = ["-"] * len(merged)
        ok = True
        for pos, ch in enumerate(cube):
            if ch == "-":
                continue
            j = index[gate.inputs[pos]]
            if chars[j] != "-" and chars[j] != ch:
                ok = False
                break
            chars[j] = ch
        if ok:
            cubes.append("".join(chars))
    return Gate(gate.output, tuple(merged), Sop(len(merged), tuple(cubes)))


def _bypass_buffer(
    circuit: Circuit,
    buf: str,
    src: str,
    protected: Set[str],
    readers: Dict[str, List[str]],
) -> bool:
    """Rewire gate (and, when safe, latch) readers of a buffer to its source.

    Returns True if anything was rewired.
    """
    touched = False
    for reader_name in readers.get(buf, ()):
        gate = circuit.gates.get(reader_name)
        if gate is None or buf not in gate.inputs:
            continue
        circuit.replace_gate(
            gate.with_inputs(tuple(src if s == buf else s for s in gate.inputs))
        )
        readers.setdefault(src, []).append(gate.output)
        touched = True
    if buf not in protected:
        for latch in list(circuit.latches.values()):
            data = src if latch.data == buf else latch.data
            enable = latch.enable
            if enable == buf:
                enable = src
            if data != latch.data or enable != latch.enable:
                circuit.replace_latch(Latch(latch.output, data, enable))
                touched = True
    return touched


def _left_alone(gate: Gate) -> bool:
    """True if no rule of a round applies to the gate, unless it is dead.

    That is a cover with cubes but no universal cube, over distinct fanins
    that are all in its support, and neither a buffer nor an inverter.
    """
    sop = gate.sop
    return (
        bool(sop.cubes)
        and not sop.is_const1_syntactic()
        and len(sop.support()) == len(gate.inputs)
        and len(set(gate.inputs)) == len(gate.inputs)
        and not is_buffer(gate)
        and not is_inverter(gate)
    )


def sweep(circuit: Circuit, max_rounds: int = 50) -> Circuit:
    """Run sweep in place; returns the same circuit for chaining."""
    #: Gates :func:`_left_alone` accepted, by name; a rewritten gate is a
    #: new object and gets classified again.
    quiet: Dict[str, Gate] = {}
    for _ in range(max_rounds):
        changed = False
        readers = reader_index(circuit)
        protected: Set[str] = set(circuit.outputs)
        for latch in circuit.latches.values():
            protected.add(latch.data)
            if latch.enable is not None:
                protected.add(latch.enable)
        # Signals a gate, latch pin or PO reads as the round starts.
        read = protected.union(readers)
        for name in list(circuit.gates):
            gate = circuit.gates.get(name)
            if gate is None:
                continue
            # Dead gate removal.
            if name not in read:
                circuit.remove_gate(name)
                changed = True
                continue
            if quiet.get(name) is gate:
                continue
            if _left_alone(gate):
                quiet[name] = gate
                continue
            # Aliased fanin positions (from buffer bypassing) are merged.
            if len(set(gate.inputs)) != len(gate.inputs):
                gate = _dedupe_inputs(gate)
                circuit.replace_gate(gate)
                changed = True
            # Constant folding into readers.
            if gate.sop.is_const0() or gate.sop.is_const1_syntactic():
                value = gate.sop.is_const1_syntactic()
                if any(
                    name in circuit.gates.get(r, gate).inputs
                    for r in readers.get(name, ())
                    if r in circuit.gates
                ):
                    _fold_constant(circuit, name, value, readers)
                    changed = True
                # The constant gate itself stays while a PO/latch reads it.
                continue
            # Gates ignoring all inputs are constants in disguise.
            if gate.inputs and not gate.sop.support():
                value = bool(gate.sop.cubes)
                circuit.replace_gate(
                    Gate(name, (), Sop.const1(0) if value else Sop.const0(0))
                )
                changed = True
                continue
            # Drop unused fanin columns.
            support = gate.sop.support()
            if len(support) < len(gate.inputs):
                keep = sorted(support)
                sop = gate.sop
                for pos in range(len(gate.inputs) - 1, -1, -1):
                    if pos not in support:
                        sop = sop.remove_input(pos)
                circuit.replace_gate(
                    Gate(name, tuple(gate.inputs[i] for i in keep), sop)
                )
                changed = True
                continue
            # Buffer bypass.
            if is_buffer(gate):
                src = gate.inputs[0]
                if _bypass_buffer(circuit, name, src, protected, readers):
                    changed = True
                continue
            # Inverter merging into readers.
            if is_inverter(gate):
                if any(
                    r in circuit.gates and name in circuit.gates[r].inputs
                    for r in readers.get(name, ())
                ):
                    _invert_into(circuit, name, gate.inputs[0], readers)
                    changed = True
                continue
        if not changed:
            break
    return circuit
