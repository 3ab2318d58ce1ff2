"""Boolean-network helpers shared by the synthesis passes.

Synthesis passes operate on *combinational* circuits whose gates are SOP
nodes (exactly SIS's network model).  This module provides fanout counting,
reader indexes, node substitution/collapse, and the algebraic
(literal-set) view of covers.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.netlist.circuit import Circuit, Gate
from repro.netlist.cube import Sop, cube_and, cube_from_literals, cube_literals

__all__ = [
    "fanout_counts",
    "reader_index",
    "collapse_into",
    "compose_sop",
    "alg_cubes",
    "alg_to_sop",
    "require_combinational",
    "is_buffer",
    "is_inverter",
    "node_literals",
]


def require_combinational(circuit: Circuit, op: str) -> None:
    """Raise unless the circuit has no latches."""
    if circuit.latches:
        raise ValueError(
            f"{op} operates on combinational circuits; cut latches first "
            "(see repro.netlist.transform.combinational_core)"
        )


def fanout_counts(circuit: Circuit) -> Dict[str, int]:
    """How many gate pins / PO slots read each signal."""
    counts: Dict[str, int] = {s: 0 for s in circuit.signals()}
    for gate in circuit.gates.values():
        for src in gate.inputs:
            counts[src] = counts.get(src, 0) + 1
    for latch in circuit.latches.values():
        counts[latch.data] = counts.get(latch.data, 0) + 1
        if latch.enable is not None:
            counts[latch.enable] = counts.get(latch.enable, 0) + 1
    for out in circuit.outputs:
        counts[out] = counts.get(out, 0) + 1
    return counts


def reader_index(circuit: Circuit) -> Dict[str, List[str]]:
    """Gate readers per signal, in gate-dict order (latch/PO readers excluded).

    A gate reading a signal on several pins is listed once under it.
    """
    readers: Dict[str, List[str]] = {}
    for name, gate in circuit.gates.items():
        for src in gate.inputs:
            listed = readers.get(src)
            if listed is None:
                readers[src] = [name]
            elif listed[-1] != name:
                listed.append(name)
    return readers


def is_buffer(gate: Gate) -> bool:
    """True for a single-input identity gate."""
    return (
        len(gate.inputs) == 1
        and len(gate.sop.cubes) == 1
        and gate.sop.cubes[0] == "1"
    )


def is_inverter(gate: Gate) -> bool:
    """True for a single-input complement gate."""
    return (
        len(gate.inputs) == 1
        and len(gate.sop.cubes) == 1
        and gate.sop.cubes[0] == "0"
    )


def node_literals(circuit: Circuit) -> int:
    """Total literal count of the network."""
    return sum(g.num_literals for g in circuit.gates.values())


def compose_sop(
    outer: Sop,
    outer_inputs: Sequence[str],
    inner_signal: str,
    inner: Sop,
    inner_inputs: Sequence[str],
) -> Tuple[Sop, Tuple[str, ...]]:
    """Substitute ``inner`` for ``inner_signal`` inside ``outer``.

    Returns the composed cover and its merged fanin list.  Used by
    ``eliminate`` (node collapsing).
    """
    # Merged fanin list: outer fanins (minus the inner signal) + inner's.
    merged: List[str] = [s for s in outer_inputs if s != inner_signal]
    for s in inner_inputs:
        if s not in merged:
            merged.append(s)
    index = {s: i for i, s in enumerate(merged)}
    n = len(merged)

    inner_pos = [i for i, s in enumerate(outer_inputs) if s == inner_signal]
    if not inner_pos:
        # Nothing to substitute; just re-map.
        remap = [index[s] for s in outer_inputs]
        return outer.permute(remap, n), tuple(merged)

    inner_mapped = inner.permute([index[s] for s in inner_inputs], n)
    inner_comp: Optional[Sop] = None  # complemented only if read negated

    cubes: List[str] = []
    for cube in outer.cubes:
        # Split the cube into the part over the inner literal(s) and the rest.
        phase: Optional[bool] = None
        rest_chars = ["-"] * n
        contradictory = False
        for i, ch in enumerate(cube):
            if ch == "-":
                continue
            s = outer_inputs[i]
            if s == inner_signal:
                want = ch == "1"
                if phase is not None and phase != want:
                    contradictory = True
                    break
                phase = want
            else:
                j = index[s]
                if rest_chars[j] != "-" and rest_chars[j] != ch:
                    contradictory = True
                    break
                rest_chars[j] = ch
        if contradictory:
            continue
        rest = "".join(rest_chars)
        if phase is None:
            cubes.append(rest)
            continue
        if phase:
            factor = inner_mapped
        else:
            if inner_comp is None:
                inner_comp = inner_mapped.complement()
            factor = inner_comp
        for inner_cube in factor.cubes:
            product = cube_and(rest, inner_cube)
            if product is not None:
                cubes.append(product)
    return Sop(n, tuple(cubes)).scc_minimal(), tuple(merged)


def collapse_into(
    circuit: Circuit,
    node: str,
    readers: Dict[str, List[str]],
    max_result_literals: int = 100,
    max_result_cubes: int = 64,
) -> int:
    """Collapse gate ``node`` into every reader; returns fanouts rewritten.

    The node itself is left in place (sweep removes it if it became
    dangling).  Only gate readers are rewritten; latch pins and POs keep
    reading the original node.  A reader whose composed cover would exceed
    the size limits is left unchanged (this is SIS's ``eliminate -l``
    guard — it prevents the SOP blow-up of collapsing XOR-rich cones).

    ``readers`` is a :func:`reader_index` of the circuit; entries may be
    stale, but every gate reading a signal must be listed under it.  Each
    rewritten reader is added under the node's fanins it did not read.
    """
    gate = circuit.gates[node]
    rewritten = 0
    for reader_name in readers.get(node, ()):
        reader = circuit.gates[reader_name]
        if node not in reader.inputs:
            continue
        sop, fanins = compose_sop(
            reader.sop, reader.inputs, node, gate.sop, gate.inputs
        )
        if (
            sop.num_literals > max_result_literals
            or len(sop.cubes) > max_result_cubes
        ):
            continue
        circuit.replace_gate(Gate(reader.output, fanins, sop))
        for src in gate.inputs:
            if src not in reader.inputs:
                readers.setdefault(src, []).append(reader_name)
        rewritten += 1
    return rewritten


# ----------------------------------------------------------------------
# algebraic (literal-set) view
# ----------------------------------------------------------------------
def alg_cubes(sop: Sop) -> List[FrozenSet[int]]:
    """Cubes as literal sets (see :func:`repro.netlist.cube.cube_literals`)."""
    return [cube_literals(c) for c in sop.cubes]


def alg_to_sop(cubes: Sequence[FrozenSet[int]], ninputs: int) -> Sop:
    """Literal-set cubes back to an :class:`Sop`."""
    return Sop(ninputs, tuple(cube_from_literals(c, ninputs) for c in cubes))
