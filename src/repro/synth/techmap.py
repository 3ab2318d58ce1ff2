"""Technology mapping onto the paper's library.

The paper uses a reduced library of inverters, 2-input NANDs and 2-input
NORs, the unit delay model, and a fanout limit of four (Sec. 7.3).  The
mapper:

1. tech-decomposes the network to INV/AND2/OR2;
2. converts AND2 → NAND2+INV and OR2 → NOR2+INV, then cancels INV pairs;
3. enforces the fanout limit with chains of buffer cells;
4. reports area (cell-area units: INV 1, NAND2/NOR2 2) and delay (levels).

The mapped circuit is a normal :class:`Circuit` whose gates are only INV,
NAND2 and NOR2 cells (plus fanout-free constant cells when required).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.netlist.circuit import Circuit, Gate, Latch
from repro.netlist.cube import Sop
from repro.synth.decomp import tech_decomp
from repro.synth.network import fanout_counts, is_buffer, is_inverter, reader_index
from repro.synth.sweep import sweep

__all__ = ["tech_map", "MappedStats", "mapped_stats"]

_NAND2 = Sop.or_all(2, [False, False])
_NOR2 = Sop.and_all(2, [False, False])
_AND2 = Sop.and_all(2)
_OR2 = Sop.or_all(2)
_XOR2 = Sop.xor2()
_INV = Sop.and_all(1, [False])

_AREA = {"inv": 1.0, "nand2": 2.0, "nor2": 2.0, "buf": 1.0, "const": 0.0}


@dataclass
class MappedStats:
    """Area/delay report of a mapped circuit (the ``map`` command analog)."""

    area: float
    delay: int
    cells: Dict[str, int]
    latches: int

    def __str__(self) -> str:
        cell_str = ", ".join(f"{k}:{v}" for k, v in sorted(self.cells.items()))
        return (
            f"area={self.area:.1f} delay={self.delay} latches={self.latches} "
            f"[{cell_str}]"
        )


def _cell_kind(gate: Gate) -> Optional[str]:
    if not gate.inputs:
        return "const"
    if is_inverter(gate):
        return "inv"
    if is_buffer(gate):
        return "buf"
    if gate.sop == _NAND2:
        return "nand2"
    if gate.sop == _NOR2:
        return "nor2"
    return None


def tech_map(circuit: Circuit, fanout_limit: int = 4) -> Circuit:
    """Map to {INV, NAND2, NOR2} with a fanout limit; returns a new circuit.

    ``fanout_limit=0`` (or less) maps without one.  A limit of 1 raises
    :class:`ValueError`: a buffer that drives one pin re-creates its
    driver's load, so no signal read twice could ever meet it.
    """
    if fanout_limit == 1:
        raise ValueError("fanout_limit=1 cannot be met; use 0 (off) or 2 and up")
    work = circuit.copy(circuit.name + "_mapped")
    tech_decomp_seq(work)
    _to_nand_nor(work)
    _cancel_inverter_pairs(work)
    _remove_dead(work)
    if fanout_limit > 0:
        _limit_fanout(work, fanout_limit)
    return work


def _remove_dead(circuit: Circuit) -> None:
    """Drop gates that feed nothing (library-form preserving cleanup)."""
    while True:
        counts = fanout_counts(circuit)
        protected = set(circuit.outputs)
        for latch in circuit.latches.values():
            protected.add(latch.data)
            if latch.enable is not None:
                protected.add(latch.enable)
        dead = [
            name
            for name in circuit.gates
            if counts.get(name, 0) == 0 and name not in protected
        ]
        if not dead:
            return
        for name in dead:
            circuit.remove_gate(name)


def tech_decomp_seq(circuit: Circuit) -> Circuit:
    """tech_decomp that tolerates latches (operates between cut points)."""
    if not circuit.latches:
        return tech_decomp(circuit)
    from repro.netlist.transform import combinational_core, rebuild_from_core

    core = combinational_core(circuit)
    tech_decomp(core.circuit)
    rebuilt = rebuild_from_core(core, circuit.name)
    circuit.inputs = rebuilt.inputs
    circuit._input_set = set(rebuilt.inputs)
    circuit.outputs = rebuilt.outputs
    circuit.gates = rebuilt.gates
    circuit.latches = rebuilt.latches
    return circuit


def _to_nand_nor(circuit: Circuit) -> None:
    """Convert AND2/OR2 cells to NAND2/NOR2 + INV."""
    for name in list(circuit.gates):
        gate = circuit.gates[name]
        if gate.sop == _AND2:
            inner = circuit.fresh_signal(f"__map_na_{name}")
            circuit.remove_gate(name)
            circuit.add_gate(inner, gate.inputs, _NAND2)
            circuit.add_gate(name, (inner,), _INV)
        elif gate.sop == _OR2:
            inner = circuit.fresh_signal(f"__map_no_{name}")
            circuit.remove_gate(name)
            circuit.add_gate(inner, gate.inputs, _NOR2)
            circuit.add_gate(name, (inner,), _INV)
        elif len(gate.inputs) == 2 and gate.sop == _XOR2:
            # XOR2 cells may survive primitive-size skipping in tech_decomp:
            # a·b̄ + ā·b = NAND(NAND(a, NAND(a,b)), NAND(b, NAND(a,b))).
            a, b = gate.inputs
            nab = circuit.fresh_signal(f"__map_x0_{name}")
            circuit.add_gate(nab, (a, b), _NAND2)
            l = circuit.fresh_signal(f"__map_x1_{name}")
            circuit.add_gate(l, (a, nab), _NAND2)
            r = circuit.fresh_signal(f"__map_x2_{name}")
            circuit.add_gate(r, (b, nab), _NAND2)
            circuit.remove_gate(name)
            circuit.add_gate(name, (l, r), _NAND2)
        elif _cell_kind(gate) is None:
            # Remaining small cells (e.g. 2-input with inverted literals):
            # fall back to cube-level NAND/NOR construction via De Morgan.
            _map_small(circuit, name)


def _map_small(circuit: Circuit, name: str) -> None:
    """Map an arbitrary ≤2-input cover using INV/NAND2/NOR2 cells."""
    gate = circuit.gates[name]
    circuit.remove_gate(name)
    inv_of: Dict[str, str] = {}

    def inv(sig: str) -> str:
        if sig not in inv_of:
            node = circuit.fresh_signal(f"__map_i_{name}")
            circuit.add_gate(node, (sig,), _INV)
            inv_of[sig] = node
        return inv_of[sig]

    cube_sigs: List[str] = []
    for cube in gate.sop.cubes:
        lits: List[str] = []
        for i, ch in enumerate(cube):
            if ch == "1":
                lits.append(gate.inputs[i])
            elif ch == "0":
                lits.append(inv(gate.inputs[i]))
        if not lits:
            node = circuit.fresh_signal(f"__map_c1_{name}")
            circuit.add_gate(node, (), Sop.const1(0))
            lits = [node]
        if len(lits) == 1:
            cube_sigs.append(lits[0])
        else:
            nand = circuit.fresh_signal(f"__map_a_{name}")
            circuit.add_gate(nand, tuple(lits), _NAND2)
            cube_sigs.append(inv(nand))
    if not cube_sigs:
        circuit.add_gate(name, (), Sop.const0(0))
        return
    if len(cube_sigs) == 1:
        circuit.add_gate(name, (cube_sigs[0],), Sop.and_all(1))
        return
    acc = cube_sigs[0]
    for nxt in cube_sigs[1:-1]:
        nor = circuit.fresh_signal(f"__map_o_{name}")
        circuit.add_gate(nor, (acc, nxt), _NOR2)
        acc = inv(nor)
    nor = circuit.fresh_signal(f"__map_of_{name}")
    circuit.add_gate(nor, (acc, cube_sigs[-1]), _NOR2)
    circuit.add_gate(name, (nor,), _INV)


def _cancel_inverter_pairs(circuit: Circuit) -> None:
    """Rewire readers of INV(INV(x)) to x (sweep drops the dead cells)."""
    readers = reader_index(circuit)
    for name in list(circuit.gates):
        gate = circuit.gates.get(name)
        if gate is None or not is_inverter(gate):
            continue
        src_gate = circuit.gates.get(gate.inputs[0])
        if src_gate is None or not is_inverter(src_gate):
            continue
        original = src_gate.inputs[0]
        for reader_name in readers.get(name, ()):
            reader = circuit.gates[reader_name]
            if name not in reader.inputs:
                continue  # already rewired
            if original not in reader.inputs:
                readers.setdefault(original, []).append(reader_name)
            circuit.replace_gate(
                reader.with_inputs(
                    tuple(original if s == name else s for s in reader.inputs)
                )
            )
    _remove_dead(circuit)


def _limit_fanout(circuit: Circuit, limit: int) -> None:
    """Insert buffer cells so no signal drives more than ``limit`` pins.

    Each round takes the overloaded signals in ``circuit.signals()`` order
    and moves gate pins, in gate-dict then pin order, behind one new
    ``__fob_`` buffer per signal.  A signal keeps ``limit - 1 - k`` gate
    pins (at least none), where ``k`` counts the POs and latches reading
    it, so with its buffer it drives ``limit`` pins, or ``k + 1`` when
    ``k`` alone reaches the limit; a buffer still overloaded is split in
    a later round.  That builds a chain, not a
    tree: a signal with N gate readers ends up about N / (limit - 1)
    buffers deep (ROADMAP item 5).  Fanout counts and reader pins are
    built once: a move changes only those of its signal and of its new
    buffer, so a round visits just the signals the previous round
    touched.
    """
    counts = fanout_counts(circuit)
    pins: Dict[str, List[Tuple[str, int]]] = {}
    for gate in circuit.gates.values():
        for pin, s in enumerate(gate.inputs):
            pins.setdefault(s, []).append((gate.output, pin))
    # Position in signals() order: inputs, gates (new buffers last), latches.
    rank: Dict[str, Tuple[int, int]] = {}
    for kind, names in enumerate((circuit.inputs, circuit.gates, circuit.latches)):
        for i, s in enumerate(names):
            rank[s] = (kind, i)

    def splittable(s: str) -> bool:
        # Only gate pins move: an overloaded signal with fewer than
        # `limit` of them keeps its load.
        return counts.get(s, 0) > limit and len(pins.get(s, ())) >= limit

    overloaded = [s for s in circuit.signals() if splittable(s)]
    rounds = 0
    while overloaded and rounds < 32:
        rounds += 1
        touched: List[str] = []
        for sig in overloaded:
            readers = pins[sig]
            kept = max(0, limit - 1 - (counts[sig] - len(readers)))
            movable = readers[kept:]
            buf = circuit.fresh_signal(f"__fob_{sig}")
            rank[buf] = (1, len(circuit.gates))
            circuit.add_gate(buf, (sig,), Sop.and_all(1))
            for gate_name, pin in movable:
                gate = circuit.gates[gate_name]
                new_inputs = list(gate.inputs)
                new_inputs[pin] = buf
                circuit.replace_gate(gate.with_inputs(tuple(new_inputs)))
            pins[sig] = readers[:kept] + [(buf, 0)]
            pins[buf] = movable
            counts[sig] -= len(movable) - 1
            counts[buf] = len(movable)
            touched += (sig, buf)
        overloaded = sorted(filter(splittable, touched), key=rank.__getitem__)


def mapped_stats(circuit: Circuit) -> MappedStats:
    """Area/delay report; raises if a gate is not a library cell."""
    from repro.synth.depth import circuit_depth

    cells: Dict[str, int] = {}
    area = 0.0
    for gate in circuit.gates.values():
        kind = _cell_kind(gate)
        if kind is None:
            raise ValueError(
                f"gate {gate.output!r} is not a library cell: {gate.sop}"
            )
        cells[kind] = cells.get(kind, 0) + 1
        area += _AREA[kind]
    # Mapped delay counts INV/NAND/NOR levels; buffers count as cells with
    # delay 1 too (they are real drivers), constants 0.
    delay = _mapped_depth(circuit)
    return MappedStats(area, delay, cells, circuit.num_latches())


def _mapped_depth(circuit: Circuit) -> int:
    level: Dict[str, int] = {pi: 0 for pi in circuit.inputs}
    for latch in circuit.latches:
        level[latch] = 0
    observed = 0
    for gate in circuit.topo_gates():
        d = 0 if not gate.inputs else 1
        level[gate.output] = max(
            (level[s] for s in gate.inputs), default=0
        ) + d
    for out in circuit.outputs:
        observed = max(observed, level.get(out, 0))
    for latch in circuit.latches.values():
        observed = max(observed, level.get(latch.data, 0))
        if latch.enable is not None:
            observed = max(observed, level.get(latch.enable, 0))
    return observed
