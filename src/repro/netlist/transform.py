"""Structural circuit transformations.

The key operations here implement pieces of the paper's flow:

* :func:`expose_latches` — make latch positions observable (Fig. 15): the
  latch output becomes a pseudo primary input and its data (and enable)
  become pseudo primary outputs, breaking feedback paths;
* :func:`combinational_core` — cut every latch: latch outputs become PIs,
  latch data/enable nets become POs.  Synthesis operates on this core and
  :func:`rebuild_from_core` stitches the latches back;
* :func:`miter` — the standard combinational miter for CEC;
* :func:`strip_dangling` — remove logic that feeds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.netlist.circuit import Circuit, Gate, Latch
from repro.netlist.cube import Sop
from repro.netlist.graph import transitive_fanin

__all__ = [
    "expose_latches",
    "ExposedCircuit",
    "CombCore",
    "combinational_core",
    "rebuild_from_core",
    "miter",
    "strip_dangling",
    "cone_of_influence",
]

EXPOSED_IN_PREFIX = "__exposed_in__"
EXPOSED_OUT_PREFIX = "__exposed_out__"
CORE_DATA_PREFIX = "__ns__"
CORE_EN_PREFIX = "__en__"


@dataclass
class ExposedCircuit:
    """Result of :func:`expose_latches`.

    ``circuit`` is the modified circuit; ``exposed`` maps each exposed latch
    output to the pair ``(pseudo_input, pseudo_output)`` that replaced it.
    The original latch is *kept* (driven by its original data/enable and now
    dangling unless it was a primary output) only conceptually — structurally
    the latch is removed and replaced by the pseudo ports, which is exactly
    the verification view: the latch location is frozen and its boundary is
    observable.
    """

    circuit: Circuit
    exposed: Dict[str, Tuple[str, str]]


def expose_latches(circuit: Circuit, latches: Iterable[str]) -> ExposedCircuit:
    """Expose the given latches (paper Fig. 15).

    Each exposed latch ``x`` (data ``d``, enable ``e``) is removed; a fresh
    primary input ``__exposed_in__x`` replaces reads of ``x`` and a fresh
    primary output ``__exposed_out__x`` observes ``d`` (and ``__exposed_out__
    x__en`` observes ``e`` when load-enabled).  The transformation breaks all
    feedback cycles through these latches while preserving equivalence
    checkability: two circuits with identically-exposed latches are
    sequentially equivalent iff the exposed versions are (latch-for-latch).
    """
    result = circuit.copy(circuit.name + "_exposed")
    # Who reads each signal: gates (by name), latches (by output) and PO
    # positions.  Buffers join the index as they are added, so every
    # exposure rewires its readers without scanning the circuit.
    gate_readers: Dict[str, List[str]] = {}
    for gate in result.gates.values():
        for s in dict.fromkeys(gate.inputs):
            gate_readers.setdefault(s, []).append(gate.output)
    latch_readers: Dict[str, List[str]] = {}
    for latch in result.latches.values():
        for s in {latch.data, latch.enable} - {None}:
            latch_readers.setdefault(s, []).append(latch.output)
    output_positions: Dict[str, List[int]] = {}
    for position, s in enumerate(result.outputs):
        output_positions.setdefault(s, []).append(position)

    def observe(base: str, src: str) -> str:
        buf = result.fresh_signal(base)
        result.add_gate(buf, (src,), Sop.and_all(1))
        gate_readers.setdefault(src, []).append(buf)
        result.add_output(buf)
        return buf

    exposed: Dict[str, Tuple[str, str]] = {}
    for name in latches:
        latch = result.latches.get(name)
        if latch is None:
            raise KeyError(f"no latch {name!r} in circuit")
        result.remove_latch(name)
        pseudo_in = EXPOSED_IN_PREFIX + name
        pseudo_out = EXPOSED_OUT_PREFIX + name
        # Reads of the latch output now come from the pseudo input.
        result.add_input(pseudo_in)
        for reader in gate_readers.pop(name, ()):
            gate = result.gates[reader]
            result.replace_gate(
                gate.with_inputs(tuple(pseudo_in if s == name else s for s in gate.inputs))
            )
        for reader in latch_readers.pop(name, ()):
            other = result.latches.get(reader)
            if other is None:  # exposed already
                continue
            data = pseudo_in if other.data == name else other.data
            enable = pseudo_in if other.enable == name else other.enable
            result.replace_latch(Latch(reader, data, enable))
        for position in output_positions.pop(name, ()):
            result.outputs[position] = pseudo_in
        # The next-state net becomes observable.
        buf = observe(pseudo_out, latch.data)
        if latch.enable is not None:
            observe(pseudo_out + "__en", latch.enable)
        exposed[name] = (pseudo_in, buf)
    return ExposedCircuit(result, exposed)


@dataclass
class CombCore:
    """The combinational core of a sequential circuit.

    ``circuit`` is purely combinational; for every latch ``x`` of the parent
    the core has a PI named ``x`` (the previous-state value) and POs
    observing its next-state/data net and, for enabled latches, its enable
    net.  ``latches`` remembers the original latch records; ``ns_name`` /
    ``en_name`` record the boundary PO names (fresh-named to survive
    repeated core extraction).
    """

    circuit: Circuit
    latches: Dict[str, Latch]
    ns_name: Dict[str, str]
    en_name: Dict[str, str]

    @property
    def state_inputs(self) -> List[str]:
        """The latch-output names (present-state PIs of the core)."""
        return list(self.latches)

    def next_state_output(self, latch_output: str) -> str:
        """The core PO observing a latch's next-state net."""
        return self.ns_name[latch_output]

    def enable_output(self, latch_output: str) -> Optional[str]:
        """The core PO observing a latch's enable (None if regular)."""
        return self.en_name.get(latch_output)


def combinational_core(circuit: Circuit) -> CombCore:
    """Cut all latches, yielding a pure combinational circuit."""
    core = Circuit(circuit.name + "_core")
    core.inputs = list(circuit.inputs)
    core._input_set = set(core.inputs)
    for latch in circuit.latches.values():
        core.add_input(latch.output)
    core.gates = dict(circuit.gates)
    core.outputs = list(circuit.outputs)
    ns_name: Dict[str, str] = {}
    en_name: Dict[str, str] = {}
    for latch in circuit.latches.values():
        ns = core.fresh_signal(CORE_DATA_PREFIX + latch.output)
        core.add_gate(ns, (latch.data,), Sop.and_all(1))
        core.add_output(ns)
        ns_name[latch.output] = ns
        if latch.enable is not None:
            en = core.fresh_signal(CORE_EN_PREFIX + latch.output)
            core.add_gate(en, (latch.enable,), Sop.and_all(1))
            core.add_output(en)
            en_name[latch.output] = en
    return CombCore(core, dict(circuit.latches), ns_name, en_name)


def rebuild_from_core(core: CombCore, name: Optional[str] = None) -> Circuit:
    """Reattach the latches of a (possibly re-synthesised) core."""
    comb = core.circuit
    result = Circuit(name or comb.name.replace("_core", ""))
    latch_outputs = set(core.latches)
    result.inputs = [s for s in comb.inputs if s not in latch_outputs]
    result._input_set = set(result.inputs)
    result.gates = dict(comb.gates)
    for latch_out, latch in core.latches.items():
        ns = core.next_state_output(latch_out)
        en = core.enable_output(latch_out)
        if ns not in comb.gates and ns not in comb.inputs:
            raise ValueError(f"core lost next-state net {ns!r}")
        result.latches[latch_out] = Latch(latch_out, ns, en)
    boundary = set(core.ns_name.values()) | set(core.en_name.values())
    result.outputs = [s for s in comb.outputs if s not in boundary]
    return result


def miter(c1: Circuit, c2: Circuit, name: str = "miter") -> Circuit:
    """Build a combinational miter: output 1 iff some output pair differs.

    Both circuits must be combinational, with identical input and output
    name sets (output order may differ).
    """
    if c1.latches or c2.latches:
        raise ValueError("miter requires combinational circuits")
    if set(c1.inputs) != set(c2.inputs):
        raise ValueError(
            "input mismatch: "
            f"{sorted(set(c1.inputs) ^ set(c2.inputs))}"
        )
    if set(c1.outputs) != set(c2.outputs):
        raise ValueError(
            "output mismatch: "
            f"{sorted(set(c1.outputs) ^ set(c2.outputs))}"
        )
    keep = set(c1.inputs)
    a = c1.with_prefix("m1_", keep=keep)
    b = c2.with_prefix("m2_", keep=keep)
    m = Circuit(name)
    m.inputs = list(c1.inputs)
    m._input_set = set(m.inputs)
    m.gates = dict(a.gates)
    for gate in b.gates.values():
        m.gates[gate.output] = gate
    xors = []
    for i, out in enumerate(sorted(set(c1.outputs))):
        sig_a = "m1_" + out if ("m1_" + out) in m.gates else out
        sig_b = "m2_" + out if ("m2_" + out) in m.gates else out
        x = f"__miter_x{i}"
        m.add_gate(x, (sig_a, sig_b), Sop.xor2())
        xors.append(x)
    if not xors:
        m.add_gate("__miter_out", (), Sop.const0(0))
    elif len(xors) == 1:
        m.add_gate("__miter_out", (xors[0],), Sop.and_all(1))
    else:
        m.add_gate("__miter_out", tuple(xors), Sop.or_all(len(xors)))
    m.add_output("__miter_out")
    return m


def cone_of_influence(circuit: Circuit, outputs: Optional[Sequence[str]] = None) -> Set[str]:
    """Signals that (transitively, through latches) affect the outputs."""
    roots = list(outputs) if outputs is not None else list(circuit.outputs)
    return transitive_fanin(circuit, roots)


def strip_dangling(circuit: Circuit) -> Circuit:
    """Remove gates and latches outside the cone of influence of the POs."""
    keep = cone_of_influence(circuit)
    result = circuit.copy()
    for out in list(result.gates):
        if out not in keep:
            result.remove_gate(out)
    for out in list(result.latches):
        if out not in keep:
            result.remove_latch(out)
    return result
