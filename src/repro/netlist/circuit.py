"""The :class:`Circuit` data model.

A sequential circuit (paper Sec. 3.1) is ``C = (I, O, G, L)``: inputs,
outputs, combinational gates, and edge-triggered latches driven by a single
clock.  Each latch ``l = (x, e)`` pairs its output signal ``x`` with a
load-enable signal ``e``; a *regular* latch has ``e = None`` (always loads).
The latch *class* (à la Legl et al. [9]) is its enable signal.

Signals are plain strings.  Every signal is driven by exactly one of a
primary input, a gate, or a latch.  Gates carry their function as an on-set
SOP cover (:class:`repro.netlist.cube.Sop`) over their ordered fanin list,
mirroring BLIF ``.names`` semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.netlist.cube import Sop

__all__ = ["Gate", "Latch", "Circuit"]


@dataclass(frozen=True)
class Gate:
    """A combinational gate: ``output = sop(inputs)``."""

    output: str
    inputs: Tuple[str, ...]
    sop: Sop

    def __post_init__(self) -> None:
        if self.sop.ninputs != len(self.inputs):
            raise ValueError(
                f"gate {self.output}: cover arity {self.sop.ninputs} != "
                f"{len(self.inputs)} fanins"
            )

    @property
    def num_literals(self) -> int:
        """Total SOP literal count (the SIS area proxy)."""
        return self.sop.num_literals

    def with_inputs(self, inputs: Sequence[str]) -> "Gate":
        """A copy of the gate with a new fanin tuple."""
        return Gate(self.output, tuple(inputs), self.sop)

    def __str__(self) -> str:
        return f"Gate({self.output} = f({', '.join(self.inputs)}))"


@dataclass(frozen=True)
class Latch:
    """An edge-triggered latch, optionally load-enabled.

    ``output`` holds ``data`` sampled at the previous active clock edge; when
    ``enable`` is present and low, the latch retains its previous value.
    There is no initial value: following the paper, latches power up
    nondeterministically (exact 3-valued semantics, Sec. 3.2).
    """

    output: str
    data: str
    enable: Optional[str] = None

    @property
    def is_regular(self) -> bool:
        """True when the latch has no load enable."""
        return self.enable is None

    @property
    def latch_class(self) -> Optional[str]:
        """The latch class ``cl = (e)`` used by class-aware retiming."""
        return self.enable

    def __str__(self) -> str:
        en = f", en={self.enable}" if self.enable else ""
        return f"Latch({self.output} <- {self.data}{en})"


class Circuit:
    """A sequential circuit: inputs, outputs, gates, latches.

    The class maintains the single-driver invariant and provides structural
    queries (drivers, fanouts, topological order) used throughout the
    library.  Mutation is in-place; use :meth:`copy` for a detached clone.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.gates: Dict[str, Gate] = {}
        self.latches: Dict[str, Latch] = {}
        self._input_set: Set[str] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_input(self, name: str) -> str:
        """Declare a primary input; returns its name."""
        if self.driver_kind(name) is not None:
            raise ValueError(f"signal {name!r} already driven")
        self.inputs.append(name)
        self._input_set.add(name)
        return name

    def add_output(self, name: str) -> str:
        """Append a primary output; returns its name."""
        self.outputs.append(name)
        return name

    def add_gate(self, output: str, inputs: Sequence[str], sop: Sop) -> Gate:
        """Add a gate driving ``output``; enforces single drivers."""
        if self.driver_kind(output) is not None:
            raise ValueError(f"signal {output!r} already driven")
        gate = Gate(output, tuple(inputs), sop)
        self.gates[output] = gate
        return gate

    def add_latch(
        self, output: str, data: str, enable: Optional[str] = None
    ) -> Latch:
        """Add a latch driving ``output``; enforces single drivers."""
        if self.driver_kind(output) is not None:
            raise ValueError(f"signal {output!r} already driven")
        latch = Latch(output, data, enable)
        self.latches[output] = latch
        return latch

    def remove_gate(self, output: str) -> None:
        """Delete the gate driving ``output``."""
        del self.gates[output]

    def remove_latch(self, output: str) -> None:
        """Delete the latch driving ``output``."""
        del self.latches[output]

    def remove_input(self, name: str) -> None:
        """Delete a primary input declaration."""
        self.inputs.remove(name)
        self._input_set.discard(name)

    def remove_output(self, name: str) -> None:
        """Delete one primary output occurrence."""
        self.outputs.remove(name)

    def replace_gate(self, gate: Gate) -> None:
        """Replace the gate driving ``gate.output`` (which must exist)."""
        if gate.output not in self.gates:
            raise KeyError(gate.output)
        self.gates[gate.output] = gate

    def replace_latch(self, latch: Latch) -> None:
        """Replace the latch driving ``latch.output``."""
        if latch.output not in self.latches:
            raise KeyError(latch.output)
        self.latches[latch.output] = latch

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_input(self, signal: str) -> bool:
        """True if ``signal`` is a primary input."""
        return signal in self._input_set

    def driver_kind(self, signal: str) -> Optional[str]:
        """``'input' | 'gate' | 'latch' | None`` for an undriven signal."""
        if signal in self._input_set:
            return "input"
        if signal in self.gates:
            return "gate"
        if signal in self.latches:
            return "latch"
        return None

    def signals(self) -> Iterator[str]:
        """All driven signals (inputs, gate outputs, latch outputs)."""
        yield from self.inputs
        yield from self.gates
        yield from self.latches

    def fanin_signals(self, signal: str) -> Tuple[str, ...]:
        """Immediate combinational/sequential fanins of a driven signal."""
        kind = self.driver_kind(signal)
        if kind == "gate":
            return self.gates[signal].inputs
        if kind == "latch":
            latch = self.latches[signal]
            if latch.enable is not None:
                return (latch.data, latch.enable)
            return (latch.data,)
        return ()

    def fanout_map(self) -> Dict[str, List[str]]:
        """Map each signal to the driven signals that read it."""
        fanouts: Dict[str, List[str]] = {s: [] for s in self.signals()}
        for gate in self.gates.values():
            for src in gate.inputs:
                fanouts.setdefault(src, []).append(gate.output)
        for latch in self.latches.values():
            fanouts.setdefault(latch.data, []).append(latch.output)
            if latch.enable is not None:
                fanouts.setdefault(latch.enable, []).append(latch.output)
        return fanouts

    def topo_gates(self) -> List[Gate]:
        """Gates in topological order (latch outputs and PIs are sources).

        The order is a depth-first search's: it starts from each gate in
        dict order, visits a gate's unfinished gate fanins last to first,
        and lists a gate when it leaves it, after its fanins.  When
        every gate's gate fanins come before it in dict order, that search
        returns the dict order itself, so one linear pass looks for that
        case first; lowered CBF/EDBF circuits and exposed circuits are
        built that way.  AIG node order, synthesis and so every SAT count
        depend on this exact order (``tests/netlist/topo_oracle.py`` keeps
        the search it must match).

        Raises :class:`ValueError` on a combinational cycle, naming the
        gate the search reached again while it was still on its path.
        """
        gates = self.gates
        later = set(gates)
        for name, gate in gates.items():
            if not later.isdisjoint(gate.inputs):
                return self._topo_search()
            later.discard(name)
        return list(gates.values())

    def _topo_search(self) -> List[Gate]:
        """:meth:`topo_gates` by depth-first search, for any gate order."""
        gates = self.gates
        order: List[Gate] = []
        done: Set[str] = set()
        entered: Set[str] = set()  # on the search path, or done
        for root in gates:
            if root in done:
                continue
            # A gate stays on the stack while its fanins are searched; it
            # is finished when it is on top again.
            stack = [root]
            while stack:
                signal = stack[-1]
                if signal in done:
                    stack.pop()
                elif signal in entered:
                    stack.pop()
                    done.add(signal)
                    order.append(gates[signal])
                else:
                    entered.add(signal)
                    for src in gates[signal].inputs:
                        if src in gates and src not in done:
                            if src in entered:
                                raise ValueError(
                                    f"combinational cycle through {src!r}"
                                )
                            stack.append(src)
        return order

    def num_gates(self) -> int:
        """Number of gates."""
        return len(self.gates)

    def num_latches(self) -> int:
        """Number of latches."""
        return len(self.latches)

    def num_literals(self) -> int:
        """Total SOP literal count across all gates."""
        return sum(g.num_literals for g in self.gates.values())

    def latch_classes(self) -> Dict[Optional[str], List[Latch]]:
        """Group latches by class (enable signal); ``None`` = regular."""
        classes: Dict[Optional[str], List[Latch]] = {}
        for latch in self.latches.values():
            classes.setdefault(latch.latch_class, []).append(latch)
        return classes

    def is_combinational(self) -> bool:
        """True when the circuit has no latches."""
        return not self.latches

    def stats(self) -> Dict[str, int]:
        """Summary counts: inputs/outputs/gates/latches/literals."""
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": self.num_gates(),
            "latches": self.num_latches(),
            "literals": self.num_literals(),
        }

    # ------------------------------------------------------------------
    # copying / renaming
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "Circuit":
        """A detached shallow copy (gates/latches are immutable)."""
        clone = Circuit(name or self.name)
        clone.inputs = list(self.inputs)
        clone.outputs = list(self.outputs)
        clone.gates = dict(self.gates)
        clone.latches = dict(self.latches)
        clone._input_set = set(self._input_set)
        return clone

    def renamed(self, mapping: Dict[str, str], name: Optional[str] = None) -> "Circuit":
        """A copy with signals renamed per ``mapping`` (identity if absent)."""

        def ren(s: str) -> str:
            return mapping.get(s, s)

        clone = Circuit(name or self.name)
        clone.inputs = [ren(s) for s in self.inputs]
        clone._input_set = set(clone.inputs)
        clone.outputs = [ren(s) for s in self.outputs]
        for gate in self.gates.values():
            clone.gates[ren(gate.output)] = Gate(
                ren(gate.output), tuple(ren(s) for s in gate.inputs), gate.sop
            )
        for latch in self.latches.values():
            clone.latches[ren(latch.output)] = Latch(
                ren(latch.output),
                ren(latch.data),
                ren(latch.enable) if latch.enable is not None else None,
            )
        return clone

    def with_prefix(self, prefix: str, keep: Iterable[str] = ()) -> "Circuit":
        """A copy with every signal (except ``keep``) prefixed."""
        keep_set = set(keep)
        mapping = {
            s: prefix + s for s in self.signals() if s not in keep_set
        }
        return self.renamed(mapping)

    def fresh_signal(self, base: str) -> str:
        """A signal name not yet driven in this circuit."""
        if self.driver_kind(base) is None:
            return base
        i = 0
        while True:
            candidate = f"{base}_{i}"
            if self.driver_kind(candidate) is None:
                return candidate
            i += 1

    def __str__(self) -> str:
        s = self.stats()
        return (
            f"Circuit({self.name}: {s['inputs']} in, {s['outputs']} out, "
            f"{s['gates']} gates, {s['latches']} latches)"
        )

    __repr__ = __str__
