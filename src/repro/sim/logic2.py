"""Two-valued sequential simulation.

Two entry points:

* :func:`simulate` — one run: a power-up state, a list of input vectors,
  returns per-cycle output values;
* :func:`simulate_parallel` — bit-parallel over many independent runs at
  once (each bit position of a Python int is one run), used heavily by the
  equivalence-checking and property-test machinery.

Load-enabled latch semantics: at each clock edge the latch loads its data
value if the enable evaluated to 1 *in that cycle*, else it holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.netlist.circuit import Circuit, Gate

__all__ = ["SimTrace", "simulate", "simulate_parallel", "evaluate_combinational"]


@dataclass
class SimTrace:
    """Result of a sequential simulation run."""

    outputs: List[Dict[str, bool]]
    states: List[Dict[str, bool]]  # latch values *entering* each cycle


def evaluate_combinational(
    circuit: Circuit,
    values: Dict[str, int],
    mask: int,
    topo: Optional[Sequence[Gate]] = None,
) -> Dict[str, int]:
    """Evaluate all gates bit-parallel given PI/latch values in ``values``."""
    if topo is None:
        topo = circuit.topo_gates()
    for gate in topo:
        words = [values[s] for s in gate.inputs]
        values[gate.output] = gate.sop.eval_parallel(words, mask)
    return values


def simulate_parallel(
    circuit: Circuit,
    input_words: Sequence[Mapping[str, int]],
    initial_state: Mapping[str, int],
    width: int,
    topo: Optional[Sequence[Gate]] = None,
) -> List[Dict[str, int]]:
    """Bit-parallel sequential simulation.

    ``input_words[t][pi]`` is the word of values for input ``pi`` at cycle
    ``t``; ``initial_state[latch]`` the power-up word per latch.  Returns the
    list of per-cycle output-word dictionaries.  ``topo`` is the circuit's
    :meth:`~repro.netlist.circuit.Circuit.topo_gates`, for callers that
    simulate one circuit many times.
    """
    mask = (1 << width) - 1
    if topo is None:
        topo = circuit.topo_gates()
    state: Dict[str, int] = {l: initial_state[l] & mask for l in circuit.latches}
    out: List[Dict[str, int]] = []
    for t, vec in enumerate(input_words):
        values: Dict[str, int] = dict(state)
        for pi in circuit.inputs:
            try:
                values[pi] = vec[pi] & mask
            except KeyError:
                raise KeyError(f"missing value for input {pi!r} at cycle {t}")
        evaluate_combinational(circuit, values, mask, topo)
        out.append({o: values[o] & mask for o in circuit.outputs})
        next_state: Dict[str, int] = {}
        for latch in circuit.latches.values():
            data = values[latch.data]
            if latch.enable is None:
                next_state[latch.output] = data & mask
            else:
                en = values[latch.enable]
                next_state[latch.output] = (
                    (data & en) | (state[latch.output] & ~en)
                ) & mask
        state = next_state
    return out


def simulate(
    circuit: Circuit,
    input_vectors: Sequence[Mapping[str, bool]],
    initial_state: Optional[Mapping[str, bool]] = None,
) -> SimTrace:
    """Single-run sequential simulation with Boolean values."""
    if initial_state is None:
        initial_state = {l: False for l in circuit.latches}
    mask = 1
    topo = circuit.topo_gates()
    state: Dict[str, int] = {
        l: int(bool(initial_state[l])) for l in circuit.latches
    }
    outputs: List[Dict[str, bool]] = []
    states: List[Dict[str, bool]] = []
    for t, vec in enumerate(input_vectors):
        states.append({l: bool(v) for l, v in state.items()})
        values: Dict[str, int] = dict(state)
        for pi in circuit.inputs:
            values[pi] = int(bool(vec[pi]))
        evaluate_combinational(circuit, values, mask, topo)
        outputs.append({o: bool(values[o]) for o in circuit.outputs})
        next_state: Dict[str, int] = {}
        for latch in circuit.latches.values():
            if latch.enable is None:
                next_state[latch.output] = values[latch.data]
            else:
                if values[latch.enable]:
                    next_state[latch.output] = values[latch.data]
                else:
                    next_state[latch.output] = state[latch.output]
        state = next_state
    return SimTrace(outputs, states)
