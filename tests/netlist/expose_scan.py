"""Latch exposure by whole-circuit scans, one per exposed latch.

A test oracle for :func:`repro.netlist.transform.expose_latches`, which
keeps per-signal reader indexes instead: for every exposed latch this
version rescans every gate and latch and rebuilds the output list, so it
is quadratic in the exposure count.  ``tests/netlist/test_transform.py``
checks that both give the same circuit and port map.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.netlist.circuit import Circuit, Latch
from repro.netlist.cube import Sop
from repro.netlist.transform import (
    EXPOSED_IN_PREFIX,
    EXPOSED_OUT_PREFIX,
    ExposedCircuit,
)

__all__ = ["expose_latches_by_scan"]


def expose_latches_by_scan(circuit: Circuit, latches: Iterable[str]) -> ExposedCircuit:
    """:func:`~repro.netlist.transform.expose_latches`, one scan per latch."""
    result = circuit.copy(circuit.name + "_exposed")
    exposed: Dict[str, Tuple[str, str]] = {}
    for name in latches:
        latch = result.latches.get(name)
        if latch is None:
            raise KeyError(f"no latch {name!r} in circuit")
        result.remove_latch(name)
        pseudo_in = EXPOSED_IN_PREFIX + name
        pseudo_out = EXPOSED_OUT_PREFIX + name
        result.add_input(pseudo_in)
        _redirect_reads(result, name, pseudo_in)
        buf = result.fresh_signal(pseudo_out)
        result.add_gate(buf, (latch.data,), Sop.and_all(1))
        result.add_output(buf)
        if latch.enable is not None:
            en_buf = result.fresh_signal(pseudo_out + "__en")
            result.add_gate(en_buf, (latch.enable,), Sop.and_all(1))
            result.add_output(en_buf)
        exposed[name] = (pseudo_in, buf)
    return ExposedCircuit(result, exposed)


def _redirect_reads(circuit: Circuit, old: str, new: str) -> None:
    """Rewire every reader of ``old`` to read ``new`` instead."""
    for gate in list(circuit.gates.values()):
        if old in gate.inputs:
            circuit.replace_gate(
                gate.with_inputs(tuple(new if s == old else s for s in gate.inputs))
            )
    for latch in list(circuit.latches.values()):
        data = new if latch.data == old else latch.data
        enable = latch.enable
        if enable == old:
            enable = new
        if data != latch.data or enable != latch.enable:
            circuit.replace_latch(Latch(latch.output, data, enable))
    circuit.outputs = [new if s == old else s for s in circuit.outputs]
