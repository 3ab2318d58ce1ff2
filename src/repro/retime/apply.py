"""Applying a retiming vector back to a netlist.

Given a circuit, its retiming graph and a legal ``r``, rebuild the netlist
with the new latch placement: each edge ``(u → v)`` carries
``w_r = w + r(v) − r(u)`` latches.  Latch chains are shared across fanout
edges of the same driver (a chain of length ``max w_r`` with taps), which is
how real tools keep the latch count down; the area reported is the actual
rebuilt latch count.

Primary output names are preserved: a gate whose output name is also a PO
is renamed internally and the PO becomes a buffer after the (possibly
empty) latch chain, so retimed circuits remain name-compatible with the
original for verification.

The paper's setting has no latch initial values (unknown power-up), which
is exactly why retiming needs no initial-state computation here.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.netlist.circuit import Circuit
from repro.netlist.cube import Sop
from repro.retime.minarea import min_area_retiming
from repro.retime.minperiod import clock_period, min_period_retiming
from repro.retime.rgraph import HOST, RetimingGraph, build_retiming_graph

__all__ = ["apply_retiming", "retime_min_period", "retime_min_area"]


def apply_retiming(
    circuit: Circuit,
    graph: RetimingGraph,
    r: Dict[str, int],
    name: Optional[str] = None,
) -> Circuit:
    """Rebuild the circuit under retiming ``r`` (uniform latch class only)."""
    uniform, latch_class = graph.uniform_class()
    if not uniform:
        raise ValueError(
            "apply_retiming requires a uniform latch class; "
            "use the incremental class-aware retimer instead"
        )
    result = Circuit(name or circuit.name + "_retimed")
    result.inputs = list(circuit.inputs)
    result._input_set = set(result.inputs)

    new_weight: Dict[int, int] = {}
    for idx, e in enumerate(graph.edges):
        w = e.weight + r[e.head] - r[e.tail]
        if w < 0:
            raise ValueError(f"illegal retiming: negative weight on edge {idx}")
        new_weight[idx] = w

    # Gates whose output name collides with a PO are renamed internally so
    # the PO name can sit after the new latch chain.
    po_set = set(circuit.outputs)

    def internal(sig: str) -> str:
        if sig in circuit.gates and sig in po_set:
            return "__g_" + sig
        return sig

    chain_taps: Dict[str, List[str]] = {}

    def tap(source_sig: str, depth: int) -> str:
        """`source` delayed by `depth` latches, building/extending the chain."""
        if depth == 0:
            return source_sig
        taps = chain_taps.setdefault(source_sig, [])
        while len(taps) < depth:
            prev = taps[-1] if taps else source_sig
            new_latch = result.fresh_signal(f"__rt_{source_sig}_{len(taps) + 1}")
            result.add_latch(new_latch, prev, latch_class)
            taps.append(new_latch)
        return taps[depth - 1]

    # Wire plans: per gate, (source signal, latch depth) per pin; per PO.
    fanin_plan: Dict[str, List[Optional[Tuple[str, int]]]] = {
        g.output: [None] * len(g.inputs) for g in circuit.gates.values()
    }
    po_plan: Dict[str, Tuple[str, int]] = {}
    for idx, e in enumerate(graph.edges):
        src = internal(graph.source_signal[idx])
        if e.head == HOST:
            assert e.po_name is not None
            po_plan[e.po_name] = (src, new_weight[idx])
        else:
            fanin_plan[e.head][e.sink_pin] = (src, new_weight[idx])

    for gate in circuit.gates.values():
        wired = []
        for pin, spec in enumerate(fanin_plan[gate.output]):
            assert spec is not None, (gate.output, pin)
            src, w = spec
            wired.append(tap(src, w))
        result.add_gate(internal(gate.output), tuple(wired), gate.sop)

    result.outputs = []
    for po in circuit.outputs:
        spec = po_plan.get(po)
        if spec is None:
            # PO fed directly by a PI without an edge record (no such case
            # in graphs we build, but keep a safe fallback).
            result.add_output(po)
            continue
        src, w = spec
        sig = tap(src, w)
        if result.driver_kind(po) is None:
            result.add_gate(po, (sig,), Sop.and_all(1))
            result.add_output(po)
        elif sig == po:
            result.add_output(po)
        else:  # PO name is taken by a PI; expose the delayed signal as-is.
            result.add_output(sig)
    return result


def retime_min_period(circuit: Circuit) -> Tuple[Circuit, int, int]:
    """Minimum-period retiming; returns (circuit, old period, new period)."""
    graph = build_retiming_graph(circuit)
    old = clock_period(graph)
    if old is None:
        raise ValueError("combinational cycle in circuit")
    period, r = min_period_retiming(graph)
    retimed = apply_retiming(circuit, graph, r)
    return retimed, old, period


def retime_min_area(
    circuit: Circuit, period: Optional[int] = None
) -> Tuple[Optional[Circuit], int]:
    """Constrained min-area retiming; returns (circuit or None, period used).

    ``period`` defaults to the circuit's current clock period (pure area
    recovery without slowing the clock).
    """
    graph = build_retiming_graph(circuit)
    current = clock_period(graph)
    if current is None:
        raise ValueError("combinational cycle in circuit")
    target = period if period is not None else current
    r = min_area_retiming(graph, target)
    if r is None:
        return None, target
    return apply_retiming(circuit, graph, r), target
