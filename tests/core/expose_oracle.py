"""Latch exposure on networkx graphs.

A test oracle: the networkx code that :func:`repro.core.expose.
choose_latches_to_expose` replaced with plain successor sets.  The latch
dependency graph is an ``nx.DiGraph``, pinned latches and remodelled
self-loops are removed from it in place, and the greedy MFVS re-splits the
component that lost each pick through ``nx.strongly_connected_components``
of a subgraph view.  ``tests/core/test_expose_oracle.py`` checks that both
choose the same latches to expose and to remodel.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Set, Tuple

import networkx as nx

from repro.core.expose import exposure_penalties
from repro.core.feedback import analyze_feedback_latch, topo_rank
from repro.netlist.circuit import Circuit

__all__ = [
    "nx_latch_dependency_graph",
    "nx_minimum_feedback_vertex_set",
    "nx_choose_latches_to_expose",
]


def nx_latch_dependency_graph(circuit: Circuit) -> "nx.DiGraph":
    """Latch → latch edges through combinational logic, as a DiGraph."""
    g = nx.DiGraph()
    g.add_nodes_from(circuit.latches)
    latch_ids = {name: i for i, name in enumerate(circuit.latches)}
    sources: Dict[str, int] = {}  # signal -> bitmask of latch ids
    for name, idx in latch_ids.items():
        sources[name] = 1 << idx
    for gate in circuit.topo_gates():
        mask = 0
        for s in gate.inputs:
            mask |= sources.get(s, 0)
        sources[gate.output] = mask
    names = list(circuit.latches)
    for latch in circuit.latches.values():
        mask = sources.get(latch.data, 0)
        if latch.enable is not None:
            mask |= sources.get(latch.enable, 0)
        while mask:
            low = mask & -mask
            g.add_edge(names[low.bit_length() - 1], latch.output)
            mask ^= low
    return g


def nx_minimum_feedback_vertex_set(
    graph: "nx.DiGraph",
    weight: Optional[Dict[str, float]] = None,
) -> Set[str]:
    """Greedy FVS: self-loops, then the max of ``(score, str(node))``."""
    g = graph.copy()
    fvs: Set[str] = {node for node in g.nodes if g.has_edge(node, node)}
    g.remove_nodes_from(fvs)

    def key(n: str) -> Tuple[float, str]:
        base = g.in_degree(n) * g.out_degree(n)
        if weight is None:
            return float(base), str(n)
        return base / max(weight.get(n, 1.0), 1e-9), str(n)

    component: Dict[str, Set[str]] = {}

    def split(sccs: Iterable[Set[str]]) -> None:
        for comp in sccs:
            if len(comp) > 1:
                for node in comp:
                    component[node] = comp

    split(nx.strongly_connected_components(g))
    keys = {node: key(node) for node in component}
    while component:
        best = max(component, key=keys.__getitem__)
        fvs.add(best)
        rest = component[best]
        for node in rest:
            del component[node]
        neighbours = [*g.pred[best], *g.succ[best]]
        g.remove_node(best)
        rest.discard(best)
        split(nx.strongly_connected_components(g.subgraph(rest)))
        for node in neighbours:
            if node in component:
                keys[node] = key(node)
    return fvs


def nx_choose_latches_to_expose(
    circuit: Circuit,
    use_unateness: bool = True,
    pinned: Sequence[str] = (),
    strategy: str = "count",
) -> Tuple[Set[str], Set[str]]:
    """``(to_expose, to_remodel)`` as the networkx code chose them."""
    if strategy not in ("count", "weighted"):
        raise ValueError(f"unknown exposure strategy {strategy!r}")
    g = nx_latch_dependency_graph(circuit)
    g.remove_nodes_from(set(pinned))
    to_remodel: Set[str] = set()
    if use_unateness:
        rank = topo_rank(circuit)
        for node in list(g.nodes):
            if g.has_edge(node, node):
                analysis = analyze_feedback_latch(circuit, node, rank=rank)
                if analysis.positive_unate:
                    g.remove_edge(node, node)
                    to_remodel.add(node)
    weights = exposure_penalties(circuit) if strategy == "weighted" else None
    to_expose = nx_minimum_feedback_vertex_set(g, weight=weights)
    to_remodel -= to_expose
    return to_expose, to_remodel
