"""Structural graph analyses over circuits.

Provides the directed-graph views used by the paper:

* the *latch dependency graph* (Sec. 7.1): latch → latch edges whenever a
  combinational path connects them (through gates only), used by the
  exposure heuristic — cyclic in general because of latch feedback.  It
  is a plain successor-set mapping, ``{latch: {latches it feeds}}``;
* strongly connected components of any such mapping, optionally of the
  subgraph a node subset induces;
* feedback classification: self-loop latches, latches inside non-trivial
  strongly connected components, acyclicity tests.
"""

from __future__ import annotations

from typing import (
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from repro.netlist.circuit import Circuit, Gate

__all__ = [
    "latch_dependency_graph",
    "strongly_connected_components",
    "latch_sccs",
    "self_loop_latches",
    "feedback_latches",
    "is_acyclic_sequential",
    "has_combinational_cycle",
    "transitive_fanin",
    "transitive_fanout",
    "combinational_fanin_cone",
]


def has_combinational_cycle(circuit: Circuit) -> bool:
    """True if gates (excluding latches) form a cycle — an invalid circuit."""
    try:
        circuit.topo_gates()
    except ValueError:
        return True
    return False


def latch_dependency_graph(
    circuit: Circuit, order: Optional[Sequence[Gate]] = None
) -> Dict[str, Set[str]]:
    """Latch → latch edges through combinational logic, as successor sets.

    ``graph[p]`` holds latch ``q`` iff ``q``'s data or enable input
    depends combinationally on latch ``p``'s output (possibly directly);
    every latch is a key, in ``circuit.latches`` order.

    Implemented as one reverse pass: for every gate (in topological order)
    the set of latches in its combinational fanin is the union over its
    fanins' sets, so the whole graph costs one sweep plus set unions.
    ``order`` is the circuit's ``topo_gates()``, computed when not given.
    """
    names = list(circuit.latches)
    graph: Dict[str, Set[str]] = {name: set() for name in names}
    # Latch sources feeding each signal, propagated through gates.
    sources: Dict[str, int] = {}  # signal -> bitmask of latch ids
    for i, name in enumerate(names):
        sources[name] = 1 << i
    for gate in circuit.topo_gates() if order is None else order:
        mask = 0
        for s in gate.inputs:
            mask |= sources.get(s, 0)
        sources[gate.output] = mask
    for latch in circuit.latches.values():
        mask = sources.get(latch.data, 0)
        if latch.enable is not None:
            mask |= sources.get(latch.enable, 0)
        while mask:
            low = mask & -mask
            graph[names[low.bit_length() - 1]].add(latch.output)
            mask ^= low
    return graph


def strongly_connected_components(
    graph: Mapping[str, Iterable[str]],
    nodes: Optional[Collection[str]] = None,
) -> List[Set[str]]:
    """SCCs of ``graph`` (node → successors), iterative Tarjan.

    The SCCs of the subgraph that ``nodes`` (a set-like collection;
    default: the keys of ``graph``) induces: successors outside it are
    skipped.  Components come out in Tarjan's order (each one after every
    component it reaches); a node alone is a component of its own,
    self-loop or not.
    """
    if nodes is None:
        nodes = graph
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    path: List[str] = []  # Tarjan's stack of nodes not yet in a component
    on_path: Set[str] = set()
    components: List[Set[str]] = []
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        path.append(root)
        on_path.add(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if succ not in nodes:
                    continue
                if succ not in index:
                    index[succ] = low[succ] = len(index)
                    path.append(succ)
                    on_path.add(succ)
                    work.append((succ, iter(graph[succ])))
                    break
                if succ in on_path and index[succ] < low[node]:
                    low[node] = index[succ]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    component = set()
                    while True:
                        member = path.pop()
                        on_path.discard(member)
                        component.add(member)
                        if member == node:
                            break
                    components.append(component)
    return components


def latch_sccs(
    circuit: Circuit, order: Optional[Sequence[Gate]] = None
) -> List[FrozenSet[str]]:
    """Non-trivial SCCs of the latch dependency graph (incl. self-loops).

    ``order`` is passed on to :func:`latch_dependency_graph`.
    """
    graph = latch_dependency_graph(circuit, order)
    sccs = []
    for comp in strongly_connected_components(graph):
        if len(comp) > 1:
            sccs.append(frozenset(comp))
        else:
            (node,) = comp
            if node in graph[node]:
                sccs.append(frozenset(comp))
    return sccs


def self_loop_latches(circuit: Circuit) -> Set[str]:
    """Latches whose next-state cone reads their own output."""
    graph = latch_dependency_graph(circuit)
    return {node for node, succs in graph.items() if node in succs}


def feedback_latches(
    circuit: Circuit, order: Optional[Sequence[Gate]] = None
) -> Set[str]:
    """All latches on some latch-level cycle.

    ``order`` is passed on to :func:`latch_dependency_graph`.
    """
    out: Set[str] = set()
    for comp in latch_sccs(circuit, order):
        out |= comp
    return out


def is_acyclic_sequential(circuit: Circuit) -> bool:
    """True for the paper's 'acyclic sequential circuit' class (Sec. 5)."""
    return not feedback_latches(circuit)


def transitive_fanin(circuit: Circuit, roots: Iterable[str]) -> Set[str]:
    """All signals in the (sequential) transitive fanin of ``roots``."""
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        sig = stack.pop()
        if sig in seen:
            continue
        seen.add(sig)
        stack.extend(circuit.fanin_signals(sig))
    return seen


def transitive_fanout(circuit: Circuit, roots: Iterable[str]) -> Set[str]:
    """All signals in the (sequential) transitive fanout of ``roots``."""
    fanouts = circuit.fanout_map()
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        sig = stack.pop()
        if sig in seen:
            continue
        seen.add(sig)
        stack.extend(fanouts.get(sig, ()))
    return seen


def combinational_fanin_cone(circuit: Circuit, roots: Iterable[str]) -> Set[str]:
    """Signals in the fanin cone of ``roots`` stopping at latches and PIs."""
    seen: Set[str] = set()
    stack = list(roots)
    while stack:
        sig = stack.pop()
        if sig in seen:
            continue
        seen.add(sig)
        if sig in circuit.gates:
            stack.extend(circuit.gates[sig].inputs)
    return seen
