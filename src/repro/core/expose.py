"""Choosing and exposing latches to break feedback (paper Sec. 7.1, Fig. 15).

The latch dependency graph is cyclic in general.  Latches whose only cycle
is a self-loop can often be remodelled as load-enabled latches (Sec. 6);
the rest must be *exposed* — their position frozen and their boundary made
observable — until the remaining graph is acyclic.  Choosing the fewest
such latches is the minimum feedback vertex set problem (NP-complete); we
use a Lee-Reddy-style greedy heuristic [22]:

1. repeatedly delete trivial nodes (no in- or out-edges inside cycles);
2. self-loop nodes must be chosen (they are in every FVS of their loop)
   unless unate remodelling removed the loop;
3. otherwise pick the node with the largest ``indegree × outdegree`` inside
   the current strongly connected components, add it to the FVS, delete it,
   and iterate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Collection,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.feedback import (
    analyze_feedback_latch,
    remodel_feedback_latches,
    topo_rank,
)
from repro.netlist.circuit import Circuit, Gate
from repro.netlist.graph import latch_dependency_graph, strongly_connected_components
from repro.netlist.transform import ExposedCircuit, expose_latches

__all__ = [
    "minimum_feedback_vertex_set",
    "choose_latches_to_expose",
    "prepare_circuit",
    "PreparedCircuit",
]


def minimum_feedback_vertex_set(
    graph: Mapping[str, Collection[str]],
    weight: Optional[Dict[str, float]] = None,
) -> Set[str]:
    """Greedy FVS heuristic; returned nodes break every directed cycle.

    ``graph`` maps each node to its successors: the successor sets of
    :func:`~repro.netlist.graph.latch_dependency_graph`, or any mapping
    alike (an ``nx.DiGraph`` reads as one).  Successors that are not keys
    are ignored, so a node deleted from the mapping is deleted from the
    graph.  ``graph`` is not modified.

    Without ``weight`` the classic Lee-Reddy score (in·out degree) picks
    the next vertex.  With ``weight`` (an exposure *penalty* per node — the
    paper's future-work refinement, Sec. 9) the score is degree-product
    divided by penalty, so cheap-to-expose latches are preferred when they
    cut comparably many cycles.  Ties go to the larger ``str(node)``.
    """
    # Self-loops first: each is unavoidable.  Deleting a node never makes
    # a new one, so one scan finds them all.
    fvs: Set[str] = {node for node in graph if node in graph[node]}
    # The remaining graph: its nodes, their successors and predecessors
    # in it, and their degrees, kept up to date as picks delete nodes.
    alive = {node: None for node in graph if node not in fvs}
    preds: Dict[str, List[str]] = {node: [] for node in alive}
    out_degree: Dict[str, int] = {}
    for node in alive:
        succs = [s for s in graph[node] if s in alive]
        out_degree[node] = len(succs)
        for s in succs:
            preds[s].append(node)
    in_degree = {node: len(p) for node, p in preds.items()}

    def key(n: str) -> Tuple[float, str]:
        base = in_degree[n] * out_degree[n]
        if weight is None:
            return float(base), str(n)
        return base / max(weight.get(n, 1.0), 1e-9), str(n)

    # Node -> its non-trivial SCC (with no self-loops left, every SCC of
    # two or more nodes is cyclic and no single node is).  Deleting a node
    # only splits its own SCC and changes only its neighbours' keys, so
    # each pick re-splits one SCC and re-scores those neighbours.
    component: Dict[str, Set[str]] = {}

    def split(sccs: Iterable[Set[str]]) -> None:
        for comp in sccs:
            if len(comp) > 1:
                for node in comp:
                    component[node] = comp

    split(strongly_connected_components(graph, alive))
    keys = {node: key(node) for node in component}
    while component:
        best = max(component, key=keys.__getitem__)
        fvs.add(best)
        rest = component[best]
        for node in rest:
            del component[node]
        del alive[best]
        neighbours = []
        for node in preds[best]:
            if node in alive:
                out_degree[node] -= 1
                neighbours.append(node)
        for node in graph[best]:
            if node in alive:
                in_degree[node] -= 1
                neighbours.append(node)
        rest.discard(best)
        split(strongly_connected_components(graph, rest))
        for node in neighbours:
            if node in component:
                keys[node] = key(node)
    return fvs


def exposure_penalties(circuit: Circuit) -> Dict[str, float]:
    """Heuristic optimisation penalty of exposing each latch.

    Exposing a latch freezes its position and cuts resynthesis across its
    boundary; a cheap proxy for the cost is the size of the combinational
    cone feeding the latch (bigger cone = more optimisation potential
    lost).  Used by the ``weighted`` exposure strategy (the paper's Sec. 9
    future-work item: pick latches whose exposure costs the least).
    """
    from repro.netlist.graph import combinational_fanin_cone

    penalties: Dict[str, float] = {}
    for latch in circuit.latches.values():
        roots = [latch.data] + (
            [latch.enable] if latch.enable is not None else []
        )
        cone = combinational_fanin_cone(circuit, roots)
        penalties[latch.output] = float(
            sum(1 for s in cone if s in circuit.gates)
        )
    return penalties


def choose_latches_to_expose(
    circuit: Circuit,
    use_unateness: bool = True,
    pinned: Sequence[str] = (),
    strategy: str = "count",
    order: Optional[Sequence[Gate]] = None,
) -> Tuple[Set[str], Set[str]]:
    """Decide which latches to expose and which to remodel.

    Returns ``(to_expose, to_remodel)``.  ``pinned`` latches are treated as
    already observable (designers keep FSM state bits visible, Sec. 1) and
    never counted against the budget; their feedback edges are pre-broken.

    With ``use_unateness=True`` self-loop latches whose next-state function
    is positive unate in their own output are remodelled (Sec. 6) instead of
    exposed — the functional analysis the paper notes would "lead to reduced
    number of exposed latches" (Sec. 8, Table 2 discussion).

    ``strategy='count'`` minimises the *number* of exposed latches (the
    paper's experiment); ``strategy='weighted'`` minimises an estimated
    optimisation penalty instead (the paper's Sec. 9 future-work
    refinement), possibly exposing more but cheaper latches.

    ``order`` is the circuit's ``topo_gates()``, for a caller that
    analyses one circuit several times; it is computed when not given.
    """
    if strategy not in ("count", "weighted"):
        raise ValueError(f"unknown exposure strategy {strategy!r}")
    if order is None:
        order = circuit.topo_gates()
    graph = latch_dependency_graph(circuit, order)
    for node in pinned:
        # Successor sets may still name it; the MFVS reads only keys.
        graph.pop(node, None)

    to_remodel: Set[str] = set()
    if use_unateness:
        rank = topo_rank(circuit, order)
        for node, succs in graph.items():
            if node in succs:
                analysis = analyze_feedback_latch(circuit, node, rank=rank)
                if analysis.positive_unate:
                    # Remodelling removes only the self-loop edge; paths
                    # through other latches remain.
                    succs.discard(node)
                    to_remodel.add(node)
    weights = exposure_penalties(circuit) if strategy == "weighted" else None
    to_expose = minimum_feedback_vertex_set(graph, weight=weights)
    # A latch scheduled for remodel that the FVS still picked (it was on a
    # longer cycle) must be exposed instead.
    to_remodel -= to_expose
    return to_expose, to_remodel


@dataclass
class PreparedCircuit:
    """A circuit made acyclic for CBF/EDBF computation.

    ``circuit`` is acyclic at the latch level; ``exposed`` maps exposed
    latch names to their (pseudo input, pseudo output) ports; ``remodelled``
    lists latches converted to load-enabled form.
    """

    circuit: Circuit
    exposed: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    remodelled: List[str] = field(default_factory=list)

    @property
    def num_exposed(self) -> int:
        """How many latches were exposed."""
        return len(self.exposed)


def prepare_circuit(
    circuit: Circuit,
    use_unateness: bool = True,
    expose: Optional[Sequence[str]] = None,
    pinned: Sequence[str] = (),
    order: Optional[Sequence[Gate]] = None,
) -> PreparedCircuit:
    """Make a circuit acyclic: remodel unate self-loops, expose the rest.

    ``expose`` forces a specific exposure set (used to apply the *same*
    modification to both circuits of a verification pair, as the paper's
    flow does by modifying circuit A into B before synthesis).  ``pinned``
    latches are exposed unconditionally (designer-visible state bits).
    ``order`` is the circuit's ``topo_gates()``, computed when not given.
    """
    if order is None:
        order = circuit.topo_gates()
    if expose is not None:
        to_expose = set(expose) | set(pinned)
        _, to_remodel = choose_latches_to_expose(
            circuit, use_unateness, pinned=list(to_expose), order=order
        )
    else:
        to_expose, to_remodel = choose_latches_to_expose(
            circuit, use_unateness, pinned=(), order=order
        )
        to_expose |= set(pinned)
        to_expose -= to_remodel
    work = circuit
    remodelled: List[str] = []
    if to_remodel:
        work, remodelled, failed = remodel_feedback_latches(
            work, sorted(to_remodel), order=order
        )
        to_expose |= set(failed)
    exposed_result: ExposedCircuit = expose_latches(work, sorted(to_expose))
    from repro.netlist.graph import feedback_latches

    leftover = feedback_latches(exposed_result.circuit)
    if leftover:
        # The FVS heuristic works on the latch graph before remodelling;
        # remodelling introduces no new cycles, so this should not happen.
        extra = expose_latches(exposed_result.circuit, sorted(leftover))
        exposed_result = ExposedCircuit(
            extra.circuit, {**exposed_result.exposed, **extra.exposed}
        )
    return PreparedCircuit(
        exposed_result.circuit, exposed_result.exposed, remodelled
    )
