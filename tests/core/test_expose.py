"""Exposure / MFVS tests (paper Sec. 7.1, Fig. 15)."""

from __future__ import annotations

import hashlib
import json
import random

import networkx as nx
import pytest

from repro.bench.industrial import TABLE2_CIRCUITS, build_table2_circuit
from repro.bench.iscas_like import iscas_like_circuit
from repro.bench.minmax import minmax_circuit
from repro.core.expose import (
    choose_latches_to_expose,
    exposure_penalties,
    minimum_feedback_vertex_set,
    prepare_circuit,
)
from repro.netlist.build import CircuitBuilder
from repro.netlist.graph import (
    feedback_latches,
    latch_dependency_graph,
    strongly_connected_components,
)
from repro.netlist.validate import validate_circuit


def whole_graph_fvs(graph, weight=None):
    """The greedy FVS recomputing every SCC of the graph after each pick.

    The reference :func:`minimum_feedback_vertex_set` must agree with:
    same self-loop rule, same score, same ``(score, str)`` tie-break.
    """
    g = graph.copy()
    fvs = set()
    for node in list(g.nodes):
        if g.has_edge(node, node):
            fvs.add(node)
            g.remove_node(node)

    def score(n):
        base = g.in_degree(n) * g.out_degree(n)
        if weight is None:
            return float(base)
        return base / max(weight.get(n, 1.0), 1e-9)

    while True:
        cyclic_nodes = set()
        for comp in nx.strongly_connected_components(g):
            if len(comp) > 1:
                cyclic_nodes |= comp
        if not cyclic_nodes:
            return fvs
        best = max(cyclic_nodes, key=lambda n: (score(n), str(n)))
        fvs.add(best)
        g.remove_node(best)


def random_digraph(seed):
    """A few dense clusters (SCCs), sparse cross edges, some self-loops.

    Degrees are small, so many nodes tie on score; half the graphs use
    int nodes, whose ``str`` order differs from their numeric order.
    """
    rng = random.Random(seed)
    n = rng.randint(8, 60)
    nodes = list(range(n)) if seed % 2 else [f"l{i}" for i in range(n)]
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    clusters = [nodes[i::4] for i in range(4)]
    for cluster in clusters:
        for _ in range(2 * len(cluster)):
            g.add_edge(rng.choice(cluster), rng.choice(cluster))
    for _ in range(n // 2):
        g.add_edge(rng.choice(nodes), rng.choice(nodes))
    weight = {node: float(rng.randint(1, 3)) for node in nodes}
    return g, weight


def prepared_digest(prepared):
    """Digest of a prepared circuit's gates and latches in dict order, its
    exposure map and its remodelled list."""
    circuit = prepared.circuit
    payload = {
        "gates": [
            [g.output, list(g.inputs), g.sop.ninputs, list(g.sop.cubes)]
            for g in circuit.gates.values()
        ],
        "latches": [
            [l.output, l.data, l.enable] for l in circuit.latches.values()
        ],
        "exposed": [[name, list(ports)] for name, ports in prepared.exposed.items()],
        "remodelled": list(prepared.remodelled),
    }
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class TestMFVS:
    def test_self_loops_always_chosen(self):
        g = nx.DiGraph()
        g.add_edge("a", "a")
        g.add_edge("a", "b")
        assert minimum_feedback_vertex_set(g) == {"a"}

    def test_simple_ring_breaks_with_one(self):
        g = nx.DiGraph()
        g.add_edges_from([("a", "b"), ("b", "c"), ("c", "a")])
        fvs = minimum_feedback_vertex_set(g)
        assert len(fvs) == 1

    def test_result_is_acyclic(self):
        g = nx.DiGraph()
        g.add_edges_from(
            [
                ("a", "b"), ("b", "a"),
                ("b", "c"), ("c", "d"), ("d", "b"),
                ("d", "e"), ("e", "e"),
            ]
        )
        fvs = minimum_feedback_vertex_set(g)
        h = g.copy()
        h.remove_nodes_from(fvs)
        assert nx.is_directed_acyclic_graph(h)

    def test_dag_needs_nothing(self):
        g = nx.DiGraph()
        g.add_edges_from([("a", "b"), ("b", "c"), ("a", "c")])
        assert minimum_feedback_vertex_set(g) == set()

    def test_two_disjoint_rings(self):
        g = nx.DiGraph()
        g.add_edges_from([("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")])
        assert len(minimum_feedback_vertex_set(g)) == 2

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_whole_graph_reference_on_random_graphs(self, seed):
        g, weight = random_digraph(seed)
        for w in (None, weight):
            fvs = minimum_feedback_vertex_set(g, weight=w)
            assert fvs == whole_graph_fvs(g, weight=w)
            h = g.copy()
            h.remove_nodes_from(fvs)
            assert nx.is_directed_acyclic_graph(h)

    @pytest.mark.parametrize("name", [entry[0] for entry in TABLE2_CIRCUITS])
    def test_matches_whole_graph_reference_on_table2(self, name):
        circuit = build_table2_circuit(name)
        g = latch_dependency_graph(circuit)
        for w in (None, exposure_penalties(circuit)):
            assert minimum_feedback_vertex_set(g, weight=w) == whole_graph_fvs(
                nx.DiGraph(g), weight=w
            )


class TestSCC:
    """The iterative SCC routine against ``nx.strongly_connected_components``."""

    @staticmethod
    def _components(sccs):
        return sorted(sorted(map(str, comp)) for comp in sccs)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_networkx_on_random_graphs(self, seed):
        g, _ = random_digraph(seed)
        succ = {node: set(g.succ[node]) for node in g}
        assert self._components(
            strongly_connected_components(succ)
        ) == self._components(nx.strongly_connected_components(g))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_networkx_on_node_subsets(self, seed):
        g, _ = random_digraph(seed)
        succ = {node: set(g.succ[node]) for node in g}
        rng = random.Random(seed)
        for share in (0.3, 0.6, 0.9):
            subset = {node for node in g if rng.random() < share}
            assert self._components(
                strongly_connected_components(succ, subset)
            ) == self._components(
                nx.strongly_connected_components(g.subgraph(subset))
            )


class TestChoose:
    def test_unate_latches_remodelled_not_exposed(self):
        b = CircuitBuilder("t")
        d, e = b.inputs("d", "e")
        b.circuit.add_latch("q", "nxt")
        b.MUX(e, d, "q", name="nxt")
        b.output("q", name="o")
        exposed, remodel = choose_latches_to_expose(b.circuit, use_unateness=True)
        assert exposed == set()
        assert remodel == {"q"}

    def test_structural_only_exposes_unate_too(self):
        b = CircuitBuilder("t")
        d, e = b.inputs("d", "e")
        b.circuit.add_latch("q", "nxt")
        b.MUX(e, d, "q", name="nxt")
        b.output("q", name="o")
        exposed, remodel = choose_latches_to_expose(b.circuit, use_unateness=False)
        assert exposed == {"q"}

    def test_pinned_latches_break_cycles_for_free(self):
        b = CircuitBuilder("t")
        (i,) = b.inputs("i")
        b.circuit.add_latch("q0", "d0")
        b.circuit.add_latch("q1", "q0")
        b.XOR("q1", i, name="d0")
        b.output("q1", name="o")
        exposed, _ = choose_latches_to_expose(
            b.circuit, use_unateness=False, pinned=["q0"]
        )
        assert exposed == set()  # the pinned latch already cut the ring

    def test_minmax_exposes_two_thirds(self):
        c = minmax_circuit(6)
        exposed, _ = choose_latches_to_expose(c, use_unateness=False)
        assert len(exposed) == 12  # min + max registers; input reg free
        assert all(n.startswith(("min", "max")) for n in exposed)

    def test_generated_fraction_matches_request(self):
        c = iscas_like_circuit("t", n_latches=40, pct_exposed=50, seed=3)
        exposed, _ = choose_latches_to_expose(c, use_unateness=False)
        assert len(exposed) == 20


class TestPrepare:
    def test_prepare_yields_acyclic(self):
        c = minmax_circuit(4)
        prep = prepare_circuit(c, use_unateness=False)
        validate_circuit(prep.circuit)
        assert not feedback_latches(prep.circuit)
        assert prep.num_exposed == 8

    def test_forced_exposure_set(self):
        c = minmax_circuit(4)
        prep1 = prepare_circuit(c, use_unateness=False)
        prep2 = prepare_circuit(
            c.copy("again"), expose=sorted(prep1.exposed), use_unateness=False
        )
        assert set(prep2.exposed) == set(prep1.exposed)

    def test_prepare_acyclic_circuit_is_noop_shape(self, builder):
        (a,) = builder.inputs("a")
        builder.output(builder.latch(a), name="o")
        prep = prepare_circuit(builder.circuit)
        assert prep.num_exposed == 0
        assert not prep.remodelled

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("ex5", "007d9c2cbf8b13bc"),
            ("ex10", "62ed791f2a20bd74"),
            ("ex11", "329cb70eb34b0d81"),
        ],
    )
    def test_remodelled_netlists_unchanged(self, name, digest):
        """Gates in dict order, latches, exposure map and remodelled list
        are pinned; remodelled gates are named after BDD node ids."""
        prepared = prepare_circuit(build_table2_circuit(name), use_unateness=True)
        assert prepared_digest(prepared) == digest

    def test_prepare_with_unateness_remodels(self):
        b = CircuitBuilder("t")
        d, e = b.inputs("d", "e")
        b.circuit.add_latch("q", "nxt")
        b.MUX(e, d, "q", name="nxt")
        b.output("q", name="o")
        prep = prepare_circuit(b.circuit, use_unateness=True)
        assert prep.remodelled == ["q"]
        assert prep.num_exposed == 0
        assert not feedback_latches(prep.circuit)
