"""The flat ``ite`` loop and the complement walk against the tagged frames.

Each operation runs on a :class:`~repro.bdd.bdd.BDD` and on the oracle
:class:`~tests.bdd.ite_oracle.TaggedFrameBDD`, starting from the same
state.  Both must return the same node and leave the same node arrays,
unique table and ite cache (entries in the same order), so every node id,
and every gate named after one, is the one the tagged frames gave.
"""

from __future__ import annotations

import random

import pytest

from repro.bdd.bdd import BDD
from repro.bench.industrial import TABLE2_CIRCUITS, build_table2_circuit
from repro.core.feedback import next_state_bdd, topo_rank, unate_decomposition
from repro.netlist.cube import Sop
from repro.netlist.graph import self_loop_latches
from repro.runtime.errors import BddBlowupError
from tests.bdd.ite_oracle import TaggedFrameBDD


def assert_same_state(flat: BDD, oracle: BDD) -> None:
    assert flat._level == oracle._level
    assert flat._low == oracle._low
    assert flat._high == oracle._high
    assert list(flat._unique.items()) == list(oracle._unique.items())
    assert list(flat._ite_cache.items()) == list(oracle._ite_cache.items())


class Pair:
    """A flat manager and an oracle manager driven in lockstep."""

    def __init__(self, node_limit=None) -> None:
        self.flat = BDD(node_limit=node_limit)
        self.oracle = TaggedFrameBDD(node_limit=node_limit)

    def run(self, op: str, *args):
        """``op(*args)`` on both; a blow-up must hit both at one node."""
        outcomes = []
        for manager in (self.flat, self.oracle):
            try:
                outcomes.append(("ok", getattr(manager, op)(*args)))
            except BddBlowupError as exc:
                outcomes.append(("blowup", exc.nodes, exc.limit))
        assert outcomes[0] == outcomes[1], op
        assert_same_state(self.flat, self.oracle)
        if outcomes[0][0] == "blowup":
            raise BddBlowupError(*outcomes[0][1:])
        return outcomes[0][1]


def random_session(pair: Pair, seed: int) -> None:
    """Seeded covers, then every operation built on ``ite``."""
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(rng.randint(5, 9))]
    nodes = [pair.run("add_var", name) for name in names]
    for _ in range(30):
        k = rng.randint(1, 4)
        fanins = [rng.choice(nodes) for _ in range(k)]
        cubes = tuple(
            "".join(rng.choice("01-") for _ in range(k))
            for _ in range(rng.randint(1, 4))
        )
        nodes.append(pair.run("from_sop", Sop(k, cubes), fanins))
    for _ in range(12):
        f, g, h = (rng.choice(nodes) for _ in range(3))
        name = rng.choice(names)
        quantified = rng.sample(names, rng.randint(1, 3))
        nodes.append(pair.run("apply_not", f))
        nodes.append(pair.run("apply_xor", f, g))
        nodes.append(pair.run("apply_xnor", g, h))
        nodes.append(pair.run("apply_implies", h, f))
        nodes.append(pair.run("ite", f, g, h))
        nodes.append(pair.run("cofactor", f, name, rng.random() < 0.5))
        nodes.append(pair.run("compose", g, name, h))
        nodes.append(pair.run("exists", f, quantified))
        nodes.append(pair.run("forall", g, quantified))
        pair.run("isop", h)


class TestRandomCovers:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_nodes_and_caches(self, seed):
        random_session(Pair(), seed)

    @pytest.mark.parametrize("seed", range(12))
    def test_capped_managers_raise_at_the_same_node(self, seed):
        uncapped = Pair()
        random_session(uncapped, seed)
        # A cap at 20% to 80% of the session's final node count.
        limit = uncapped.flat.num_nodes() * (1 + seed % 4) // 5
        with pytest.raises(BddBlowupError):
            random_session(Pair(node_limit=limit), seed)

    @pytest.mark.parametrize("room", range(6))
    def test_complement_walk_raises_where_ite_did(self, room):
        pair = Pair()
        nodes = [pair.run("add_var", f"v{i}") for i in range(8)]
        # Positive cubes only, so none of the complement's nodes exist.
        sop = Sop(8, ("11------", "--11----", "----11--", "------11"))
        f = pair.run("from_sop", sop, nodes)
        for manager in (pair.flat, pair.oracle):
            manager.set_node_limit(manager.num_nodes() + room)
        with pytest.raises(BddBlowupError):
            pair.run("apply_not", f)


@pytest.mark.parametrize("name", [entry[0] for entry in TABLE2_CIRCUITS])
def test_table2_self_loop_latches(name):
    """``next_state_bdd`` and the Lemma 6.1 decomposition, per latch."""
    circuit = build_table2_circuit(name)
    rank = topo_rank(circuit)
    for latch in sorted(self_loop_latches(circuit)):
        pair = Pair()
        flat, f = next_state_bdd(circuit, latch, pair.flat, rank)
        oracle, g = next_state_bdd(circuit, latch, pair.oracle, rank)
        assert f == g
        assert_same_state(flat, oracle)
        assert unate_decomposition(flat, f, latch) == unate_decomposition(
            oracle, g, latch
        )
        assert_same_state(flat, oracle)
