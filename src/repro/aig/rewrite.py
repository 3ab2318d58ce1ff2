"""AIG preprocessing: constant propagation, strash, local rewrites.

The sweep engine's cost scales with the miter's AND-node count, so the
cheapest speedup is to hand it a smaller miter.  :func:`rewrite_cone`
rebuilds the fanin cones of a root-literal set into a fresh AIG,
which simultaneously applies:

* **constant propagation and the one-level rules** (``x·x = x``,
  ``x·x̄ = 0``, constant absorption) — re-running every node through
  :meth:`AIG.and_` re-applies them after children have simplified;
* **structural hashing** — duplicate AND nodes whose fanins collapsed
  to the same literals merge in the fresh strash table;
* **local two-level rewrites** (:func:`and_rewrite`) — containment and
  substitution over one fanin level (``(ab)·a = ab``, ``(ab)·ā = 0``,
  ``a·¬(ab) = a·b̄``), the cheap core of ABC-style rewriting;
* **dead-node elimination** — only the root cones are rebuilt, so
  intermediate nodes orphaned by SOP lowering (or by the rules above)
  vanish.

Everything is driven through a *literal remap* (old literal → new
literal): primary inputs are re-created first, by name and in the same
order, so PI node ids, names, and therefore counterexample / candidate /
pattern extraction stay valid against the original inputs.

:func:`preprocess_miter` applies the pass to a
:class:`repro.cec.miter.MiterAIG` before any sweep; it is what the
engine's ``CecOptions.preprocess`` flag (set from
``repro.api.VerifyRequest.preprocess`` / ``--no-preprocess``) calls.
The rewrites are semantics-preserving, so verdicts with preprocessing on
and off are identical — the bench matrix (``benchmarks/bench_cec.py``)
gates on exactly that.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Tuple

from repro.aig.aig import AIG, FALSE_LIT

__all__ = ["and_rewrite", "rewrite_cone", "preprocess_miter"]


def and_rewrite(aig: AIG, a: int, b: int) -> int:
    """AND of two literals with one level of look-ahead rewriting.

    On top of :meth:`AIG.and_`'s one-level rules, checks each operand's
    fanins for containment and contradiction:

    * ``(f0·f1)·f0  = f0·f1``   (absorption: the AND implies its fanin)
    * ``(f0·f1)·f̄0 = 0``        (contradiction with a fanin)
    * ``¬(f0·f1)·f̄0 = f̄0``     (the complement is already implied)
    * ``f0·¬(f0·f1) = f0·f̄1``   (substitution: resolve the shared fanin)

    All rules are local equivalences, so the result is semantically the
    AND of ``a`` and ``b`` in every case.
    """
    for x, y in ((a, b), (b, a)):
        node = x >> 1
        if node == 0 or aig.is_pi_node(node):
            continue
        f0, f1 = aig.fanins(node)
        if not x & 1:  # x = f0·f1
            if y == f0 or y == f1:
                return x
            if y == f0 ^ 1 or y == f1 ^ 1:
                return FALSE_LIT
        else:  # x = ¬(f0·f1)
            if y == f0 ^ 1 or y == f1 ^ 1:
                return y
            if y == f0:
                return aig.and_(f0, f1 ^ 1)
            if y == f1:
                return aig.and_(f1, f0 ^ 1)
    return aig.and_(a, b)


def rewrite_cone(
    aig: AIG, roots: Iterable[int]
) -> Tuple[AIG, Dict[int, int]]:
    """Rebuild the fanin cones of ``roots`` into a fresh, reduced AIG.

    Returns ``(new_aig, node_map)`` where ``node_map`` maps every old
    node in the cones (plus the constant and *all* PIs) to its new
    literal; remap an old literal ``l`` as ``node_map[l >> 1] ^ (l & 1)``.
    Every PI of the original AIG is re-created by name in the original
    order — even PIs outside the cones — so pattern and counterexample
    extraction over ``pis`` / ``pi_names`` is unchanged.
    """
    new = AIG()
    node_map: Dict[int, int] = {0: FALSE_LIT}
    for node, name in zip(aig.pis, aig.pi_names):
        node_map[node] = new.add_pi(name)
    cone = aig.cone_nodes(list(roots))
    for node in aig.and_nodes():  # creation order is topological
        if node not in cone:
            continue
        f0, f1 = aig.fanins(node)
        node_map[node] = and_rewrite(
            new,
            node_map[f0 >> 1] ^ (f0 & 1),
            node_map[f1 >> 1] ^ (f1 & 1),
        )
    return new, node_map


def remap_literal(node_map: Dict[int, int], lit: int) -> int:
    """Translate an old literal through a :func:`rewrite_cone` map."""
    return node_map[lit >> 1] ^ (lit & 1)


def preprocess_miter(miter) -> Tuple[object, int]:
    """Shrink a miter's AIG before sweeping; returns (miter, removed).

    Rebuilds the output-pair cones through :func:`rewrite_cone` and
    remaps the pair literals (and any registered outputs) into the new
    AIG.  ``removed`` is the AND-node reduction — the
    ``cec.preprocess.nodes_removed`` metric.  The returned miter is a
    new :class:`~repro.cec.miter.MiterAIG`; the input miter is untouched.
    """
    from repro.cec.miter import MiterAIG

    roots: List[int] = []
    for _, l1, l2 in miter.output_pairs:
        roots.append(l1)
        roots.append(l2)
    old = miter.aig
    new_aig, node_map = rewrite_cone(old, roots)
    new_aig.outputs = [
        (name, remap_literal(node_map, lit))
        for name, lit in old.outputs
        if (lit >> 1) in node_map
    ]
    pairs = [
        (name, remap_literal(node_map, l1), remap_literal(node_map, l2))
        for name, l1, l2 in miter.output_pairs
    ]
    removed = old.num_ands() - new_aig.num_ands()
    return MiterAIG(new_aig, pairs, miter.names), removed
