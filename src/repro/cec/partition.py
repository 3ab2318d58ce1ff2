"""Cone-disjoint partitioning of sweep candidates into work units.

SAT sweeping proves candidate equivalences one signature class at a time,
and each query only ever touches the CNF slice of the candidate pair's
transitive fanin cone.  Two classes whose cones share no AND node
constrain disjoint clause sets, so solving them on separate solvers
cannot change any outcome (the hybrid-sweeping partitioning of Chen et
al., arXiv:2501.14740).  Every sweep runs on such units, one solver per
unit: a solver that holds only its unit's cone never decides, propagates
or builds models over the rest of the miter.

The partitioner returns one unit per *cone-disjoint cluster*: classes
whose cones share an AND node (transitively) land in the same unit,
shared PIs and the constant never force a merge.  No AND node lies in
two units' cones, so a merge proven in one unit can only matter to
later queries of that same unit.

Everything is deterministic: classes are processed in their given order,
units are listed by their first class, and each unit lists its
candidates in topological (node id) order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

from repro.aig.aig import AIG

__all__ = ["Candidate", "WorkUnit", "partition_candidates"]


@dataclass(frozen=True)
class Candidate:
    """One sweep query: prove ``node`` equal (or complementary) to ``rep``.

    ``group`` identifies the signature class the pair came from.  Classes
    are never split across work units, so a sweeper that sees one NEQ in a
    group may defer the group's remaining queries: the refinement loop
    will re-simulate with the refuting model and split the class anyway.
    """

    rep: int
    node: int
    phase_equal: bool
    group: int = 0

    @property
    def rep_lit(self) -> int:
        """The representative's positive literal."""
        return 2 * self.rep

    @property
    def node_lit(self) -> int:
        """The candidate's literal in the phase to prove equal to the rep."""
        return 2 * self.node if self.phase_equal else 2 * self.node + 1


@dataclass
class WorkUnit:
    """A batch of candidates plus the cone (node ids) their CNF lives in."""

    index: int
    candidates: List[Candidate] = field(default_factory=list)
    cone: Set[int] = field(default_factory=set)


def _find(parent: List[int], i: int) -> int:
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        parent[i], i = root, parent[i]
    return root


def partition_candidates(
    aig: AIG, class_list: Sequence[Sequence[Candidate]]
) -> List[WorkUnit]:
    """One work unit per cone-disjoint cluster of signature classes.

    ``class_list`` holds one candidate list per signature class.  Each
    class walks its fanin cone and claims the AND nodes nobody owns yet;
    reaching a node another class owns unions the two classes, and the
    walk stops there (the owner's cluster already holds that node's whole
    cone).  So every AND node is walked once per call, and a unit's cone
    is its classes' owned AND nodes plus the PIs and constant they reach.
    """
    parent = list(range(len(class_list)))
    owner: Dict[int, int] = {}
    leaves: List[Set[int]] = []
    for idx, cls in enumerate(class_list):
        reached: Set[int] = set()
        stack = [lit >> 1 for c in cls for lit in (c.rep_lit, c.node_lit)]
        while stack:
            node = stack.pop()
            if node == 0 or aig.is_pi_node(node):
                reached.add(node)
                continue
            prev = owner.get(node)
            if prev is not None:
                ra, rb = _find(parent, prev), _find(parent, idx)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
                continue
            owner[node] = idx
            f0, f1 = aig.fanins(node)
            stack.append(f0 >> 1)
            stack.append(f1 >> 1)
        leaves.append(reached)

    units: Dict[int, WorkUnit] = {}
    for idx, cls in enumerate(class_list):
        unit = units.setdefault(_find(parent, idx), WorkUnit(len(units)))
        unit.candidates.extend(cls)
        unit.cone |= leaves[idx]
    for node, idx in owner.items():
        units[_find(parent, idx)].cone.add(node)
    for unit in units.values():
        unit.candidates.sort(key=lambda c: (c.node, c.rep))
    return list(units.values())
