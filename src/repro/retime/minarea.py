"""Constrained minimum-area retiming (the Minaret analogue [6]).

Minimise the total latch count subject to a clock-period bound.  The cost
model includes **fanout sharing** (Leiserson-Saxe §8 / Minaret): all fanout
branches of one driver share a single latch chain, so the driver's cost is
``max_i w_r(e_i)`` over its fanout edges, not the sum.  Introducing one
auxiliary variable ``s_g`` per driver group ``g`` linearises the max:

    min  Σ_g (s_g − r(tail_g))
    s.t. r(tail) − r(head) ≤ w(e)                (legality, every edge)
         r(head_i) − s_g   ≤ −w(e_i)             (s_g ≥ max_i w_r(e_i))
         Δ(v) ≤ φ under r                        (period)

All constraints are differences, so the matrix is totally unimodular and
the LP optimum is integral.  The period condition is enforced by *lazy
constraint generation*: solve, measure the achieved period, add
``r(u) − r(v) ≤ w(p) − 1`` along violating critical paths, repeat.  This
avoids the O(V²) W/D matrices while giving the same optimum.  scipy's
HiGHS solver does the numeric work.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.retime.minperiod import arrival_times, clock_period
from repro.retime.rgraph import HOST, RetimingGraph

__all__ = ["min_area_retiming"]

_MAX_ROUNDS = 60


def _solve_lp(
    variables: List[str],
    objective: Dict[str, float],
    constraints: List[Tuple[str, str, int]],  # (u, v, b): x_u - x_v <= b
    bound: float,
) -> Optional[Dict[str, int]]:
    """Min Σ c_x·x subject to difference constraints (integral optimum).

    Row ``i`` of the constraint matrix holds +1 at ``x_u`` and −1 at
    ``x_v``.  Building it sparse sums duplicate entries, and dropping the
    explicit zeros that leaves (a ``u == v`` row) gives HiGHS the same
    matrix it would get from the dense array.
    """
    import numpy as np
    from scipy.optimize import linprog
    from scipy.sparse import csc_array

    index = {v: i for i, v in enumerate(variables)}
    n = len(variables)
    c = np.zeros(n)
    for v, coeff in objective.items():
        c[index[v]] += coeff
    rows = len(constraints)
    cols = np.fromiter(
        (index[x] for u, v, _ in constraints for x in (u, v)), np.intp, 2 * rows
    )
    a_ub = csc_array(
        (np.tile([1.0, -1.0], rows), (np.repeat(np.arange(rows), 2), cols)),
        shape=(rows, n),
    )
    a_ub.eliminate_zeros()
    b_ub = np.fromiter((b for _, _, b in constraints), float, rows)
    result = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(-bound, bound)] * n,
        method="highs",
    )
    if not result.success:
        return None
    return {v: int(round(result.x[index[v]])) for v in variables}


def _critical_path_constraints(
    graph: RetimingGraph, r: Dict[str, int], period: int
) -> List[Tuple[str, str, int]]:
    """Constraints cutting the current over-long zero-weight paths."""
    arrival = arrival_times(graph, r)
    if arrival is None:
        return []
    pred: Dict[str, Optional[Tuple[str, int]]] = {v: None for v in graph.vertices}
    for idx, e in enumerate(graph.edges):
        w = e.weight + r[e.head] - r[e.tail]
        # Paths never continue *through* the environment, so edges into the
        # host are not interior path edges.
        if w == 0 and e.tail != e.head and e.head != HOST:
            if arrival.get(e.head, 0) == arrival.get(e.tail, 0) + graph.delay[e.head]:
                pred[e.head] = (e.tail, idx)
    out: List[Tuple[str, str, int]] = []
    seen_pairs: Set[Tuple[str, str]] = set()
    for v in graph.vertices:
        if arrival[v] <= period:
            continue
        # Walk back along the critical path to the *shortest* suffix whose
        # delay already violates the period — a tighter constraint than one
        # over the whole source-to-v path.
        u = v
        w_orig = 0
        hops = 0
        while hops <= len(graph.vertices):
            suffix_delay = arrival[v] - arrival[u] + graph.delay[u]
            if suffix_delay > period or pred[u] is None:
                break
            tail, idx = pred[u]  # type: ignore[misc]
            w_orig += graph.edges[idx].weight
            u = tail
            hops += 1
        if u != v and (u, v) not in seen_pairs:
            seen_pairs.add((u, v))
            out.append((u, v, w_orig - 1))
    return out


def min_area_retiming(
    graph: RetimingGraph,
    period: int,
    fixed: Sequence[str] = (),
) -> Optional[Dict[str, int]]:
    """Minimum-latch retiming meeting ``period``; None if infeasible.

    ``fixed`` vertices are pinned at r = 0.  Returns the retiming vector
    over graph vertices (auxiliary sharing variables are internal).
    """
    # Group fanout edges by driver signal (chain sharing).
    groups: Dict[str, List[int]] = {}
    for idx in range(len(graph.edges)):
        src = graph.source_signal[idx]
        groups.setdefault(src, []).append(idx)

    variables: List[str] = list(graph.vertices)
    share_var: Dict[str, str] = {}
    for src in groups:
        name = f"__s__{src}"
        share_var[src] = name
        variables.append(name)

    objective: Dict[str, float] = {}
    base_constraints: List[Tuple[str, str, int]] = []
    for e in graph.edges:
        base_constraints.append((e.tail, e.head, e.weight))
    for src, edge_idxs in groups.items():
        s = share_var[src]
        tail = graph.edges[edge_idxs[0]].tail
        objective[s] = objective.get(s, 0.0) + 1.0
        objective[tail] = objective.get(tail, 0.0) - 1.0
        for idx in edge_idxs:
            e = graph.edges[idx]
            # s >= w(e) + r(head)  <=>  r(head) - s <= -w(e)
            base_constraints.append((e.head, s, -e.weight))
    for v in fixed:
        base_constraints.append((v, HOST, 0))
        base_constraints.append((HOST, v, 0))

    # The objective is shift-invariant; a dedicated zero variable tied to
    # the host lets us renormalise the solution to r(HOST) = 0.
    variables.append("__zero__")
    objective["__zero__"] = 0.0
    base_constraints.append((HOST, "__zero__", 0))
    base_constraints.append(("__zero__", HOST, 0))

    bound = float(sum(e.weight for e in graph.edges) + len(graph.vertices) + 10)
    constraints = list(base_constraints)
    existing = set(constraints)
    for _ in range(_MAX_ROUNDS):
        solution = _solve_lp(variables, objective, constraints, bound)
        if solution is None:
            return None
        zero = solution["__zero__"]
        r = {v: solution[v] - zero for v in graph.vertices}
        achieved = clock_period(graph, r)
        if achieved is None:
            return None  # should not happen: legality constraints hold
        if achieved <= period:
            return r
        extra = _critical_path_constraints(graph, r, period)
        added = False
        for con in extra:
            if con not in existing:
                constraints.append(con)
                existing.add(con)
                added = True
        if not added:
            return None  # no progress
    return None
