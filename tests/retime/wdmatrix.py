"""W/D matrices and OPT1-style exact min-period retiming (Leiserson-Saxe).

The classic exact formulation: for every vertex pair,

* ``W(u,v)`` — the minimum latch count over all u→v paths;
* ``D(u,v)`` — the maximum path delay among the minimum-weight u→v paths.

A clock period φ is achievable iff the difference constraints

* ``r(u) − r(v) ≤ w(e)``                     for every edge, and
* ``r(u) − r(v) ≤ W(u,v) − 1``               whenever ``D(u,v) > φ``

are consistent (checked by Bellman-Ford).  The candidate periods are the
distinct D values (Leiserson-Saxe Theorem 10 / the OPT1 algorithm).

A test oracle: this O(V³) formulation is an *independent
implementation* of the FEAS-based solver in :mod:`repro.retime.minperiod`,
and ``tests/retime/test_wdmatrix.py`` cross-checks both on random
circuits.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.retime.rgraph import HOST, RetimingGraph

__all__ = ["wd_matrices", "exact_min_period", "bellman_ford_feasible"]

_INF = float("inf")


def wd_matrices(
    graph: RetimingGraph,
) -> Tuple[Dict[Tuple[str, str], int], Dict[Tuple[str, str], int]]:
    """All-pairs (W, D) via Floyd-Warshall on the composite weight.

    Uses the standard trick: order path weights lexicographically by
    ``(latches, -delay)`` so the shortest path under that order carries
    W and the associated maximum delay D.  Paths through the host are
    excluded (the environment is not combinational logic).
    """
    vertices = [v for v in graph.vertices]
    # dist[u][v] = (weight, -delay_of_path_excluding_u's_own_delay)
    dist: Dict[str, Dict[str, Tuple[float, float]]] = {
        u: {v: (_INF, 0.0) for v in vertices} for u in vertices
    }
    for e in graph.edges:
        # Delay accumulates head delays along the path; u's own delay is
        # added at the end (D(u,v) = d(u) + Σ d(interior) + d(v)).
        cand = (float(e.weight), -float(graph.delay[e.head]))
        if cand < dist[e.tail][e.head]:
            dist[e.tail][e.head] = cand
    for k in vertices:
        if k == HOST:
            continue  # combinational paths never continue through the host
        dk = dist[k]
        for u in vertices:
            du = dist[u]
            duk = du[k]
            if duk[0] == _INF:
                continue
            for v in vertices:
                kv = dk[v]
                if kv[0] == _INF:
                    continue
                cand = (duk[0] + kv[0], duk[1] + kv[1])
                if cand < du[v]:
                    du[v] = cand
    w_matrix: Dict[Tuple[str, str], int] = {}
    d_matrix: Dict[Tuple[str, str], int] = {}
    for u in vertices:
        for v in vertices:
            weight, neg_delay = dist[u][v]
            if weight == _INF:
                continue
            w_matrix[(u, v)] = int(weight)
            d_matrix[(u, v)] = int(-neg_delay) + graph.delay[u]
    return w_matrix, d_matrix


def bellman_ford_feasible(
    vertices: List[str], constraints: List[Tuple[str, str, int]]
) -> Optional[Dict[str, int]]:
    """Solve ``x_u − x_v ≤ b``; returns a solution or None if infeasible."""
    # Constraint graph: edge v -> u with weight b means x_u ≤ x_v + b.
    dist: Dict[str, float] = {v: 0.0 for v in vertices}
    for _ in range(len(vertices)):
        changed = False
        for u, v, b in constraints:
            if dist[v] + b < dist[u]:
                dist[u] = dist[v] + b
                changed = True
        if not changed:
            break
    else:
        # One more pass still relaxing => negative cycle => infeasible.
        for u, v, b in constraints:
            if dist[v] + b < dist[u]:
                return None
    return {v: int(dist[v]) for v in vertices}


def exact_min_period(
    graph: RetimingGraph,
) -> Tuple[int, Dict[str, int]]:
    """OPT1: binary-search the sorted D values; returns (period, retiming).

    The returned retiming is normalised to ``r(HOST) = 0``.
    """
    w_matrix, d_matrix = wd_matrices(graph)
    vertices = list(graph.vertices)
    base_constraints = [
        (e.tail, e.head, e.weight) for e in graph.edges
    ]

    def feasible(period: int) -> Optional[Dict[str, int]]:
        constraints = list(base_constraints)
        for (u, v), delay in d_matrix.items():
            if delay > period:
                constraints.append((u, v, w_matrix[(u, v)] - 1))
        return bellman_ford_feasible(vertices, constraints)

    candidates = sorted(set(d_matrix.values()))
    if not candidates:
        return 0, {v: 0 for v in vertices}
    lo, hi = 0, len(candidates) - 1
    best: Optional[Tuple[int, Dict[str, int]]] = None
    while lo <= hi:
        mid = (lo + hi) // 2
        period = candidates[mid]
        r = feasible(period)
        if r is not None:
            best = (period, r)
            hi = mid - 1
        else:
            lo = mid + 1
    if best is None:
        raise ValueError("no feasible period (combinational cycle?)")
    period, r = best
    offset = r[HOST]
    return period, {v: r[v] - offset for v in vertices}
