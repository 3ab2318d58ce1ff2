"""Golden search trajectories of the CDCL solver.

The other solver tests check *answers* against enumeration.  These pin
*how* the solver gets there: for every call of a seeded sequence, the
answer, the call's conflicts/decisions/propagations, the assumption core
and a digest of the model.  A change that reorders watch lists, the trail
or the branching heap still answers correctly but moves these numbers,
and with them the CEC sweep's query counts, cores and refinement
patterns.  The values were recorded from the solver before its hot loops
were rewritten for speed; a change that is meant to alter the search must
re-record them and say why.

The sequence covers random 3-SAT with and without assumptions,
sweep-style two-direction equivalence queries with merge clauses added
between calls, a ``conflict_limit`` call, and one search long enough to
cross EVSIDS activity rescales and a learned-clause reduction.  Nothing
here depends on ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.sat.solver import Solver


def _model_digest(model):
    if model is None:
        return None
    text = ",".join(f"{var}={int(value)}" for var, value in sorted(model.items()))
    return hashlib.blake2b(text.encode(), digest_size=6).hexdigest()


def _call(solver, assumptions=(), **limits):
    result = solver.solve(assumptions, **limits)
    stats = solver.last_call_stats
    return (
        result.satisfiable,
        solver.last_unknown_reason,
        stats["conflicts"],
        stats["decisions"],
        stats["propagations"],
        result.core,
        _model_digest(result.model),
    )


def _three_sat(rng, n, m):
    return [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)]
        for _ in range(m)
    ]


def random_3sat_calls():
    """Four near-threshold instances, each solved plain and under assumptions."""
    rng = random.Random(13)
    calls = []
    for _ in range(4):
        solver = Solver()
        for clause in _three_sat(rng, 40, 164):
            solver.add_clause(clause)
        calls.append(_call(solver))
        for _ in range(4):
            picked = rng.sample(range(1, 41), 4)
            calls.append(_call(solver, [v if rng.random() < 0.5 else -v for v in picked]))
    return calls


def sweep_calls():
    """A SAT sweep in miniature over a random AND network.

    Nodes with equal simulation signatures are queried in both
    directions, as the CEC sweep does; a pair proven equal in both gets
    its merge clauses added before the next query.  Re-associated AND
    triples guarantee equivalent pairs with distinct structure.
    """
    rng = random.Random(29)
    solver = Solver()
    n_inputs = 10
    nodes = list(range(1, n_inputs + 1))
    words = {v: rng.getrandbits(16) for v in nodes}
    mask = (1 << 16) - 1

    def word(lit):
        return words[lit] if lit > 0 else words[-lit] ^ mask

    def and_gate(a, b):
        z = len(nodes) + 1
        nodes.append(z)
        solver.add_clause([-z, a])
        solver.add_clause([-z, b])
        solver.add_clause([z, -a, -b])
        words[z] = word(a) & word(b)
        return z

    def pick():
        v = rng.choice(nodes)
        return v if rng.random() < 0.5 else -v

    for _ in range(14):
        a, b, c = pick(), pick(), pick()
        if len({abs(a), abs(b), abs(c)}) < 3:
            continue
        and_gate(and_gate(a, b), c)
        and_gate(a, and_gate(b, c))
        and_gate(pick(), pick())

    classes = {}
    for v in nodes[n_inputs:]:
        w = words[v]
        phase = w & 1
        classes.setdefault(w ^ mask if phase else w, []).append(v if not phase else -v)
    calls = []
    for members in classes.values():
        rep = members[0]
        for other in members[1:]:
            first = _call(solver, [rep, -other])
            second = _call(solver, [-rep, other])
            calls += [first, second]
            if not first[0] and not second[0]:
                solver.add_clause([-rep, other])
                solver.add_clause([rep, -other])
    return calls


def _pigeonhole(holes):
    pigeons = holes + 1
    solver = Solver()
    for i in range(pigeons):
        solver.add_clause([i * holes + j + 1 for j in range(holes)])
    for j in range(holes):
        for i1 in range(pigeons):
            for i2 in range(i1 + 1, pigeons):
                solver.add_clause([-(i1 * holes + j + 1), -(i2 * holes + j + 1)])
    return solver


def conflict_limit_calls():
    """A limited call gives up exactly at its limit; the next one finishes."""
    solver = _pigeonhole(5)
    return [_call(solver, conflict_limit=25), _call(solver)]


def long_search_calls():
    """4490 conflicts in one call: four EVSIDS rescales and a reduction."""
    rng = random.Random(0)
    solver = Solver()
    for clause in _three_sat(rng, 150, int(4.26 * 150)):
        solver.add_clause(clause)
    return [_call(solver)]


# (satisfiable, unknown reason, conflicts, decisions, propagations, core,
#  model digest) per call.
RANDOM_3SAT = [
    (True, None, 16, 23, 283, None, "4ab7d81c2072"),
    (False, None, 3, 2, 33, [-21, -3, -10, 40], None),
    (False, None, 1, 0, 16, [-22, 29, 33, -38], None),
    (False, None, 6, 5, 52, [25, 20, -33, 27], None),
    (False, None, 4, 4, 56, [11, 15, 27], None),
    (True, None, 0, 9, 40, None, "687a460f7123"),
    (False, None, 6, 5, 93, [-34, 18, 22, 19], None),
    (False, None, 4, 5, 54, [14, 36, 32], None),
    (False, None, 3, 2, 42, [36, 34, 25, -23], None),
    (True, None, 1, 5, 41, None, "3e1cc69754da"),
    (True, None, 3, 13, 75, None, "c8534cf4daad"),
    (False, None, 6, 13, 71, [-20, 29, -36], None),
    (False, None, 5, 5, 64, [-29, 20, 3], None),
    (False, None, 4, 3, 77, [-30, -19, -11, 24], None),
    (False, None, 5, 6, 73, [14, -40, 19, -15], None),
    (True, None, 1, 10, 65, None, "8aa8fce3e57d"),
    (False, None, 5, 5, 45, [-15, -6, -24], None),
    (True, None, 2, 15, 59, None, "9c003c8ac358"),
    (False, None, 2, 1, 25, [-24, 12, -13, -19], None),
    (False, None, 1, 0, 17, [33, -15, -16], None),
]

SWEEP = [
    (False, None, 0, 0, 13, [-15, 11], None),
    (False, None, 0, 0, 16, [15, -11], None),
    (False, None, 0, 0, 60, [-14, 12], None),
    (False, None, 1, 0, 11, [14, -12], None),
    (True, None, 0, 10, 80, None, "4270f1a117f6"),
    (False, None, 1, 0, 5, [27], None),
    (True, None, 0, 7, 80, None, "4270f1a117f6"),
    (False, None, 1, 0, 4, [28], None),
    (True, None, 0, 8, 80, None, "4270f1a117f6"),
    (False, None, 1, 0, 7, [29], None),
    (True, None, 0, 9, 80, None, "4270f1a117f6"),
    (False, None, 1, 0, 7, [36], None),
    (True, None, 0, 6, 80, None, "4270f1a117f6"),
    (False, None, 1, 0, 5, [37], None),
    (True, None, 0, 7, 80, None, "4270f1a117f6"),
    (False, None, 1, 0, 4, [38], None),
    (True, None, 0, 8, 80, None, "4270f1a117f6"),
    (False, None, 1, 0, 8, [39], None),
    (True, None, 0, 9, 80, None, "4270f1a117f6"),
    (True, None, 0, 7, 80, None, "0fbfb31493da"),
    (True, None, 0, 7, 80, None, "4270f1a117f6"),
    (True, None, 0, 7, 80, None, "0fbfb31493da"),
    (True, None, 0, 7, 80, None, "4270f1a117f6"),
    (True, None, 0, 7, 80, None, "0fbfb31493da"),
    (True, None, 0, 7, 80, None, "4270f1a117f6"),
    (False, None, 1, 0, 5, [57], None),
    (True, None, 0, 7, 80, None, "4270f1a117f6"),
    (False, None, 1, 0, 5, [59], None),
    (True, None, 0, 7, 80, None, "4270f1a117f6"),
    (True, None, 0, 7, 80, None, "21664cc18c25"),
    (True, None, 0, 8, 80, None, "4270f1a117f6"),
    (True, None, 0, 6, 80, None, "7001247bb05a"),
    (True, None, 0, 8, 80, None, "4270f1a117f6"),
    (True, None, 0, 6, 80, None, "7001247bb05a"),
    (True, None, 0, 8, 80, None, "4270f1a117f6"),
    (True, None, 0, 7, 80, None, "0fbfb31493da"),
    (True, None, 0, 7, 80, None, "4270f1a117f6"),
    (True, None, 0, 6, 80, None, "7001247bb05a"),
    (True, None, 0, 8, 80, None, "4270f1a117f6"),
    (True, None, 0, 7, 80, None, "0fbfb31493da"),
    (True, None, 0, 7, 80, None, "4270f1a117f6"),
    (False, None, 1, 0, 5, [80], None),
    (True, None, 0, 5, 80, None, "0459c504e5fb"),
    (False, None, 0, 0, 4, [17, -16], None),
    (True, None, 0, 5, 80, None, "0459c504e5fb"),
    (False, None, 1, 0, 7, [19, -16], None),
    (False, None, 1, 0, 18, [21, 16], None),
    (True, None, 0, 7, 80, None, "4270f1a117f6"),
    (False, None, 1, 0, 19, [30, 16], None),
    (True, None, 1, 8, 89, None, "4270f1a117f6"),
    (True, None, 1, 6, 84, None, "0459c504e5fb"),
    (False, None, 0, 0, 4, [35, -16], None),
    (True, None, 0, 7, 80, None, "4270f1a117f6"),
    (False, None, 0, 0, 39, [22, 18], None),
    (False, None, 0, 0, 3, [-23, -18], None),
    (False, None, 0, 0, 39, [23, 18], None),
    (True, None, 0, 7, 80, None, "4270f1a117f6"),
    (False, None, 0, 0, 39, [24, 18], None),
    (True, None, 0, 6, 80, None, "43fc4b236ebf"),
    (False, None, 0, 0, 39, [-31, 18], None),
    (False, None, 1, 0, 8, [32, -18], None),
    (False, None, 0, 0, 39, [-32, 18], None),
    (False, None, 1, 0, 8, [33, -18], None),
    (False, None, 0, 0, 39, [-33, 18], None),
    (False, None, 0, 0, 8, [34, -18], None),
    (False, None, 0, 0, 39, [-34, 18], None),
    (True, None, 0, 7, 80, None, "0fbfb31493da"),
    (False, None, 0, 0, 39, [61, 18], None),
    (False, None, 0, 0, 8, [65, -18], None),
    (False, None, 0, 0, 39, [-65, 18], None),
    (True, None, 0, 7, 80, None, "0fbfb31493da"),
    (False, None, 0, 0, 39, [75, 18], None),
    (True, None, 0, 7, 80, None, "0fbfb31493da"),
    (False, None, 1, 0, 44, [-78, 18], None),
    (False, None, 0, 0, 25, [-26, 25], None),
    (False, None, 0, 0, 9, [26, -25], None),
    (True, None, 0, 5, 80, None, "0fbfb31493da"),
    (False, None, 0, 0, 4, [63, -40], None),
    (False, None, 0, 0, 17, [-44, 42], None),
    (False, None, 1, 0, 24, [44, -42], None),
    (True, None, 0, 8, 80, None, "755baff9d707"),
    (False, None, 0, 0, 18, [46, -42], None),
    (False, None, 0, 0, 50, [-49, 47], None),
    (False, None, 1, 0, 18, [49, -47], None),
    (True, None, 0, 7, 80, None, "0fbfb31493da"),
    (False, None, 1, 0, 23, [62, -48], None),
    (True, None, 0, 7, 80, None, "0fbfb31493da"),
    (False, None, 1, 0, 25, [64, -48], None),
    (True, None, 1, 6, 87, None, "ec6fb036b1a7"),
    (False, None, 0, 0, 2, [72, -71], None),
    (True, None, 0, 6, 80, None, "ec6fb036b1a7"),
    (False, None, 1, 0, 5, [74, -71], None),
    (False, None, 0, 0, 24, [-77, 76], None),
    (False, None, 0, 0, 3, [77, -76], None),
    (False, None, 0, 0, 24, [-79, 76], None),
    (False, None, 1, 0, 6, [79, -76], None),
]

CONFLICT_LIMIT = [
    (False, "conflict-limit", 25, 37, 273, None, None),
    (False, None, 133, 159, 1532, [], None),
]

LONG_SEARCH = [
    (False, None, 4490, 5583, 136013, [], None),
]


@pytest.mark.parametrize(
    "sequence, golden",
    [
        (random_3sat_calls, RANDOM_3SAT),
        (sweep_calls, SWEEP),
        (conflict_limit_calls, CONFLICT_LIMIT),
        (long_search_calls, LONG_SEARCH),
    ],
    ids=["random_3sat", "sweep", "conflict_limit", "long_search"],
)
def test_trajectory_is_pinned(sequence, golden):
    assert sequence() == golden
