"""Counterexample minimisation and search, one candidate trace at a time.

A test oracle for :func:`repro.core.verify.minimize_counterexample` and
:func:`repro.core.verify._search_distinguishing_trace`, which ask about
whole batches of candidate traces in one bit-parallel simulation per
circuit.  Here every candidate is replayed on its own through
:func:`repro.sim.exact3.exact3_outputs`, so the greedy choices are plain
to read.  ``tests/core/test_minimize_cex.py`` checks that both give the
same traces.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.netlist.circuit import Circuit, Gate
from repro.sim.exact3 import BOT, exact3_outputs

__all__ = ["distinguishes_alone", "minimize_one_at_a_time", "search_one_at_a_time"]


def distinguishes_alone(
    c1: Circuit,
    c2: Circuit,
    sequence: List[Dict[str, bool]],
    topo1: Optional[Sequence[Gate]] = None,
    topo2: Optional[Sequence[Gate]] = None,
) -> bool:
    """One lone replay per circuit: is some output ⊥ in one circuit and
    Boolean in the other, or Boolean in both with different values?"""
    rows = zip(
        exact3_outputs(c1, sequence, topo=topo1), exact3_outputs(c2, sequence, topo=topo2)
    )
    for row1, row2 in rows:
        for out in c1.outputs:
            v1, v2 = row1[out], row2[out]
            if (v1 is BOT) != (v2 is BOT) or (v1 is not BOT and v1 != v2):
                return True
    return False


def minimize_one_at_a_time(
    c1: Circuit, c2: Circuit, sequence: List[Dict[str, bool]]
) -> List[Dict[str, bool]]:
    """Drop leading cycles, then clear bits, one replay per candidate."""
    topo1, topo2 = c1.topo_gates(), c2.topo_gates()

    def distinguishes(candidate: List[Dict[str, bool]]) -> bool:
        return distinguishes_alone(c1, c2, candidate, topo1, topo2)

    if not distinguishes(sequence):
        return sequence
    current = [dict(v) for v in sequence]
    while len(current) > 1 and distinguishes(current[1:]):
        current = current[1:]
    for t in range(len(current)):
        for name in sorted(current[t]):
            if not current[t][name]:
                continue
            current[t][name] = False
            if not distinguishes(current):
                current[t][name] = True
    return current


def search_one_at_a_time(
    c1: Circuit, c2: Circuit, trials: int = 64, length: int = 8, seed: int = 7
) -> Optional[List[Dict[str, bool]]]:
    """The first of ``trials`` seeded random traces that distinguishes."""
    rng = random.Random(seed)
    inputs = sorted(c1.inputs)
    topo1, topo2 = c1.topo_gates(), c2.topo_gates()
    for _ in range(trials):
        sequence = [
            {name: rng.random() < 0.5 for name in inputs} for _ in range(length)
        ]
        if distinguishes_alone(c1, c2, sequence, topo1, topo2):
            return sequence
    return None
