"""Benchmark circuits and workload generators.

The paper's BLIF benchmark suite (MCNC minmax/prolog, ISCAS'89 s-series,
and 12 proprietary industrial circuits) is not redistributable offline, so
this package provides seeded deterministic generators that reproduce the
*structural regimes* the experiments depend on: latch counts, feedback
topology (FSM clusters vs pipelines), the fraction of latches on feedback
paths, and the Fig. 20 memory/communication-layer interaction.  See
DESIGN.md §2 for the substitution rationale.
"""

from repro.bench.minmax import minmax_circuit
from repro.bench.pipeline import pipeline_circuit, trapped_latch_circuit
from repro.bench.iscas_like import iscas_like_circuit, TABLE1_CIRCUITS, build_table1_circuit
from repro.bench.industrial import industrial_circuit, TABLE2_CIRCUITS, build_table2_circuit
from repro.bench.counterex import (
    fig1_pair,
    fig10_pair,
    fig11_pair,
    fig14_conditional_update,
)
from repro.bench.random_circuits import random_acyclic_sequential, random_combinational

__all__ = [
    "minmax_circuit",
    "pipeline_circuit",
    "trapped_latch_circuit",
    "iscas_like_circuit",
    "TABLE1_CIRCUITS",
    "build_table1_circuit",
    "industrial_circuit",
    "TABLE2_CIRCUITS",
    "build_table2_circuit",
    "fig1_pair",
    "fig10_pair",
    "fig11_pair",
    "fig14_conditional_update",
    "random_acyclic_sequential",
    "random_combinational",
]
