"""Golden CEC sweep effort on two small Table 1 pairs.

The sweep's query count, its core retirements and the solver's total
conflicts, decisions and propagations follow from the exact search
trajectory of every SAT call: which pairs get queried depends on earlier
answers, cores and refinement patterns.  The tier-1 test
``tests/cec/test_sat_query_gate.py`` holds SAT-query counts to
``BENCH_cec.json``, so a solver change that alters its search moves a
hard gate.  The conflicts, decisions and propagations are summed over
every solver of the check: one per sweep unit, each holding only its
unit's cone, plus the output phase's solver.  None of these values may
move unless the search is meant to, and none depends on
``PYTHONHASHSEED``.  Each check names the structural-then-SAT portfolio:
a default check decides both pairs by truth tables, before any query.
"""

from __future__ import annotations

import pytest

from repro.api import VerifyRequest, verify_pair
from repro.bench.iscas_like import build_table1_circuit
from repro.cec import SAT_PORTFOLIO
from repro.core.expose import prepare_circuit
from repro.flows.flow import FlowResult, _retime_min_period_any
from repro.obs.metrics import MetricsRegistry
from repro.synth.script import optimize_sequential_delay


def table1_pair(name):
    """The Table 1 flow's B (A, feedback exposed) and C (B synthesised,
    min-period retimed and resynthesised)."""
    b = prepare_circuit(build_table1_circuit(name), use_unateness=False).circuit
    c = optimize_sequential_delay(b, name=name + "_C0")
    c = _retime_min_period_any(c, FlowResult(name))
    return b, optimize_sequential_delay(c, name=name + "_C")


@pytest.mark.parametrize(
    "name, queries, retired, conflicts, decisions, propagations",
    [
        ("s3271", 568, 187, 439, 865, 16984),
        ("s9234", 291, 113, 205, 361, 6188),
    ],
)
def test_sweep_effort_is_pinned(name, queries, retired, conflicts, decisions, propagations):
    golden, revised = table1_pair(name)
    metrics = MetricsRegistry()
    report = verify_pair(
        VerifyRequest(
            golden=golden,
            revised=revised,
            name=name,
            engines=list(SAT_PORTFOLIO),
        ),
        metrics=metrics,
    )
    assert report.verdict == "equivalent"
    assert (report.stats["cec_sat_queries"], report.stats["cec_core_retired"]) == (
        queries,
        retired,
    )
    assert (
        metrics.counter("sat.conflicts"),
        metrics.counter("sat.decisions"),
        metrics.counter("sat.propagations"),
    ) == (conflicts, decisions, propagations)
