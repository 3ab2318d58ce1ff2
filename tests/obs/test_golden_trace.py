"""End-to-end trace tests: schema stability and stats round-tripping.

The golden contract: running the engine with a tracer on a small but
non-trivial pair (a retimed+resynthesised pipeline, CBF-lowered) must
produce a schema-valid trace whose spans cover every phase and every
cascade stage the run took, whose per-phase durations reconcile with the
engine's own ``stats["time"]``, and whose presence must not perturb the
uninstrumented result.
"""

from __future__ import annotations

import pytest

from repro.bench.pipeline import pipeline_circuit
from repro.cec.engine import check_equivalence
from repro.core.cbf import compute_cbf
from repro.core.eq2comb import cbf_to_circuit
from repro.core.timedvar import ExprTable
from repro.core.verify import check_sequential_equivalence
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import profile_events
from repro.obs.schema import validate_events
from repro.obs.trace import Tracer
from repro.retime.apply import retime_min_period
from repro.synth.script import optimize_sequential_delay

from tests.cec.test_sweep_parallel import SAT_PATH


@pytest.fixture(scope="module")
def comb_pair():
    """A combinational pair with real sweep work (H vs J of a pipeline)."""
    c1 = pipeline_circuit(stages=3, width=3, seed=0, name="pipe")
    retimed, _, _ = retime_min_period(c1)
    resynth = optimize_sequential_delay(retimed, "medium", name="resynth")
    table = ExprTable()
    cbf1 = compute_cbf(c1, table)
    cbf2 = compute_cbf(resynth, table)
    all_vars = sorted(cbf1.variables() | cbf2.variables(), key=repr)
    comb1 = cbf_to_circuit(cbf1, name="H", extra_inputs=all_vars)
    comb2 = cbf_to_circuit(cbf2, name="J", extra_inputs=all_vars)
    return comb1, comb2


@pytest.fixture(scope="module")
def traced_run(comb_pair):
    # The SAT portfolio, named: the golden run's subject is the sweep's
    # and the stages' spans, which a default check's truth-table phase
    # would skip on this pair.
    comb1, comb2 = comb_pair
    tracer = Tracer(sink=[], meta={"command": "test"})
    result = check_equivalence(comb1, comb2, SAT_PATH, tracer=tracer)
    tracer.close()
    return result, tracer.events


class TestGoldenTrace:
    def test_trace_is_schema_valid(self, traced_run):
        _, events = traced_run
        assert validate_events(events) == []

    def test_span_coverage(self, traced_run):
        result, events = traced_run
        names = {e["name"] for e in events if e["type"] == "span"}
        assert "cec.check" in names
        # Every phase the engine timed has a span of the same name.
        for key in result.stats:
            if key.startswith("time_"):
                assert f"cec.phase.{key[len('time_'):]}" in names
        # The run decided outputs by SAT, so obligation/stage spans exist.
        assert "cec.obligation" in names
        assert any(n.startswith("stage.") for n in names)

    def test_metrics_snapshot_embedded(self, traced_run):
        result, events = traced_run
        snapshots = [e for e in events if e["type"] == "metrics"]
        assert snapshots, "trace must embed a metrics snapshot"
        merged = {}
        for snap in snapshots:
            merged.update(snap["args"])
        assert merged["cec.sat_queries"] == result.stats["sat_queries"]
        assert merged["sat.calls"] >= result.stats["sat_queries"]

    def test_profile_reconciles_with_engine_time(self, traced_run):
        result, events = traced_run
        prof = profile_events(events)
        phase_total = sum(
            seconds
            for name, (_, seconds) in prof["phases"].items()
            if name.startswith("cec.phase.")
        )
        # Acceptance: the per-stage breakdown accounts for the engine's
        # own wall time to within 10%.
        assert phase_total == pytest.approx(result.stats["time"], rel=0.10)

    def test_tracing_does_not_change_stats(self, comb_pair, traced_run):
        comb1, comb2 = comb_pair
        traced_result, _ = traced_run
        plain = check_equivalence(comb1, comb2, SAT_PATH)
        assert plain.verdict == traced_result.verdict
        assert set(plain.stats) == set(traced_result.stats)
        for key, value in plain.stats.items():
            if key.startswith("time"):
                continue
            assert traced_result.stats[key] == value, key

    def test_caller_registry_receives_merge(self, comb_pair):
        comb1, comb2 = comb_pair
        registry = MetricsRegistry()
        result = check_equivalence(comb1, comb2, SAT_PATH, metrics=registry)
        assert registry.counter("cec.sat_queries") == result.stats["sat_queries"]
        assert registry.counter("sat.calls") > 0
        # Per-check isolation: a second check merges counters additively.
        check_equivalence(comb1, comb2, SAT_PATH, metrics=registry)
        assert (
            registry.counter("cec.sat_queries")
            == 2 * result.stats["sat_queries"]
        )


class TestSequentialTrace:
    def test_seq_check_wraps_the_pair_span(self):
        c1 = pipeline_circuit(stages=2, width=2, seed=1, name="p")
        retimed, _, _ = retime_min_period(c1)
        tracer = Tracer(sink=[])
        result = check_sequential_equivalence(c1, retimed, tracer=tracer)
        tracer.close()
        events = tracer.events
        assert validate_events(events) == []
        spans = {e["name"]: e for e in events if e["type"] == "span"}
        assert spans["seq.check"]["args"]["verdict"] == result.verdict.value
        # Lowering and the combinational check both nest inside the root.
        root_id = spans["seq.check"]["id"]
        assert spans["seq.phase.lower"]["parent"] == root_id
        assert spans["cec.check"]["parent"] == root_id
