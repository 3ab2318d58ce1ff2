"""Schema validator and profiler tests on synthetic traces."""

from __future__ import annotations

import re

from repro.obs.profile import phase_breakdown, profile_events, render_profile
from repro.obs.schema import validate_event, validate_events
from repro.obs.trace import Tracer


def tiny_trace():
    """A hand-built but fully valid trace covering every event kind."""
    tracer = Tracer(sink=[], meta={"command": "test"})
    with tracer.span("cec.check", cat="pair", c1="a", c2="b"):
        with tracer.span("cec.phase.sweep", cat="phase"):
            with tracer.span("cec.obligation", cat="obligation", output="o0") as ob:
                with tracer.span("stage.sat", cat="stage"):
                    pass
                ob.annotate(decided_by="sat", verdict="eq")
            with tracer.span("sweep.unit", cat="worker", unit=0):
                pass
            tracer.instant("sweep.unit.lost", unit=1, error="boom")
        tracer.metrics(
            {
                "sat.conflicts_per_call.count": 4,
                "sat.conflicts_per_call.mean": 2.0,
                "sat.conflicts_per_call.max": 5,
                "sat.conflicts_per_call.sum": 8,
            },
            name="cec.metrics",
        )
    return tracer.events


class TestSchema:
    def test_valid_trace_has_no_violations(self):
        assert validate_events(tiny_trace()) == []

    def test_non_dict_event(self):
        assert validate_event("nope") == ["event[0]: not a JSON object"]

    def test_missing_required_fields(self):
        errors = validate_event({"type": "span"})
        assert any("name" in e for e in errors)
        assert any("ts" in e for e in errors)

    def test_bad_enum_and_type(self):
        errors = validate_event(
            {"type": "span", "name": 7, "ts": -1, "cat": "nonsense",
             "dur": 0.0, "id": 1, "args": {}}
        )
        assert any("cat" in e for e in errors)
        assert any("name" in e for e in errors)
        assert any("minimum" in e for e in errors)

    def test_trace_must_start_with_meta(self):
        events = tiny_trace()[1:]
        errors = validate_events(events)
        assert any("must start with a meta event" in e for e in errors)

    def test_duplicate_span_ids_flagged(self):
        events = tiny_trace()
        spans = [e for e in events if e["type"] == "span"]
        clone = dict(spans[0])
        errors = validate_events(events + [clone])
        assert any("duplicate span id" in e for e in errors)

    def test_orphan_parent_flagged(self):
        events = tiny_trace()
        bad = {
            "type": "instant", "name": "x", "cat": "event",
            "ts": 1.0, "parent": 999, "args": {},
        }
        errors = validate_events(events + [bad])
        assert any("parent 999" in e for e in errors)


class TestProfile:
    def test_phase_breakdown_counts_and_sums(self):
        events = [
            {"type": "span", "name": "p", "cat": "phase", "ts": 0,
             "dur": 1.0, "id": 1, "parent": None, "args": {}},
            {"type": "span", "name": "p", "cat": "phase", "ts": 2,
             "dur": 0.5, "id": 2, "parent": None, "args": {}},
        ]
        assert phase_breakdown(events) == {"p": (2, 1.5)}

    def test_profile_events_structure(self):
        prof = profile_events(tiny_trace(), top=5)
        assert prof["n_pairs"] == 1
        assert "cec.phase.sweep" in prof["phases"]
        assert "stage.sat" in prof["stages"]
        (ob,) = prof["slowest_obligations"]
        assert ob["output"] == "o0"
        assert ob["decided_by"] == "sat"
        assert ob["verdict"] == "eq"
        assert prof["n_sweep_units"] == 1
        (incident,) = prof["incidents"]
        assert incident["name"] == "sweep.unit.lost"
        assert prof["metrics"]["sat.conflicts_per_call.count"] == 4

    def test_top_limits_obligations(self):
        tracer = Tracer(sink=[])
        for i in range(5):
            with tracer.span("cec.obligation", cat="obligation", output=f"o{i}"):
                pass
        prof = profile_events(tracer.events, top=2)
        assert len(prof["slowest_obligations"]) == 2

    def test_render_profile_mentions_the_hotspots(self):
        text = render_profile(tiny_trace())
        assert "1 circuit-pair check(s)" in text
        assert "cec.phase.sweep" in text
        assert "stage.sat" in text
        assert "o0" in text
        assert "solver effort per call:" in text
        assert re.search(
            r"^sweep: 1 unit\(s\), \d+\.\d{3}s in units$", text, re.M
        )
        assert "sweep.unit.lost" in text
