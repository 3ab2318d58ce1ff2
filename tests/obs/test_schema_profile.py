"""Schema validator and profiler tests on synthetic traces."""

from __future__ import annotations

import re

import pytest

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
            with tracer.span(
                "sweep.unit", cat="worker", unit=0, cone_vars=12, clauses=30
            ) as unit:
                unit.annotate(
                    sat_queries=4,
                    core_retired=1,
                    conflicts=2,
                    propagations=57,
                    load_s=0.25,
                    search_s=0.5,
                )
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
        assert prof["n_sweep_units"] == 1
        assert (prof["unit_load_seconds"], prof["unit_search_seconds"]) == (0.25, 0.5)
        (unit,) = prof["units"]
        assert {k: v for k, v in unit.items() if k != "seconds"} == {
            "check": "a",
            "round": None,
            "unit": 0,
            "cone_vars": 12,
            "clauses": 30,
            "sat_queries": 4,
            "core_retired": 1,
            "conflicts": 2,
            "propagations": 57,
            "load_s": 0.25,
            "search_s": 0.5,
        }
        (incident,) = prof["incidents"]
        assert incident["name"] == "sweep.unit.lost"
        assert prof["metrics"]["sat.conflicts_per_call.count"] == 4

    def test_deprecated_keys_keep_their_values_and_warn(self):
        prof = profile_events(tiny_trace(), top=5)
        with pytest.warns(DeprecationWarning, match="'units'"):
            assert "stage.sat" in prof["stages"]
        with pytest.warns(DeprecationWarning, match="'units'"):
            (ob,) = prof.get("slowest_obligations")
        assert ob["output"] == "o0"
        assert ob["decided_by"] == "sat"
        assert ob["verdict"] == "eq"

    def test_top_limits_obligations(self):
        tracer = Tracer(sink=[])
        for i in range(5):
            with tracer.span("cec.obligation", cat="obligation", output=f"o{i}"):
                pass
        prof = profile_events(tracer.events, top=2)
        with pytest.warns(DeprecationWarning):
            assert len(prof["slowest_obligations"]) == 2

    def test_top_limits_units_slowest_first(self):
        events = [
            {"type": "span", "name": "sweep.unit", "cat": "worker", "ts": i,
             "dur": dur, "id": i, "parent": None, "args": {"unit": i}}
            for i, dur in enumerate([0.1, 0.4, 0.2, 0.3])
        ]
        prof = profile_events(events, top=2)
        assert [u["unit"] for u in prof["units"]] == [1, 3]
        assert prof["units"][0]["check"] == "?"
        assert prof["units"][0]["load_s"] is None

    def test_render_profile_mentions_the_hotspots(self):
        text = render_profile(tiny_trace())
        assert "1 circuit-pair check(s)" in text
        assert "cec.phase.sweep" in text
        assert "solver effort per call:" in text
        assert re.search(
            r"^sweep: 1 unit\(s\), \d+\.\d{3}s in units$", text, re.M
        )
        assert "  0.250s loading slices, 0.500s searching" in text
        assert "top 1 slowest sweep units:" in text
        assert re.search(r"0\.250 +0\.500 +a +- +0 +12 +30 +4 +1 +2 +57$", text, re.M)
        assert "sweep.unit.lost" in text
        # The cascade-stage and slowest-obligation sections are gone.
        assert "stage.sat" not in text
        assert "o0" not in text
