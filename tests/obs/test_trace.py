"""Tracer unit tests: span hierarchy, adoption, readers, Chrome export."""

from __future__ import annotations

import json

from repro.obs.trace import (
    NULL_TRACER,
    Tracer,
    coerce_tracer,
    export_chrome_trace,
    read_events,
)


def span_events(events):
    return [e for e in events if e["type"] == "span"]


class TestSpans:
    def test_meta_first_and_schema_version(self):
        tracer = Tracer(sink=[])
        events = tracer.events
        assert events[0]["type"] == "meta"
        assert events[0]["schema"] >= 1

    def test_nesting_sets_parent_ids(self):
        tracer = Tracer(sink=[])
        with tracer.span("outer", cat="flow") as outer:
            with tracer.span("inner", cat="phase") as inner:
                assert inner.parent == outer.id
        spans = {e["name"]: e for e in span_events(tracer.events)}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        # Spans are emitted on close: inner lands before outer.
        names = [e["name"] for e in span_events(tracer.events)]
        assert names == ["inner", "outer"]

    def test_annotate_and_exception_marking(self):
        tracer = Tracer(sink=[])
        try:
            with tracer.span("work", cat="phase") as span:
                span.annotate(items=3)
                raise ValueError("boom")
        except ValueError:
            pass
        (span,) = span_events(tracer.events)
        assert span["args"] == {"items": 3, "error": "ValueError"}

    def test_close_is_idempotent(self):
        tracer = Tracer(sink=[])
        span = tracer.span("once", cat="phase")
        span.close()
        span.close()
        assert len(span_events(tracer.events)) == 1

    def test_instants_attach_to_current_span(self):
        tracer = Tracer(sink=[])
        with tracer.span("outer", cat="flow") as outer:
            tracer.instant("tick", cat="event", n=1)
        (instant,) = [e for e in tracer.events if e["type"] == "instant"]
        assert instant["parent"] == outer.id
        assert instant["args"] == {"n": 1}

    def test_monotonic_nonnegative_timestamps(self):
        tracer = Tracer(sink=[])
        with tracer.span("a", cat="phase"):
            pass
        for event in tracer.events:
            assert event["ts"] >= 0
            if event["type"] == "span":
                assert event["dur"] >= 0

    def test_close_flags_abandoned_spans(self):
        tracer = Tracer(sink=[])
        tracer.span("leaked", cat="phase")
        tracer.close()
        names = [e["name"] for e in tracer.events]
        assert "trace.span-abandoned" in names


class TestAdopt:
    def test_adopt_rebases_ids_and_reparents(self):
        parent = Tracer(sink=[])
        root = parent.span("cec.check", cat="pair")
        worker = Tracer(sink=[], epoch=parent.epoch)
        with worker.span("sweep.unit", cat="worker"):
            with worker.span("inner", cat="solver"):
                pass
        parent.adopt(worker.events, parent=root, worker=2)
        root.close()
        spans = {e["name"]: e for e in span_events(parent.events)}
        # Worker root hangs off the adopting span; the child follows it.
        assert spans["sweep.unit"]["parent"] == spans["cec.check"]["id"]
        assert spans["inner"]["parent"] == spans["sweep.unit"]["id"]
        # extra_args land on every adopted event.
        assert spans["sweep.unit"]["args"]["worker"] == 2
        assert spans["inner"]["args"]["worker"] == 2
        # Ids were rebased into the parent's space (no collisions).
        ids = [e["id"] for e in span_events(parent.events)]
        assert len(ids) == len(set(ids))

    def test_adopt_drops_worker_meta(self):
        parent = Tracer(sink=[])
        worker = Tracer(sink=[], epoch=parent.epoch)
        parent.adopt(worker.events)
        metas = [e for e in parent.events if e["type"] == "meta"]
        assert len(metas) == 1  # only the parent's own

    def test_null_tracer_is_inert(self):
        assert coerce_tracer(None) is NULL_TRACER
        span = NULL_TRACER.span("x", cat="phase")
        with span:
            span.annotate(a=1)
        NULL_TRACER.instant("x")
        NULL_TRACER.metrics({"a": 1})
        NULL_TRACER.adopt([{"type": "span"}])
        NULL_TRACER.close()
        assert NULL_TRACER.enabled is False


class TestReadersAndExport:
    def test_jsonl_file_round_trip(self, tmp_path):
        path = tmp_path / "run.jsonl"
        tracer = Tracer(path=path, meta={"command": "test"})
        with tracer.span("work", cat="phase"):
            tracer.instant("tick")
        tracer.metrics({"cec.sat_queries": 5})
        tracer.close()
        events = read_events(path)
        assert [e["type"] for e in events] == [
            "meta", "instant", "span", "metrics",
        ]
        assert events[0]["args"] == {"command": "test"}

    def test_read_events_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        path.write_text(
            json.dumps({"type": "meta", "name": "m", "ts": 0, "schema": 1})
            + "\n\n{not json\n"
            + json.dumps({"type": "instant", "name": "i", "ts": 1, "args": {}})
            + "\n"
        )
        events = read_events(path)
        assert [e["name"] for e in events] == ["m", "i"]

    def test_chrome_export_lanes_and_units(self, tmp_path):
        tracer = Tracer(sink=[])
        with tracer.span("sweep.unit", cat="worker", unit=3):
            pass
        tracer.emit(
            {
                "type": "span",
                "name": "job.a",
                "cat": "pair",
                "ts": 0.5,
                "dur": 0.25,
                "id": 99,
                "parent": None,
                "args": {"lane": 1, "worker": 4},
            }
        )
        tracer.metrics({"cec.sat_queries": 7, "note": "text-dropped"})
        out = tmp_path / "chrome.json"
        n = export_chrome_trace(tracer.events, out)
        data = json.loads(out.read_text())
        assert n == len(data["traceEvents"]) == 3
        by_name = {e["name"]: e for e in data["traceEvents"]}
        # Batch lane L on tid L + 1; everything else, sweep units
        # included, on tid 0.  A ``worker`` arg places nothing.
        assert by_name["sweep.unit"]["tid"] == 0
        assert by_name["job.a"]["tid"] == 2
        assert by_name["job.a"]["ph"] == "X"
        assert by_name["job.a"]["dur"] == 0.25 * 1e6
        # Counter events keep only numeric args.
        assert by_name["metrics"]["ph"] == "C"
        assert by_name["metrics"]["args"] == {"cec.sat_queries": 7}
