"""End-to-end batch service runs: verdicts, budgets, resume, CLI.

Builds a small workload on disk — equivalent retimed+resynthesised
pairs, an identical pair, a duplicate row, and a mutated (refutable)
revision — then drives it through :func:`repro.api.verify_batch` and
the ``repro batch`` CLI, checking the service-level guarantees: per-job
verdicts and exit codes, budget-slice exhaustion surfacing
``REASON_*`` codes, store resume, schema-valid traces, and a
DeprecationWarning-free first-party path.
"""

from __future__ import annotations

import json
import os
import warnings

import pytest

from repro.api import VerifyRequest, verify_batch
from repro.bench.mutations import apply_mutation, enumerate_mutations
from repro.bench.pipeline import pipeline_circuit
from repro.netlist.blif import write_blif
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_events
from repro.obs.trace import Tracer
from repro.runtime import chaos
from repro.runtime.budget import KNOWN_REASONS
from repro.service.store import ResultStore


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """BLIF files + manifest rows for a small mixed batch."""
    from repro.retime.apply import retime_min_period
    from repro.synth.script import optimize_sequential_delay

    tmp = tmp_path_factory.mktemp("batch")
    rows = []
    for seed in (1, 2):
        golden = pipeline_circuit(stages=2, width=3, seed=seed, name=f"g{seed}")
        revised, _, _ = retime_min_period(golden)
        revised = optimize_sequential_delay(revised, "medium", name=f"r{seed}")
        gp = tmp / f"g{seed}.blif"
        rp = tmp / f"r{seed}.blif"
        gp.write_text(write_blif(golden))
        rp.write_text(write_blif(revised))
        rows.append({"golden": gp.name, "revised": rp.name, "name": f"eq{seed}"})
    # A mutated revision: provably not equivalent (a live gate inverted).
    golden = pipeline_circuit(stages=2, width=3, seed=1, name="g1")
    mutation = next(
        m for m in enumerate_mutations(golden) if m.kind == "negation"
    )
    mutated = apply_mutation(golden, mutation)
    mp = tmp / "mutated.blif"
    mp.write_text(write_blif(mutated))
    rows.append({"golden": "g1.blif", "revised": "mutated.blif", "name": "neq"})
    # A duplicate of eq1 under another name: must dedup, not re-solve.
    rows.append({"golden": "g1.blif", "revised": "r1.blif", "name": "eq1-dup"})
    manifest = tmp / "manifest.json"
    manifest.write_text(json.dumps({"version": 1, "jobs": rows}))
    return {"dir": tmp, "manifest": manifest, "rows": rows}


def _requests(workload):
    from repro.service.jobs import load_manifest

    return load_manifest(workload["manifest"])


class TestVerifyBatch:
    def test_mixed_verdicts_in_request_order(self, workload, tmp_path):
        events = []
        metrics = MetricsRegistry()
        reports = verify_batch(
            _requests(workload),
            jobs=2,
            store=tmp_path / "results.jsonl",
            use_processes=False,
            tracer=Tracer(sink=events),
            metrics=metrics,
        )
        assert [r.name for r in reports] == ["eq1", "eq2", "neq", "eq1-dup"]
        assert [r.exit_code for r in reports] == [0, 0, 1, 0]
        assert reports[2].counterexample is not None
        # The duplicate row mirrors eq1's report without a second solve.
        assert reports[3].fingerprint == reports[0].fingerprint
        assert metrics.counter("service.jobs.deduped") == 1
        assert metrics.counter("service.jobs.done") == 3
        # The trace is schema-valid and carries per-job pair spans.
        assert validate_events(events) == []
        job_spans = [
            e
            for e in events
            if e.get("type") == "span"
            and str(e.get("name", "")).startswith("job.")
        ]
        assert len(job_spans) == 3
        # The store parses back as JSONL, one result line per solved job.
        store = ResultStore(tmp_path / "results.jsonl").open()
        try:
            assert len(store) == 3
        finally:
            store.close()

    def test_chrome_export_draws_one_track_per_lane(self, workload, tmp_path):
        # Two lanes run jobs concurrently; the Chrome export gives each
        # lane its own track, so no two ``job.*`` spans share one while
        # overlapping in time.
        from repro.obs.trace import export_chrome_trace

        events = []
        verify_batch(
            _requests(workload),
            jobs=2,
            use_processes=False,
            tracer=Tracer(sink=events),
        )
        out = tmp_path / "chrome.json"
        export_chrome_trace(events, out)
        tracks = {}
        lanes = set()
        for event in json.loads(out.read_text())["traceEvents"]:
            if event["name"].startswith("job."):
                lanes.add(event["args"]["lane"])
                tracks.setdefault(event["tid"], []).append(event)
        assert lanes == {0, 1}
        assert sorted(tracks) == [1, 2]
        for spans in tracks.values():
            spans.sort(key=lambda e: e["ts"])
            for before, after in zip(spans, spans[1:]):
                assert before["ts"] + before["dur"] <= after["ts"]

    def test_resume_skips_decided_pairs(self, workload, tmp_path):
        store = tmp_path / "resume.jsonl"
        first = MetricsRegistry()
        verify_batch(
            _requests(workload),
            store=store,
            resume=True,
            use_processes=False,
            metrics=first,
        )
        assert first.counter("service.jobs.resumed") == 0
        second = MetricsRegistry()
        reports = verify_batch(
            _requests(workload),
            store=store,
            resume=True,
            use_processes=False,
            metrics=second,
        )
        # Every distinct decided pair replays from the store; nothing runs.
        assert second.counter("service.jobs.resumed") == 3
        assert second.counter("service.jobs.done") == 0
        assert [r.exit_code for r in reports] == [0, 0, 1, 0]

    def test_budget_slices_surface_reason_codes(self, workload):
        reports = verify_batch(
            _requests(workload)[:2],
            budget=0.0,  # nothing can finish: every slice is exhausted
            use_processes=False,
        )
        for report in reports:
            assert report.verdict == "unknown"
            assert report.reason in KNOWN_REASONS
            assert report.exit_code == 2

    def test_process_pool_matches_in_process(self, workload, tmp_path):
        reports = verify_batch(
            _requests(workload),
            jobs=2,
            use_processes=True,
        )
        assert [r.exit_code for r in reports] == [0, 0, 1, 0]

    def test_no_first_party_deprecation_warnings(self, workload):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            reports = verify_batch(
                _requests(workload)[:1], use_processes=False
            )
        assert reports[0].exit_code == 0


class TestBatchCli:
    def test_exit_code_reflects_worst_job(self, workload, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "batch",
                str(workload["manifest"]),
                "--jobs",
                "2",
                "--in-process",
                "--store",
                str(tmp_path / "store.jsonl"),
                "--trace",
                str(tmp_path / "trace.jsonl"),
                "--metrics-out",
                str(tmp_path / "metrics.json"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1  # the mutated pair refutes: 1 dominates
        assert "not_equivalent" in out
        assert "batch summary:" in out
        # Artifacts parse: trace is schema-valid, metrics is valid JSON.
        from repro.obs.trace import read_events

        events = read_events(tmp_path / "trace.jsonl")
        assert events and validate_events(events) == []
        metrics = json.loads((tmp_path / "metrics.json").read_text())
        assert metrics["counters"]["service.jobs.done"] == 3

    def test_all_equivalent_exits_zero(self, workload, tmp_path, capsys):
        from repro.cli import main

        rows = [r for r in workload["rows"] if r["name"].startswith("eq")]
        manifest = tmp_path / "eq-only.json"
        manifest.write_text(
            json.dumps(
                {
                    "version": 1,
                    "jobs": [
                        {
                            **row,
                            "golden": str(workload["dir"] / row["golden"]),
                            "revised": str(workload["dir"] / row["revised"]),
                        }
                        for row in rows
                    ],
                }
            )
        )
        assert main(["batch", str(manifest), "--in-process", "--quiet"]) == 0

    def test_bad_manifest_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"version": 99, "jobs": []}))
        assert main(["batch", str(bad)]) == 2

    def test_resume_without_store_exits_two(self, workload, capsys):
        from repro.cli import main

        rc = main(
            ["batch", str(workload["manifest"]), "--in-process", "--resume"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert "--resume requires --store" in captured.err
        assert "batch summary:" not in captured.out  # no job ran

    @pytest.mark.parametrize("previous", [None, "earlier-plan.json"])
    def test_chaos_plan_disarmed_after_return(
        self, workload, tmp_path, monkeypatch, previous
    ):
        from repro.cli import main

        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "seed": 1,
                    "faults": [
                        {"site": "scheduler.dispatch", "action": "crash"}
                    ],
                }
            )
        )
        if previous is None:
            monkeypatch.delenv(chaos.ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(chaos.ENV_VAR, previous)
        chaos.uninstall()
        try:
            rc = main(
                [
                    "batch",
                    str(workload["manifest"]),
                    "--in-process",
                    "--quiet",
                    "--chaos",
                    str(plan),
                ]
            )
            assert rc == 2  # every dispatch crashed: all jobs unknown
            assert chaos.active() is None
            assert os.environ.get(chaos.ENV_VAR) == previous
        finally:
            chaos.uninstall()
