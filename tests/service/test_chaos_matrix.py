"""The seeded fault matrix: no chaos plan may lose or flip a job.

One mixed ~50-row workload runs fault-free to establish a baseline, then
re-runs under each seeded :class:`FaultPlan` in the matrix — worker
crashes, dispatch delays and crashes, store-append crashes, cache-save
crashes.  The acceptance invariants, checked for every plan:

* **accounted** — every submitted job comes back decided, UNKNOWN with a
  ``REASON_*`` code, or failed-with-error; none vanish;
* **verdict identity** — any job that still reaches a decided verdict
  under faults reaches the *same* verdict as the fault-free baseline
  (faults may cost answers, never change them);
* **store survives** — the result store written under fire loads back
  cleanly and can seed a resume.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.api import VerifyRequest
from repro.runtime import chaos
from repro.runtime.budget import KNOWN_REASONS, REASON_WORKER_FAILURE
from repro.runtime.chaos import FaultPlan, FaultRule
from repro.service.jobs import JobState
from repro.service.scheduler import BatchRunner
from repro.service.store import ResultStore

DECIDED = {"equivalent", "not_equivalent"}

#: Terminal statuses a chaos run may produce (anything else = a lost job).
ACCOUNTED = {
    JobState.DONE.value,
    JobState.FAILED.value,
    JobState.DEDUPED.value,
    JobState.RESUMED.value,
}


@pytest.fixture(scope="module")
def workload(tmp_path_factory):
    """~50 manifest rows over 8 distinct fingerprints (eq and neq)."""
    from repro.bench.mutations import apply_mutation, enumerate_mutations
    from repro.bench.pipeline import pipeline_circuit
    from repro.netlist.blif import write_blif

    tmp = tmp_path_factory.mktemp("matrix")
    pairs = []
    for seed in (1, 2, 3, 4, 5):
        c = pipeline_circuit(stages=2, width=3, seed=seed, name=f"c{seed}")
        path = tmp / f"c{seed}.blif"
        path.write_text(write_blif(c))
        pairs.append((str(path), str(path)))  # identical: equivalent
    for seed in (1, 2, 3):
        c = pipeline_circuit(stages=2, width=3, seed=seed, name=f"c{seed}")
        mutation = next(
            m for m in enumerate_mutations(c) if m.kind == "negation"
        )
        mutant = apply_mutation(c, mutation)
        path = tmp / f"m{seed}.blif"
        path.write_text(write_blif(mutant))
        pairs.append((str(tmp / f"c{seed}.blif"), str(path)))  # refutable
    requests = []
    for index in range(48):
        golden, revised = pairs[index % len(pairs)]
        requests.append(
            VerifyRequest(golden=golden, revised=revised, name=f"row{index}")
        )
    return requests


@pytest.fixture(autouse=True)
def _clean_chaos(monkeypatch):
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.uninstall()
    yield
    chaos.uninstall()


def _run_batch(requests, *, store=None, plan=None, resume=False, **kwargs):
    if plan is not None:
        chaos.install(plan)
    else:
        chaos.uninstall()
    kwargs.setdefault("retries", 2)
    runner = BatchRunner(
        jobs=2,
        use_processes=False,
        store=store,
        resume=resume,
        **kwargs,
    )
    try:
        return asyncio.run(runner.run(requests))
    finally:
        chaos.uninstall()


def _assert_accounted(requests, results):
    assert len(results) == len(requests)
    for request, result in zip(requests, results):
        assert result.name == request.name
        assert result.status in ACCOUNTED, result.status
        assert result.exit_code in (0, 1, 2)
        report = result.report
        assert report is not None
        if report.verdict == "unknown":
            assert report.reason, f"{result.name}: unknown without a reason"
            assert report.reason in KNOWN_REASONS


def _assert_verdict_identity(baseline, results):
    expected = {r.name: r.report.verdict for r in baseline}
    for result in results:
        verdict = result.report.verdict
        if verdict in DECIDED:
            assert verdict == expected[result.name], result.name


@pytest.fixture(scope="module")
def baseline(workload):
    chaos.uninstall()
    runner = BatchRunner(jobs=2, use_processes=False, retries=2)
    results = asyncio.run(runner.run(workload))
    verdicts = {r.report.verdict for r in results}
    assert verdicts == DECIDED  # the workload exercises both outcomes
    return results


class TestFaultMatrix:
    def test_worker_crash_storm(self, workload, baseline):
        plan = FaultPlan(
            [FaultRule(site="worker.entry", action="crash", every=3)],
            seed=11,
        )
        results = _run_batch(workload, plan=plan)
        assert chaos.uninstall() is None  # _run_batch cleans up
        _assert_accounted(workload, results)
        _assert_verdict_identity(baseline, results)
        assert plan.fired("worker.entry") >= 1

    def test_dispatch_delays(self, workload, baseline):
        plan = FaultPlan(
            [
                FaultRule(
                    site="scheduler.dispatch",
                    action="delay",
                    seconds=0.01,
                    every=4,
                )
            ],
            seed=12,
        )
        results = _run_batch(workload, plan=plan)
        _assert_accounted(workload, results)
        _assert_verdict_identity(baseline, results)
        # Pure delays may never cost an answer, only time.
        assert {r.report.verdict for r in results} == DECIDED
        assert plan.fired("scheduler.dispatch") >= 1

    def test_store_append_crashes(self, workload, baseline, tmp_path):
        store_path = tmp_path / "under-fire.jsonl"
        plan = FaultPlan(
            [FaultRule(site="store.append", action="crash", hits=[2, 5, 7])],
            seed=13,
        )
        with pytest.warns(RuntimeWarning, match="store append failed"):
            results = _run_batch(workload, store=str(store_path), plan=plan)
        _assert_accounted(workload, results)
        _assert_verdict_identity(baseline, results)
        # Losing a store line loses durability for that job, never the
        # in-memory answer: every job still reported a decided verdict.
        assert {r.report.verdict for r in results} == DECIDED
        assert plan.fired("store.append") == 3
        # The store written under fire loads back cleanly...
        reloaded = ResultStore(store_path).open()
        assert reloaded.corrupt_lines == 0
        assert len(reloaded) >= 1
        reloaded.close()
        # ...and can seed a resume that fills the dropped lines back in.
        resumed = _run_batch(workload, store=str(store_path), resume=True)
        _assert_accounted(workload, resumed)
        _assert_verdict_identity(baseline, resumed)

    def test_cache_save_crashes(self, workload, baseline, tmp_path):
        plan = FaultPlan(
            [FaultRule(site="cache.save", action="crash", every=2)],
            seed=14,
        )
        results = _run_batch(
            workload, plan=plan, cache=str(tmp_path / "cache.json")
        )
        _assert_accounted(workload, results)
        _assert_verdict_identity(baseline, results)
        # A cache-save failure is post-verdict: no answer may be lost.
        assert {r.report.verdict for r in results} == DECIDED
        assert plan.fired("cache.save") >= 1

    def test_dispatch_crashes_fail_only_their_jobs(self, workload, baseline):
        """A crash while shipping a job fails that job, never the batch.

        The fault fires in the coordinator, outside the worker's retry
        loop, so it lands in the pool-failure branch: the job degrades to
        ``failed`` with an ``unknown``/``worker-failure`` report.
        """
        distinct = workload[:8]  # one row per fingerprint: no dedup
        plan = FaultPlan(
            [FaultRule(site="scheduler.dispatch", action="crash", hits=[2, 5])],
            seed=15,
        )
        results = _run_batch(distinct, plan=plan)
        _assert_accounted(distinct, results)
        assert plan.fired("scheduler.dispatch") == 2
        # Equal priorities dispatch in submission order: hits 2 and 5
        # are rows 1 and 4.
        crashed = {"row1", "row4"}
        expected = {r.name: r.report.verdict for r in baseline}
        for result in results:
            if result.name in crashed:
                assert result.status == JobState.FAILED.value
                assert result.report.verdict == "unknown"
                assert result.report.reason == REASON_WORKER_FAILURE
                assert result.error
            else:
                assert result.status == JobState.DONE.value
                assert result.report.verdict == expected[result.name]
