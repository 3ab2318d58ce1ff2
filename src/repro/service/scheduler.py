"""The sharded batch scheduler: worker lanes over the job queue.

:class:`BatchRunner` is the service's execution core.  It feeds a
:class:`~repro.service.queue.JobQueue` into ``jobs`` asyncio *lanes*;
each lane ships one job at a time to a :class:`ProcessPoolExecutor`
(or a thread for ``use_processes=False``) and folds the outcome back
into the run's shared state:

* **budget slicing** — a batch-level :class:`~repro.runtime.Budget`
  is divided on dispatch: each job receives an even
  :meth:`~repro.runtime.Budget.slice` of the wall time still remaining,
  clipped by the job's own request limits.  Exhaustion inside a worker
  surfaces as an ``unknown`` verdict with a ``REASON_*`` code, exactly
  as in single-pair runs — never as a crashed job.
* **retry/backoff** — each worker invocation runs under
  :func:`repro.runtime.run_with_retries` (exponential backoff with full
  jitter, seeded per fingerprint); a job that still fails is recorded as
  ``failed`` with an ``unknown``/``worker-failure`` report, never
  dropped.
* **chaos** — the dispatch path is instrumented with
  :mod:`repro.runtime.chaos` sites (``scheduler.dispatch``,
  ``worker.entry``, ``store.append``); under an installed
  :class:`~repro.runtime.chaos.FaultPlan` every one of these seams
  fails on demand, and none of them may lose a job.
* **observability** — workers buffer trace events against the parent's
  epoch and the parent re-parents them with
  :meth:`~repro.obs.Tracer.adopt` under a per-job ``pair`` span; worker
  metrics merge into the run registry.
* **resume / store** — with a :class:`~repro.service.store.ResultStore`,
  every result is appended as it lands, and ``resume=True`` replays
  already-decided fingerprints instead of re-running them.

:meth:`BatchRunner.run` is the one entrypoint, behind both
:func:`repro.api.verify_batch` and ``repro batch``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import random
import time
import traceback
import warnings
from concurrent.futures import Executor, ProcessPoolExecutor
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.api import _INERT_FIELDS, VerifyReport, VerifyRequest, verify_pair
from repro.core.verify import SeqVerdict
from repro.obs.metrics import TIME_BUCKETS, MetricsRegistry
from repro.obs.trace import Tracer, coerce_tracer
from repro.runtime import chaos
from repro.runtime.budget import REASON_WORKER_FAILURE, Budget
from repro.runtime.retry import run_with_retries
from repro.service.jobs import Job, JobResult, JobState
from repro.service.queue import JobQueue
from repro.service.store import ResultStore

__all__ = ["BatchRunner", "execute_request"]

#: Base pause before a worker-internal re-attempt (jittered, exponential).
RETRY_BACKOFF_SECONDS = 0.05

#: Reason recorded on jobs cancelled before (or while) running.
REASON_CANCELLED = "cancelled"


# ----------------------------------------------------------------------
# the worker function (top-level: must pickle across the process pool)
# ----------------------------------------------------------------------
def execute_request(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one job payload; returns a plain-dict outcome.

    The payload is fully serialisable (request row, fingerprint, attempt
    count, optional trace epoch / metrics flag), so this function works
    identically on the process pool and on the in-process thread path.
    Verification itself goes through :func:`repro.api.verify_pair` — the
    service adds no second verification code path.
    """
    chaos.ensure_env_plan()
    request = VerifyRequest.from_dict(payload["request"])
    fingerprint = payload["fingerprint"]
    epoch = payload.get("trace_epoch")
    tracer = Tracer(sink=[], epoch=epoch) if epoch is not None else None
    metrics = MetricsRegistry() if payload.get("collect_metrics") else None
    attempts = max(1, int(payload.get("attempts", 1)))
    deadline = (
        time.monotonic() + request.time_limit
        if request.time_limit is not None
        else None
    )

    def attempt_once() -> VerifyReport:
        # The chaos site sits inside the retried callable: an injected
        # worker crash exercises the same containment a real one would
        # (in-worker retry first, worker-failure degradation after).
        chaos.fire("worker.entry", fingerprint)
        return verify_pair(request, tracer=tracer, metrics=metrics)

    t0 = time.perf_counter()
    report, error, retries = run_with_retries(
        attempt_once,
        attempts=attempts,
        backoff_seconds=RETRY_BACKOFF_SECONDS,
        deadline=deadline,
        exponential=True,
        rng=random.Random(int(fingerprint[:8], 16) if fingerprint else 0),
    )
    elapsed = time.perf_counter() - t0
    if report is None:
        # A crashed worker still yields a canonical report: the batch
        # summary and exit codes never need a second error channel.
        report = VerifyReport(
            verdict=SeqVerdict.UNKNOWN.value,
            method="service",
            reason=REASON_WORKER_FAILURE,
            name=request.name,
            fingerprint=fingerprint,
            elapsed_seconds=elapsed,
            metadata=dict(request.metadata),
        )
    else:
        report.fingerprint = fingerprint
        report.elapsed_seconds = elapsed
    return {
        "report": report.as_dict(),
        "error": (
            "".join(
                traceback.format_exception_only(type(error), error)
            ).strip()
            if error is not None
            else None
        ),
        "attempts": retries + 1,
        "elapsed": elapsed,
        "events": tracer.events if tracer is not None else [],
        "metrics": metrics.to_dict() if metrics is not None else None,
    }


class BatchRunner:
    """Shards verification jobs over asyncio lanes and a worker pool.

    One instance runs one batch; lanes, executor and store live for the
    duration of :meth:`run`.
    """

    def __init__(
        self,
        jobs: int = 1,
        budget: Union[None, int, float, Budget] = None,
        store: Union[None, str, os.PathLike, ResultStore] = None,
        resume: bool = False,
        retries: int = 2,
        use_processes: bool = True,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.lanes = max(1, int(jobs))
        self.budget = Budget.coerce(budget)
        self._store_arg = store
        self.resume = bool(resume)
        self.retries = max(0, int(retries))
        self.use_processes = bool(use_processes)
        self.tracer = coerce_tracer(tracer)
        self.metrics = metrics

    async def run(self, requests: Sequence[VerifyRequest]) -> List[JobResult]:
        """Run every request; returns results aligned to request order.

        Duplicate requests (same fingerprint) are solved once; their
        extra slots come back as status ``deduped`` mirroring the winning
        report.  Resumed fingerprints come back as status ``resumed``.
        """
        queue = JobQueue()
        results: Dict[str, JobResult] = {}
        order: List[tuple] = []
        store = self._open_store()
        flow_span = self.tracer.span(
            "service.batch", cat="flow", jobs=self.lanes, requests=len(requests)
        )
        try:
            for request in requests:
                fingerprint = request.fingerprint()
                order.append((request, fingerprint))
                if fingerprint in results:
                    continue  # duplicate of an already-resumed pair
                if self.resume and store is not None:
                    prior = store.decided(fingerprint)
                    if prior is not None:
                        results[fingerprint] = JobResult(
                            name=request.name,
                            fingerprint=fingerprint,
                            status=JobState.RESUMED.value,
                            report=prior.report,
                            attempts=0,
                        )
                        self._count("service.jobs.resumed")
                        self.tracer.instant(
                            "service.resume-skip",
                            cat="event",
                            job=request.name,
                            fingerprint=fingerprint[:12],
                        )
                        continue
                state = queue.submit_nowait(
                    Job(request=request, fingerprint=fingerprint)
                )
                if state is JobState.DEDUPED:
                    self._count("service.jobs.deduped")
            queue.close()
            await self._drive(queue, store, results)
        finally:
            if store is not None:
                store.close()
            self._emit_run_metrics(flow_span)
            flow_span.close()
        return self._ordered_results(order, results)

    # ------------------------------------------------------------------
    # lanes
    # ------------------------------------------------------------------
    async def _drive(
        self,
        queue: JobQueue,
        store: Optional[ResultStore],
        results: Dict[str, JobResult],
    ) -> None:
        """Run lanes to completion over an already-filled, closed queue."""
        executor = self._make_executor()
        try:
            lanes = [
                asyncio.ensure_future(
                    self._lane(lane, queue, executor, store, results)
                )
                for lane in range(self.lanes)
            ]
            try:
                await asyncio.gather(*lanes)
            except asyncio.CancelledError:
                # Graceful cancel: drop queued work, record it, let the
                # in-flight jobs' lanes unwind, then re-raise.
                for job in queue.cancel_pending():
                    results.setdefault(
                        job.fingerprint, self._cancelled_result(job)
                    )
                    self._count("service.jobs.cancelled")
                for lane_task in lanes:
                    lane_task.cancel()
                await asyncio.gather(*lanes, return_exceptions=True)
                raise
        finally:
            self._shutdown_executor(executor)

    async def _lane(
        self,
        lane: int,
        queue: JobQueue,
        executor: Optional[Executor],
        store: Optional[ResultStore],
        results: Dict[str, JobResult],
    ) -> None:
        loop = asyncio.get_running_loop()
        while True:
            job = queue.get()
            if job is None:
                return
            result = await self._run_job(lane, job, queue, executor, loop)
            # Parked duplicates get their mirrored results in request
            # order from _ordered_results, not here.
            queue.finish(job, JobState(result.status))
            self._record(store, results, result)

    async def _run_job(
        self,
        lane: int,
        job: Job,
        queue: JobQueue,
        executor: Optional[Executor],
        loop: asyncio.AbstractEventLoop,
    ) -> JobResult:
        """Dispatch one job; returns its result, failed or cancelled ones
        included, so every dispatched job is finished exactly once."""
        payload = self._payload_for(job, queue)
        t0 = time.perf_counter()
        try:
            # A dispatch-site fault is charged to the job (delay slows
            # it, crash degrades it to worker-failure) — never the lane.
            await chaos.afire("scheduler.dispatch", job.fingerprint)
            out = await loop.run_in_executor(executor, execute_request, payload)
        except asyncio.CancelledError:
            self._count("service.jobs.cancelled")
            return self._cancelled_result(job, lane=lane)
        except BaseException as exc:  # noqa: BLE001 - pool death is a result
            # The pool itself failed (worker segfault, broken pipe).  The
            # job degrades to a failed/unknown result like any other
            # worker failure; the batch keeps going.
            out = {
                "report": VerifyReport(
                    verdict=SeqVerdict.UNKNOWN.value,
                    method="service",
                    reason=REASON_WORKER_FAILURE,
                    name=job.name,
                    fingerprint=job.fingerprint,
                    elapsed_seconds=time.perf_counter() - t0,
                ).as_dict(),
                "error": f"{type(exc).__name__}: {exc}",
                "attempts": 1,
                "elapsed": time.perf_counter() - t0,
                "events": [],
                "metrics": None,
            }
        report = VerifyReport.from_dict(out["report"])
        failed = out["error"] is not None
        result = JobResult(
            name=job.name,
            fingerprint=job.fingerprint,
            status=(JobState.FAILED if failed else JobState.DONE).value,
            report=report,
            error=out["error"],
            attempts=int(out.get("attempts", 1)),
            lane=lane,
            elapsed_seconds=float(out.get("elapsed", 0.0)),
        )
        self._fold_observability(job, lane, result, out)
        return result

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _payload_for(self, job: Job, queue: JobQueue) -> Dict[str, Any]:
        """The serialisable worker payload: request row + sliced budget.

        Inert deprecated fields stay out of the row: the request already
        warned about them once, and they change nothing in the worker.
        """
        row = {
            key: value
            for key, value in job.request.to_dict().items()
            if key not in _INERT_FIELDS
        }
        if self.budget is not None:
            share = self.budget.slice(max(1, queue.unfinished))
            for key, limit in (
                ("time_limit", share.wall_seconds),
                ("sat_conflicts", share.sat_conflicts),
                ("sat_propagations", share.sat_propagations),
                ("bdd_node_limit", share.bdd_nodes),
            ):
                own = row.get(key)
                if limit is None:
                    continue
                row[key] = limit if own is None else min(float(own), limit)
        return {
            "request": row,
            "fingerprint": job.fingerprint,
            "attempts": self.retries + 1,
            "trace_epoch": self.tracer.epoch if self.tracer.enabled else None,
            "collect_metrics": self.metrics is not None,
        }

    def _fold_observability(
        self, job: Job, lane: int, result: JobResult, out: Dict[str, Any]
    ) -> None:
        if self.tracer.enabled:
            # The span is opened and closed without an intervening await,
            # so concurrent lanes cannot interleave on the span stack.
            span = self.tracer.span(
                f"job.{job.name}",
                cat="pair",
                job=job.name,
                lane=lane,
                fingerprint=job.fingerprint[:12],
            )
            if out.get("events"):
                self.tracer.adopt(out["events"], parent=span, lane=lane)
            span.annotate(
                status=result.status,
                verdict=result.report.verdict if result.report else None,
                attempts=result.attempts,
            )
            # Backdate the span to cover the job's actual execution window.
            span.ts = max(0.0, self.tracer.now() - result.elapsed_seconds)
            span.close()
        if self.metrics is None:
            return
        if out.get("metrics"):
            self.metrics.merge(out["metrics"])
        self.metrics.inc(f"service.jobs.{result.status}")
        self.metrics.observe(
            "service.job.seconds", result.elapsed_seconds, bounds=TIME_BUCKETS
        )

    def _record(
        self,
        store: Optional[ResultStore],
        results: Dict[str, JobResult],
        result: JobResult,
    ) -> None:
        results[result.fingerprint] = result
        if store is not None:
            try:
                store.append(result)
            except Exception as exc:  # noqa: BLE001 - durability degrades,
                # the batch does not: the result stays in memory and is
                # returned; only its store line (hence resumability) is
                # lost.  Full disks and injected store faults land here.
                self._count("service.store.append_failures")
                warnings.warn(
                    f"result store append failed for "
                    f"{result.name or result.fingerprint[:12]}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

    def _cancelled_result(self, job: Job, lane: Optional[int] = None) -> JobResult:
        return JobResult(
            name=job.name,
            fingerprint=job.fingerprint,
            status=JobState.CANCELLED.value,
            report=VerifyReport(
                verdict=SeqVerdict.UNKNOWN.value,
                method="service",
                reason=REASON_CANCELLED,
                name=job.name,
                fingerprint=job.fingerprint,
            ),
            attempts=0,
            lane=lane,
        )

    def _ordered_results(
        self, order: List[tuple], results: Dict[str, JobResult]
    ) -> List[JobResult]:
        """One result per request, in request order; dups mirror the winner."""
        out: List[JobResult] = []
        claimed: set = set()
        for request, fingerprint in order:
            base = results.get(fingerprint)
            if base is None:  # cancelled before recording
                base = self._cancelled_result(
                    Job(request=request, fingerprint=fingerprint)
                )
            if fingerprint not in claimed:
                claimed.add(fingerprint)
                out.append(base)
            else:
                out.append(self._mirror_result(request.name, base))
        return out

    @staticmethod
    def _mirror_result(name: str, base: JobResult) -> JobResult:
        """A ``deduped`` copy of a winning result under the duplicate's name."""
        report = base.report
        if report is not None and report.name != name:
            report = dataclasses.replace(report, name=name)
        return JobResult(
            name=name,
            fingerprint=base.fingerprint,
            status=JobState.DEDUPED.value,
            report=report,
            attempts=0,
            lane=base.lane,
        )

    def _open_store(self) -> Optional[ResultStore]:
        if self._store_arg is None:
            return None
        if isinstance(self._store_arg, ResultStore):
            store = self._store_arg
            if store._handle is None:
                store.open()
        else:
            store = ResultStore(self._store_arg).open()
        if store.corrupt_lines:
            # Skipped-but-counted is the load policy; surfacing it is
            # ours: torn writes are expected after a crash, but a store
            # that is *mostly* corrupt deserves operator eyes.
            if self.metrics is not None:
                self.metrics.set_gauge(
                    "service.store.corrupt_lines", store.corrupt_lines
                )
            warnings.warn(
                f"result store {store.path!r}: skipped "
                f"{store.corrupt_lines} corrupt line(s) on load "
                "(torn writes from a previous crash?)",
                RuntimeWarning,
                stacklevel=2,
            )
        return store

    def _make_executor(self) -> Optional[Executor]:
        # None = the loop's default thread pool (in-process execution);
        # tests and tiny batches skip process startup entirely.
        if not self.use_processes:
            return None
        return ProcessPoolExecutor(max_workers=self.lanes)

    def _shutdown_executor(self, executor: Optional[Executor]) -> None:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)

    def _count(self, name: str, by: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, by)

    def _emit_run_metrics(self, flow_span) -> None:
        if self.metrics is not None and self.tracer.enabled:
            self.tracer.metrics(
                self.metrics.as_flat_dict(), name="service.metrics"
            )
