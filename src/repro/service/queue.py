"""The batch job queue: priorities, dedup, cancel.

One :class:`JobQueue` feeds the scheduler's worker lanes.  It is a
priority queue (higher :attr:`~repro.service.jobs.Job.priority` first,
FIFO within a band) with two behaviours stacked on top:

* **dedup** — submitting a request whose fingerprint is already pending
  or running does not enqueue a second solve; the duplicate is parked on
  the primary job and mirrors its result when it completes;
* **shutdown** — :meth:`close` stops intake, while
  :meth:`cancel_pending` empties the queue immediately and hands the
  un-run jobs back so the caller can record them as cancelled.

The batch runner fills and closes the queue before any lane starts, so
:meth:`get` never waits: it pops the next job, or returns None once the
queue is drained.  Cross-process distribution is the scheduler's job (it
ships work to a process pool), not the queue's.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional

from repro.service.jobs import Job, JobState

__all__ = ["JobQueue", "QueueClosedError"]


class QueueClosedError(RuntimeError):
    """Raised when submitting to a queue that has been closed."""


class JobQueue:
    """Priority job queue with fingerprint dedup."""

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._closed = False
        # fingerprint -> primary job, for every job not yet finished.
        self._active: Dict[str, Job] = {}
        # fingerprint -> duplicate jobs parked on the primary.
        self._duplicates: Dict[str, List[Job]] = {}
        self._unfinished = 0

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def submit_nowait(self, job: Job) -> JobState:
        """Enqueue without waiting; returns PENDING or DEDUPED.

        Raises :class:`QueueClosedError` after :meth:`close`.
        """
        if self._closed:
            raise QueueClosedError("queue is closed to new jobs")
        primary = self._active.get(job.fingerprint)
        if primary is not None:
            job.state = JobState.DEDUPED
            self._duplicates.setdefault(job.fingerprint, []).append(job)
            return JobState.DEDUPED
        job.seq = next(self._seq)
        job.state = JobState.PENDING
        self._active[job.fingerprint] = job
        heapq.heappush(self._heap, (*job.sort_key(), job))
        self._unfinished += 1
        return JobState.PENDING

    def close(self) -> None:
        """Stop intake; :meth:`submit_nowait` raises from now on."""
        self._closed = True

    @property
    def closed(self) -> bool:
        """True once :meth:`close` was called."""
        return self._closed

    # ------------------------------------------------------------------
    # consumption
    # ------------------------------------------------------------------
    def get(self) -> Optional[Job]:
        """Next job by priority (now RUNNING), or None once drained."""
        if not self._heap:
            return None
        _, _, job = heapq.heappop(self._heap)
        job.state = JobState.RUNNING
        return job

    def finish(self, job: Job, state: JobState) -> List[Job]:
        """Mark a job terminal; returns its parked duplicates (now also
        terminal) so the caller can mirror the result onto them."""
        job.state = state
        self._active.pop(job.fingerprint, None)
        dups = self._duplicates.pop(job.fingerprint, [])
        self._unfinished -= 1
        return dups

    def cancel_pending(self) -> List[Job]:
        """Drop every not-yet-running job; returns them (state CANCELLED).

        Running jobs are untouched — cancellation of in-flight work is
        the scheduler's decision (it owns the executor futures).  The
        queue is left open unless already closed; callers typically pair
        this with :meth:`close`.
        """
        cancelled: List[Job] = []
        while self._heap:
            _, _, job = heapq.heappop(self._heap)
            job.state = JobState.CANCELLED
            self._active.pop(job.fingerprint, None)
            cancelled.extend(self._duplicates.pop(job.fingerprint, []))
            cancelled.append(job)
            self._unfinished -= 1
        for job in cancelled:
            job.state = JobState.CANCELLED
        return cancelled

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._heap)

    @property
    def unfinished(self) -> int:
        """Jobs submitted but not yet finished/cancelled (dedup excluded)."""
        return self._unfinished

    def pending_names(self) -> List[str]:
        """Names of queued (not yet running) jobs, in schedule order."""
        return [job.name for _, _, job in sorted(self._heap)]
