"""JobQueue: priority order, dedup, close and cancel."""

from __future__ import annotations

import pytest

from repro.api import VerifyRequest
from repro.service.jobs import Job, JobState
from repro.service.queue import JobQueue, QueueClosedError


def _job(name: str, priority: int = 0, fingerprint: str = "") -> Job:
    request = VerifyRequest(
        golden=f"{name}_g.blif",
        revised=f"{name}_r.blif",
        name=name,
        priority=priority,
    )
    return Job(request=request, fingerprint=fingerprint or f"fp-{name}")


class TestOrdering:
    def test_higher_priority_first_then_fifo(self):
        queue = JobQueue()
        for job in (
            _job("low-1", priority=0),
            _job("hi", priority=5),
            _job("low-2", priority=0),
            _job("mid", priority=2),
        ):
            queue.submit_nowait(job)
        queue.close()
        order = []
        while True:
            job = queue.get()
            if job is None:
                break
            assert job.state is JobState.RUNNING
            order.append(job.name)
            queue.finish(job, JobState.DONE)
        assert order == ["hi", "mid", "low-1", "low-2"]

    def test_pending_names_in_schedule_order(self):
        queue = JobQueue()
        queue.submit_nowait(_job("b", priority=1))
        queue.submit_nowait(_job("a", priority=9))
        assert queue.pending_names() == ["a", "b"]


class TestDedup:
    def test_same_fingerprint_collapses(self):
        queue = JobQueue()
        primary = _job("one", fingerprint="same")
        dup = _job("two", fingerprint="same")
        assert queue.submit_nowait(primary) is JobState.PENDING
        assert queue.submit_nowait(dup) is JobState.DEDUPED
        assert len(queue) == 1
        assert queue.unfinished == 1
        got = queue.get()
        dups = queue.finish(got, JobState.DONE)
        assert [d.name for d in dups] == ["two"]

    def test_resubmit_after_finish_runs_again(self):
        queue = JobQueue()
        queue.submit_nowait(_job("one", fingerprint="same"))
        job = queue.get()
        queue.finish(job, JobState.DONE)
        # The fingerprint is no longer in flight: a new submission is a
        # fresh job, not a dedup.
        assert (
            queue.submit_nowait(_job("again", fingerprint="same"))
            is JobState.PENDING
        )


class TestShutdown:
    def test_close_rejects_submissions_and_unblocks_get(self):
        queue = JobQueue()
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.submit_nowait(_job("late"))
        assert queue.get() is None

    def test_cancel_pending_returns_jobs_and_duplicates(self):
        queue = JobQueue()
        queue.submit_nowait(_job("a", fingerprint="fa"))
        queue.submit_nowait(_job("b", fingerprint="fb"))
        queue.submit_nowait(_job("b2", fingerprint="fb"))
        cancelled = queue.cancel_pending()
        assert sorted(j.name for j in cancelled) == ["a", "b", "b2"]
        assert all(j.state is JobState.CANCELLED for j in cancelled)
        assert len(queue) == 0
        assert queue.unfinished == 0
