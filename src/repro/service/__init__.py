"""The batch verification service: local, sharded, resumable.

Layers (bottom-up):

* :mod:`repro.service.jobs` — jobs, results, the batch-manifest format;
* :mod:`repro.service.queue` — the asyncio priority queue with
  fingerprint dedup and cancel;
* :mod:`repro.service.store` — the append-only JSONL result store that
  makes batches resumable;
* :mod:`repro.service.scheduler` — :class:`BatchRunner`, which shards
  jobs over worker lanes (a process pool by default) with per-job
  budget slices, a shared proof cache, retry/backoff and full
  trace/metrics observability.

Most callers want :func:`repro.api.verify_batch` (one synchronous call)
or the ``repro batch`` CLI command; both run :meth:`BatchRunner.run`.
"""

from repro.service.jobs import (
    MANIFEST_VERSION,
    Job,
    JobResult,
    JobState,
    load_manifest,
    parse_manifest,
)
from repro.service.queue import JobQueue, QueueClosedError
from repro.service.scheduler import BatchRunner, execute_request
from repro.service.store import STORE_VERSION, ResultStore

__all__ = [
    "BatchRunner",
    "Job",
    "JobQueue",
    "JobResult",
    "JobState",
    "MANIFEST_VERSION",
    "QueueClosedError",
    "ResultStore",
    "STORE_VERSION",
    "execute_request",
    "load_manifest",
    "parse_manifest",
]
