"""Jobs, job results, and the batch-manifest format.

The service's unit of work is a :class:`Job`: one
:class:`~repro.api.VerifyRequest` plus queue bookkeeping (a sequence id,
the content-addressed fingerprint, lifecycle state).  Its outcome is a
:class:`JobResult`: the request's :class:`~repro.api.VerifyReport` plus
how the run went (attempts, worker lane, terminal status).  Both
round-trip through stable JSON dicts — the result form is exactly what
:class:`repro.service.store.ResultStore` appends per line.

A *manifest* is the batch input format (``repro batch manifest.json``)::

    {
      "version": 1,
      "defaults": {"use_unateness": true, "time_limit": 60},
      "jobs": [
        {"golden": "golden/s27.blif", "revised": "revised/s27.blif",
         "name": "s27", "priority": 5},
        ...
      ]
    }

A bare JSON list of rows is accepted too.  Rows take any
:meth:`repro.api.VerifyRequest.from_dict` field; ``defaults`` fills the
fields a row leaves out; relative circuit paths resolve against the
manifest file's directory.
"""

from __future__ import annotations

import enum
import json
import os
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.api import EXIT_UNKNOWN, VerifyReport, VerifyRequest

__all__ = [
    "Job",
    "JobResult",
    "JobState",
    "MANIFEST_VERSION",
    "load_manifest",
    "parse_manifest",
]

#: Manifest envelope schema version; unknown versions are rejected loudly
#: (a manifest silently half-understood would verify the wrong workload).
MANIFEST_VERSION = 1


class JobState(enum.Enum):
    """Lifecycle of a job inside the service."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    RESUMED = "resumed"  # replayed from the result store, not re-run
    DEDUPED = "deduped"  # collapsed onto an identical in-flight job


@dataclass
class Job:
    """One queued verification obligation.

    ``seq`` is the submission sequence number — the FIFO tie-breaker
    within a priority band.  ``fingerprint`` is computed once at
    submission (:meth:`repro.api.VerifyRequest.fingerprint`) and is the
    dedup/store key everywhere downstream.
    """

    request: VerifyRequest
    fingerprint: str
    seq: int = 0
    state: JobState = JobState.PENDING

    @property
    def name(self) -> str:
        """The request's display name."""
        return self.request.name

    @property
    def priority(self) -> int:
        """Higher value = scheduled earlier (0 is the default band)."""
        return self.request.priority

    def sort_key(self):
        """Heap key: by descending priority, then submission order."""
        return (-self.priority, self.seq)

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON form (request row + bookkeeping)."""
        return {
            "request": self.request.to_dict(),
            "fingerprint": self.fingerprint,
            "seq": self.seq,
            "state": self.state.value,
        }


@dataclass
class JobResult:
    """Terminal outcome of one job.

    ``status`` is the lifecycle outcome (a :class:`JobState` value
    string: ``done`` / ``failed`` / ``cancelled`` / ``resumed`` /
    ``deduped``); ``report`` is the verification outcome itself.  It is
    kept a plain string, so a store line with a status this version no
    longer produces still loads.  A failed job still carries a report —
    verdict ``unknown`` with the responsible ``REASON_*`` code — so
    batch summaries never need a second error channel, and
    :attr:`exit_code` is always defined and consistent with
    ``repro verify``.
    """

    name: str
    fingerprint: str
    status: str
    report: Optional[VerifyReport] = None
    error: Optional[str] = None
    attempts: int = 1
    lane: Optional[int] = None
    elapsed_seconds: float = 0.0

    @property
    def exit_code(self) -> int:
        """Per-job exit code under the ``repro verify`` contract."""
        if self.report is None:
            return EXIT_UNKNOWN
        return self.report.exit_code

    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON form — one result-store line's payload."""
        return {
            "name": self.name,
            "fingerprint": self.fingerprint,
            "status": self.status,
            "report": self.report.as_dict() if self.report else None,
            "error": self.error,
            "attempts": self.attempts,
            "lane": self.lane,
            "elapsed_seconds": self.elapsed_seconds,
            "exit_code": self.exit_code,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "JobResult":
        """Inverse of :meth:`to_dict` (store loads)."""
        report = data.get("report")
        return cls(
            name=str(data.get("name", "")),
            fingerprint=str(data.get("fingerprint", "")),
            status=str(data.get("status", JobState.DONE.value)),
            report=VerifyReport.from_dict(report) if report else None,
            error=data.get("error"),
            attempts=int(data.get("attempts", 1)),
            lane=data.get("lane"),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        )


def parse_manifest(
    data: Union[Sequence[Any], Mapping[str, Any]],
    base_dir: Union[None, str, os.PathLike] = None,
) -> List[VerifyRequest]:
    """Turn decoded manifest JSON into requests.

    Accepts the versioned envelope or a bare row list.  Malformed
    manifests raise ``ValueError`` with the offending row — batch inputs
    are operator-written, so errors must name their cause, not degrade.
    """
    defaults: Dict[str, Any] = {}
    if isinstance(data, Mapping):
        version = data.get("version")
        if version != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version {version!r} "
                f"(expected {MANIFEST_VERSION})"
            )
        rows = data.get("jobs")
        defaults = dict(data.get("defaults") or {})
        if not isinstance(rows, Sequence) or isinstance(rows, (str, bytes)):
            raise ValueError("manifest 'jobs' must be a list of rows")
    else:
        rows = data
    requests: List[VerifyRequest] = []
    for index, row in enumerate(rows):
        if not isinstance(row, Mapping):
            raise ValueError(f"manifest row {index} is not an object")
        merged = {**defaults, **row}
        try:
            requests.append(VerifyRequest.from_dict(merged, base_dir=base_dir))
        except (ValueError, TypeError) as exc:
            raise ValueError(f"manifest row {index}: {exc}") from exc
    return requests


def load_manifest(path: Union[str, os.PathLike]) -> List[VerifyRequest]:
    """Read a manifest file; relative circuit paths resolve against it."""
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return parse_manifest(data, base_dir=os.path.dirname(os.path.abspath(path)))
