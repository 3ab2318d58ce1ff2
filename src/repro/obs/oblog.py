"""The per-obligation feature log: a plain view of the trace.

Every proof obligation a CEC run decides — an output pair walking the
engine portfolio, or a sweep candidate proved/refuted inside a work
unit — leaves structured evidence in the trace: ``cec.obligation`` spans
and ``cec.obligation.features`` instants.  This module distils those
events into flat :class:`ObligationRecord` rows (cone size,
signature-class width, cascade stage reached, deciding engine, verdict,
seconds, origin host/pid) and reads/writes them as JSONL, so
``repro verify --oblog`` and ``repro batch --oblog`` show which engines
decide which cones, and at what cost, without reading the span tree.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Any, Dict, Iterable, List, Optional, Union

__all__ = [
    "ObligationRecord",
    "extract_obligation_records",
    "write_obligation_log",
    "read_obligation_log",
]

#: How far down the cascade each deciding engine sits.  ``stage`` is the
#: ordinal of the stage that decided the obligation.
CASCADE_STAGES = {
    "structural": 0,
    "cache": 0,
    "sim": 1,
    "bdd": 2,
    "sat": 3,
}


@dataclass
class ObligationRecord:
    """One decided proof obligation, flattened for analysis."""

    #: "cascade" (an output-pair obligation) or "sweep" (a candidate).
    kind: str
    #: Output name (cascade) or "rep~node"-free sweep identity via group.
    output: Optional[str]
    #: AND-node count of the obligation's (combined) logic cone.
    cone: Optional[int]
    #: Signature-class width: sim lanes (cascade) or class size (sweep).
    width: Optional[int]
    #: Cascade stage ordinal that decided it (see CASCADE_STAGES).
    stage: Optional[int]
    #: The deciding engine: cache / sim / bdd / sat.
    engine: Optional[str]
    #: eq / neq / unknown / deferred.
    verdict: Optional[str]
    #: Wall seconds attributed to this obligation.
    seconds: Optional[float]
    #: Origin process (host/pid provenance stamps from the trace).
    host: Optional[str] = None
    pid: Optional[int] = None
    #: Sweep extras: refinement round, work unit, signature group.
    round: Optional[int] = None
    unit: Optional[int] = None
    group: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSONL row form; None fields are dropped for compactness."""
        return {k: v for k, v in asdict(self).items() if v is not None}


def _num(value: Any) -> Optional[float]:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    return None


def _int(value: Any) -> Optional[int]:
    number = _num(value)
    return int(number) if number is not None else None


def extract_obligation_records(
    events: Iterable[Dict[str, Any]],
) -> List[ObligationRecord]:
    """Distil obligation records from a decoded trace event stream.

    ``cec.obligation`` spans become ``kind="cascade"`` rows (seconds =
    the span's own duration); ``cec.obligation.features`` instants
    become ``kind="sweep"`` rows.  Events missing features (e.g. spans
    from traces predating the feature stamps) still yield rows — absent
    fields are simply omitted, so old traces remain minable.
    """
    records: List[ObligationRecord] = []
    for event in events:
        name = event.get("name")
        args = event.get("args") or {}
        if not isinstance(args, dict):
            args = {}
        if event.get("type") == "span" and name == "cec.obligation":
            engine = args.get("decided_by")
            records.append(
                ObligationRecord(
                    kind="cascade",
                    output=args.get("output"),
                    cone=_int(args.get("cone")),
                    width=_int(args.get("width")),
                    stage=CASCADE_STAGES.get(engine),
                    engine=engine,
                    verdict=args.get("verdict"),
                    seconds=_num(event.get("dur")),
                    host=event.get("host"),
                    pid=_int(event.get("pid")),
                )
            )
        elif (
            event.get("type") == "instant"
            and name == "cec.obligation.features"
        ):
            engine = args.get("engine")
            records.append(
                ObligationRecord(
                    kind=str(args.get("kind", "sweep")),
                    output=args.get("output"),
                    cone=_int(args.get("cone")),
                    width=_int(args.get("width")),
                    stage=CASCADE_STAGES.get(engine),
                    engine=engine,
                    verdict=args.get("verdict"),
                    seconds=_num(args.get("seconds")),
                    host=event.get("host"),
                    pid=_int(event.get("pid")),
                    round=_int(args.get("round")),
                    unit=_int(args.get("unit")),
                    group=_int(args.get("group")),
                )
            )
    return records


def write_obligation_log(
    records: Iterable[ObligationRecord],
    path: Union[str, os.PathLike],
) -> int:
    """Write records as JSONL; returns the number written."""
    count = 0
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record.to_dict()) + "\n")
            count += 1
    return count


def read_obligation_log(
    path: Union[str, os.PathLike],
) -> List[ObligationRecord]:
    """Load a JSONL obligation log, skipping unparseable lines."""
    fields = set(ObligationRecord.__dataclass_fields__)
    records: List[ObligationRecord] = []
    with open(os.fspath(path), "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                continue
            if not isinstance(row, dict):
                continue
            records.append(
                ObligationRecord(
                    **{
                        "kind": str(row.get("kind", "cascade")),
                        "output": row.get("output"),
                        "cone": _int(row.get("cone")),
                        "width": _int(row.get("width")),
                        "stage": _int(row.get("stage")),
                        "engine": row.get("engine"),
                        "verdict": row.get("verdict"),
                        "seconds": _num(row.get("seconds")),
                        **{
                            k: row.get(k)
                            for k in ("host", "pid", "round", "unit", "group")
                            if k in fields
                        },
                    }
                )
            )
    return records
