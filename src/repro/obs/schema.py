"""The trace-event schema and its validator.

:data:`TRACE_EVENT_SCHEMA` is a JSON-Schema (draft-07 subset) document
describing every event a :class:`repro.obs.trace.Tracer` may emit; it is
both documentation (rendered in ``docs/OBSERVABILITY.md``) and the
contract the golden-trace tests and the CI trace-validation job enforce.

The validator is hand-rolled against exactly the subset of JSON Schema
the document uses (``type``, ``enum``, ``required``, ``properties``,
``minimum``, ``oneOf`` dispatched on ``type``), so trace validation works
in environments without the ``jsonschema`` package — CI, workers, user
machines alike.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Tuple

__all__ = ["TRACE_EVENT_SCHEMA", "validate_event", "validate_events"]

#: Categories a span/instant may carry — the hierarchy levels of the
#: trace (flow → pair → obligation → stage) plus supporting kinds.
EVENT_CATEGORIES = (
    "flow",        # a whole harness/verify run, or one flow row
    "pair",        # one circuit-pair equivalence check (cec.check)
    "phase",       # an engine phase (build/simulate/partition/sweep/outputs)
    "obligation",  # one output-pair proof obligation
    "stage",       # one cascade stage attempt (sim/bdd/sat)
    "worker",      # sweep-unit spans (one per work unit)
    "solver",      # solver-level events
    "event",       # generic instants (lost units, budget exhaustion, ...)
)

TRACE_EVENT_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro trace event",
    "type": "object",
    "required": ["type", "name", "ts"],
    "properties": {
        "type": {"enum": ["meta", "span", "instant", "metrics"]},
        "name": {"type": "string"},
        "ts": {"type": "number", "minimum": 0},
        "cat": {"enum": list(EVENT_CATEGORIES)},
        "dur": {"type": "number", "minimum": 0},
        "id": {"type": "integer", "minimum": 1},
        "parent": {"type": ["integer", "null"]},
        "schema": {"type": "integer", "minimum": 1},
        "args": {"type": "object"},
        # Provenance stamps: which process emitted the event.  Optional
        # so pre-stamp traces still validate; adopted remote-worker
        # events keep their origin's values.
        "host": {"type": "string"},
        "pid": {"type": "integer", "minimum": 0},
    },
    "oneOf": [
        {
            "description": "meta: schema version announcement",
            "properties": {"type": {"enum": ["meta"]}},
            "required": ["schema"],
        },
        {
            "description": "span: a closed interval with hierarchy",
            "properties": {"type": {"enum": ["span"]}},
            "required": ["cat", "dur", "id", "args"],
        },
        {
            "description": "instant: a point event",
            "properties": {"type": {"enum": ["instant"]}},
            "required": ["cat", "args"],
        },
        {
            "description": "metrics: a flattened registry snapshot",
            "properties": {"type": {"enum": ["metrics"]}},
            "required": ["args"],
        },
    ],
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "null": lambda v: v is None,
}


def _check_type(value: Any, expected: Any) -> bool:
    names = expected if isinstance(expected, list) else [expected]
    return any(_TYPE_CHECKS[name](value) for name in names)


def _validate_against(
    event: Mapping[str, Any], schema: Mapping[str, Any], where: str
) -> List[str]:
    errors: List[str] = []
    for key in schema.get("required", ()):
        if key not in event:
            errors.append(f"{where}: missing required field {key!r}")
    for key, rule in schema.get("properties", {}).items():
        if key not in event:
            continue
        value = event[key]
        if "enum" in rule and value not in rule["enum"]:
            errors.append(
                f"{where}: field {key!r} value {value!r} not in {rule['enum']}"
            )
        if "type" in rule and not _check_type(value, rule["type"]):
            errors.append(
                f"{where}: field {key!r} has type "
                f"{type(value).__name__}, expected {rule['type']}"
            )
        if (
            "minimum" in rule
            and isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value < rule["minimum"]
        ):
            errors.append(
                f"{where}: field {key!r} value {value} below minimum "
                f"{rule['minimum']}"
            )
    return errors


def validate_event(event: Any, index: int = 0) -> List[str]:
    """Validate one event against :data:`TRACE_EVENT_SCHEMA`.

    Returns a list of human-readable violations (empty = valid).
    """
    where = f"event[{index}]"
    if not isinstance(event, dict):
        return [f"{where}: not a JSON object"]
    errors = _validate_against(event, TRACE_EVENT_SCHEMA, where)
    kind = event.get("type")
    if kind in ("meta", "span", "instant", "metrics"):
        for branch in TRACE_EVENT_SCHEMA["oneOf"]:
            if kind in branch["properties"]["type"]["enum"]:
                errors.extend(_validate_against(event, branch, where))
    return errors


def validate_events(events: Iterable[Any]) -> List[str]:
    """Validate a whole trace; also checks cross-event invariants.

    Beyond per-event shape: the first event must be the ``meta`` schema
    announcement, span/instant parents must reference a previously-seen
    span id, and span ids must be unique.
    """
    events = list(events)
    errors: List[str] = []
    seen_ids: set = set()
    first = True
    for index, event in enumerate(events):
        errors.extend(validate_event(event, index))
        if not isinstance(event, dict):
            first = False
            continue
        if first:
            if event.get("type") != "meta":
                errors.append("event[0]: trace must start with a meta event")
            first = False
        parent = event.get("parent")
        if isinstance(parent, int) and parent not in seen_ids:
            # Spans are emitted on close (children before parents), so a
            # parent id may legitimately appear later; only flag ids that
            # never appear at all — collect and check afterwards.
            pass
        span_id = event.get("id")
        if isinstance(span_id, int):
            if span_id in seen_ids:
                errors.append(f"event[{index}]: duplicate span id {span_id}")
            seen_ids.add(span_id)
    # Orphan check: every referenced parent must exist somewhere.
    return errors + _orphan_errors(events, seen_ids)


def _orphan_errors(events: Iterable[Any], seen_ids: set) -> List[str]:
    errors: List[str] = []
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            continue
        parent = event.get("parent")
        if isinstance(parent, int) and parent not in seen_ids:
            errors.append(
                f"event[{index}]: parent {parent} references no span in trace"
            )
    return errors
