"""Run profiling: turn a JSONL trace into a per-stage hotspot report.

The report answers the questions the paper's Tables 1–2 are really about
— *where does verification time go?* — from a trace alone:

* per-phase time breakdown (build / preprocess / encode / simulate /
  partition / sweep / refine / outputs), summed over every circuit-pair
  check in the trace;
* cascade-stage breakdown: how often (and for how long) obligations were
  decided by simulation, bounded BDD, or bounded SAT;
* the top-N slowest proof obligations, by output name;
* solver-effort histograms (conflicts / propagations / decisions per
  call) from the metrics snapshots embedded in the trace;
* sweep units: how many ran and the seconds spent inside them;
* fault-tolerance incidents (lost sweep units, budget exhaustion).

Used by ``repro profile run.jsonl`` and by the golden-trace tests.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.trace import read_events

__all__ = ["profile_events", "render_profile", "phase_breakdown"]


def _spans(events: Iterable[Mapping[str, Any]], cat: str) -> List[Mapping[str, Any]]:
    return [
        e for e in events if e.get("type") == "span" and e.get("cat") == cat
    ]


def phase_breakdown(
    events: Sequence[Mapping[str, Any]]
) -> Dict[str, Tuple[int, float]]:
    """Per-phase ``{name: (count, total_seconds)}`` over the whole trace."""
    breakdown: Dict[str, Tuple[int, float]] = {}
    for span in _spans(events, "phase"):
        name = str(span.get("name", ""))
        count, total = breakdown.get(name, (0, 0.0))
        breakdown[name] = (count + 1, total + float(span.get("dur", 0.0)))
    return breakdown


def profile_events(
    events: Sequence[Mapping[str, Any]], top: int = 10
) -> Dict[str, Any]:
    """Structured profile of a trace (the data behind :func:`render_profile`)."""
    pair_spans = _spans(events, "pair")
    obligation_spans = _spans(events, "obligation")
    stage_spans = _spans(events, "stage")
    unit_spans = _spans(events, "worker")

    stages: Dict[str, Tuple[int, float]] = {}
    for span in stage_spans:
        name = str(span.get("name", ""))
        count, total = stages.get(name, (0, 0.0))
        stages[name] = (count + 1, total + float(span.get("dur", 0.0)))

    slowest = sorted(
        obligation_spans, key=lambda s: float(s.get("dur", 0.0)), reverse=True
    )[: max(0, top)]

    # The last metrics snapshot wins: snapshots are cumulative.
    metrics_args: Dict[str, Any] = {}
    for event in events:
        if event.get("type") == "metrics":
            metrics_args.update(event.get("args") or {})

    incidents = [
        e
        for e in events
        if e.get("type") == "instant"
        and str(e.get("name", "")).startswith(("sweep.unit.", "budget."))
    ]

    return {
        "n_pairs": len(pair_spans),
        "pair_seconds": sum(float(s.get("dur", 0.0)) for s in pair_spans),
        "phases": phase_breakdown(events),
        "stages": stages,
        "slowest_obligations": [
            {
                "output": (s.get("args") or {}).get("output", "?"),
                "seconds": float(s.get("dur", 0.0)),
                "decided_by": (s.get("args") or {}).get("decided_by"),
                "verdict": (s.get("args") or {}).get("verdict"),
            }
            for s in slowest
        ],
        "n_sweep_units": len(unit_spans),
        "unit_seconds": sum(float(s.get("dur", 0.0)) for s in unit_spans),
        "metrics": metrics_args,
        "incidents": [
            {
                "name": e.get("name"),
                "ts": e.get("ts"),
                "args": e.get("args") or {},
            }
            for e in incidents
        ],
    }


def _histogram_lines(metrics: Mapping[str, Any], stem: str) -> List[str]:
    """Render the summary keys of one flattened histogram, if present."""
    count = metrics.get(f"{stem}.count")
    if not count:
        return []
    mean = metrics.get(f"{stem}.mean", 0.0)
    peak = metrics.get(f"{stem}.max", 0.0)
    total = metrics.get(f"{stem}.sum", 0.0)
    return [
        f"  {stem.split('.')[-1]:<22} calls {int(count):>7}  "
        f"mean {mean:>10.1f}  max {peak:>10.0f}  total {total:>12.0f}"
    ]


def render_profile(
    source: Union[str, os.PathLike, Sequence[Mapping[str, Any]]],
    top: int = 10,
) -> str:
    """Human-readable hotspot report for a JSONL trace (path or events)."""
    events = read_events(source)
    prof = profile_events(events, top=top)
    lines: List[str] = []
    lines.append(
        f"trace: {len(events)} events, {prof['n_pairs']} circuit-pair "
        f"check(s), {prof['pair_seconds']:.3f}s total check time"
    )

    phases = prof["phases"]
    if phases:
        lines.append("")
        lines.append("per-phase time breakdown:")
        total = sum(seconds for _, seconds in phases.values())
        for name, (count, seconds) in sorted(
            phases.items(), key=lambda kv: kv[1][1], reverse=True
        ):
            pct = 100.0 * seconds / total if total else 0.0
            lines.append(
                f"  {name:<24} {seconds:>9.3f}s  {pct:>5.1f}%  (x{count})"
            )
        lines.append(f"  {'total':<24} {total:>9.3f}s")

    stages = prof["stages"]
    if stages:
        lines.append("")
        lines.append("cascade stages (budget-governed obligations):")
        for name, (count, seconds) in sorted(
            stages.items(), key=lambda kv: kv[1][1], reverse=True
        ):
            lines.append(f"  {name:<24} {seconds:>9.3f}s  (x{count})")

    slowest = prof["slowest_obligations"]
    if slowest:
        lines.append("")
        lines.append(f"top {len(slowest)} slowest obligations:")
        for entry in slowest:
            decided = entry["decided_by"] or "-"
            verdict = entry["verdict"] or "-"
            lines.append(
                f"  {entry['seconds']:>9.3f}s  {str(entry['output']):<28} "
                f"decided by {decided:<10} verdict {verdict}"
            )

    metrics = prof["metrics"]
    effort = []
    for stem in (
        "sat.conflicts_per_call",
        "sat.propagations_per_call",
        "sat.decisions_per_call",
    ):
        effort.extend(_histogram_lines(metrics, stem))
    if effort:
        lines.append("")
        lines.append("solver effort per call:")
        lines.extend(effort)

    if prof["n_sweep_units"]:
        lines.append("")
        lines.append(
            f"sweep: {prof['n_sweep_units']} unit(s), "
            f"{prof['unit_seconds']:.3f}s in units"
        )

    if prof["incidents"]:
        lines.append("")
        lines.append("incidents:")
        for incident in prof["incidents"]:
            args = " ".join(
                f"{k}={v}" for k, v in sorted(incident["args"].items())
            )
            lines.append(
                f"  t={float(incident['ts'] or 0.0):.3f}s "
                f"{incident['name']} {args}".rstrip()
            )
    return "\n".join(lines)
