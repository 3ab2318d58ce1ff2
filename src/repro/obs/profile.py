"""Run profiling: turn a JSONL trace into a per-stage hotspot report.

The report answers the questions the paper's Tables 1–2 are really about
— *where does verification time go?* — from a trace alone:

* per-phase time breakdown (build / preprocess / encode / simulate /
  partition / sweep / refine / outputs), summed over every circuit-pair
  check in the trace;
* solver-effort histograms (conflicts / propagations / decisions per
  call) from the metrics snapshots embedded in the trace;
* sweep units: how many ran, the seconds spent loading their slices and
  searching, and the top-N slowest units with their cone size, clauses,
  queries, core retirements, conflicts and propagations;
* fault-tolerance incidents (lost sweep units, budget exhaustion).

Used by ``repro profile run.jsonl`` and by the golden-trace tests.
"""

from __future__ import annotations

import os
import warnings
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.trace import read_events

__all__ = ["profile_events", "render_profile", "phase_breakdown"]

#: :func:`profile_events` keys whose report sections are gone.  They keep
#: their values until 1.7.0, and reading one warns.
_DEPRECATED_KEYS = ("stages", "slowest_obligations")

#: The ``sweep.unit`` span args listed per unit, in report order.
_UNIT_ARGS = (
    "cone_vars",
    "clauses",
    "sat_queries",
    "core_retired",
    "conflicts",
    "propagations",
    "load_s",
    "search_s",
)


class _Profile(dict):
    """A plain dict, except that reading a deprecated key warns."""

    @staticmethod
    def _check(key: str) -> None:
        if key in _DEPRECATED_KEYS:
            warnings.warn(
                f"profile_events()[{key!r}] is deprecated and goes in 1.7.0;"
                " the report lists sweep units instead (read 'units')",
                DeprecationWarning,
                stacklevel=3,
            )

    def __getitem__(self, key: str) -> Any:
        self._check(key)
        return dict.__getitem__(self, key)

    def get(self, key: str, default: Any = None) -> Any:
        self._check(key)
        return dict.get(self, key, default)


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


def _unit_row(
    spans_by_id: Mapping[Any, Mapping[str, Any]], span: Mapping[str, Any]
) -> Dict[str, Any]:
    """One ``sweep.unit`` span as a report row.

    ``check`` is the ``c1`` circuit of the enclosing ``cec.check`` span
    and ``round`` the enclosing ``cec.phase.sweep`` span's round; an arg
    that an older trace lacks is None.
    """
    args = span.get("args") or {}
    sweep = spans_by_id.get(span.get("parent")) or {}
    check = sweep
    while check and check.get("cat") != "pair":
        check = spans_by_id.get(check.get("parent")) or {}
    return {
        "check": str((check.get("args") or {}).get("c1", "?")),
        "round": (sweep.get("args") or {}).get("round"),
        "unit": args.get("unit"),
        "seconds": float(span.get("dur", 0.0)),
        **{arg: args.get(arg) for arg in _UNIT_ARGS},
    }


def profile_events(
    events: Sequence[Mapping[str, Any]], top: int = 10
) -> Dict[str, Any]:
    """Structured profile of a trace (the data behind :func:`render_profile`).

    ``units`` lists the ``top`` slowest sweep units (see
    :func:`_unit_row`); ``unit_load_seconds`` and ``unit_search_seconds``
    sum every unit's ``load_s`` and ``search_s``.  The ``stages`` and
    ``slowest_obligations`` keys are deprecated.
    """
    pair_spans = _spans(events, "pair")
    obligation_spans = _spans(events, "obligation")
    stage_spans = _spans(events, "stage")
    unit_spans = _spans(events, "worker")
    spans_by_id = {e.get("id"): e for e in events if e.get("type") == "span"}

    stages: Dict[str, Tuple[int, float]] = {}
    for span in stage_spans:
        name = str(span.get("name", ""))
        count, total = stages.get(name, (0, 0.0))
        stages[name] = (count + 1, total + float(span.get("dur", 0.0)))

    def slowest(spans: List[Mapping[str, Any]]) -> List[Mapping[str, Any]]:
        return sorted(
            spans, key=lambda s: float(s.get("dur", 0.0)), reverse=True
        )[: max(0, top)]

    def unit_total(arg: str) -> float:
        return sum(float((s.get("args") or {}).get(arg, 0.0)) for s in unit_spans)

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

    return _Profile(
        {
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
                for s in slowest(obligation_spans)
            ],
            "n_sweep_units": len(unit_spans),
            "unit_seconds": sum(float(s.get("dur", 0.0)) for s in unit_spans),
            "unit_load_seconds": unit_total("load_s"),
            "unit_search_seconds": unit_total("search_s"),
            "units": [_unit_row(spans_by_id, s) for s in slowest(unit_spans)],
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
    )


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
        lines.append(
            f"  {prof['unit_load_seconds']:.3f}s loading slices, "
            f"{prof['unit_search_seconds']:.3f}s searching"
        )
        units = prof["units"]
        if units:
            lines.append(f"top {len(units)} slowest sweep units:")
            lines.append(
                f"  {'seconds':>8} {'load_s':>8} {'search_s':>8}  "
                f"{'check':<20} {'round':>5} {'unit':>5} {'vars':>6} "
                f"{'clauses':>7} {'queries':>7} {'retired':>7} "
                f"{'conflicts':>9} {'props':>8}"
            )
            for unit in units:
                cell = {
                    key: "-" if value is None else
                    f"{value:.3f}" if key.endswith("_s") else str(value)
                    for key, value in unit.items()
                }
                lines.append(
                    f"  {unit['seconds']:>8.3f} {cell['load_s']:>8} "
                    f"{cell['search_s']:>8}  {unit['check'][:20]:<20} "
                    f"{cell['round']:>5} {cell['unit']:>5} "
                    f"{cell['cone_vars']:>6} {cell['clauses']:>7} "
                    f"{cell['sat_queries']:>7} {cell['core_retired']:>7} "
                    f"{cell['conflicts']:>9} {cell['propagations']:>8}"
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
