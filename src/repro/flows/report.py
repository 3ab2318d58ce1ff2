"""Plain-text table rendering for the experiment harnesses."""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence

__all__ = ["render_table", "summarize_engine_stats", "compact_stats"]

#: Robustness counters that are zero on a healthy unbudgeted run.
#: ``EngineStats.as_dict`` always emits them (stable key set); the render
#: layer drops the zero ones so reports stay readable.
SUPPRESS_WHEN_ZERO = frozenset({"budget_exhausted", "worker_failures"})


def compact_stats(stats: Mapping[str, float]) -> Dict[str, float]:
    """Render-time zero suppression for the canonical stats key set.

    The engine emits every counter on every run (so the schema is stable
    for aggregation and tests); this drops the robustness counters that
    are zero — the display form previous releases printed.  Prefix
    variants (``cec_budget_exhausted``, …) are suppressed the same way.
    """
    out: Dict[str, float] = {}
    for key, value in stats.items():
        base = key.rsplit("cec_", 1)[-1] if "cec_" in key else key
        if base in SUPPRESS_WHEN_ZERO and not value:
            continue
        out[key] = value
    return out


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Fixed-width table, right-aligned numerics."""
    def fmt(cell: object) -> str:
        if cell is None:
            return "-"
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell)

    text_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in text_rows:
        lines.append(
            "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)


def summarize_engine_stats(
    stats_list: Iterable[Mapping[str, float]], prefix: str = "cec_"
) -> str:
    """Aggregate CEC engine tracing fields across a harness run.

    ``stats_list`` is typically the ``verify_stats`` of every flow result;
    ``prefix`` selects the engine's fields inside those dicts (the verify
    layer re-exports them as ``cec_sat_queries``, ``cec_sweep_merges``,
    …).  Returns a one-block summary: total SAT queries, sweep outcomes
    and the accumulated per-phase engine time.
    """
    totals: dict = {}
    phase_totals: dict = {}
    for stats in stats_list:
        for key, value in stats.items():
            if not key.startswith(prefix):
                continue
            name = key[len(prefix):]
            if name.startswith("time_"):
                phase_totals[name[len("time_"):]] = (
                    phase_totals.get(name[len("time_"):], 0.0) + value
                )
            elif isinstance(value, (int, float)):
                totals[name] = totals.get(name, 0.0) + value
    if not totals and not phase_totals:
        return "engine stats: none collected"
    lines = ["CEC engine totals:"]
    queries = int(totals.get("sat_queries", 0))
    merges = int(totals.get("sweep_merges", 0))
    refuted = int(totals.get("sweep_refuted", 0))
    unknown = int(totals.get("sweep_unknown", 0))
    lines.append(
        f"  sat queries {queries}  sweep merges {merges}  "
        f"refuted {refuted}  unknown {unknown}"
    )
    if phase_totals:
        phases = "  ".join(
            f"{name} {seconds:.2f}s"
            for name, seconds in sorted(phase_totals.items())
        )
        lines.append(f"  engine time: {phases}")
    return "\n".join(lines)
