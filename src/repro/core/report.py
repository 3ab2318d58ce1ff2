"""Human-readable verification reports.

Turns a :class:`~repro.core.verify.SeqCheckResult` plus the two circuits
into a Markdown document: circuit inventories, the feedback preparation
summary, method and timing, the verdict, and (for failures) the minimised
counterexample as a waveform table.  The CLI exposes this via
``repro verify --report out.md``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.core.verify import SeqCheckResult, SeqVerdict
from repro.netlist.circuit import Circuit

__all__ = ["render_report", "write_report"]


def _circuit_section(title: str, circuit: Circuit) -> List[str]:
    stats = circuit.stats()
    classes = circuit.latch_classes()
    class_text = ", ".join(
        f"{'regular' if cls is None else cls}: {len(members)}"
        for cls, members in sorted(classes.items(), key=lambda kv: str(kv[0]))
    )
    return [
        f"### {title}: `{circuit.name}`",
        "",
        f"- inputs: {stats['inputs']}, outputs: {stats['outputs']}",
        f"- gates: {stats['gates']} ({stats['literals']} literals)",
        f"- latches: {stats['latches']}"
        + (f" ({class_text})" if stats["latches"] else ""),
        "",
    ]


_VERDICT_TEXT = {
    SeqVerdict.EQUIVALENT: (
        "**EQUIVALENT** — the circuits are sequentially equivalent; the "
        "proof is combinational (paper Theorems 5.1/5.2)."
    ),
    SeqVerdict.NOT_EQUIVALENT: (
        "**NOT EQUIVALENT** — a concrete distinguishing input sequence was "
        "found and validated by exact-3-valued simulation."
    ),
    SeqVerdict.INCONCLUSIVE: (
        "**INCONCLUSIVE** — the event-driven Boolean functions differ but "
        "no concrete distinguishing trace was found.  This is the method's "
        "documented conservatism for load-enabled latches outside the "
        "retiming+resynthesis class (paper Sec. 5.2, Figs. 10-11)."
    ),
    SeqVerdict.UNKNOWN: (
        "**UNKNOWN** — a resource limit stopped the combinational check."
    ),
}


def render_report(
    result: SeqCheckResult,
    golden: Circuit,
    revised: Circuit,
) -> str:
    """Render a Markdown verification report.

    Accepts any result shape that satisfies the
    :class:`repro.api.VerificationResult` protocol: ``result.verdict``
    may be the :class:`SeqVerdict` enum or its canonical string form
    (as on :class:`repro.api.VerifyReport`).
    """
    verdict = result.verdict
    if not isinstance(verdict, SeqVerdict):
        verdict = SeqVerdict(str(verdict))
    lines: List[str] = [
        "# Sequential equivalence report",
        "",
        _VERDICT_TEXT[verdict],
        "",
        f"- method: `{result.method or 'n/a'}`"
        + (" (CBF — exact)" if result.method == "cbf" else "")
        + (
            " (EDBF — exact for retiming+resynthesis pairs)"
            if result.method == "edbf"
            else ""
        ),
        f"- total time: {result.stats.get('total_time', 0.0):.3f}s",
        "",
        "## Circuits",
        "",
    ]
    lines += _circuit_section("Golden", golden)
    lines += _circuit_section("Revised", revised)

    prep_lines: List[str] = []
    if result.stats.get("exposed"):
        prep_lines.append(
            f"- latches exposed to break feedback: {int(result.stats['exposed'])}"
        )
    if result.stats.get("remodelled"):
        prep_lines.append(
            f"- positive-unate latches remodelled as load-enabled: "
            f"{int(result.stats['remodelled'])}"
        )
    if prep_lines:
        lines += ["## Feedback preparation (paper Secs. 6-7)", ""]
        lines += prep_lines + [""]

    lines += ["## Reduction statistics", ""]
    interesting = [
        ("depth1", "sequential depth (golden)"),
        ("depth2", "sequential depth (revised)"),
        ("events", "distinct events"),
        # The gates of the combinational circuits H and J (Fig. 18); the
        # check lowers the DAGs straight into the miter AIG instead.
        ("comb_gates1", "lowered gates, golden (H)"),
        ("comb_gates2", "lowered gates, revised (J)"),
        ("cec_aig_nodes", "shared-AIG nodes"),
        ("cec_sweep_merges", "internal equivalences proven"),
        ("cec_time", "CEC time (s)"),
    ]
    for key, label in interesting:
        if key in result.stats:
            value = result.stats[key]
            rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
            lines.append(f"- {label}: {rendered}")
    lines.append("")

    if result.counterexample:
        lines += ["## Counterexample (minimised)", ""]
        inputs = sorted(result.counterexample[0])
        header = "| cycle | " + " | ".join(inputs) + " |"
        sep = "|---" * (len(inputs) + 1) + "|"
        lines += [header, sep]
        for t, vec in enumerate(result.counterexample):
            row = " | ".join(str(int(vec[name])) for name in inputs)
            lines.append(f"| {t} | {row} |")
        lines.append("")
        if result.failing_output:
            lines.append(
                f"The circuits differ on output `{result.failing_output}` "
                f"at the final cycle."
            )
            lines.append("")
    return "\n".join(lines)


def write_report(
    result: SeqCheckResult,
    golden: Circuit,
    revised: Circuit,
    path: Union[str, Path],
) -> str:
    """Render the report and write it to ``path``."""
    text = render_report(result, golden, revised)
    Path(path).write_text(text)
    return text
