"""The Fig. 19 experiment pipeline.

Circuits, following the paper's lettering (Sec. 8):

=====  =====================================================================
A      the original sequential circuit
B      A with the minimal latch set exposed (feedback constraint satisfied)
C      B after delay synthesis → min-period retiming → resynthesis
D      A after combinational optimisation only (the baseline)
E      B after constrained min-area retiming at D's delay → resynthesis
F      A after retiming+synthesis *without* exposure (optimisation loss probe)
G      A after constrained min-area retiming at D's delay (no exposure)
H, J   combinational circuits of the CBFs of B and C (built inside the
       sequential checker); "H vs J" is the verification step
=====  =====================================================================

Area and delay numbers come from technology mapping onto the paper's
library (INV/NAND2/NOR2, unit delay, fanout ≤ 4); areas are normalised
against D as in Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Optional

from repro.api import VerifyRequest, verify_pair
from repro.cec.options import CecOptions
from repro.core.expose import prepare_circuit
from repro.core.verify import SeqVerdict
from repro.netlist.circuit import Circuit
from repro.obs.trace import coerce_tracer
from repro.retime.apply import retime_min_area, retime_min_period
from repro.synth.depth import circuit_depth
from repro.synth.script import optimize_sequential_delay
from repro.synth.techmap import mapped_stats, tech_map

__all__ = ["FlowResult", "run_flow"]


def _retime_min_period_any(circuit: Circuit, result: "FlowResult") -> Circuit:
    """Classic min-period retiming, the incremental class-aware retimer as
    fallback, or synthesis-only when enables are derived logic (remodelled
    feedback latches cannot move — the same limitation the paper reports
    for its industrial circuits, Sec. 8)."""
    try:
        retimed, _, _ = retime_min_period(circuit)
        return retimed
    except ValueError:
        pass
    try:
        from repro.retime.incremental import incremental_retime_enabled

        retimed, _, _ = incremental_retime_enabled(circuit)
        result.notes += "incremental retimer; "
        return retimed
    except ValueError:
        result.notes += "retiming skipped (derived enables); "
        return circuit


@dataclass
class FlowResult:
    """All metrics of one Table 1 row.

    ``status`` is the row's lifecycle outcome — ``"ok"`` for a row that ran
    to completion (whatever its verdict), ``"error"`` when the flow raised
    and the harness contained it, ``"timeout"`` when a row budget ran dry
    before the flow finished.  ``error`` holds the contained exception's
    repr for error rows.
    """

    name: str
    latches_a: int = 0
    pct_exposed: float = 0.0
    # Per-variant latch counts / normalised areas / mapped delays.
    latches: Dict[str, int] = field(default_factory=dict)
    area: Dict[str, float] = field(default_factory=dict)
    delay: Dict[str, int] = field(default_factory=dict)
    verify_seconds: float = 0.0
    verify_verdict: Optional[SeqVerdict] = None
    verify_reason: Optional[str] = None
    # Verification stats, including the CEC engine's ``cec_``-prefixed
    # tracing fields (phase times, cache hits, worker utilisation).
    verify_stats: Dict[str, float] = field(default_factory=dict)
    notes: str = ""
    status: str = "ok"
    error: Optional[str] = None

    def normalised_area(self, variant: str) -> Optional[float]:
        """Mapped area of a variant divided by D's area."""
        base = self.area.get("D")
        if not base:
            return None
        value = self.area.get(variant)
        if value is None:
            return None
        return value / base

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (checkpoint rows, reports)."""
        return {
            "name": self.name,
            "latches_a": self.latches_a,
            "pct_exposed": self.pct_exposed,
            "latches": dict(self.latches),
            "area": dict(self.area),
            "delay": dict(self.delay),
            "verify_seconds": self.verify_seconds,
            "verify_verdict": (
                self.verify_verdict.value if self.verify_verdict else None
            ),
            "verify_reason": self.verify_reason,
            "verify_stats": dict(self.verify_stats),
            "notes": self.notes,
            "status": self.status,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FlowResult":
        """Inverse of :meth:`to_dict` (checkpoint resume)."""
        verdict = data.get("verify_verdict")
        return cls(
            name=str(data["name"]),
            latches_a=int(data.get("latches_a", 0)),
            pct_exposed=float(data.get("pct_exposed", 0.0)),
            latches={k: int(v) for k, v in dict(data.get("latches") or {}).items()},
            area={k: float(v) for k, v in dict(data.get("area") or {}).items()},
            delay={k: int(v) for k, v in dict(data.get("delay") or {}).items()},
            verify_seconds=float(data.get("verify_seconds", 0.0)),
            verify_verdict=SeqVerdict(verdict) if verdict else None,
            verify_reason=data.get("verify_reason") or None,
            verify_stats=dict(data.get("verify_stats") or {}),
            notes=str(data.get("notes", "")),
            status=str(data.get("status", "ok")),
            error=data.get("error") or None,
        )


def _measure(result: FlowResult, tag: str, circuit: Optional[Circuit]) -> None:
    if circuit is None:
        return
    mapped = tech_map(circuit)
    stats = mapped_stats(mapped)
    result.latches[tag] = circuit.num_latches()
    result.area[tag] = stats.area
    result.delay[tag] = stats.delay


def run_flow(
    circuit: Circuit,
    use_unateness: bool = False,
    effort: str = "medium",
    verify: bool = True,
    build_unexposed_variants: bool = True,
    options: Optional[CecOptions] = None,
    *,
    n_jobs: int = 1,
    budget=None,
    tracer=None,
    metrics=None,
) -> FlowResult:
    """Run the full Fig. 19 experiment on one circuit.

    ``use_unateness=False`` matches the paper's Table 1 setup (step 1 of
    Sec. 8: feedback latches were not remodelled as load-enabled because no
    retiming tool handled them); pass True to measure the reduced exposure
    the paper predicts from functional analysis.

    ``options`` (a :class:`repro.cec.CecOptions`) reaches the CEC engine
    inside the verification step unchanged — e.g. a proof cache shared
    across rows (and across runs) skips already-proven merges of
    structurally recurring cones.  ``n_jobs`` sets the sweep's worker
    processes and ``budget`` (a :class:`repro.runtime.Budget` or bare
    seconds) resource-governs the verification step; exhaustion yields an
    UNKNOWN verdict with :attr:`FlowResult.verify_reason` set, never a
    hang.  ``tracer`` / ``metrics`` thread the observability sinks through
    the flow: the row gets a ``flow.row`` span enclosing exposure,
    synthesis, and the verification step's full span tree.
    """
    tracer = coerce_tracer(tracer)
    with tracer.span("flow.row", cat="flow", circuit=circuit.name) as row_span:
        result = FlowResult(circuit.name)
        result.latches_a = circuit.num_latches()

        # Step 1: A -> B (expose the minimal feedback vertex set).  Exposed
        # latches stay physically present in the design (only frozen), so they
        # count towards the latch totals of B-derived circuits, as in Table 1.
        with tracer.span("flow.phase.expose", cat="phase"):
            prep = prepare_circuit(circuit, use_unateness=use_unateness)
        b_circuit = prep.circuit
        n_exposed = len(prep.exposed)
        result.pct_exposed = (
            100.0 * n_exposed / result.latches_a if result.latches_a else 0.0
        )
        result.latches["B"] = b_circuit.num_latches() + n_exposed

        # Step 3 first: D = combinational optimisation of A (baseline delay).
        opt_span = tracer.span("flow.phase.optimize", cat="phase")
        d_circuit = optimize_sequential_delay(circuit, effort, name=circuit.name + "_D")
        _measure(result, "D", d_circuit)
        d_depth = circuit_depth(d_circuit)

        # Step 2: C = synth(B) -> min-period retiming -> resynthesis.  Circuits
        # whose remodelled latches carry derived enables fall back to the
        # class-aware incremental retimer (the capability the paper lacked).
        c_circuit = optimize_sequential_delay(
            b_circuit, effort, name=circuit.name + "_C0"
        )
        c_circuit = _retime_min_period_any(c_circuit, result)
        c_circuit = optimize_sequential_delay(
            c_circuit, effort, name=circuit.name + "_C"
        )
        _measure(result, "C", c_circuit)
        result.latches["C"] = result.latches.get("C", 0) + n_exposed

        # Step 4: E = constrained min-area retiming of synth(B) at D's delay.
        e_base = optimize_sequential_delay(b_circuit, effort, name=circuit.name + "_E0")
        e_period = max(d_depth, 1)
        try:
            e_retimed, _ = retime_min_area(e_base, period=e_period)
        except ValueError:
            e_retimed = None
            result.notes += "E needs class-aware min-area (not available); "
        if e_retimed is None and "class-aware" in result.notes:
            pass
        elif e_retimed is None:
            # Infeasible at D's delay: relax to E0's own min period.
            from repro.retime.rgraph import build_retiming_graph
            from repro.retime.minperiod import min_period_retiming
            from repro.retime.apply import apply_retiming

            graph = build_retiming_graph(e_base)
            feas_period, _ = min_period_retiming(graph)
            e_retimed, _ = retime_min_area(e_base, period=max(feas_period, e_period))
            result.notes += "E relaxed; "
        e_circuit = (
            optimize_sequential_delay(e_retimed, effort, name=circuit.name + "_E")
            if e_retimed is not None
            else None
        )
        _measure(result, "E", e_circuit)
        if "E" in result.latches:
            result.latches["E"] += n_exposed

        # Steps 5-6: F and G on the unmodified A (optimisation-loss probes).
        if build_unexposed_variants:
            try:
                f_circuit = optimize_sequential_delay(
                    circuit, effort, name=circuit.name + "_F0"
                )
                f_circuit, _, _ = retime_min_period(f_circuit)
                f_circuit = optimize_sequential_delay(
                    f_circuit, effort, name=circuit.name + "_F"
                )
                _measure(result, "F", f_circuit)
            except ValueError as exc:
                result.notes += f"F skipped ({exc}); "
            try:
                g_base = optimize_sequential_delay(
                    circuit, effort, name=circuit.name + "_G0"
                )
                g_retimed, _ = retime_min_area(g_base, period=max(d_depth, 1))
                if g_retimed is not None:
                    _measure(result, "G", g_retimed)
                else:
                    result.notes += "G infeasible; "
            except ValueError as exc:
                result.notes += f"G skipped ({exc}); "
        opt_span.close()

        # Steps 7-8: combinational verification of B vs C (H vs J), routed
        # through the stable facade (repro.api) like every other caller.
        if verify:
            cec = options if options is not None else CecOptions()
            report = verify_pair(
                VerifyRequest(
                    golden=b_circuit,
                    revised=c_circuit,
                    name=circuit.name,
                    jobs=n_jobs,
                    **{f.name: getattr(cec, f.name) for f in fields(cec)},
                ),
                budget=budget,
                tracer=tracer,
                metrics=metrics,
            )
            result.verify_seconds = report.elapsed_seconds
            result.verify_verdict = SeqVerdict(report.verdict)
            result.verify_reason = report.reason
            result.verify_stats = dict(report.stats)
            row_span.annotate(
                verdict=report.verdict, verify_seconds=result.verify_seconds
            )
        return result
