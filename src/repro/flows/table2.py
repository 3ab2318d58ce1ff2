"""Table 2 harness: latches exposed on industrial-style circuits.

Regenerates the paper's Table 2: for each Fig. 20-style circuit, the total
latch count and the number of latches the feedback analysis exposes —
first with the paper's purely structural analysis, then with the
positive-unateness refinement the paper predicts "would lead to reduced
number of exposed latches".

Run as a module (``repro table2`` takes the same options)::

    python -m repro.flows.table2 [--quick | --circuits NAME ...]
"""

from __future__ import annotations

import argparse
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.bench.industrial import TABLE2_CIRCUITS, build_table2_circuit
from repro.core.expose import choose_latches_to_expose
from repro.flows.report import render_table
from repro.netlist.graph import self_loop_latches
from repro.obs.console import Console
from repro.obs.trace import coerce_tracer

__all__ = ["table2_row", "run_table2", "add_arguments", "run_args", "Table2Row"]


@dataclass
class Table2Row:
    name: str
    latches: int
    exposed_structural: int
    exposed_unate: int
    paper_exposed: int
    seconds: float
    # Row lifecycle: "ok", or "error" when the analysis raised and the
    # harness contained it (``error`` then holds the exception's repr).
    status: str = "ok"
    error: Optional[str] = None


def table2_row(name: str, tracer=None) -> Table2Row:
    """Run the exposure analysis for one Table 2 circuit.

    Each analysis runs in a ``cat="phase"`` span of ``tracer``:
    ``flow.phase.structural`` (the MFVS alone) and ``flow.phase.unate``
    (the positive-unateness test of every self-loop latch through BDDs,
    then the MFVS), annotated with ``self_loops``, the latches analysed,
    and ``remodelled``.
    """
    tracer = coerce_tracer(tracer)
    entry = next(e for e in TABLE2_CIRCUITS if e[0] == name)
    circuit = build_table2_circuit(name)
    # Counted for the trace only, outside the timed analyses.
    self_loops = len(self_loop_latches(circuit)) if tracer.enabled else 0
    t0 = time.perf_counter()
    with tracer.span("flow.phase.structural", cat="phase"):
        # One topological order serves both analyses.
        order = circuit.topo_gates()
        structural, _ = choose_latches_to_expose(
            circuit, use_unateness=False, order=order
        )
    with tracer.span("flow.phase.unate", cat="phase") as span:
        with_unate, remodel = choose_latches_to_expose(
            circuit, use_unateness=True, order=order
        )
        span.annotate(self_loops=self_loops, remodelled=len(remodel))
    elapsed = time.perf_counter() - t0
    return Table2Row(
        name,
        circuit.num_latches(),
        len(structural),
        len(with_unate),
        entry[2],
        elapsed,
    )


def run_table2(
    names: Optional[Sequence[str]] = None,
    on_error: str = "skip",
    console: Optional[Console] = None,
    tracer=None,
) -> List[Table2Row]:
    """Run the Table 2 harness; prints through ``console``.

    ``on_error="skip"`` (default) records a row whose analysis raises as
    an ERROR row and continues; ``"abort"`` re-raises.  Without a
    ``console`` the harness is silent.
    """
    if on_error not in ("skip", "abort"):
        raise ValueError(f"on_error must be 'skip' or 'abort', got {on_error!r}")
    if console is None:
        console = Console.null()
    tracer = coerce_tracer(tracer)
    if names is None:
        names = [entry[0] for entry in TABLE2_CIRCUITS]
    rows = []
    run_span = tracer.span("flow.table2", cat="flow", rows=len(names))
    for name in names:
        try:
            with tracer.span("flow.row", cat="flow", circuit=name):
                row = table2_row(name, tracer)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            if on_error == "abort":
                run_span.close()
                raise
            row = Table2Row(name, 0, 0, 0, 0, 0.0, status="error", error=repr(exc))
            tracer.instant("flow.row.error", circuit=name, error=repr(exc))
        if row.status == "error":
            console.info(f"  {name}: ERROR ({row.error})")
        else:
            console.info(
                f"  {name}: {row.exposed_structural}/{row.latches} "
                f"exposed ({row.seconds:.1f}s)"
            )
        rows.append(row)
    run_span.close()
    console.result(format_table2(rows))
    return rows


def format_table2(rows: Sequence[Table2Row]) -> str:
    """Render collected rows as the Table 2 text."""
    headers = [
        "Example",
        "#Latches",
        "#Exposed",
        "#Exposed(unate)",
        "Paper #Exposed",
        "%",
    ]
    table = []
    for r in rows:
        if r.status == "error":
            table.append([r.name, None, None, None, None, "ERROR"])
            continue
        table.append(
            [
                r.name,
                r.latches,
                r.exposed_structural,
                r.exposed_unate,
                r.paper_exposed,
                round(100 * r.exposed_structural / max(1, r.latches)),
            ]
        )
    return render_table(
        headers, table, title="Table 2 — latches exposed (industrial circuits)"
    )


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the Table 2 harness's options to ``parser``.

    Both entry points — ``python -m repro.flows.table2`` and
    ``repro table2`` — build their parser with this function and run it
    with :func:`run_args`.
    """
    parser.add_argument("--quick", action="store_true", help="small circuits only")
    parser.add_argument("--circuits", nargs="*", help="explicit circuit names")
    parser.add_argument(
        "--on-error",
        choices=("skip", "abort"),
        default="skip",
        help="a row whose analysis raises: record an ERROR row and "
        "continue (skip, default) or stop the run (abort)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress per-row progress lines (the table still prints)",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="extra diagnostics"
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a structured JSONL trace of the run (see repro profile)",
    )


def run_args(args: argparse.Namespace) -> int:
    """Run the harness for arguments parsed by :func:`add_arguments`."""
    if args.circuits:
        names = args.circuits
    elif args.quick:
        names = [e[0] for e in TABLE2_CIRCUITS if e[1] <= 700]
    else:
        names = None
    from repro.obs.trace import Tracer

    console = Console(quiet=args.quiet, verbose=args.verbose)
    tracer = (
        Tracer(path=args.trace, meta={"command": "table2"})
        if args.trace
        else None
    )
    try:
        run_table2(names, on_error=args.on_error, console=console, tracer=tracer)
    finally:
        if tracer is not None:
            tracer.close()
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.flows.table2`` entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    add_arguments(parser)
    return run_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
