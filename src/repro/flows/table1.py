"""Table 1 harness: sequential optimisation and verification results.

Regenerates the paper's Table 1 on the stand-in benchmark suite: per
circuit, the latch counts of A/F/C/E, the normalised areas (D = 1.00), the
mapped delays (column S), the percentage of latches exposed in B, and the
H-vs-J combinational verification time.

The harness is fault-tolerant: a row whose flow raises is recorded as an
ERROR row (``--on-error skip``, the default) instead of killing the run,
a per-row ``--time-limit`` turns runaway verifications into TIMEOUT rows,
every finished row is checkpointed immediately (``--checkpoint``), and an
interrupted run picks up where it left off with ``--resume``.

Run as a module for the full table::

    python -m repro.flows.table1 [--quick | --circuits NAME ...] [--unate]
                                 [--time-limit S] [--checkpoint FILE --resume]

``repro table1`` takes exactly the same options (:func:`add_arguments`).
"""

from __future__ import annotations

import argparse
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Union

from repro.bench.iscas_like import TABLE1_CIRCUITS, build_table1_circuit
from repro.cec.cache import ProofCache
from repro.cec.options import CecOptions
from repro.flows.checkpoint import Checkpoint
from repro.flows.flow import FlowResult, run_flow
from repro.flows.report import render_table, summarize_engine_stats
from repro.obs.console import Console
from repro.obs.trace import coerce_tracer
from repro.runtime.budget import REASON_TIMEOUT, Budget

__all__ = ["table1_row", "run_table1", "add_arguments", "run_args", "QUICK_SET"]

# Small-to-medium circuits that regenerate in seconds each.
QUICK_SET = [
    "minmax10",
    "minmax12",
    "s1196",
    "s1238",
    "s400",
    "s444",
    "s641",
    "s713",
    "s953",
    "s967",
]


def table1_row(
    name: str,
    use_unateness: bool = False,
    effort: str = "medium",
    options: Optional[CecOptions] = None,
    *,
    n_jobs: int = 1,
    budget: Union[None, int, float, Budget] = None,
    tracer=None,
    metrics=None,
) -> FlowResult:
    """Run the flow for one Table 1 circuit (arguments as :func:`run_flow`)."""
    return run_flow(
        build_table1_circuit(name),
        use_unateness=use_unateness,
        effort=effort,
        options=options,
        n_jobs=n_jobs,
        budget=budget,
        tracer=tracer,
        metrics=metrics,
    )


def _row_budget(
    time_limit: Optional[float], bdd_node_limit: Optional[int]
) -> Optional[Budget]:
    """A fresh per-row budget (deadlines are single-use, so never shared)."""
    if time_limit is None and bdd_node_limit is None:
        return None
    return Budget(wall_seconds=time_limit, bdd_nodes=bdd_node_limit)


def run_table1(
    names: Optional[Sequence[str]] = None,
    use_unateness: bool = False,
    effort: str = "medium",
    options: Optional[CecOptions] = None,
    *,
    n_jobs: int = 1,
    time_limit: Optional[float] = None,
    bdd_node_limit: Optional[int] = None,
    on_error: str = "skip",
    checkpoint=None,
    resume: bool = False,
    console: Optional[Console] = None,
    tracer=None,
    metrics=None,
) -> List[FlowResult]:
    """Run the Table 1 harness and print the table.

    ``options`` (a :class:`repro.cec.CecOptions`) and ``n_jobs`` reach
    every row's verification step.  A proof cache in ``options.cache``
    (path or :class:`repro.cec.ProofCache`) is opened once, shared by
    every row and flushed at the end, so a second run of the harness
    replays the proven merges instead of re-solving them.

    ``time_limit`` / ``bdd_node_limit`` build a fresh per-row
    :class:`~repro.runtime.Budget` for the verification step; a row whose
    budget runs dry is recorded with status ``"timeout"``.  ``on_error``
    selects the containment policy for a row whose flow raises:
    ``"skip"`` records an ERROR row and moves on, ``"abort"`` re-raises
    after flushing the checkpoint.  ``checkpoint`` (path or
    :class:`~repro.flows.checkpoint.Checkpoint`) records every finished
    row immediately; with ``resume=True`` already-recorded rows are
    replayed instead of recomputed.

    Output goes through a :class:`repro.obs.console.Console` — pass one
    to control ``--quiet`` / ``--verbose``; without one the harness is
    silent.  ``tracer`` / ``metrics`` thread the observability sinks
    through every row's flow.
    """
    if on_error not in ("skip", "abort"):
        raise ValueError(f"on_error must be 'skip' or 'abort', got {on_error!r}")
    if console is None:
        console = Console.null()
    # One live proof cache for every row: opened once, flushed at the end.
    options = options if options is not None else CecOptions()
    cache = ProofCache.coerce(options.cache)
    options = replace(options, cache=cache)
    tracer = coerce_tracer(tracer)
    if names is None:
        names = [entry[0] for entry in TABLE1_CIRCUITS]
    store: Optional[Checkpoint] = None
    recorded: Dict[str, dict] = {}
    if checkpoint is not None:
        config = {
            "harness": "table1",
            "unate": bool(use_unateness),
            "effort": effort,
        }
        store = (
            checkpoint
            if isinstance(checkpoint, Checkpoint)
            else Checkpoint(checkpoint, config)
        )
        if resume:
            recorded = store.load()
    results: List[FlowResult] = []
    run_span = tracer.span("flow.table1", cat="flow", rows=len(names))
    for name in names:
        if name in recorded:
            result = FlowResult.from_dict(recorded[name])
            console.info(f"  {name}: resumed from checkpoint")
            tracer.instant("flow.row.resumed", circuit=name)
            results.append(result)
            continue
        t0 = time.perf_counter()
        try:
            result = table1_row(
                name,
                use_unateness,
                effort,
                options,
                n_jobs=n_jobs,
                budget=_row_budget(time_limit, bdd_node_limit),
                tracer=tracer,
                metrics=metrics,
            )
            if result.verify_reason == REASON_TIMEOUT:
                result.status = "timeout"
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            if on_error == "abort":
                if cache is not None:
                    cache.save()
                run_span.close()
                raise
            result = FlowResult(name, status="error", error=repr(exc))
            result.notes = "row failed; "
            tracer.instant("flow.row.error", circuit=name, error=repr(exc))
        elapsed = time.perf_counter() - t0
        if result.status == "error":
            console.info(
                f"  {name}: ERROR after {elapsed:.1f}s ({result.error})"
            )
        else:
            verdict = (
                result.verify_verdict.value if result.verify_verdict else "-"
            )
            console.info(
                f"  {name}: flow {elapsed:.1f}s verify "
                f"{result.verify_seconds:.2f}s {verdict}"
            )
        results.append(result)
        if store is not None:
            store.record(name, result.to_dict())
    run_span.close()
    if cache is not None:
        cache.save()
    console.result(format_table1(results))
    console.result(summarize_engine_stats(r.verify_stats for r in results))
    return results


def _verdict_cell(result: FlowResult) -> str:
    if result.status == "error":
        return "ERROR"
    if result.status == "timeout":
        return "TIMEOUT"
    return result.verify_verdict.value if result.verify_verdict else "-"


def format_table1(results: Sequence[FlowResult]) -> str:
    """Render collected flow results as the Table 1 text."""
    headers = [
        "Circuit",
        "A:#L",
        "F:#L",
        "F:Area",
        "F:S",
        "%exp",
        "C:#L",
        "C:Area",
        "C:S",
        "D:Area",
        "D:S",
        "G:#L",
        "G:Area",
        "E:#L",
        "E:Area",
        "E:S",
        "Verify(s)",
        "Verdict",
    ]
    rows = []
    for r in results:
        rows.append(
            [
                r.name,
                r.latches_a,
                r.latches.get("F"),
                r.normalised_area("F"),
                r.delay.get("F"),
                round(r.pct_exposed),
                r.latches.get("C"),
                r.normalised_area("C"),
                r.delay.get("C"),
                1.00 if "D" in r.area else None,
                r.delay.get("D"),
                r.latches.get("G"),
                r.normalised_area("G"),
                r.latches.get("E"),
                r.normalised_area("E"),
                r.delay.get("E"),
                round(r.verify_seconds, 3),
                _verdict_cell(r),
            ]
        )
    return render_table(headers, rows, title="Table 1 — optimisation & verification")


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the Table 1 harness's options to ``parser``.

    Both entry points — ``python -m repro.flows.table1`` and
    ``repro table1`` — build their parser with this function and run it
    with :func:`run_args`, so the two can never accept different flags.
    """
    parser.add_argument(
        "--quick", action="store_true", help="run only the fast subset"
    )
    parser.add_argument(
        "--unate",
        action="store_true",
        help="remodel positive-unate feedback latches instead of exposing them",
    )
    parser.add_argument("--circuits", nargs="*", help="explicit circuit names")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the CEC sweep (default 1: serial)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        help="persistent CEC proof-cache file shared across rows and runs",
    )
    parser.add_argument(
        "--no-refine",
        action="store_true",
        help="disable counterexample-guided refinement in the CEC sweep",
    )
    parser.add_argument(
        "--no-preprocess",
        action="store_true",
        help="disable pre-sweep AIG rewriting of the CEC miter",
    )
    parser.add_argument(
        "--no-share-learned",
        action="store_true",
        help="disable learned-clause and assumption-core pooling "
        "across sweep workers",
    )
    parser.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="S",
        help="per-row wall-clock budget for verification (seconds); "
        "exhaustion records a TIMEOUT row instead of hanging",
    )
    parser.add_argument(
        "--bdd-node-limit",
        type=int,
        default=None,
        metavar="N",
        help="live-node cap for the engine's bounded BDD attempts",
    )
    parser.add_argument(
        "--on-error",
        choices=("skip", "abort"),
        default="skip",
        help="a row whose flow raises: record an ERROR row and continue "
        "(skip, default) or stop the run (abort)",
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help="record every finished row into FILE (JSON, written atomically)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay rows already recorded in --checkpoint instead of "
        "recomputing them",
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
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's aggregated metrics registry as JSON",
    )


def run_args(args: argparse.Namespace) -> int:
    """Run the harness for arguments parsed by :func:`add_arguments`."""
    console = Console(quiet=args.quiet, verbose=args.verbose)
    if args.resume and not args.checkpoint:
        console.error("error: --resume requires --checkpoint")
        raise SystemExit(2)
    if args.circuits:
        names = args.circuits
    elif args.quick:
        names = QUICK_SET
    else:
        names = [entry[0] for entry in TABLE1_CIRCUITS]
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

    tracer = (
        Tracer(path=args.trace, meta={"command": "table1", "rows": len(names)})
        if args.trace
        else None
    )
    registry = MetricsRegistry() if args.metrics_out else None
    options = CecOptions(
        cache=args.cache,
        refine=not args.no_refine,
        preprocess=not args.no_preprocess,
        share_learned=not args.no_share_learned,
    )
    try:
        run_table1(
            names,
            use_unateness=args.unate,
            options=options,
            n_jobs=args.jobs,
            time_limit=args.time_limit,
            bdd_node_limit=args.bdd_node_limit,
            on_error=args.on_error,
            checkpoint=args.checkpoint,
            resume=args.resume,
            console=console,
            tracer=tracer,
            metrics=registry,
        )
    finally:
        if tracer is not None:
            tracer.close()
        if registry is not None:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(registry.to_json(indent=2))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``python -m repro.flows.table1`` entry point."""
    parser = argparse.ArgumentParser(description=__doc__)
    add_arguments(parser)
    return run_args(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
