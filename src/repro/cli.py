"""Command-line interface.

::

    python -m repro verify  golden.blif revised.blif [--rewrite] [--no-unate]
                            [--no-refine] [--no-preprocess]
                            [--time-limit S] [--bdd-node-limit N]
                            [--engines NAMES]
                            [--trace FILE] [--metrics-out FILE]
                            [--quiet] [--verbose]
    python -m repro retime  circuit.blif -o out.blif [--min-area] [--period N]
    python -m repro synth   circuit.blif -o out.blif [--effort medium]
    python -m repro expose  circuit.blif [--weighted] [--no-unate] [-o out.blif]
    python -m repro stats   circuit.blif
    python -m repro table1  [--quick | --circuits NAME ...] [--unate]
                            [--no-refine] [--no-preprocess] [--time-limit S]
                            [--on-error skip|abort] [--checkpoint FILE --resume]
                            [--trace FILE] [--metrics-out FILE]
    python -m repro table2  [--quick | --circuits NAME ...]
                            [--on-error skip|abort] [--trace FILE]
    python -m repro profile run.jsonl [--top N] [--chrome OUT] [--validate]
    python -m repro batch   manifest.json [--jobs N] [--time-limit S]
                            [--store FILE --resume]
                            [--retries N] [--in-process]
                            [--engines NAMES]
                            [--chaos PLAN.json --chaos-log FILE]
                            [--trace FILE] [--metrics-out FILE]

Exit codes of ``verify`` (and the per-job codes of ``batch``): 0
equivalent, 1 not equivalent (a counterexample is printed), 2 unknown —
undecided, with the reason printed (a resource budget ran dry, a worker
failed, or the conservative EDBF check was inconclusive).  ``batch``
itself exits 1 if any job refuted, else 2 if any job was undecided,
else 0.

Circuits are read and written in BLIF (with the ``.enable`` extension for
load-enabled latches).
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path
from typing import Optional, Sequence

from repro.netlist.blif import parse_blif_file, write_blif
from repro.netlist.validate import validate_circuit
from repro.obs.console import Console

__all__ = ["main"]


def _console(args) -> Console:
    """A console honouring the command's --quiet/--verbose flags."""
    return Console(
        quiet=getattr(args, "quiet", False),
        verbose=getattr(args, "verbose", False),
    )


def _make_tracer(args, meta):
    """The command's tracer: file-backed for --trace, else None."""
    from repro.obs.trace import Tracer

    if args.trace:
        return Tracer(path=args.trace, meta=meta)
    return None


def _cmd_verify(args) -> int:
    from repro.api import VerifyRequest, verify_pair
    from repro.flows.report import compact_stats
    from repro.obs.metrics import MetricsRegistry

    console = _console(args)
    request = VerifyRequest(
        golden=args.golden,
        revised=args.revised,
        use_unateness=not args.no_unate,
        event_rewrite=args.rewrite,
        refine=not args.no_refine,
        preprocess=not args.no_preprocess,
        time_limit=args.time_limit,
        bdd_node_limit=args.bdd_node_limit,
        engines=args.engines,
    )
    tracer = _make_tracer(
        args,
        meta={"command": "verify", "golden": args.golden, "revised": args.revised},
    )
    registry = MetricsRegistry() if args.metrics_out else None
    try:
        report = verify_pair(request, tracer=tracer, metrics=registry)
    finally:
        if tracer is not None:
            tracer.close()
        if registry is not None:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(registry.to_json(indent=2))
    console.result(f"verdict: {report.verdict} (method: {report.method})")
    if report.reason is not None:
        console.result(f"  reason: {report.reason}")
    if report.engine_used:
        breakdown = ", ".join(
            f"{name}={count}"
            for name, count in sorted(report.engine_used.items())
        )
        console.info(f"  engines: {breakdown}")
    shown = (
        dict(report.stats) if args.verbose else compact_stats(report.stats)
    )
    for key in sorted(shown):
        console.info(f"  {key}: {shown[key]}")
    if report.counterexample is not None:
        console.result("counterexample input sequence:")
        for t, vec in enumerate(report.counterexample):
            bits = " ".join(f"{k}={int(v)}" for k, v in sorted(vec.items()))
            console.result(f"  cycle {t}: {bits}")
        if report.failing_output:
            console.result(f"  differing output: {report.failing_output}")
        if args.vcd:
            from repro.sim.vcd import dump_counterexample

            c1, c2 = request.load()
            dump_counterexample(c1, c2, report.counterexample, args.vcd)
            console.info(f"wrote waveform to {args.vcd}")
    if args.report:
        from repro.core.report import write_report

        c1, c2 = request.load()
        write_report(report, c1, c2, args.report)
        console.info(f"wrote report to {args.report}")
    if args.trace:
        console.info(f"wrote trace to {args.trace} (see: repro profile {args.trace})")
    if args.metrics_out:
        console.info(f"wrote metrics to {args.metrics_out}")
    # Exit-code contract (see docs/API.md): 0 equivalent, 1 not
    # equivalent, 2 undecided — including the conservative EDBF
    # INCONCLUSIVE outcome, which is "could not decide", not a refutation.
    return report.exit_code


def _setup_chaos(args, console, registry=None):
    """Install the ``--chaos`` fault plan; returns (ok, plan).

    The plan is exported through ``REPRO_CHAOS`` so process-pool workers
    re-install it on entry even under the ``spawn`` start method;
    :func:`_teardown_chaos` undoes both.
    """
    from repro.runtime import chaos

    path = args.chaos
    if not path:
        return True, None
    try:
        plan = chaos.FaultPlan.load(path)
    except (OSError, ValueError) as exc:
        console.error(f"bad chaos plan {path}: {exc}")
        return False, None
    chaos.install(plan, metrics=registry)
    os.environ[chaos.ENV_VAR] = os.path.abspath(path)
    console.info(
        f"chaos: fault plan {path} armed "
        f"({len(plan.rules)} rule(s), seed {plan.seed})"
    )
    return True, plan


def _teardown_chaos(plan, previous_env: Optional[str]) -> None:
    """Disarm the ``--chaos`` plan and restore the old ``REPRO_CHAOS``."""
    from repro.runtime import chaos

    if plan is None:
        return
    chaos.uninstall()
    if previous_env is None:
        os.environ.pop(chaos.ENV_VAR, None)
    else:
        os.environ[chaos.ENV_VAR] = previous_env


def _write_chaos_log(args, plan, console) -> None:
    """Dump the chaos firing log (the CI trace artifact), if asked to."""
    import json as _json

    out = args.chaos_log
    if not out or plan is None:
        return
    with open(out, "w", encoding="utf-8") as handle:
        _json.dump(
            {"plan": plan.to_dict(), "fired": plan.log},
            handle,
            indent=2,
            sort_keys=True,
        )
    console.info(f"chaos: {len(plan.log)} firing(s) logged to {out}")


def _cmd_batch(args) -> int:
    import asyncio

    from repro.obs.metrics import MetricsRegistry
    from repro.runtime import chaos
    from repro.service import BatchRunner, load_manifest

    console = _console(args)
    if args.resume and not args.store:
        console.error("error: --resume requires --store")
        return 2
    try:
        requests = load_manifest(args.manifest)
    except (OSError, ValueError) as exc:
        console.error(f"bad manifest {args.manifest}: {exc}")
        return 2
    if not requests:
        console.error(f"manifest {args.manifest} has no jobs")
        return 2
    # A CLI portfolio trumps per-row manifest settings (it is a
    # verdict-preserving engine option, not obligation identity).
    if args.engines is not None:
        for request in requests:
            request.engines = [
                part.strip()
                for part in args.engines.split(",")
                if part.strip()
            ]
    tracer = _make_tracer(
        args,
        meta={"command": "batch", "manifest": args.manifest, "jobs": args.jobs},
    )
    registry = MetricsRegistry() if (args.metrics_out or args.chaos) else None
    previous_chaos_env = os.environ.get(chaos.ENV_VAR)
    ok, plan = _setup_chaos(args, console, registry)
    if not ok:
        return 2
    runner = BatchRunner(
        jobs=args.jobs,
        budget=args.time_limit,
        store=args.store,
        resume=args.resume,
        retries=args.retries,
        use_processes=not args.in_process,
        tracer=tracer,
        metrics=registry,
    )
    console.info(
        f"batch: {len(requests)} job(s) on {args.jobs} lane(s)"
        + (f", budget {args.time_limit:g}s" if args.time_limit else "")
    )
    try:
        results = asyncio.run(runner.run(requests))
    finally:
        if tracer is not None:
            tracer.close()
        if registry is not None and args.metrics_out:
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                handle.write(registry.to_json(indent=2))
        _write_chaos_log(args, plan, console)
        _teardown_chaos(plan, previous_chaos_env)
    # Per-job summary: one line per manifest row, every row accounted for.
    counts = {0: 0, 1: 0, 2: 0}
    for result in results:
        counts[result.exit_code] += 1
        line = f"[{result.status:>9}] {result.report.summary()}"
        if result.error and args.verbose:
            line += f" error={result.error}"
        console.result(line)
    console.result(
        f"batch summary: {counts[0]} equivalent, "
        f"{counts[1]} not equivalent, {counts[2]} unknown"
    )
    if args.trace:
        console.info(f"wrote trace to {args.trace} (see: repro profile {args.trace})")
    if args.metrics_out:
        console.info(f"wrote metrics to {args.metrics_out}")
    # The batch exit code mirrors the per-job contract: any refutation
    # dominates (1), else any undecided job (2), else success (0).
    if counts[1]:
        return 1
    if counts[2]:
        return 2
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import render_profile
    from repro.obs.trace import export_chrome_trace, read_events

    console = _console(args)
    events = read_events(args.trace)
    if not events:
        console.error(f"no events in {args.trace}")
        return 1
    if args.validate:
        from repro.obs.schema import validate_events

        errors = validate_events(events)
        if errors:
            console.error(f"{len(errors)} schema violation(s) in {args.trace}:")
            for err in errors[:20]:
                console.error(f"  {err}")
            return 1
        console.info(f"{len(events)} events: schema OK")
    console.result(render_profile(events, top=args.top))
    if args.chrome:
        n = export_chrome_trace(events, args.chrome)
        console.info(
            f"wrote {n} Chrome trace_event(s) to {args.chrome} "
            "(open in chrome://tracing or ui.perfetto.dev)"
        )
    return 0


def _cmd_retime(args) -> int:
    from repro.retime.apply import retime_min_area, retime_min_period

    console = _console(args)
    circuit = parse_blif_file(args.circuit)
    validate_circuit(circuit)
    if args.min_area:
        retimed, period = retime_min_area(circuit, period=args.period)
        if retimed is None:
            console.error(f"infeasible at period {period}")
            return 1
        console.result(f"min-area retiming at period {period}: "
                       f"{circuit.num_latches()} -> {retimed.num_latches()} latches")
    else:
        retimed, old, new = retime_min_period(circuit)
        console.result(f"min-period retiming: period {old} -> {new}, "
                       f"{circuit.num_latches()} -> {retimed.num_latches()} latches")
    validate_circuit(retimed)
    Path(args.output).write_text(write_blif(retimed))
    console.info(f"wrote {args.output}")
    return 0


def _cmd_synth(args) -> int:
    from repro.synth.script import optimize_sequential_delay
    from repro.synth.depth import circuit_depth
    from repro.synth.network import node_literals

    console = _console(args)
    circuit = parse_blif_file(args.circuit)
    validate_circuit(circuit)
    before = (circuit_depth(circuit), node_literals(circuit))
    optimised = optimize_sequential_delay(circuit, effort=args.effort)
    validate_circuit(optimised)
    after = (circuit_depth(optimised), node_literals(optimised))
    console.result(
        f"depth: {before[0]} -> {after[0]}, literals: {before[1]} -> {after[1]}"
    )
    Path(args.output).write_text(write_blif(optimised))
    console.info(f"wrote {args.output}")
    return 0


def _cmd_expose(args) -> int:
    from repro.core.expose import choose_latches_to_expose, prepare_circuit

    console = _console(args)
    circuit = parse_blif_file(args.circuit)
    validate_circuit(circuit)
    strategy = "weighted" if args.weighted else "count"
    exposed, remodel = choose_latches_to_expose(
        circuit, use_unateness=not args.no_unate, strategy=strategy
    )
    total = circuit.num_latches()
    pct = 100 * len(exposed) / total if total else 0
    console.result(f"latches: {total}")
    console.result(f"to expose: {len(exposed)} ({pct:.0f}%): {sorted(exposed)}")
    console.result(
        f"to remodel (positive unate): {len(remodel)}: {sorted(remodel)}"
    )
    if args.output:
        prepared = prepare_circuit(circuit, use_unateness=not args.no_unate)
        Path(args.output).write_text(write_blif(prepared.circuit))
        console.info(f"wrote prepared (acyclic) circuit to {args.output}")
    return 0


def _cmd_stats(args) -> int:
    from repro.synth.depth import circuit_depth
    from repro.synth.techmap import mapped_stats, tech_map

    console = _console(args)
    circuit = parse_blif_file(args.circuit)
    validate_circuit(circuit)
    console.result(str(circuit))
    console.result(f"unit-delay depth: {circuit_depth(circuit)}")
    mapped = tech_map(circuit)
    console.result(
        f"mapped ({{INV, NAND2, NOR2}}, fanout<=4): {mapped_stats(mapped)}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sequential equivalence checking via combinational "
        "verification (Ranjan et al., DATE 1999)",
    )
    # Shared verbosity flags; every subcommand prints through the same
    # Console so --quiet / --verbose mean the same thing everywhere.
    verbosity = argparse.ArgumentParser(add_help=False)
    verbosity.add_argument(
        "--quiet",
        action="store_true",
        help="suppress progress lines (results still print)",
    )
    verbosity.add_argument(
        "--verbose", action="store_true", help="extra diagnostics"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify",
        parents=[verbosity],
        help="check sequential equivalence of two BLIF circuits",
    )
    p.add_argument("golden")
    p.add_argument("revised")
    p.add_argument("--rewrite", action="store_true", help="enable the Eq. 5 event rewrite")
    p.add_argument("--no-unate", action="store_true", help="skip unate feedback remodelling")
    p.add_argument("--vcd", default=None, help="dump a counterexample waveform to this VCD file")
    p.add_argument("--report", default=None, help="write a Markdown verification report")
    p.add_argument(
        "--no-refine",
        action="store_true",
        help="disable counterexample-guided refinement in the CEC sweep",
    )
    p.add_argument(
        "--no-preprocess",
        action="store_true",
        help="disable pre-sweep AIG rewriting of the CEC miter",
    )
    p.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="S",
        help="wall-clock budget in seconds; exhaustion yields verdict "
        "'unknown' (exit code 2) instead of an open-ended run",
    )
    p.add_argument(
        "--bdd-node-limit",
        type=int,
        default=None,
        metavar="N",
        help="live-node cap of a 'bdd' stage named in --engines "
        "(default 100000); bounds nothing otherwise",
    )
    p.add_argument(
        "--engines",
        default=None,
        metavar="NAMES",
        help="comma-separated CEC engine portfolio, walked in order per "
        "output (e.g. 'structural,sim,bdd,sat'); default: structural,sat",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a structured JSONL trace of the run (see: repro profile)",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's metrics registry as JSON",
    )
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser(
        "profile",
        parents=[verbosity],
        help="per-stage hotspot report from a --trace JSONL file",
    )
    p.add_argument("trace", help="JSONL trace written by a --trace run")
    p.add_argument(
        "--top",
        type=int,
        default=10,
        metavar="N",
        help="how many slowest sweep units to list (default 10)",
    )
    p.add_argument(
        "--chrome",
        default=None,
        metavar="OUT",
        help="also export a Chrome trace_event JSON file",
    )
    p.add_argument(
        "--validate",
        action="store_true",
        help="schema-check every event before profiling",
    )
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("retime", parents=[verbosity], help="retime a BLIF circuit")
    p.add_argument("circuit")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--min-area", action="store_true", help="constrained min-area instead of min-period")
    p.add_argument("--period", type=int, default=None, help="target period for --min-area")
    p.set_defaults(func=_cmd_retime)

    p = sub.add_parser(
        "synth", parents=[verbosity], help="run the delay-oriented synthesis script"
    )
    p.add_argument("circuit")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--effort", choices=["low", "medium", "high"], default="medium")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser(
        "expose",
        parents=[verbosity],
        help="feedback analysis: latches to expose/remodel",
    )
    p.add_argument("circuit")
    p.add_argument("-o", "--output", default=None, help="write the prepared acyclic circuit")
    p.add_argument("--weighted", action="store_true", help="penalty-aware selection (Sec. 9)")
    p.add_argument("--no-unate", action="store_true")
    p.set_defaults(func=_cmd_expose)

    p = sub.add_parser(
        "stats",
        parents=[verbosity],
        help="area/delay report after technology mapping",
    )
    p.add_argument("circuit")
    p.set_defaults(func=_cmd_stats)

    # The table harnesses own their flags: `repro tableN` and `python -m
    # repro.flows.tableN` parse and run with the same two functions.
    from repro.flows import table1, table2

    p = sub.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_arguments(p)
    p.set_defaults(func=table1.run_args)

    p = sub.add_parser("table2", help="regenerate the paper's Table 2")
    table2.add_arguments(p)
    p.set_defaults(func=table2.run_args)

    p = sub.add_parser(
        "batch",
        parents=[verbosity],
        help="verify a manifest of circuit pairs on the batch service",
    )
    p.add_argument("manifest", help="JSON manifest of circuit-pair jobs")
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="concurrent worker lanes (default 1)",
    )
    p.add_argument(
        "--time-limit",
        type=float,
        default=None,
        metavar="S",
        help="batch wall-clock budget; each job gets an even slice of "
        "the remaining time (exhaustion = verdict 'unknown')",
    )
    p.add_argument(
        "--store",
        default=None,
        metavar="FILE",
        help="append-only JSONL result store (one line per finished job)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="replay already-decided pairs from --store instead of re-running",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="extra in-worker attempts for a failing job (default 2)",
    )
    p.add_argument(
        "--in-process",
        action="store_true",
        help="run jobs on threads in this process instead of a process pool",
    )
    p.add_argument(
        "--engines",
        default=None,
        metavar="NAMES",
        help="override every job's CEC engine portfolio "
        "(comma-separated adapter names, e.g. 'sim,sat')",
    )
    p.add_argument(
        "--chaos",
        default=None,
        metavar="PLAN",
        help="arm a deterministic fault-injection plan (JSON) for this run",
    )
    p.add_argument(
        "--chaos-log",
        default=None,
        metavar="FILE",
        help="write the chaos firing log (JSON) after the run",
    )
    p.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a structured JSONL trace of the run",
    )
    p.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write the run's aggregated metrics registry as JSON",
    )
    p.set_defaults(func=_cmd_batch)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
