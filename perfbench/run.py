#!/usr/bin/env python3
"""The repository benchmark: Table 1 flow, verify-only, mutants, Table 2.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process, one client, serial CEC sweep (``n_jobs=1``).  After set-up
(built from ``--seed``, repeated and timed as ``setup_s``), the workload's
items run back to back in a closed loop: each starts when the previous one
and a short speed probe finished, in whole passes while the next one fits
in ``--seconds`` (at least one).  ``pass_s`` is the sum over items of each
item's median time relative to the probes around it (see
``PROBE_REFERENCE_S``).  Every output is checked (see ``workloads.py``),
also against ``reference.json``.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` - the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
exit code is 1 when any output is wrong, 2 when the benchmark cannot run.

``--trace 1`` alternates untraced and traced passes.  Traced passes wrap
the program's public calls (``spans.LAYERS``) and report per-layer self
time, counts from ``VerifyReport.stats`` and from a ``MetricsRegistry``
passed to ``verify_pair``, all per pass; ``trace.overhead_s`` is the
traced minus the untraced ``pass_s``.  Spans are written to
``perfbench/out/`` when the run ends, with each run's output records.

``--write-reference`` re-records ``reference.json`` from seed 0;
``--tiny`` runs the smallest item sets (the benchmark's own tests).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
#: Set-up repeats until the repetitions have taken this long, at most this
#: many times: a generation-only set-up (~30 ms) runs 25 times, the verify
#: set-ups (~10 s of synthesis) once.
SETUP_BUDGET_S = 1.5
SETUP_REPEATS = 25

END_TO_END = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: A shared host's speed changes by up to 2 times within a second, for
#: spells that can outlast a run (other tenants on the same cores slow the
#: program without taking its CPU time away).  Each item and each set-up
#: step is therefore timed against :func:`speed_probe` run just before and
#: just after it, and ``pass_s`` and ``setup_s`` report those times in
#: seconds on a host where the probe takes this long: its typical time
#: between items on a 2-core Xeon, where ``pass_s`` then reads close to the
#: fastest pass's wall time.
PROBE_REFERENCE_S = 0.018
_PROBE_KEYS = [(i * 7919 % 65521, i * 104729 % 65537) for i in range(30000)]


def speed_probe() -> float:
    """Seconds for a fixed pure-Python job: tuple-keyed dicts, sets, a sort.

    The collector is paused, so the probe's time does not grow with the
    program's heap.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        table = {}
        for key in _PROBE_KEYS:
            table[key] = (key[1], key[0])
        seen = {table[key] for key in _PROBE_KEYS[::2] if key in table}
        order = sorted(table.values())
        words = sorted(str(n) for n in range(0, 3 * len(seen), 3))
        seconds = time.perf_counter() - t0
        del table, seen, order, words
        return seconds
    finally:
        gc.enable()

#: Span names whose self time is reported as ``<name>.s``; ``bench.item``
#: (one per item call) is the root, its self time is ``unattributed.s``.
SPANS = [
    "flow.row",
    "api.verify",
    "expose",
    "feedback",
    "synth.script",
    "synth.sweep",
    "synth.strash",
    "synth.decomp",
    "synth.tech_decomp",
    "synth.resub",
    "synth.reduce_depth",
    "synth.eliminate",
    "synth.simplify",
    "synth.fx",
    "techmap",
    "retime.min_period",
    "retime.min_area",
    "retime.incremental",
    "lower.cbf",
    "lower.edbf",
    "cec",
    "cex.replay",
    "cex.minimize",
]
CEC_PHASES = ["build", "preprocess", "encode", "simulate", "refine", "sweep", "outputs"]
CEC_COUNTS = ["sat_queries", "sweep_candidates", "sweep_merges", "core_retired", "refine_rounds"]
#: Per-pass sums of ``VerifyReport.stats`` fields (see ``Run._add_stats``).
STAT_METRICS = [
    "lower.comb_gates",
    "lower.events",
    *(f"cec.phase.{phase}.s" for phase in CEC_PHASES),
    *(f"cec.{name}" for name in CEC_COUNTS),
]
SHARES = {
    "share.synth_techmap_retime": [s for s in SPANS if s.startswith(("synth.", "techmap", "retime."))],
    "share.lower_cec": ["lower.cbf", "lower.edbf", "cec"],
    "share.cex": ["cex.replay", "cex.minimize"],
}

PER_LAYER = {
    **{f"{name}.s": "s" for name in SPANS},
    "unattributed.s": "s",
    **{
        name: "count"
        for name in (
            "synth.script.calls",
            "synth.gates_out",
            "techmap.calls",
            "retime.fallbacks",
            "expose.calls",
            "expose.latches_exposed",
            "expose.latches_remodelled",
            "feedback.calls",
            "cex.minimize.calls",
            "lower.comb_gates",
            "lower.events",
        )
    },
    **{f"cec.phase.{phase}.s": "s" for phase in CEC_PHASES},
    **{f"cec.{name}": "count" for name in CEC_COUNTS},
    "cec.merge_ratio": "ratio",
    "cec.s_per_query": "s",
    "sat.calls": "count",
    "sat.conflicts_per_call": "count",
    "sat.decisions_per_call": "count",
    "sat.propagations_per_call": "count",
    **{name: "ratio" for name in SHARES},
    "trace.overhead_s": "s",
}


class Run:
    """One measured loop over a workload's items, with its checks."""

    def __init__(self, workload, reference=None, recorder=None):
        self.workload = workload
        self.reference = reference
        self.recorder = recorder
        self.registry = None
        if recorder is not None:
            from repro.obs.metrics import MetricsRegistry

            self.registry = MetricsRegistry()
        self.pass_seconds = {False: [], True: []}
        #: Untraced seconds per item key, one entry per pass; and, for
        #: untraced and traced passes, seconds divided by the mean of the
        #: speed probes just before and after the item.
        self.item_seconds = {}
        self.item_probes = {False: {}, True: {}}
        self.probe_seconds = []
        self.records = {}
        self.stats = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def measure(self, seconds: float) -> None:
        """Whole passes while the next one fits in ``seconds`` (at least one).

        A traced run alternates untraced and traced passes and makes at
        least one of each.
        """
        from spans import layer_patches, patched

        start = time.perf_counter()
        with patched(self.workload.routes()):
            while True:
                traced = self.recorder is not None and (
                    len(self.pass_seconds[False]) > len(self.pass_seconds[True])
                )
                layers = patched(layer_patches(self.recorder)) if traced else nullcontext()
                with layers:
                    self.pass_seconds[traced].append(self._one_pass(traced))
                if self.recorder is not None and not self.pass_seconds[True]:
                    continue
                elapsed = time.perf_counter() - start
                passes = len(self.pass_seconds[False]) + len(self.pass_seconds[True])
                if elapsed + elapsed / passes > seconds:
                    break

    def _one_pass(self, traced: bool) -> float:
        total = 0.0
        before = speed_probe()
        for key in self.workload.items:
            self.attempted += 1
            span = self.recorder.span("bench.item") if traced else nullcontext()
            gc.collect()  # every item starts from the same collector state
            t0 = time.perf_counter()
            try:
                with span:
                    output = self.workload.run(key, self.registry if traced else None)
            except Exception as exc:
                elapsed = time.perf_counter() - t0
                traceback.print_exc(file=sys.stderr)
                problems = [f"{key}: raised {exc!r}"]
            else:
                elapsed = time.perf_counter() - t0
                problems = self._check(key, output)
                if traced:
                    self._add_stats(self.workload.stats(output))
            total += elapsed
            after = speed_probe()
            self.item_probes[traced].setdefault(key, []).append(2 * elapsed / (before + after))
            before = after
            if not traced:
                self.probe_seconds.append(after)
                self.item_seconds.setdefault(key, []).append(elapsed)
            if problems:
                self.failed += 1
                self.problems.extend(problems)
        return total

    def _check(self, key, output):
        problems = list(self.workload.check(key, output))
        record = json.loads(json.dumps(self.workload.record(key, output)))
        first = self.records.setdefault(key, record)
        if record != first:
            problems.append(f"{key}: output changed between passes")
        if self.reference is not None:
            expected = self.reference.get(key)
            if expected is None:
                problems.append(f"{key}: no seed-{REFERENCE_SEED} reference")
            elif record != expected:
                problems.append(f"{key}: {record} differs from reference {expected}")
        return problems

    def _add_stats(self, stats) -> None:
        if not stats:
            return
        wanted = {
            "lower.comb_gates": stats.get("comb_gates1", 0) + stats.get("comb_gates2", 0),
            "lower.events": stats.get("events", 0),
            **{f"cec.phase.{p}.s": stats.get(f"cec_time_{p}", 0.0) for p in CEC_PHASES},
            **{f"cec.{name}": stats.get(f"cec_{name}", 0) for name in CEC_COUNTS},
        }
        for name, value in wanted.items():
            self.stats[name] = self.stats.get(name, 0) + value

    def digest(self) -> str:
        ordered = [[key, self.records.get(key)] for key in self.workload.items]
        text = json.dumps(ordered, sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def reference_pass(self, traced: bool) -> float:
        """Sum of each item's median probe-relative time, in reference seconds."""
        ratios = self.item_probes[traced].values()
        return PROBE_REFERENCE_S * sum(statistics.median(r) for r in ratios)

    def end_to_end(self, setup_ratios) -> dict:
        """Probe-relative pass and set-up times, and peak memory."""
        return {
            "pass_s": self.reference_pass(traced=False),
            "setup_s": PROBE_REFERENCE_S * statistics.median(setup_ratios),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> dict:
        """Per traced pass: self times, counts, ratios and trace overhead."""
        passes = len(self.pass_seconds[True])
        own = self.recorder.self_times()
        counts = self.recorder.counts
        values = {f"{name}.s": own.get(name, 0.0) / passes for name in SPANS}
        values["unattributed.s"] = own.get("bench.item", 0.0) / passes
        for name in ("synth.script", "techmap", "expose", "feedback", "cex.minimize"):
            values[f"{name}.calls"] = counts.get(f"{name}.calls", 0) / passes
        for name in ("synth.gates_out", "expose.latches_exposed", "expose.latches_remodelled"):
            values[name] = counts.get(name, 0) / passes
        values["retime.fallbacks"] = counts.get("retime.min_period.errors", 0) / passes
        for name in STAT_METRICS:
            values[name] = self.stats.get(name, 0) / passes
        candidates = self.stats.get("cec.sweep_candidates", 0)
        queries = self.stats.get("cec.sat_queries", 0)
        values["cec.merge_ratio"] = self.stats.get("cec.sweep_merges", 0) / candidates if candidates else 0.0
        values["cec.s_per_query"] = own.get("cec", 0.0) / queries if queries else 0.0
        sat_calls = self.registry.counter("sat.calls")
        values["sat.calls"] = sat_calls / passes
        for kind in ("conflicts", "decisions", "propagations"):
            total = self.registry.counter(f"sat.{kind}")
            values[f"sat.{kind}_per_call"] = total / sat_calls if sat_calls else 0.0
        traced_total = sum(self.pass_seconds[True])
        for share, members in SHARES.items():
            values[share] = sum(own.get(m, 0.0) for m in members) / traced_total
        values["trace.overhead_s"] = self.reference_pass(True) - self.reference_pass(False)
        return {name: values[name] for name in PER_LAYER}


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; exit 2 without it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


def _setup(cls, seed: int, tiny: bool):
    """Build the workload's inputs repeatedly; the last build is used.

    Returns the workload, each build's seconds, and each build's sum over
    its steps of the step's seconds relative to the speed probes just
    before and after the step.
    """
    seconds, ratios = [], []
    workload = None
    while not seconds or (len(seconds) < SETUP_REPEATS and sum(seconds) < SETUP_BUDGET_S):
        workload = None  # free the previous build before timing the next
        workload = cls(seed, tiny)
        gc.collect()
        steps = workload.setup_steps()
        total = ratio = 0.0
        before = speed_probe()
        done = False
        while not done:
            t0 = time.perf_counter()
            done = next(steps, StopIteration) is StopIteration
            elapsed = time.perf_counter() - t0
            after = speed_probe()
            total += elapsed
            ratio += 2 * elapsed / (before + after)
            before = after
        seconds.append(total)
        ratios.append(ratio)
    return workload, seconds, ratios


def _print_layers(run: Run) -> None:
    passes = len(run.pass_seconds[True])
    total = sum(run.pass_seconds[True]) / passes
    rows = sorted(
        ((name, seconds / passes) for name, seconds in run.recorder.self_times().items()),
        key=lambda row: -row[1],
    )
    print(f"self time per traced pass ({passes} traced, {total:.3f} s each):")
    for name, seconds in rows:
        label = "unattributed" if name == "bench.item" else name
        calls = run.recorder.counts.get(f"{name}.calls", 0) / passes
        print(f"  {label:<20} {seconds:9.4f} s  {100 * seconds / total:5.1f}%  calls {calls:g}")


def write_reference() -> int:
    """Record every workload's seed-0 outputs into ``reference.json``."""
    from workloads import WORKLOADS

    reference, problems = {}, []
    for name, cls in WORKLOADS.items():
        workload = cls(REFERENCE_SEED)
        workload.setup()
        run = Run(workload)
        run.measure(0.0)
        reference[name] = run.records
        problems.extend(run.problems)
        print(f"{name}: {len(run.records)} records, digest {run.digest()}")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    if problems:
        return 1
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest item sets")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    _import_program()
    if args.write_reference:
        return write_reference()
    from spans import Recorder
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    reference = json.loads(REFERENCE.read_text())[args.workload]
    if args.seed != REFERENCE_SEED and WORKLOADS[args.workload].names_in_records:
        reference = None
    workload, setup_seconds, setup_ratios = _setup(WORKLOADS[args.workload], args.seed, args.tiny)
    run = Run(workload, reference, Recorder() if args.trace else None)
    run.measure(args.seconds)
    if reference is not None and not args.tiny and set(reference) != set(run.records):
        run.problems.append(f"items {sorted(run.records)} != reference {sorted(reference)}")

    tag = f"{args.workload} seed={args.seed}"
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.seed}-trace{args.trace}"
    (OUT_DIR / f"records-{stem}.json").write_text(json.dumps(run.records, indent=1))
    best = {key: min(seconds) for key, seconds in run.item_seconds.items()}
    samples = sum(map(len, run.item_seconds.values()))
    print(
        f"perfbench {tag}: {len(run.pass_seconds[False])} untraced passes of "
        f"{len(workload.items)} items, {len(setup_seconds)} set-ups; not gated: "
        f"fastest pass {sum(best.values()):.4f} s, "
        f"set-up p50 {statistics.median(setup_seconds):.4f} s, "
        f"probe p50 {statistics.median(run.probe_seconds):.4f} s, "
        f"item_s_p50 {statistics.median(best.values()):.4f} s over {len(best)} items "
        f"({samples} samples), failed_ratio {run.failed / run.attempted:.4f}"
    )
    print(f"fastest item seconds {tag}: " + ", ".join(f"{k} {v:.3f}" for k, v in best.items()))
    print(f"digest {tag}: {run.digest()}")
    if args.trace:
        run.recorder.dump(str(OUT_DIR / f"spans-{stem}.json"))
        _print_layers(run)
        values, units = run.per_layer(), PER_LAYER
    else:
        values, units = run.end_to_end(setup_ratios), END_TO_END
    for problem in run.problems:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    correct = not run.problems
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
