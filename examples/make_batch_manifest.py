"""Generate a batch-verification workload: BLIF pairs + manifest.json.

Builds a directory of circuit pairs exercising every verdict the batch
service can produce, then writes the ``repro batch`` manifest that ties
them together:

* per seed, a pipeline *golden* plus two independently derived revisions
  — min-period retimed, and retimed-then-resynthesised — both
  sequentially equivalent by construction (the paper's Fig. 19 loop);
* one byte-identical pair (dedup/fast-path coverage);
* mutated revisions with an injected fault (a live gate negated) —
  provably **not** equivalent, so the batch exercises counterexample
  extraction and the exit-1 lane.

Usage::

    python examples/make_batch_manifest.py OUTDIR [--seeds N] [--mutants N]
    python -m repro batch OUTDIR/manifest.json --jobs 4 \
        --store OUTDIR/results.jsonl

The default workload is 11 pairs — big enough that lane sharding,
fingerprint dedup and store resume are all observable, small enough to
finish in seconds.  Rerun with ``--resume`` to replay all 11 from the
store.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.mutations import apply_mutation, enumerate_mutations
from repro.bench.pipeline import pipeline_circuit
from repro.netlist.blif import write_blif
from repro.retime.apply import retime_min_period
from repro.synth.script import optimize_sequential_delay


def build_workload(
    out_dir: Path, seeds: int = 4, mutants: int = 2, stages: int = 2, width: int = 3
) -> Path:
    """Write the BLIF files and manifest; returns the manifest path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []

    def emit(circuit, stem: str) -> str:
        path = out_dir / f"{stem}.blif"
        path.write_text(write_blif(circuit))
        return path.name

    for seed in range(1, seeds + 1):
        golden = pipeline_circuit(
            stages=stages, width=width, seed=seed, name=f"g{seed}"
        )
        golden_file = emit(golden, f"golden_{seed}")
        retimed, _, _ = retime_min_period(golden)
        retimed.name = f"ret{seed}"
        rows.append(
            {
                "golden": golden_file,
                "revised": emit(retimed, f"retimed_{seed}"),
                "name": f"retimed-{seed}",
            }
        )
        resynth = optimize_sequential_delay(retimed, "medium", name=f"syn{seed}")
        rows.append(
            {
                "golden": golden_file,
                "revised": emit(resynth, f"resynth_{seed}"),
                "name": f"resynth-{seed}",
                "priority": 1,  # the harder pairs schedule first
            }
        )

    # Identical pair: exercises the structural fast path and dedup-adjacent
    # fingerprinting (same bytes under two file names).
    identical = pipeline_circuit(stages=stages, width=width, seed=1, name="g1")
    rows.append(
        {
            "golden": emit(identical, "identical_a"),
            "revised": emit(identical, "identical_b"),
            "name": "identical",
        }
    )

    # Refutable pairs: inject a fault into a live gate.
    base = pipeline_circuit(stages=stages, width=width, seed=1, name="g1")
    negations = [m for m in enumerate_mutations(base) if m.kind == "negation"]
    for index, mutation in enumerate(negations[: max(0, mutants)]):
        mutated = apply_mutation(base, mutation)
        rows.append(
            {
                "golden": "golden_1.blif",
                "revised": emit(mutated, f"mutant_{index}"),
                "name": f"mutant-{index}",
            }
        )

    manifest = out_dir / "manifest.json"
    manifest.write_text(
        json.dumps({"version": 1, "jobs": rows}, indent=2) + "\n"
    )
    return manifest


def main(argv=None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, help="directory to populate")
    parser.add_argument("--seeds", type=int, default=4)
    parser.add_argument("--mutants", type=int, default=2)
    parser.add_argument("--stages", type=int, default=2)
    parser.add_argument("--width", type=int, default=3)
    args = parser.parse_args(argv)
    manifest = build_workload(
        args.out_dir, args.seeds, args.mutants, args.stages, args.width
    )
    rows = json.loads(manifest.read_text())["jobs"]
    print(f"wrote {manifest} ({len(rows)} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
