"""CEC sweep benchmark: refine × preprocess matrix + sim throughput.

Runs the sweep engine over a corpus of random-circuit pairs (resynthesised
equivalents, mutated near-misses, and unrelated pairs) under deliberately
narrow initial signatures — the regime where counterexample-guided
refinement matters — and writes ``BENCH_cec.json``:

* per-pair and aggregate ``sat_queries`` / ``core_retired`` / refinement
  rounds across the full mode matrix: refinement on/off × preprocessing
  on/off;
* a hard assertion that every configuration returns the same verdict on
  every pair (the acceptance criterion for refinement *and* for the
  pre-sweep AIG rewriting);
* preprocessing effect per pair (AND nodes before/after, nodes removed);
* simulation throughput (node-words per second) of the engine's
  signature hot path, old vs new: the historical per-round scalar loop
  (one 64-bit ``simulate`` call plus a per-node concatenation pass per
  round) against the current single wide ``simulate_words`` call, on
  sweep-scale AIGs, plus the single-lane scalar rate for the
  refinement-corpus regime.

Usage::

    PYTHONPATH=src python benchmarks/bench_cec.py [-o BENCH_cec.json]

The per-mode query totals are deterministic, and
``tests/cec/test_sat_query_gate.py`` holds every mode to the totals of
the checked-in ``BENCH_cec.json``.

Exit code 0 means all verdicts agreed; 1 means a divergence (the JSON is
still written for the post-mortem).
"""

from __future__ import annotations

import argparse
import json
import time
from typing import Dict, List, Tuple

from repro.bench.mutations import sample_mutations
from repro.bench.random_circuits import random_combinational
from repro.cec import SAT_PORTFOLIO, CecOptions
from repro.cec.engine import check_equivalence
from repro.cec.miter import build_miter
from repro.synth.script import script_delay

# One narrow 8-bit simulation round: plenty of spurious signature
# classes, which is exactly what refinement is for.
NARROW = dict(sim_rounds=1, sim_width=8)

#: (mode name, engine options).  The names keep their ``serial`` tag so
#: the keys of ``BENCH_cec.json`` stay stable.  Every mode names
#: ``SAT_PORTFOLIO``: the sweep and its SAT counts are the subject, so
#: the default check's truth-table phase must not decide the narrow
#: pairs before any query.
MODES: List[Tuple[str, CecOptions]] = [
    (name, CecOptions(refine=refine, preprocess=pre, engines=SAT_PORTFOLIO))
    for name, refine, pre in (
        ("refine_serial", True, True),
        ("norefine_serial", False, True),
        ("refine_serial_nopre", True, False),
        ("norefine_serial_nopre", False, False),
    )
]

#: Sizes (AND nodes) of the synthetic deep AIGs the throughput section
#: simulates.  The sweep corpus miters strash down to a few hundred
#: nodes — call-overhead territory — so throughput is measured on
#: sweep-scale subjects built directly.
SIM_SUBJECT_ANDS = (10_000, 30_000)

#: Signature corpus shapes measured: the engine default (4 rounds of 64
#: patterns) and a denser 16-round corpus.
SIM_SIGNATURE_ROUNDS = (4, 16)


def corpus(n_random: int = 4, n_mutants: int = 3) -> List[Tuple[str, object, object]]:
    """(name, golden, revised) pairs: equivalent, mutated, and unrelated."""
    pairs = []
    for seed in range(n_random):
        c1 = random_combinational(n_inputs=9, n_gates=80, seed=seed)
        c2 = c1.copy("resynth")
        script_delay(c2)
        pairs.append((f"resynth_{seed}", c1, c2))
        other = random_combinational(
            n_inputs=9, n_gates=80, seed=seed + 101, name="other"
        )
        pairs.append((f"unrelated_{seed}", c1, other))
    base = random_combinational(n_inputs=9, n_gates=80, seed=77)
    for mutation, mutant in sample_mutations(base, n_mutants, seed=7):
        pairs.append((f"mutant_{mutation.kind}_{mutation.target}", base, mutant))
    return pairs


def _deep_aig(n_pis: int, n_ands: int, seed: int):
    """A deep random AND network built directly on the AIG API.

    Random *circuits* strash down to a few hundred nodes, so the
    throughput subjects are built node by node: each AND samples its
    fanins (randomly complemented) from a sliding window of recent
    literals, which keeps the network deep and irreducible.
    """
    import random as _random

    from repro.aig.aig import AIG

    rng = _random.Random(seed)
    aig = AIG()
    lits = [aig.add_pi(f"i{k}") for k in range(n_pis)]
    while aig.num_ands() < n_ands:
        a, b = rng.sample(lits[-2000:], 2)
        lits.append(
            aig.and_(a ^ (rng.random() < 0.5), b ^ (rng.random() < 0.5))
        )
    return aig


def _old_signatures(aig, rounds: int, width: int, seed: int):
    """Replica of the pre-vectorisation signature hot path.

    One narrow scalar ``simulate`` call per round plus a per-node
    big-int concatenation pass — exactly what ``_initial_signatures``
    did before it packed all rounds into a single wide corpus.
    """
    import random as _random

    from repro.cec.engine import _round_seed

    signatures = [0] * aig.num_nodes()
    mask_total = 0
    for r in range(rounds):
        rng = _random.Random(_round_seed(seed, r))
        mask = (1 << width) - 1
        pi_words = {n: rng.getrandbits(width) for n in aig.pi_names}
        words = aig.simulate(pi_words, mask)
        for node in range(aig.num_nodes()):
            signatures[node] = (signatures[node] << width) | (
                words[node] & mask
            )
        mask_total = (mask_total << width) | mask
    return signatures, mask_total


def sim_throughput(seed: int = 5) -> Dict:
    """Signature hot path old vs new, plus the single-lane scalar rate."""
    import random as _random

    from repro.cec.engine import _initial_signatures

    rows = []
    worst_speedup = None
    for n_ands in SIM_SUBJECT_ANDS:
        aig = _deep_aig(48, n_ands, seed)
        for rounds in SIM_SIGNATURE_ROUNDS:
            t0 = time.perf_counter()
            old = _old_signatures(aig, rounds, 64, seed)
            t_old = time.perf_counter() - t0
            t0 = time.perf_counter()
            new = _initial_signatures(aig, rounds, 64, seed)
            t_new = time.perf_counter() - t0
            assert old == new, "old/new signature divergence"
            words = aig.num_nodes() * rounds
            speedup = round(t_old / t_new, 2)
            rows.append(
                {
                    "ands": n_ands,
                    "rounds": rounds,
                    "old_words_per_sec": round(words / t_old),
                    "new_words_per_sec": round(words / t_new),
                    "speedup": speedup,
                }
            )
            if worst_speedup is None or speedup < worst_speedup:
                worst_speedup = speedup

    # The refinement-corpus regime: one 64-pattern lane.
    aig = _deep_aig(48, SIM_SUBJECT_ANDS[-1], seed)
    rng = _random.Random(seed ^ 0xC0FFEE)
    pi_words = {name: rng.getrandbits(64) for name in aig.pi_names}
    t0 = time.perf_counter()
    aig.simulate_words(pi_words, 64)
    t_scalar = time.perf_counter() - t0
    return {
        "signature_path": rows,
        "hot_path_speedup": worst_speedup,
        "single_lane": {
            "scalar_words_per_sec": round(aig.num_nodes() / t_scalar)
        },
    }


def preprocess_effect(pairs) -> List[Dict]:
    """AND-node reduction of the pre-sweep rewriting on every miter."""
    from repro.aig.rewrite import preprocess_miter

    rows = []
    for name, golden, revised in pairs:
        miter = build_miter(golden, revised)
        before = miter.aig.num_ands()
        pre, removed = preprocess_miter(miter)
        rows.append(
            {
                "pair": name,
                "ands_before": before,
                "ands_after": pre.aig.num_ands(),
                "nodes_removed": removed,
            }
        )
    return rows


def run(pairs) -> Dict:
    """Every mode on every pair: per-pair rows, per-mode totals."""
    rows = []
    totals = {name: {"sat_queries": 0, "core_retired": 0} for name, _ in MODES}
    divergences = []
    for name, golden, revised in pairs:
        row = {"pair": name}
        verdicts = {}
        for mode, options in MODES:
            result = check_equivalence(golden, revised, options, **NARROW)
            verdicts[mode] = result.verdict.value
            row[mode] = {
                "verdict": result.verdict.value,
                "sat_queries": int(result.stats["sat_queries"]),
                "core_retired": int(result.stats["core_retired"]),
                "refine_rounds": int(result.stats["refine_rounds"]),
                "refine_patterns": int(result.stats["refine_patterns"]),
                "refine_saved": int(result.stats["refine_saved"]),
                "preprocess_removed": int(
                    result.stats["preprocess_removed"]
                ),
            }
            totals[mode]["sat_queries"] += int(result.stats["sat_queries"])
            totals[mode]["core_retired"] += int(result.stats["core_retired"])
        if len(set(verdicts.values())) != 1:
            divergences.append({"pair": name, "verdicts": verdicts})
        rows.append(row)
    saved = (
        totals["norefine_serial"]["sat_queries"]
        - totals["refine_serial"]["sat_queries"]
    )
    return {
        "benchmark": "cec_sweep",
        "config": dict(NARROW),
        "pairs": rows,
        "totals": totals,
        "sat_queries_saved_by_refinement": saved,
        "preprocess": preprocess_effect(pairs),
        "sim_throughput": sim_throughput(),
        "verdict_divergences": divergences,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "-o", "--output", default="BENCH_cec.json", help="output JSON path"
    )
    args = parser.parse_args(argv)
    report = run(corpus())
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    totals = report["totals"]
    for mode, agg in totals.items():
        print(f"{mode:20s} sat_queries={agg['sat_queries']:6d} "
              f"core_retired={agg['core_retired']:5d}")
    print(f"refinement saved {report['sat_queries_saved_by_refinement']} "
          f"SAT queries")
    removed = sum(r["nodes_removed"] for r in report["preprocess"])
    print(f"preprocessing removed {removed} AND nodes across "
          f"{len(report['preprocess'])} miters")
    thr = report["sim_throughput"]
    for row in thr["signature_path"]:
        print(f"signatures ands={row['ands']:6d} rounds={row['rounds']:3d} "
              f"old={row['old_words_per_sec']:,} words/s "
              f"new={row['new_words_per_sec']:,} words/s "
              f"({row['speedup']}x)")
    print(f"single-lane corpus: "
          f"{thr['single_lane']['scalar_words_per_sec']:,} words/s")
    print(f"signature hot-path speedup (worst measured): "
          f"{thr['hot_path_speedup']}x")
    if removed <= 0:
        print("WARNING: preprocessing removed no AND nodes on this corpus")
    if report["verdict_divergences"]:
        print(f"VERDICT DIVERGENCE on {len(report['verdict_divergences'])} "
              "pair(s) -- see JSON")
        return 1
    if report["sat_queries_saved_by_refinement"] <= 0:
        print("WARNING: refinement did not reduce SAT queries on this corpus")
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
