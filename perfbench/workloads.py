"""The benchmark's four workloads: inputs from a seed, items, checks.

Each workload builds its inputs from the workload seed in
:meth:`setup_steps` (timed step by step as ``setup_s``), then runs
:meth:`run` once per item in a closed loop.  :meth:`record` reduces an
item's output to the values that must not change between commits (table
columns, verdicts, exposure counts); those records feed the digest and are
checked against the reference recorded from seed 0.  :meth:`check` holds
the checks that need no reference: expected verdicts, witness replay
through ``repro.sim.exact3``, and Table 2's structural counts against the
paper's column.

Seed 0 gives the stand-in circuits exactly as ``repro.bench`` builds them
for the paper's tables.  Any other seed renames every signal of them
(:func:`variant`) in a way that leaves every choice of the program as it
was, so each seed must reproduce the seed-0 records; only the mutant
descriptions of ``verify_mutants`` name signals, so that workload is
checked against the reference on seed 0 alone.  Seeding the generators
themselves (``build_table1_circuit(name, seed)``) made single rows up to
2.5 times slower from one seed to the next, and a renaming that reordered
the names made minmax10 3.5 times slower: the timings would have measured
the draw, not the program.

The program itself only ever sees the generated circuits.  Where a harness
function builds its own circuit by name (``table1_row``, ``table2_row``),
:meth:`routes` swaps the generator binding for the seeded circuit built in
set-up, so the harness runs unchanged on the workload's input.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Optional

import repro.api as api
import repro.flows.table1 as table1
import repro.flows.table2 as table2
from repro.bench.industrial import TABLE2_CIRCUITS, build_table2_circuit
from repro.bench.iscas_like import build_table1_circuit, minmax_circuit
from repro.bench.mutations import sample_mutations
from repro.core.expose import prepare_circuit
from repro.flows.flow import FlowResult, _retime_min_period_any
from repro.netlist.circuit import Circuit
from repro.sim.exact3 import BOT, exact3_outputs
from repro.synth.script import optimize_sequential_delay

__all__ = ["WORKLOADS", "distinguishes", "variant"]

EQUIVALENT = "equivalent"
NOT_EQUIVALENT = "not_equivalent"

#: Table 1 rows timed end to end, each under a second.  The minmax rows
#: are eliminate/fx-bound, the ISCAS stand-ins resub/techmap-bound;
#: minmax6 is the Table 1 minmax generator at 18 latches (0.6 s a row).
#: Bigger rows (minmax10 2.3 s, s6669 1.6 s, s3271 2.6 s, minmax20 7 s,
#: s15850 17-31 s, s38417 ~94 s) allow too few repeats of each row in a
#: run to find one that the host's slow spells missed; the synthesis of
#: minmax20, s3271, s6669 and s15850 is timed in the verify set-ups.
TABLE1_ROWS = ["minmax6", "s1423", "s1269", "s4863", "s641", "s3330", "s713", "s953"]
#: Table 1 circuits whose B/C pairs are verified through the CBF.
CBF_PAIRS = ["s15850", "minmax20", "s3271", "s3384", "s6669", "s9234"]
#: Table 2 circuits (load-enabled latches) verified through the EDBF.
EDBF_PAIRS = ["ex5", "ex10", "ex11"]
#: Table 2 circuits up to ex8 (968 latches, 0.8 s a row); ex4, ex12 and
#: ex1 (2.5, 2.7 and 4 s) allow too few repeats of each row in a run.
TABLE2_ROWS = [name for name, _, _ in TABLE2_CIRCUITS if name not in ("ex1", "ex4", "ex12")]
#: CBF pairs whose C is mutated, and sim-refutable mutants per pair.  A
#: s15850 mutant alone cost 3.6-4.2 s, most of a pass; 15 mutants of five
#: smaller pairs spread the refutation cost.
MUTANT_PAIRS = ["minmax20", "s3271", "s3384", "s6669", "s9234"]
MUTANTS_PER_PAIR = 3
#: ``sample_mutations`` seed.  Fixed: with the workload seed here, one
#: seed's draw cost 10% more than another's, run after run, so the pass
#: time measured the draw.  The workload seed renames the circuits, and
#: the renaming keeps the mutants the same faults at the same places.
MUTANT_DRAW = 0

#: The smallest item sets, for the benchmark's own tests (``--tiny``).
TINY = {
    "table1_flow": {"rows": ["s953"]},
    "verify_equiv": {"cbf": ["s9234"], "edbf": ["ex10"]},
    "verify_mutants": {"cbf": ["s9234"], "mutants": 1},
    "table2_expose": {"rows": ["ex2", "ex3", "ex7"]},
}


def distinguishes(c1, c2, sequence) -> bool:
    """Do two circuits visibly differ on an input sequence?

    Exact-3-valued simulation from an unknown power-up state (the paper's
    Def. 1): an output that is ⊥ in one circuit and Boolean in the other,
    or Boolean in both with different values, distinguishes them.
    """
    for row1, row2 in zip(exact3_outputs(c1, sequence), exact3_outputs(c2, sequence)):
        for out in c1.outputs:
            v1, v2 = row1[out], row2[out]
            if (v1 is BOT) != (v2 is BOT) or (v1 is not BOT and v1 != v2):
                return True
    return False


def variant(circuit: Circuit, seed: int) -> Circuit:
    """``circuit`` with seeded signal names (seed 0: itself).

    Every name gets the same seeded tag after its first character, so any
    two names, and any name the program derives from one, compare as
    before, and the declaration order is kept: the program makes the same
    choices and does the same work on every seed.
    """
    if seed == 0:
        return circuit
    rng = random.Random(f"{seed}/{circuit.name}")
    tag = "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(4))
    signals = [*circuit.inputs, *circuit.gates, *circuit.latches]
    return circuit.renamed({s: s[:1] + tag + s[1:] for s in signals})


def _table1_circuit(name: str, seed: int) -> Circuit:
    if name.startswith("minmax"):  # as build_table1_circuit, for any width
        return variant(minmax_circuit(int(name[len("minmax"):]), name=name), seed)
    return variant(build_table1_circuit(name), seed)


def _table2_circuit(name: str, seed: int) -> Circuit:
    return variant(build_table2_circuit(name), seed)


def _cbf_pair(name: str, seed: int):
    """Table 1 flow circuits B (A exposed) and C (synth, retime, resynth)."""
    b = prepare_circuit(_table1_circuit(name, seed), use_unateness=False).circuit
    c = optimize_sequential_delay(b, name=name + "_C0")
    c = _retime_min_period_any(c, FlowResult(name))
    return b, optimize_sequential_delay(c, name=name + "_C")


def _edbf_pair(name: str, seed: int):
    """Table 2 circuit B (unate latches remodelled) and C (resynthesised)."""
    b = prepare_circuit(_table2_circuit(name, seed), use_unateness=True).circuit
    return b, optimize_sequential_delay(b, name=name + "_C")


def _verify(golden, revised, name: str, metrics):
    return api.verify_pair(
        api.VerifyRequest(golden=golden, revised=revised, name=name, jobs=1),
        metrics=metrics,
    )


class Workload:
    """Base: subclasses define the inputs, the item call and the checks."""

    name = ""
    #: Do the records name signals (and so differ from seed to seed)?
    names_in_records = False

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny
        self.items: List[str] = []

    def setup(self) -> None:
        """Build the inputs: every step of :meth:`setup_steps`."""
        for _ in self.setup_steps():
            pass

    def setup_steps(self) -> Iterator[None]:
        """Build the inputs, yielding after each step (each step is timed)."""
        raise NotImplementedError

    def routes(self) -> Dict[str, Callable[[Callable], Callable]]:
        """Input-routing swaps installed for the whole measured loop."""
        return {}

    def run(self, key: str, metrics=None):
        raise NotImplementedError

    def record(self, key: str, output) -> dict:
        raise NotImplementedError

    def check(self, key: str, output) -> List[str]:
        return []

    def stats(self, output) -> Optional[Dict[str, float]]:
        """The verification step's ``VerifyReport.stats`` (None without one)."""
        return None


class Table1Flow(Workload):
    """``table1_row``: expose, synthesise, retime, map, verify H vs J."""

    name = "table1_flow"

    def setup_steps(self):
        rows = TINY[self.name]["rows"] if self.tiny else TABLE1_ROWS
        self.circuits = {name: _table1_circuit(name, self.seed) for name in rows}
        self.items = list(rows)
        yield

    def routes(self):
        return {
            "repro.flows.table1.build_table1_circuit": lambda original: (
                lambda name, seed=0: self.circuits[name].copy()
            )
        }

    def run(self, key, metrics=None):
        return table1.table1_row(key, n_jobs=1, metrics=metrics)

    def record(self, key, result):
        return {
            "status": result.status,
            "verdict": result.verify_verdict.value if result.verify_verdict else None,
            "latches_a": result.latches_a,
            "pct_exposed": result.pct_exposed,
            "latches": result.latches,
            "area": result.area,
            "delay": result.delay,
        }

    def check(self, key, result):
        if result.status != "ok":
            return [f"{key}: row status {result.status} ({result.error})"]
        verdict = result.verify_verdict.value if result.verify_verdict else None
        if verdict != EQUIVALENT:
            return [f"{key}: B vs C verdict {verdict}, expected {EQUIVALENT}"]
        return []

    def stats(self, result):
        return result.verify_stats


class VerifyEquiv(Workload):
    """``verify_pair`` on pairs built in set-up: CBF and EDBF lowering, CEC."""

    name = "verify_equiv"

    def setup_steps(self):
        cbf = TINY[self.name]["cbf"] if self.tiny else CBF_PAIRS
        edbf = TINY[self.name]["edbf"] if self.tiny else EDBF_PAIRS
        self.pairs = {}
        for name in cbf:
            self.pairs[name] = _cbf_pair(name, self.seed)
            yield
        for name in edbf:
            self.pairs[name] = _edbf_pair(name, self.seed)
            yield
        self.items = list(self.pairs)

    def run(self, key, metrics=None):
        golden, revised = self.pairs[key]
        return _verify(golden, revised, key, metrics)

    def record(self, key, report):
        return {"verdict": report.verdict, "method": report.method}

    def check(self, key, report):
        if report.verdict != EQUIVALENT:
            return [f"{key}: verdict {report.verdict} ({report.reason}), expected {EQUIVALENT}"]
        return []

    def stats(self, report):
        return report.stats


class VerifyMutants(Workload):
    """``verify_pair`` of B against single-fault mutants of C: the refutation path.

    Set-up keeps, per pair, the first mutants in ``sample_mutations`` order
    that exact-3-valued simulation already tells apart from B, so every
    item's expected verdict is NOT_EQUIVALENT on any seed, and the mix of
    refuted and proven pairs cannot drift between seeds.
    """

    name = "verify_mutants"
    names_in_records = True

    def setup_steps(self):
        names = TINY[self.name]["cbf"] if self.tiny else MUTANT_PAIRS
        per_pair = TINY[self.name]["mutants"] if self.tiny else MUTANTS_PER_PAIR
        self.cases = {}
        for name in names:
            golden, revised = _cbf_pair(name, self.seed)
            rng = random.Random(name)
            kept = 0
            for mutation, mutant in sample_mutations(revised, 10**9, MUTANT_DRAW):
                if _sim_refutes(golden, mutant, rng):
                    self.cases[f"{name}#{kept}"] = (golden, mutant, mutation.describe())
                    kept += 1
                    if kept == per_pair:
                        break
            yield
        self.items = list(self.cases)

    def run(self, key, metrics=None):
        golden, mutant, _ = self.cases[key]
        return _verify(golden, mutant, key, metrics)

    def record(self, key, report):
        return {"mutation": self.cases[key][2], "verdict": report.verdict}

    def check(self, key, report):
        golden, mutant, description = self.cases[key]
        if report.verdict != NOT_EQUIVALENT:
            return [
                f"{key} ({description}): verdict {report.verdict} "
                f"({report.reason}), expected {NOT_EQUIVALENT}"
            ]
        if not report.counterexample or not distinguishes(
            golden, mutant, report.counterexample
        ):
            return [f"{key} ({description}): witness does not replay under exact3"]
        return []

    def stats(self, report):
        return report.stats


def _sim_refutes(golden, mutant, rng: random.Random, trials: int = 4, length: int = 10) -> bool:
    """Some random sequence drives an output to opposite Boolean values.

    Stricter than :func:`distinguishes`: with more than 16 latches exact3
    samples the power-up states, so a Boolean in one circuit against ⊥ in
    the other can be a sampling artefact (it passed a commuted AND input
    swap, which is equivalent).
    """
    inputs = sorted(golden.inputs)
    for _ in range(trials):
        sequence = [{pi: rng.random() < 0.5 for pi in inputs} for _ in range(length)]
        rows = zip(exact3_outputs(golden, sequence), exact3_outputs(mutant, sequence))
        for row1, row2 in rows:
            if any(
                row1[out] is not BOT and row2[out] is not BOT and row1[out] != row2[out]
                for out in golden.outputs
            ):
                return True
    return False


class Table2Expose(Workload):
    """``table2_row``: structural MFVS plus positive-unate remodelling (BDDs)."""

    name = "table2_expose"

    def setup_steps(self):
        rows = TINY[self.name]["rows"] if self.tiny else TABLE2_ROWS
        self.circuits = {name: _table2_circuit(name, self.seed) for name in rows}
        self.items = list(rows)
        yield

    def routes(self):
        return {
            "repro.flows.table2.build_table2_circuit": lambda original: (
                lambda name, seed=0: self.circuits[name].copy()
            )
        }

    def run(self, key, metrics=None):
        return table2.table2_row(key)

    def record(self, key, row):
        return {
            "status": row.status,
            "latches": row.latches,
            "exposed_structural": row.exposed_structural,
            "exposed_unate": row.exposed_unate,
        }

    def check(self, key, row):
        _, latches, paper_exposed = next(e for e in TABLE2_CIRCUITS if e[0] == key)
        problems = []
        if row.status != "ok":
            problems.append(f"{key}: row status {row.status} ({row.error})")
        if (row.latches, row.exposed_structural) != (latches, paper_exposed):
            problems.append(
                f"{key}: {row.exposed_structural}/{row.latches} exposed, "
                f"paper column says {paper_exposed}/{latches}"
            )
        if row.exposed_unate > row.exposed_structural:
            problems.append(f"{key}: unateness exposed more latches than structure")
        return problems


WORKLOADS = {
    cls.name: cls for cls in (Table1Flow, VerifyEquiv, VerifyMutants, Table2Expose)
}
