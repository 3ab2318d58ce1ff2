"""The combinational equivalence-checking engine.

Every proof obligation (sweep candidate or output pair) is resource
governed when a :class:`~repro.runtime.Budget` is supplied: obligations
walk an explicit fallback cascade — structural hash → simulation
refutation → bounded BDD → bounded SAT — and a cascade that runs dry
records an UNKNOWN verdict with a reason code instead of raising or
hanging.  Without a budget the engine behaves exactly as before,
bit-for-bit.

Observability: the engine counts everything into one
:class:`~repro.obs.metrics.MetricsRegistry` (the canonical sink; the
``cec.*`` names are catalogued in ``docs/OBSERVABILITY.md``) and, when a
:class:`~repro.obs.trace.Tracer` is passed, emits a span tree —
``cec.check`` (pair) → ``cec.phase.*`` → ``cec.obligation`` →
``stage.sim`` / ``stage.bdd`` / ``stage.sat`` — plus instants for budget
exhaustion and lost/requeued sweep units.  :class:`EngineStats` survives
as the backward-compatible flat view, rebuilt from the registry at
finish (:meth:`EngineStats.from_metrics`), so ``CheckResult.stats`` and
``CheckResult.engine`` consumers see exactly what they always did.  The
default tracer is the no-op :data:`~repro.obs.trace.NULL_TRACER`, so the
uninstrumented path stays unchanged.
"""

from __future__ import annotations

import enum
import hashlib
import random
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.aig.aig import AIG
from repro.aig.rewrite import preprocess_miter
from repro.bdd.bdd import BDD
from repro.bdd.circuit2bdd import circuit_bdds
from repro.cec.cache import EQ, NEQ, ProofCache
from repro.cec.dispatch import (
    DispatchPolicy,
    OutcomeStore,
    coerce_policy,
)
from repro.cec.engines import (
    EngineAdapter,
    EngineContext,
    Obligation,
    resolve_portfolio,
)
from repro.cec.miter import MiterAIG, build_miter
from repro.cec.options import CecOptions
from repro.cec.parallel import (
    DEFERRED,
    UNKNOWN,
    UnitResult,
    sweep_units_parallel,
)
from repro.cec.partition import Candidate, WorkUnit, partition_candidates
from repro.netlist.circuit import Circuit
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, coerce_tracer
from repro.runtime.budget import (
    REASON_BDD_BLOWUP,
    REASON_RESOURCE_LIMIT,
    REASON_TIMEOUT,
    Budget,
)
from repro.runtime.errors import BddBlowupError
from repro.sat.cores import CoreIndex, core_retires
from repro.sat.solver import Solver

__all__ = [
    "CecVerdict",
    "CheckResult",
    "EngineStats",
    "check_equivalence",
    "check_equivalence_bdd",
    "check_miter_unsat",
]

#: Cap on counterexample-guided refinement rounds.  Each round appends the
#: previous round's refuting SAT models as simulation columns and
#: re-splits the surviving signature classes; the loop converges as soon
#: as a round yields no new pattern, so this cap only bounds adversarial
#: worst cases.
DEFAULT_REFINE_ROUNDS = 8

#: Cap on the cross-worker shared-clause pool.  Clause sharing is an
#: accelerator; past this point the payload cost of shipping more peer
#: clauses outweighs their pruning value, so later exports are dropped.
SHARED_POOL_CAP = 4096

#: EngineStats counter field → canonical registry metric.  One table used
#: in both directions so the flat stats view and the metrics sink can
#: never drift apart.
_COUNTER_METRICS: Dict[str, str] = {
    "sat_queries": "cec.sat_queries",
    "sweep_candidates": "cec.sweep.candidates",
    "sweep_merges": "cec.sweep.merges",
    "sweep_refuted": "cec.sweep.refuted",
    "sweep_unknown": "cec.sweep.unknown",
    "cache_hits": "cec.cache.hits",
    "cache_misses": "cec.cache.misses",
    "cache_stores": "cec.cache.stores",
    "refine_rounds": "cec.refine.rounds",
    "refine_patterns": "cec.refine.patterns",
    "refine_splits": "cec.refine.splits",
    "refine_saved": "cec.refine.queries_saved",
    "preprocess_removed": "cec.preprocess.nodes_removed",
    "cascade_sim": "cec.cascade.sim",
    "cascade_bdd": "cec.cascade.bdd",
    "cascade_sat": "cec.cascade.sat",
    "core_retired": "cec.sat.core_retired",
    "shared_clauses_exported": "cec.parallel.shared_clauses_exported",
    "shared_clauses_imported": "cec.parallel.shared_clauses_imported",
    "shared_clauses_folded": "cec.parallel.shared_clauses_folded",
    "bdd_blowups": "cec.bdd_blowups",
    "budget_exhausted": "cec.budget_exhausted",
    "worker_failures": "cec.worker.failures",
    "worker_timeouts": "cec.worker.timeouts",
    "worker_retries": "cec.worker.retries",
    "units_requeued": "cec.worker.requeued",
    "pool_failures": "cec.worker.pool_failures",
}

#: Parallel-sweep telemetry key (from ``sweep_units_parallel``) → metric.
_TELEMETRY_METRICS: Dict[str, str] = {
    "worker_failures": "cec.worker.failures",
    "worker_timeouts": "cec.worker.timeouts",
    "worker_retries": "cec.worker.retries",
    "units_requeued": "cec.worker.requeued",
    "pool_failures": "cec.worker.pool_failures",
}

_PHASE_PREFIX = "cec.phase."
_PHASE_SUFFIX = ".seconds"
_WORKER_SECONDS = "cec.worker.seconds"
_ENGINE_PREFIX = "cec.engine."
_ENGINE_DECIDED_SUFFIX = ".decided"


class CecVerdict(enum.Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    UNKNOWN = "unknown"


@dataclass
class EngineStats:
    """Per-check tracing: phase wall times, query counts, cache traffic.

    Threaded through :func:`check_equivalence` into
    :class:`CheckResult.stats` (flattened via :meth:`as_dict`) so the flow
    harnesses and the CLI can report where the engine spends its time and
    how much work the proof cache and the worker pool save.

    This is now a *view*: the engine counts into a
    :class:`~repro.obs.metrics.MetricsRegistry` and rebuilds this object
    from it at finish (:meth:`from_metrics`).
    """

    n_jobs: int = 1
    n_units: int = 0
    sat_queries: int = 0
    sweep_candidates: int = 0
    sweep_merges: int = 0
    sweep_refuted: int = 0
    sweep_unknown: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_stores: int = 0
    # Counterexample-guided refinement (fraiging) telemetry.
    refine_rounds: int = 0
    refine_patterns: int = 0
    refine_splits: int = 0
    refine_saved: int = 0
    # Cascade outcomes (budgeted and classic checks alike).
    cascade_sim: int = 0
    cascade_bdd: int = 0
    cascade_sat: int = 0
    # Assumption-core retirement and cross-worker clause sharing.
    core_retired: int = 0
    shared_clauses_exported: int = 0
    shared_clauses_imported: int = 0
    shared_clauses_folded: int = 0
    bdd_blowups: int = 0
    budget_exhausted: int = 0
    # Fault-tolerance telemetry from the parallel sweep.
    worker_failures: int = 0
    worker_timeouts: int = 0
    worker_retries: int = 0
    units_requeued: int = 0
    pool_failures: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    worker_seconds: List[float] = field(default_factory=list)
    parallel_wall: float = 0.0
    #: Output obligations decided per engine adapter name (from the
    #: ``cec.engine.<name>.decided`` counters); sweep-decided candidates
    #: are not included — they are always SAT-decided by construction.
    engines_used: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_metrics(cls, metrics: MetricsRegistry) -> "EngineStats":
        """Rebuild the flat stats view from the canonical metric names."""
        stats = cls()
        for field_name, metric in _COUNTER_METRICS.items():
            setattr(stats, field_name, int(metrics.counter(metric)))
        stats.n_jobs = int(metrics.gauge("cec.n_jobs", 1))
        stats.n_units = int(metrics.gauge("cec.n_units", 0))
        stats.parallel_wall = metrics.gauge("cec.parallel.wall_seconds", 0.0)
        for name in metrics.names():
            if name.startswith(_PHASE_PREFIX) and name.endswith(_PHASE_SUFFIX):
                phase = name[len(_PHASE_PREFIX) : -len(_PHASE_SUFFIX)]
                stats.phase_seconds[phase] = metrics.gauge(name)
            elif name.startswith(_ENGINE_PREFIX) and name.endswith(
                _ENGINE_DECIDED_SUFFIX
            ):
                engine = name[
                    len(_ENGINE_PREFIX) : -len(_ENGINE_DECIDED_SUFFIX)
                ]
                stats.engines_used[engine] = int(metrics.counter(name))
        stats.worker_seconds = metrics.series(_WORKER_SECONDS)
        return stats

    def worker_utilisation(self) -> float:
        """Busy fraction of the worker pool during the parallel sweep."""
        if not self.worker_seconds or self.parallel_wall <= 0 or self.n_jobs < 1:
            return 0.0
        busy = sum(self.worker_seconds)
        return min(1.0, busy / (self.parallel_wall * self.n_jobs))

    def as_dict(self) -> Dict[str, float]:
        """Flatten to the numeric key/value form ``CheckResult.stats`` uses.

        Every canonical counter appears, zero or not — consumers can rely
        on the key set being identical across runs; anything that wants a
        compact view suppresses zeros at *render* time (see
        ``repro.flows.report.compact_stats``).
        """
        out: Dict[str, float] = {"n_jobs": self.n_jobs, "n_units": self.n_units}
        for key in _COUNTER_METRICS:
            out[key] = getattr(self, key)
        if self.worker_seconds:
            out["worker_utilisation"] = self.worker_utilisation()
        for phase, seconds in self.phase_seconds.items():
            out[f"time_{phase}"] = seconds
        for engine, count in sorted(self.engines_used.items()):
            out[f"engine_{engine}"] = count
        return out


@dataclass
class CheckResult:
    """Outcome of an equivalence check.

    ``reason`` carries the machine-readable cause of an UNKNOWN verdict
    (a ``REASON_*`` code from :mod:`repro.runtime.budget`); it is None for
    decided verdicts.

    Implements the common verification-result protocol
    (:class:`repro.api.VerificationResult`): ``verdict`` / ``reason`` /
    ``stats`` / ``counterexample`` / ``failing_output`` / ``equivalent`` /
    :meth:`as_dict`, shared with
    :class:`repro.core.verify.SeqCheckResult`.
    """

    verdict: CecVerdict
    counterexample: Optional[Dict[str, bool]] = None
    failing_output: Optional[str] = None
    stats: Dict[str, float] = field(default_factory=dict)
    engine: Optional[EngineStats] = None
    reason: Optional[str] = None

    #: Combinational checks have one proving method; present so the
    #: canonical ``as_dict()`` key set matches ``SeqCheckResult``'s.
    method: str = "cec"

    @property
    def equivalent(self) -> bool:
        """True when the verdict is EQUIVALENT."""
        return self.verdict is CecVerdict.EQUIVALENT

    def __bool__(self) -> bool:
        return self.equivalent

    def as_dict(self) -> Dict[str, object]:
        """Canonical JSON-able form: the one key set every result type uses.

        The keys are exactly ``repro.api.RESULT_KEYS`` — ``verdict`` (the
        enum's string value), ``method``, ``reason``, ``counterexample``
        (here a single input assignment), ``failing_output`` and
        ``stats``.  :attr:`engine` is a live-object view and deliberately
        not part of the serialised form; its content is already flattened
        into :attr:`stats`.
        """
        return {
            "verdict": self.verdict.value,
            "method": self.method,
            "reason": self.reason,
            "counterexample": (
                dict(self.counterexample)
                if self.counterexample is not None
                else None
            ),
            "failing_output": self.failing_output,
            "stats": dict(self.stats),
        }


def _round_seed(seed: int, r: int) -> int:
    """Mix ``(seed, r)`` into an independent per-round pattern seed.

    Plain ``seed + r`` makes round ``r`` of seed ``s`` identical to round
    0 of seed ``s + r``, so neighbouring seeds share most of their
    pattern stream.  Hash mixing keeps runs deterministic (hashlib, so no
    ``PYTHONHASHSEED`` dependence) while making the streams of different
    ``(seed, round)`` pairs independent.
    """
    digest = hashlib.blake2b(
        f"{seed}/{r}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _initial_signatures(
    aig: AIG, rounds: int, width: int, seed: int
) -> Tuple[List[int], int]:
    """Multi-round simulation signatures for every node.

    Returns ``(signatures, mask)`` where ``signatures[n]`` concatenates
    node ``n``'s simulation words over all rounds.  Every node gets a
    signature — including constant node 0 (always 0) and the PIs — so
    stuck-at-constant nodes join the constant's class and are proven
    against the constant directly instead of pairwise.

    All rounds are packed into one wide corpus (round ``r`` occupies bit
    columns ``[(rounds-1-r)*width, (rounds-r)*width)``, so round 0 stays
    most significant) and evaluated in a single
    :meth:`~repro.aig.aig.AIG.simulate_words` call — one pass over the
    AIG.  Bit-identical to the historical per-round shift-and-concatenate
    loop.
    """
    pi_words = {name: 0 for name in aig.pi_names}
    for r in range(rounds):
        rng = random.Random(_round_seed(seed, r))
        shift = (rounds - 1 - r) * width
        for name in aig.pi_names:
            pi_words[name] |= rng.getrandbits(width) << shift
    total_width = rounds * width
    return aig.simulate_words(pi_words, total_width), (1 << total_width) - 1


def _signature_classes(
    signatures: Sequence[int], mask: int, nodes: Sequence[int]
) -> Dict[int, List[int]]:
    """Partition ``nodes`` by normalised signature.

    A signature whose first bit is 1 is complemented so a node and its
    complement land in the same class.  Only classes with at least two
    members survive; members are listed in node order.
    """
    classes: Dict[int, List[int]] = {}
    for node in sorted(nodes):
        sig = signatures[node]
        if sig & 1:
            sig ^= mask
        classes.setdefault(sig, []).append(node)
    return {
        sig: members for sig, members in classes.items() if len(members) > 1
    }


def _class_candidates(
    aig: AIG,
    classes: Dict[int, List[int]],
    signatures: Sequence[int],
    resolved: Optional[Set[Tuple[int, int, bool]]] = None,
    group_offset: int = 0,
) -> List[List[Candidate]]:
    """Candidate pairs per signature class.

    The representative is the class's smallest node — constant node 0
    when present, so constant-equivalent nodes merge with the constant.
    Relative phase comes from the full multi-round signature (raw
    signatures equal means same phase; the class already folded the
    complement in).  Pairs of two non-AND nodes are skipped: two distinct
    PIs, or a PI and the constant, are never equal, so their query is
    guaranteed SAT and proves nothing.  ``resolved`` drops pairs an
    earlier refinement round already decided; ``group_offset`` keeps
    class (group) ids unique across rounds.
    """
    class_list: List[List[Candidate]] = []
    group = group_offset
    for members in classes.values():
        rep = members[0]
        rep_is_and = rep != 0 and not aig.is_pi_node(rep)
        cls: List[Candidate] = []
        for node in members[1:]:
            if not rep_is_and and aig.is_pi_node(node):
                continue
            phase = signatures[node] == signatures[rep]
            if resolved is not None and (rep, node, phase) in resolved:
                continue
            cls.append(Candidate(rep, node, phase_equal=phase, group=group))
        if cls:
            class_list.append(cls)
        group += 1
    return class_list


def _pair_key(cand: Candidate) -> Tuple[int, int, bool]:
    """Identity of a candidate query across refinement rounds."""
    return (cand.rep, cand.node, cand.phase_equal)


def _sweep_unit_serial(
    solver: Solver,
    lit2cnf,
    unit: WorkUnit,
    conflict_limit: Optional[int],
    deadline: Optional[float] = None,
    defer: bool = False,
    collect_models: bool = False,
    pi_nodes: Optional[Sequence[int]] = None,
    engines: Optional[Sequence[str]] = None,
    cores: Optional[CoreIndex] = None,
) -> UnitResult:
    """Sweep one unit on the parent's incremental solver (the serial path).

    ``defer`` / ``collect_models`` mirror the worker path: after one NEQ
    in a signature class the class's remaining queries are deferred to
    the refinement loop, and refuting models are shipped back as
    ``{pi node: value}`` assignments (``pi_nodes`` lists the AIG's PI
    node ids; their CNF variable is ``node + 1``).  ``engines`` names the
    active portfolio: sweeping is SAT work, so a portfolio without the
    ``sat`` adapter leaves every candidate UNKNOWN (no merges, no
    queries) and the output checks settle things with whatever engines
    remain.

    ``cores`` is the run's shared :class:`~repro.sat.cores.CoreIndex`:
    a query direction subsumed by a known core (or containing a
    root-false assumption) is retired as UNSAT without a solver call —
    counted on :attr:`UnitResult.core_retired` — and every fresh UNSAT
    core feeds the index.
    """
    t0 = time.perf_counter()
    if engines is not None and "sat" not in engines:
        n = len(unit.candidates)
        return UnitResult(
            [UNKNOWN] * n,
            0,
            time.perf_counter() - t0,
            models=[None] * n if collect_models else None,
        )
    statuses: List[str] = []
    models: List[Optional[Dict[int, bool]]] = []
    refuted_groups: Set[int] = set()
    pi_vars = (
        [(node + 1, node) for node in pi_nodes]
        if collect_models and pi_nodes is not None
        else []
    )
    sat_queries = 0
    core_retired = 0

    def record_neq(model: Optional[Dict[int, bool]]) -> None:
        statuses.append(NEQ)
        if collect_models and model is not None:
            models.append(
                {node: bool(model.get(var, False)) for var, node in pi_vars}
            )
        else:
            models.append(None)

    def query(assumptions: List[int]):
        # One direction: "unsat" from a subsuming core or the solver,
        # "sat" with the model, "unknown" on a resource limit.
        nonlocal sat_queries, core_retired
        if core_retires(solver, cores, assumptions):
            core_retired += 1
            return "unsat", None
        res = solver.solve(
            assumptions=assumptions,
            conflict_limit=conflict_limit,
            deadline=deadline,
        )
        sat_queries += 1
        if solver.last_unknown:
            return "unknown", None
        if res.satisfiable:
            return "sat", res.model
        if cores is not None and res.core is not None:
            cores.add(res.core)
        return "unsat", None

    for cand in unit.candidates:
        if defer and cand.group in refuted_groups:
            statuses.append(DEFERRED)
            models.append(None)
            continue
        a = lit2cnf(cand.rep_lit)
        b = lit2cnf(cand.node_lit)
        # UNSAT(a != b) in both directions means equal.
        outcome, model = query([a, -b])
        if outcome == "sat":
            record_neq(model)
            refuted_groups.add(cand.group)
            continue
        if outcome == "unknown":
            statuses.append(UNKNOWN)
            models.append(None)
            continue
        outcome, model = query([-a, b])
        if outcome == "sat":
            record_neq(model)
            refuted_groups.add(cand.group)
            continue
        if outcome == "unknown":
            statuses.append(UNKNOWN)
            models.append(None)
            continue
        # Proven equal: add merge clauses to help later queries.
        solver.add_clause([-a, b])
        solver.add_clause([a, -b])
        statuses.append(EQ)
        models.append(None)
    return UnitResult(
        statuses,
        sat_queries,
        time.perf_counter() - t0,
        models=models if collect_models else None,
        core_retired=core_retired,
    )


def _model_to_pattern(aig: AIG, model: Dict[int, bool]) -> Dict[str, bool]:
    """Translate a ``{pi node: value}`` model into a named PI assignment.

    PIs outside the refuting query's cone are unconstrained; they default
    to False so the pattern is total and deterministic.
    """
    return {
        name: bool(model.get(node, False))
        for node, name in zip(aig.pis, aig.pi_names)
    }


def _refine_signatures(
    aig: AIG,
    signatures: Sequence[int],
    mask: int,
    collected: Sequence[Tuple[Candidate, Dict[str, bool]]],
) -> Tuple[List[int], int, int]:
    """Append one sweep round's refuting models as new signature columns.

    ``collected`` pairs each NEQ candidate with the PI assignment its SAT
    model produced.  Every model is validated by re-simulation before any
    column lands in the signatures — its column must actually drive the
    pair's literals apart, mirroring
    :func:`~repro.cec.engines.validate_counterexample` —
    because refining on a fictitious pattern would silently degrade class
    quality while a bogus model means the engine state is corrupt.
    Duplicate assignments are folded into one column.  Returns the new
    ``(signatures, mask, patterns_added)``.
    """
    unique: List[Dict[str, bool]] = []
    column_of: Dict[Tuple[bool, ...], int] = {}
    columns: List[int] = []
    for _, pattern in collected:
        key = tuple(bool(pattern.get(name, False)) for name in aig.pi_names)
        index = column_of.get(key)
        if index is None:
            index = len(unique)
            column_of[key] = index
            unique.append(pattern)
        columns.append(index)
    words, new_mask = aig.simulate_patterns(unique)

    def lit_bit(lit: int, column: int) -> int:
        return ((words[lit >> 1] >> column) & 1) ^ (lit & 1)

    for (cand, _), column in zip(collected, columns):
        if lit_bit(cand.rep_lit, column) == lit_bit(cand.node_lit, column):
            raise RuntimeError(
                f"sweep NEQ model for pair ({cand.rep}, {cand.node}) does "
                "not distinguish it under re-simulation; CEC engine state "
                "is inconsistent"
            )
    width = len(unique)
    refined = [
        (sig << width) | (words[node] & new_mask)
        for node, sig in enumerate(signatures)
    ]
    return refined, (mask << width) | new_mask, width


def _check_outputs_portfolio(
    miter: MiterAIG,
    aig: AIG,
    solver: Solver,
    lit2cnf,
    proof_cache: Optional[ProofCache],
    conflict_limit: Optional[int],
    budget: Optional[Budget],
    metrics: MetricsRegistry,
    tracer: Union[Tracer, NullTracer],
    sim_width: int,
    seed: int,
    adapters: Sequence[EngineAdapter],
    policy: DispatchPolicy,
    cores: Optional[CoreIndex] = None,
) -> CheckResult:
    """Output checks over a pluggable engine portfolio.

    Each output pair walks the adapters in the order the dispatch policy
    picks for it.  Whatever engine decides the pair records its verdict;
    an engine that cannot decide passes the pair along; an UNKNOWN stops
    the whole check (budget-governed checks report the exhausted
    resource as the reason code — nothing in here raises on resource
    exhaustion).  With the default ``"cascade"`` policy this reproduces
    the historical ladder bit for bit: structural → sim → BDD → SAT when
    budgeted, structural (cache) → plain SAT otherwise.
    """
    ctx = EngineContext(
        aig=aig,
        solver=solver,
        lit2cnf=lit2cnf,
        proof_cache=proof_cache,
        metrics=metrics,
        tracer=tracer,
        budget=budget,
        conflict_limit=conflict_limit,
        sim_width=sim_width,
        seed=seed,
        cores=cores,
    )
    budgeted = budget is not None
    skip_identical = any(a.name == "structural" for a in adapters)

    def record(ob: Obligation, verdict: str) -> None:
        if proof_cache is not None and ob.cache_key is not None:
            proof_cache.put(ob.cache_key, verdict)
            metrics.inc("cec.cache.stores")

    for name, l1, l2 in miter.output_pairs:
        if skip_identical and l1 == l2:
            # Structural stage 1: the miter already hashed both cones
            # onto one literal — decided before any span opens, exactly
            # as the historical ladder did.
            continue
        ob = Obligation(name=name, l1=l1, l2=l2)
        if proof_cache is not None:
            ob.cache_key = aig.pair_cone_key(l1, l2)
        with tracer.span(
            "cec.obligation", cat="obligation", output=name
        ) as span:
            if tracer.enabled:
                # Obligation features (cone size, sim width) feed the
                # per-obligation log — dispatch-policy training data.
                if budgeted:
                    span.annotate(cone=ob.cone(ctx), width=sim_width)
                else:
                    span.annotate(cone=ob.cone(ctx))
            decided_eq = False
            budget_checked = False
            for adapter in policy.order(ob, adapters, ctx):
                if budgeted and adapter.proving and not budget_checked:
                    # One wall check per pair, before the first proving
                    # engine (cache replays stay free, as always).
                    budget_checked = True
                    if budget.expired():
                        metrics.inc("cec.budget_exhausted")
                        tracer.instant(
                            "budget.exhausted",
                            output=name,
                            reason=REASON_TIMEOUT,
                        )
                        span.annotate(
                            verdict="unknown", reason=REASON_TIMEOUT
                        )
                        return CheckResult(
                            CecVerdict.UNKNOWN, reason=REASON_TIMEOUT
                        )
                metrics.inc(f"cec.engine.{adapter.name}.attempts")
                t_eng = time.perf_counter()
                if adapter.proving:
                    with tracer.span(
                        f"stage.{adapter.name}", cat="stage", output=name
                    ):
                        outcome = adapter.decide(ob, ctx)
                    policy.observe(
                        ob,
                        adapter.name,
                        outcome,
                        time.perf_counter() - t_eng,
                        ctx,
                    )
                else:
                    outcome = adapter.decide(ob, ctx)
                if outcome.status in (EQ, NEQ):
                    metrics.inc(f"cec.engine.{adapter.name}.decided")
                    span.annotate(
                        decided_by=outcome.via or adapter.name,
                        verdict=outcome.status,
                    )
                    if outcome.via not in ("cache", "structural"):
                        record(ob, outcome.status)
                    if outcome.status == NEQ:
                        return CheckResult(
                            CecVerdict.NOT_EQUIVALENT,
                            counterexample=outcome.counterexample,
                            failing_output=name,
                        )
                    decided_eq = True
                    break
                if outcome.status == UNKNOWN:
                    if budgeted:
                        reason = outcome.reason or REASON_TIMEOUT
                        metrics.inc("cec.budget_exhausted")
                        tracer.instant(
                            "budget.exhausted", output=name, reason=reason
                        )
                        span.annotate(verdict="unknown", reason=reason)
                        return CheckResult(
                            CecVerdict.UNKNOWN, reason=reason
                        )
                    span.annotate(verdict="unknown")
                    return CheckResult(
                        CecVerdict.UNKNOWN, reason=outcome.reason
                    )
                # PASS: the next engine in the order gets the pair.
            if not decided_eq:
                # The portfolio ran dry without a decision — e.g. a
                # sim-only portfolio on an equivalent pair.  UNKNOWN with
                # the generic resource code: no engine was *exhausted*,
                # the pool simply has no complete prover for this pair.
                span.annotate(
                    verdict="unknown", reason=REASON_RESOURCE_LIMIT
                )
                return CheckResult(
                    CecVerdict.UNKNOWN, reason=REASON_RESOURCE_LIMIT
                )
    return CheckResult(CecVerdict.EQUIVALENT)


def check_equivalence(
    c1: Circuit,
    c2: Circuit,
    options: Optional[CecOptions] = None,
    *,
    n_jobs: int = 1,
    budget: Union[None, int, float, Budget] = None,
    tracer: Union[None, Tracer, NullTracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    sim_rounds: int = 4,
    sim_width: int = 64,
    sweep: bool = True,
    conflict_limit: Optional[int] = None,
    seed: int = 0,
    refine_rounds: int = DEFAULT_REFINE_ROUNDS,
) -> CheckResult:
    """Check combinational equivalence of two circuits.

    The main entry point of the CEC substrate.  ``options`` — a
    :class:`~repro.cec.CecOptions`, None for the defaults — carries the
    engine options the layers above pass through; the run resources
    (``n_jobs``, ``budget``, ``tracer``, ``metrics``) and the low-level
    sweep parameters (``sim_rounds``, ``sim_width``, ``sweep``,
    ``conflict_limit``, ``seed``, ``refine_rounds``) are keywords.

    ``sweep=False`` skips the internal-equivalence SAT sweeping (pure
    monolithic SAT on the miter).
    ``n_jobs > 1`` partitions the sweep into cone-disjoint work units and
    proves them on a process pool (verdict-identical to ``n_jobs=1``).
    ``options.cache`` — a :class:`~repro.cec.cache.ProofCache` or a path
    to one — replays previously-proven candidate and output verdicts by
    structural cone hash, skipping their SAT queries entirely.

    ``options.refine`` (default on) closes the simulation↔solver loop
    FRAIG style: every refuting SAT model from the sweep is appended as a
    new simulation-pattern column, the surviving signature classes are
    re-split, and the sweep repeats until no new pattern appears (or
    ``refine_rounds`` is reached).  While refinement is active, one NEQ
    inside a signature class defers the class's remaining queries — the
    new pattern usually splits the class, so most deferred queries are
    never spent.  ``CecOptions(refine=False)`` restores the single-pass
    sweep.

    ``options.preprocess`` (default on) rewrites the miter before any
    sweep — constant propagation, structural hashing, local two-level
    rewrites and dead-node elimination
    (:func:`repro.aig.rewrite.preprocess_miter`) — so every downstream
    phase works on a smaller AIG.  The rewrites
    are semantics-preserving, so verdicts with preprocessing on and off
    are identical; the AND-node reduction is recorded as
    ``cec.preprocess.nodes_removed``.  ``CecOptions(preprocess=False)``
    sweeps the raw miter.

    ``budget`` — a :class:`~repro.runtime.Budget` or bare wall-clock
    seconds — switches the output checks onto the fallback cascade
    (structural → simulation refutation → bounded BDD → bounded SAT) and
    bounds every SAT/BDD call; exhaustion yields an UNKNOWN verdict with
    ``CheckResult.reason`` set, never an exception or a hang.  With no
    budget, verdicts and stats are bit-for-bit what they always were.

    ``tracer`` — a :class:`~repro.obs.trace.Tracer` — records the span
    tree of the check (None means the no-op tracer: zero overhead beyond
    what the engine already measures).  ``metrics`` — a caller-owned
    :class:`~repro.obs.metrics.MetricsRegistry` — receives a merge of the
    check's full metric set at finish (the engine always counts into its
    own per-check registry first, so passing a shared registry across
    checks cannot corrupt any single check's stats).

    ``options.engines`` names the adapter portfolio for the output
    checks — a sequence (or comma-separated string) of registered engine
    names, see :func:`repro.cec.engines.available_engines`.  None (the default)
    lets the dispatch policy pick: the default ``"cascade"`` policy
    reproduces the historical ladder bit for bit (structural → sim →
    BDD → SAT when budgeted; structural → SAT otherwise).
    ``options.dispatch_policy`` selects how engines are ordered per
    obligation (``"cascade"``, ``"heuristic"``, or a
    :class:`~repro.cec.dispatch.DispatchPolicy` instance);
    ``options.dispatch_store`` — an
    :class:`~repro.cec.dispatch.OutcomeStore` or a path to one — records
    per-engine outcomes across runs so metrics-driven policies improve
    with use.  A portfolio without the
    ``sat`` adapter skips SAT sweeping entirely (sweeping is SAT work).
    Unknown engine or policy names raise :class:`ValueError` before any
    solving starts.

    Every UNSAT under assumptions feeds a shared
    :class:`~repro.sat.cores.CoreIndex`; sweep and output queries whose
    assumptions a known core subsumes are retired without a solver call
    (``cec.sat.core_retired``).  ``options.share_learned`` (default on)
    adds cross-worker clause sharing on top for parallel sweeps: each
    worker's short/low-LBD learned clauses join a deduplicated pool that
    seeds the next round's workers, respawned units, and — before the
    final output checks — the coordinator's own solver
    (``cec.parallel.shared_clauses_*``).  Both reduce work only; they
    never change a verdict.
    """
    if options is None:
        options = CecOptions()
    engines = options.engines
    refine = options.refine
    share_learned = options.share_learned
    tracer = coerce_tracer(tracer)
    caller_metrics = metrics
    registry = MetricsRegistry()
    n_jobs = max(1, int(n_jobs))
    registry.set_gauge("cec.n_jobs", n_jobs)
    proof_cache = ProofCache.coerce(options.cache)
    if proof_cache is not None:
        proof_cache.attach_metrics(registry)
    budget = Budget.coerce(budget)
    if budget is not None and budget.unlimited:
        budget = None  # an empty budget constrains nothing: classic path
    if budget is not None:
        budget.start()
    deadline = budget.deadline if budget is not None else None
    # Resolve the engine portfolio and dispatch policy up front so an
    # unknown name raises before any miter/solver work happens.
    store = OutcomeStore.coerce(options.dispatch_store)
    policy = coerce_policy(options.dispatch_policy, store=store)
    portfolio = resolve_portfolio(
        engines
        if engines is not None
        else policy.default_portfolio(budgeted=budget is not None)
    )
    engine_names = [adapter.name for adapter in portfolio]
    root = tracer.span(
        "cec.check",
        cat="pair",
        c1=getattr(c1, "name", ""),
        c2=getattr(c2, "name", ""),
        n_jobs=n_jobs,
        budgeted=budget is not None,
    )
    if policy.name != "cascade" or engines is not None:
        # Only non-default dispatch shows up in the trace: the default
        # run's span shape stays bit-identical to the pre-portfolio one.
        root.annotate(policy=policy.name, engines=",".join(engine_names))
    t0 = time.perf_counter()
    with tracer.span("cec.phase.build", cat="phase"):
        miter = build_miter(c1, c2)
    registry.set_gauge("cec.phase.build.seconds", time.perf_counter() - t0)
    stats: Dict[str, float] = {
        "aig_nodes": miter.aig.num_nodes(),
        "aig_ands": miter.aig.num_ands(),
    }

    def finish(result: CheckResult) -> CheckResult:
        if proof_cache is not None:
            try:
                proof_cache.save()
            except Exception as exc:  # noqa: BLE001 - the verdict is
                # already decided; losing cache persistence (full disk,
                # injected save fault) must not lose the answer.
                registry.inc("cec.cache.save_failures")
                warnings.warn(
                    f"proof cache save failed: {exc}; verdict unaffected",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if store is not None:
            try:
                store.save()
            except Exception as exc:  # noqa: BLE001 - same contract as the
                # proof cache: dispatch telemetry is advisory, the
                # verdict is already decided.
                registry.inc("cec.dispatch.save_failures")
                warnings.warn(
                    "dispatch outcome-store save failed: "
                    f"{exc}; verdict unaffected",
                    RuntimeWarning,
                    stacklevel=2,
                )
        stats["time"] = time.perf_counter() - t0
        engine = EngineStats.from_metrics(registry)
        stats.update(engine.as_dict())
        result.stats = stats
        result.engine = engine
        if tracer.enabled:
            tracer.metrics(registry.as_flat_dict(), name="cec.metrics")
        root.annotate(verdict=result.verdict.value)
        if result.reason:
            root.annotate(reason=result.reason)
        root.close()
        if caller_metrics is not None:
            caller_metrics.merge(registry)
        return result

    if miter.trivially_equivalent:
        stats["structural"] = 1
        root.annotate(structural=True)
        return finish(CheckResult(CecVerdict.EQUIVALENT))

    if options.preprocess and (budget is None or not budget.expired()):
        t_pre = time.perf_counter()
        with tracer.span("cec.phase.preprocess", cat="phase"):
            miter, removed = preprocess_miter(miter)
        registry.set_gauge(
            "cec.phase.preprocess.seconds", time.perf_counter() - t_pre
        )
        registry.inc("cec.preprocess.nodes_removed", removed)
        stats["aig_ands_preprocessed"] = miter.aig.num_ands()
        if miter.trivially_equivalent:
            # The rewrites hashed every output pair onto one literal:
            # equivalence is now structural, no solver needed.
            stats["structural"] = 1
            root.annotate(structural=True, preprocessed=True)
            return finish(CheckResult(CecVerdict.EQUIVALENT))

    aig = miter.aig
    t_enc = time.perf_counter()
    with tracer.span("cec.phase.encode", cat="phase"):
        cnf, lit2cnf = aig.to_cnf()
        solver = Solver()
        solver.metrics = registry
        if not solver.add_cnf(cnf):
            # The AIG CNF alone can only be UNSAT if something is deeply wrong.
            raise RuntimeError("inconsistent AIG encoding")
    registry.set_gauge("cec.phase.encode.seconds", time.perf_counter() - t_enc)

    def merge(a: int, b: int) -> None:
        solver.add_clause([-a, b])
        solver.add_clause([a, -b])

    def bump_gauge(name: str, delta: float) -> None:
        registry.set_gauge(name, registry.gauge(name, 0.0) + delta)

    # Assumption cores discovered anywhere in this check (sweep, workers,
    # output pairs) accumulate here; every query consults the index
    # before burning a solver call.
    cores = CoreIndex()
    # Cross-worker clause pool: normalised clause → literals, insertion
    # ordered (dict semantics), capped so an adversarial run cannot grow
    # payloads without bound.
    shared_pool: Dict[Tuple[int, ...], List[int]] = {}

    if (
        sweep
        and "sat" in engine_names
        and (budget is None or not budget.expired())
    ):
        t_sim = time.perf_counter()
        with tracer.span("cec.phase.simulate", cat="phase"):
            signatures, sig_mask = _initial_signatures(
                aig, sim_rounds, sim_width, seed
            )
        sim_seconds = time.perf_counter() - t_sim
        registry.set_gauge("cec.phase.simulate.seconds", sim_seconds)
        # Throughput in 64-bit node-words: nodes × lanes / wall seconds.
        sim_lanes = max(1, (sim_rounds * sim_width + 63) // 64)
        if sim_seconds > 0:
            registry.set_gauge(
                "cec.sim.words_per_sec",
                aig.num_nodes() * sim_lanes / sim_seconds,
            )

        sweep_limit = conflict_limit or 2000
        if budget is not None and budget.sat_conflicts is not None:
            sweep_limit = min(sweep_limit, budget.sat_conflicts)

        # The refinement loop.  ``active`` holds nodes still eligible for
        # classes (EQ-proven nodes retire onto their representative);
        # ``resolved`` holds (rep, node, phase) queries already decided
        # so they are never re-derived; ``deferred_open`` tracks deferred
        # queries that have not reappeared — at exit, those are the SAT
        # queries refinement genuinely saved.
        active = set(range(aig.num_nodes()))
        resolved: Set[Tuple[int, int, bool]] = set()
        deferred_open: Set[Tuple[int, int, bool]] = set()
        group_offset = 0
        round_no = 0
        force_final = False
        while budget is None or not budget.expired():
            refining = refine and round_no < refine_rounds and not force_final
            # Policies that opt into sweep deferral (heuristic) keep the
            # one-NEQ-defers-the-class behaviour even in non-refining
            # rounds; deferred queries that never reappear are SAT
            # queries saved outright.
            defer_flag = refining or (policy.sweep_defer and not force_final)
            classes = _signature_classes(signatures, sig_mask, active)
            class_list = _class_candidates(
                aig, classes, signatures, resolved, group_offset
            )
            group_offset += len(classes)
            if not class_list:
                break
            registry.inc(
                "cec.sweep.candidates", sum(len(cls) for cls in class_list)
            )
            if deferred_open:
                # A deferred query that comes back as a candidate was not
                # saved after all; it is about to be solved (or deferred
                # again).
                for cls in class_list:
                    for cand in cls:
                        deferred_open.discard(_pair_key(cand))

            # Cache pass: replay known verdicts, keep the rest for solving.
            if proof_cache is not None:
                t_cache = time.perf_counter()
                with tracer.span("cec.phase.cache", cat="phase"):
                    pending: List[List[Candidate]] = []
                    for cls in class_list:
                        keep: List[Candidate] = []
                        for cand in cls:
                            key = aig.pair_cone_key(
                                cand.rep_lit, cand.node_lit
                            )
                            known = proof_cache.get(key)
                            if known == EQ:
                                registry.inc("cec.cache.hits")
                                registry.inc("cec.sweep.merges")
                                merge(
                                    lit2cnf(cand.rep_lit),
                                    lit2cnf(cand.node_lit),
                                )
                                active.discard(cand.node)
                            elif known == NEQ:
                                registry.inc("cec.cache.hits")
                                registry.inc("cec.sweep.refuted")
                                resolved.add(_pair_key(cand))
                            else:
                                registry.inc("cec.cache.misses")
                                keep.append(cand)
                        if keep:
                            pending.append(keep)
                    class_list = pending
                bump_gauge(
                    "cec.phase.cache.seconds", time.perf_counter() - t_cache
                )

            t_part = time.perf_counter()
            with tracer.span("cec.phase.partition", cat="phase"):
                units = partition_candidates(aig, class_list, n_jobs)
            registry.max_gauge("cec.n_units", len(units))
            bump_gauge(
                "cec.phase.partition.seconds", time.perf_counter() - t_part
            )

            t_sweep = time.perf_counter()
            sweep_span = tracer.span(
                "cec.phase.sweep",
                cat="phase",
                n_units=len(units),
                round=round_no,
            )
            parallel = n_jobs > 1 and len(units) > 1
            collect = tracer.enabled or caller_metrics is not None
            if parallel:
                wall_remaining = (
                    budget.remaining() if budget is not None else None
                )
                # The pool window is a backstop above the in-worker
                # deadline: it only fires when a worker is hung or dead,
                # so give it a little slack before killing the pool.
                unit_timeout = (
                    wall_remaining * 1.25 + 0.25
                    if wall_remaining is not None
                    else None
                )
                telemetry: Dict[str, int] = {}
                results = sweep_units_parallel(
                    solver,
                    units,
                    sweep_limit,
                    n_jobs,
                    wall_remaining=wall_remaining,
                    unit_timeout=unit_timeout,
                    telemetry=telemetry,
                    collect=collect,
                    trace_epoch=tracer.epoch,
                    defer=defer_flag,
                    collect_models=refining,
                    pi_nodes=aig.pis,
                    engines=engine_names,
                    shared_clauses=(
                        list(shared_pool.values()) if share_learned else None
                    ),
                    known_cores=cores.export(),
                )
                for tele_key, value in telemetry.items():
                    registry.inc(_TELEMETRY_METRICS[tele_key], value)
                bump_gauge(
                    "cec.parallel.wall_seconds", time.perf_counter() - t_sweep
                )
            else:
                results = [
                    _sweep_unit_serial(
                        solver,
                        lit2cnf,
                        unit,
                        sweep_limit,
                        deadline=deadline,
                        defer=defer_flag,
                        collect_models=refining,
                        pi_nodes=aig.pis,
                        engines=engine_names,
                        cores=cores,
                    )
                    for unit in units
                ]
            collected: List[Tuple[Candidate, Dict[str, bool]]] = []
            deferred_this_round = False
            # Signature-class width per group id (members + representative)
            # — an obligation feature for the per-candidate log below.
            group_width: Dict[int, int] = {}
            if tracer.enabled:
                for cls in class_list:
                    if cls:
                        group_width[cls[0].group] = len(cls) + 1
            for index, (unit, result) in enumerate(zip(units, results)):
                if result.events:
                    tracer.adopt(result.events, parent=sweep_span, worker=index)
                if result.metrics:
                    registry.merge(result.metrics)
                if result.error:
                    tracer.instant(
                        "sweep.unit.lost",
                        unit=index,
                        error=result.error,
                        retries=result.retries,
                    )
                elif result.retries:
                    tracer.instant(
                        "sweep.unit.requeued",
                        unit=index,
                        retries=result.retries,
                    )
                registry.append(_WORKER_SECONDS, result.seconds)
                registry.inc("cec.sat_queries", result.sat_queries)
                if result.core_retired:
                    registry.inc("cec.sat.core_retired", result.core_retired)
                # Fold the unit's solver knowledge home: cores join the
                # shared index (worker results arrive already remapped to
                # the parent's variable space), learned clauses join the
                # cross-worker pool for the next round and the final pass.
                cores.add_many(result.cores)
                if share_learned and result.learned:
                    registry.inc(
                        "cec.parallel.shared_clauses_exported",
                        len(result.learned),
                    )
                    for clause in result.learned:
                        if len(shared_pool) >= SHARED_POOL_CAP:
                            break
                        shared_pool.setdefault(
                            tuple(sorted(clause)), list(clause)
                        )
                if result.shared_imported:
                    registry.inc(
                        "cec.parallel.shared_clauses_imported",
                        result.shared_imported,
                    )
                for ci, (cand, status) in enumerate(
                    zip(unit.candidates, result.statuses)
                ):
                    if status == EQ:
                        registry.inc("cec.sweep.merges")
                        if parallel:
                            # Worker proofs happen off-solver; merge here.
                            merge(
                                lit2cnf(cand.rep_lit), lit2cnf(cand.node_lit)
                            )
                        active.discard(cand.node)
                    elif status == NEQ:
                        registry.inc("cec.sweep.refuted")
                        resolved.add(_pair_key(cand))
                        model = result.model_for(ci)
                        if refining and model is not None:
                            collected.append(
                                (cand, _model_to_pattern(aig, model))
                            )
                    elif status == DEFERRED:
                        deferred_this_round = True
                        deferred_open.add(_pair_key(cand))
                    else:
                        registry.inc("cec.sweep.unknown")
                        resolved.add(_pair_key(cand))
                    if proof_cache is not None and status in (EQ, NEQ):
                        key = aig.pair_cone_key(cand.rep_lit, cand.node_lit)
                        proof_cache.put(key, status)
                        registry.inc("cec.cache.stores")
                    if tracer.enabled:
                        # One feature record per sweep candidate; unit
                        # seconds are apportioned evenly — workers time
                        # the unit, not individual queries.  The serial
                        # path never computes unit cones, so derive the
                        # candidate's own cone instead.
                        tracer.instant(
                            "cec.obligation.features",
                            cat="obligation",
                            kind="sweep",
                            round=round_no,
                            unit=index,
                            group=cand.group,
                            width=group_width.get(cand.group, 2),
                            cone=len(
                                aig.cone_nodes(
                                    (cand.rep_lit, cand.node_lit)
                                )
                            ),
                            engine="sat",
                            verdict=status,
                            seconds=result.seconds
                            / max(1, len(unit.candidates)),
                        )
            sweep_span.annotate(
                merges=int(registry.counter("cec.sweep.merges")),
                refuted=int(registry.counter("cec.sweep.refuted")),
                unknown=int(registry.counter("cec.sweep.unknown")),
            )
            sweep_span.close()
            bump_gauge(
                "cec.phase.sweep.seconds", time.perf_counter() - t_sweep
            )

            if collected and refining:
                t_refine = time.perf_counter()
                with tracer.span(
                    "cec.phase.refine",
                    cat="phase",
                    round=round_no,
                    models=len(collected),
                ) as refine_span:
                    signatures, sig_mask, n_patterns = _refine_signatures(
                        aig, signatures, sig_mask, collected
                    )
                    splits = 0
                    for members in classes.values():
                        alive = [n for n in members if n in active]
                        if len(alive) < 2:
                            continue
                        sigs = set()
                        for n in alive:
                            s = signatures[n]
                            if s & 1:
                                s ^= sig_mask
                            sigs.add(s)
                        if len(sigs) > 1:
                            splits += 1
                    refine_span.annotate(patterns=n_patterns, splits=splits)
                registry.inc("cec.refine.rounds")
                registry.inc("cec.refine.patterns", n_patterns)
                registry.inc("cec.refine.splits", splits)
                bump_gauge(
                    "cec.phase.refine.seconds", time.perf_counter() - t_refine
                )
                round_no += 1
                continue
            if deferred_this_round and refining:
                # No usable model came back (e.g. a lost worker swallowed
                # it) but queries were deferred on its account: finish
                # them in one last non-deferring pass.
                force_final = True
                continue
            break
        registry.inc("cec.refine.queries_saved", len(deferred_open))
        if share_learned and shared_pool:
            # Fold the workers' pooled learned clauses into the
            # coordinator's solver so the final output queries start
            # from everything the fleet learned.
            folded = solver.import_learned(shared_pool.values())
            if folded:
                registry.inc("cec.parallel.shared_clauses_folded", folded)
    stats["sweep_merges"] = registry.counter("cec.sweep.merges")
    stats["sweep_refuted"] = registry.counter("cec.sweep.refuted")
    stats["sweep_unknown"] = registry.counter("cec.sweep.unknown")

    # Final output checks: walk the engine portfolio per output pair.
    t_out = time.perf_counter()
    with tracer.span("cec.phase.outputs", cat="phase"):
        result = _check_outputs_portfolio(
            miter,
            aig,
            solver,
            lit2cnf,
            proof_cache,
            conflict_limit,
            budget,
            registry,
            tracer,
            sim_width,
            seed,
            portfolio,
            policy,
            cores=cores,
        )
    registry.set_gauge("cec.phase.outputs.seconds", time.perf_counter() - t_out)
    return finish(result)


def check_miter_unsat(
    miter_circuit: Circuit, conflict_limit: Optional[int] = None
) -> CheckResult:
    """Check a single-output miter circuit (output must be constant 0)."""
    from repro.sat.tseitin import tseitin_encode

    if len(miter_circuit.outputs) != 1:
        raise ValueError("miter circuit must have exactly one output")
    t0 = time.perf_counter()
    enc = tseitin_encode(miter_circuit)
    solver = Solver()
    if not solver.add_cnf(enc.cnf):
        return CheckResult(CecVerdict.EQUIVALENT, stats={"time": 0.0})
    out_lit = enc.lit(miter_circuit.outputs[0])
    res = solver.solve(assumptions=[out_lit], conflict_limit=conflict_limit)
    stats = {"time": time.perf_counter() - t0}
    if solver.last_unknown:
        return CheckResult(CecVerdict.UNKNOWN, stats=stats)
    if res.satisfiable:
        assert res.model is not None
        cex = {pi: res.model[enc.var_of[pi]] for pi in miter_circuit.inputs}
        return CheckResult(
            CecVerdict.NOT_EQUIVALENT, counterexample=cex, stats=stats
        )
    return CheckResult(CecVerdict.EQUIVALENT, stats=stats)


def check_equivalence_bdd(
    c1: Circuit, c2: Circuit, node_limit: Optional[int] = None
) -> CheckResult:
    """BDD-based equivalence check (for small circuits / cross-checks).

    Inputs are matched by name over the union of both input sets (an input
    swept away on one side is simply irrelevant there); output sets must
    match exactly.  ``node_limit`` caps the manager's live node count; a
    blow-up past it yields UNKNOWN with reason ``"bdd-blowup"`` instead of
    an unbounded build.
    """
    if set(c1.outputs) != set(c2.outputs):
        raise ValueError("circuits must share output names")
    t0 = time.perf_counter()
    manager = BDD(node_limit=node_limit)
    try:
        nodes1 = circuit_bdds(c1, manager)
        nodes2 = circuit_bdds(c2, manager)
        all_inputs = sorted(set(c1.inputs) | set(c2.inputs))
        for out in sorted(set(c1.outputs)):
            if nodes1[out] != nodes2[out]:
                diff = manager.apply_xor(nodes1[out], nodes2[out])
                assignment = manager.pick_minterm(diff) or {}
                cex = {pi: assignment.get(pi, False) for pi in all_inputs}
                return CheckResult(
                    CecVerdict.NOT_EQUIVALENT,
                    counterexample=cex,
                    failing_output=out,
                    stats={"time": time.perf_counter() - t0},
                )
    except BddBlowupError:
        return CheckResult(
            CecVerdict.UNKNOWN,
            reason=REASON_BDD_BLOWUP,
            stats={"time": time.perf_counter() - t0},
        )
    return CheckResult(
        CecVerdict.EQUIVALENT, stats={"time": time.perf_counter() - t0}
    )
