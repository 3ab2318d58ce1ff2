"""The combinational equivalence-checking engine.

:func:`check_equivalence` runs the filter pipeline of DESIGN.md phase by
phase — build the miter, prove or refute it by truth tables when every
open output reads few enough inputs, otherwise preprocess it, encode it to
CNF, SAT-sweep the simulation classes with counterexample-guided
refinement, then decide each output pair — and every check runs the
same engine portfolio, structural hash then SAT, unless the caller
names engines (a named portfolio runs no table phase).  A
:class:`~repro.runtime.Budget` only bounds that work: the sweep, every
SAT call and a named BDD stage stop at its limits, and a check that runs
dry records an UNKNOWN verdict with a reason code instead of raising or
hanging.

Observability: the engine counts everything into one
:class:`~repro.obs.metrics.MetricsRegistry` (the canonical sink; the
``cec.*`` names are catalogued in ``docs/OBSERVABILITY.md``) and, when a
:class:`~repro.obs.trace.Tracer` is passed, emits a span tree —
``cec.check`` (pair) → ``cec.phase.*`` → ``cec.obligation`` →
``stage.<engine>`` — plus instants for budget exhaustion and lost
sweep units.  :class:`EngineStats` is the flat view,
rebuilt from the registry at finish (:meth:`EngineStats.from_metrics`),
so ``CheckResult.stats`` and ``CheckResult.engine`` consumers see the
same numbers.  The default tracer is the no-op
:data:`~repro.obs.trace.NULL_TRACER`.
"""

from __future__ import annotations

import enum
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.aig.aig import AIG, lit_to_cnf
from repro.aig.rewrite import preprocess_miter
from repro.bdd.bdd import BDD
from repro.bdd.circuit2bdd import circuit_bdds
from repro.cec.engines import (
    EngineAdapter,
    EngineContext,
    Obligation,
    resolve_portfolio,
    validate_counterexample,
)
from repro.cec.miter import MiterAIG, build_miter
from repro.cec.options import CecOptions
from repro.cec.parallel import (
    DEFERRED,
    EQ,
    NEQ,
    UNKNOWN,
    UnitResult,
    sweep_unit_payloads,
    sweep_units,
)
from repro.cec.partition import Candidate, WorkUnit, partition_candidates
from repro.netlist.circuit import Circuit
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullSpan, NullTracer, Span, Tracer, coerce_tracer
from repro.runtime.budget import (
    REASON_BDD_BLOWUP,
    REASON_RESOURCE_LIMIT,
    REASON_TIMEOUT,
    Budget,
)
from repro.runtime.errors import BddBlowupError
from repro.sat.cores import CoreIndex
from repro.sat.solver import Solver

__all__ = [
    "SAT_PORTFOLIO",
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

#: EngineStats counter field → canonical registry metric.  One table used
#: in both directions so the flat stats view and the metrics sink can
#: never drift apart.
_COUNTER_METRICS: Dict[str, str] = {
    "sat_queries": "cec.sat_queries",
    "sweep_candidates": "cec.sweep.candidates",
    "sweep_merges": "cec.sweep.merges",
    "sweep_refuted": "cec.sweep.refuted",
    "sweep_unknown": "cec.sweep.unknown",
    "refine_rounds": "cec.refine.rounds",
    "refine_patterns": "cec.refine.patterns",
    "refine_splits": "cec.refine.splits",
    "refine_saved": "cec.refine.queries_saved",
    "preprocess_removed": "cec.preprocess.nodes_removed",
    "cascade_sim": "cec.cascade.sim",
    "cascade_bdd": "cec.cascade.bdd",
    "cascade_sat": "cec.cascade.sat",
    "core_retired": "cec.sat.core_retired",
    "bdd_blowups": "cec.bdd_blowups",
    "budget_exhausted": "cec.budget_exhausted",
    "worker_failures": "cec.worker.failures",
}

_PHASE_PREFIX = "cec.phase."
_PHASE_SUFFIX = ".seconds"
_ENGINE_PREFIX = "cec.engine."
_ENGINE_DECIDED_SUFFIX = ".decided"


class CecVerdict(enum.Enum):
    EQUIVALENT = "equivalent"
    NOT_EQUIVALENT = "not_equivalent"
    UNKNOWN = "unknown"


@dataclass
class EngineStats:
    """Per-check tracing: phase wall times, query counts, sweep outcomes.

    Threaded through :func:`check_equivalence` into
    :class:`CheckResult.stats` (flattened via :meth:`as_dict`) so the flow
    harnesses and the CLI can report where the engine spends its time and
    how much work core retirement saves.

    This is now a *view*: the engine counts into a
    :class:`~repro.obs.metrics.MetricsRegistry` and rebuilds this object
    from it at finish (:meth:`from_metrics`).
    """

    n_units: int = 0
    sat_queries: int = 0
    sweep_candidates: int = 0
    sweep_merges: int = 0
    sweep_refuted: int = 0
    sweep_unknown: int = 0
    # Counterexample-guided refinement (fraiging) telemetry.
    refine_rounds: int = 0
    refine_patterns: int = 0
    refine_splits: int = 0
    refine_saved: int = 0
    # Cascade outcomes (budgeted and classic checks alike).
    cascade_sim: int = 0
    cascade_bdd: int = 0
    cascade_sat: int = 0
    # Assumption-core retirement.
    core_retired: int = 0
    bdd_blowups: int = 0
    budget_exhausted: int = 0
    # Sweep units lost to an exception.
    worker_failures: int = 0
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Output obligations decided per engine adapter name, and by the
    #: table phase as ``tables`` (from the ``cec.engine.<name>.decided``
    #: counters); sweep-decided candidates are not included — they are
    #: always SAT-decided by construction.
    engines_used: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_metrics(cls, metrics: MetricsRegistry) -> "EngineStats":
        """Rebuild the flat stats view from the canonical metric names."""
        stats = cls()
        for field_name, metric in _COUNTER_METRICS.items():
            setattr(stats, field_name, int(metrics.counter(metric)))
        stats.n_units = int(metrics.gauge("cec.n_units", 0))
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
        return stats

    def as_dict(self) -> Dict[str, float]:
        """Flatten to the numeric key/value form ``CheckResult.stats`` uses.

        Every canonical counter appears, zero or not — consumers can rely
        on the key set being identical across runs; anything that wants a
        compact view suppresses zeros at *render* time (see
        ``repro.flows.report.compact_stats``).
        """
        out: Dict[str, float] = {"n_units": self.n_units}
        for key in _COUNTER_METRICS:
            out[key] = getattr(self, key)
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


#: The SAT path as a named portfolio: the structural hash, then SAT.  A
#: check whose caller names no portfolio walks these adapters too when
#: its table phase leaves the check open; naming them runs the same path
#: without that phase.
#: A budget bounds either; it never changes which engines run.
SAT_PORTFOLIO = ("structural", "sat")

#: Widest output support, in AIG inputs, that the table phase of a
#: default check decides by exhaustive simulation.  Whole checks of
#: lowered Table 1 pairs (best of 3, one core of a shared Xeon host):
#: minmax10's 20-input outputs took 17 ms by tables against 39 ms on the
#: SAT path, s3384's 22-input output 14 ms against 57 ms, but minmax12's
#: 24-input outputs 213 ms against 43 ms, so SAT keeps everything wider.
_TABLE_INPUTS = 22


@dataclass
class _Check:
    """The state one :func:`check_equivalence` call shares between phases.

    The run's resources and sinks are fixed at the start; ``stats``
    collects the flat ``CheckResult.stats`` entries as the phases produce
    them, and the encode phase sets ``aig`` / ``solver`` / ``lit2cnf``.
    ``cores`` gathers the assumption cores found anywhere in the check
    (sweep units, output pairs); every query consults it before burning
    a solver call.

    The sweep fields persist across refinement rounds: ``active`` holds
    the nodes still eligible for signature classes (EQ-proven nodes
    retire onto their representative), ``resolved`` the ``(rep, node,
    phase)`` queries already decided, so they are never re-derived, and
    ``deferred_open`` the deferred queries that have not reappeared — at
    exit, the SAT queries refinement saved.
    """

    options: CecOptions
    budget: Optional[Budget]
    tracer: Union[Tracer, NullTracer]
    registry: MetricsRegistry
    caller_metrics: Optional[MetricsRegistry]
    root: Union[Span, NullSpan]
    t0: float
    stats: Dict[str, float] = field(default_factory=dict)
    aig: Optional[AIG] = None
    solver: Optional[Solver] = None
    lit2cnf: Optional[Callable[[int], int]] = None
    cores: CoreIndex = field(default_factory=CoreIndex)
    active: Set[int] = field(default_factory=set)
    resolved: Set[Tuple[int, int, bool]] = field(default_factory=set)
    deferred_open: Set[Tuple[int, int, bool]] = field(default_factory=set)

    def expired(self) -> bool:
        """True once the check's wall-clock budget has run out."""
        return self.budget is not None and self.budget.expired()

    def add_seconds(self, gauge: str, seconds: float) -> None:
        """Accumulate ``seconds`` on a gauge summed over sweep rounds."""
        total = self.registry.gauge(gauge, 0.0) + seconds
        self.registry.set_gauge(gauge, total)

    def merge(self, cand: Candidate) -> None:
        """Teach the solver that a candidate pair is proven equal."""
        a = self.lit2cnf(cand.rep_lit)
        b = self.lit2cnf(cand.node_lit)
        self.solver.add_clause([-a, b])
        self.solver.add_clause([a, -b])


def _exhausted(
    check: _Check, output: str, span: Union[Span, NullSpan], reason: str
) -> CheckResult:
    """Record a budget exhaustion on ``output``; the check's UNKNOWN."""
    check.registry.inc("cec.budget_exhausted")
    check.tracer.instant("budget.exhausted", output=output, reason=reason)
    span.annotate(verdict="unknown", reason=reason)
    return CheckResult(CecVerdict.UNKNOWN, reason=reason)


def _decide_obligation(
    check: _Check,
    ob: Obligation,
    adapters: Sequence[EngineAdapter],
    ctx: EngineContext,
    span: Union[Span, NullSpan],
) -> Optional[CheckResult]:
    """Walk the portfolio on one output pair; None once it is proven equal.

    Whatever engine decides the pair records its verdict; an engine that
    cannot decide passes the pair along.  The check's result comes back
    when the pair is refuted or stays undecided: an UNKNOWN outcome stops
    the whole check (budgeted checks report the exhausted resource as the
    reason code — nothing in here raises on resource exhaustion).
    """
    budget, metrics, tracer = check.budget, check.registry, check.tracer
    budget_checked = False
    for adapter in adapters:
        if budget is not None and adapter.proving and not budget_checked:
            # One wall check per pair, before the first proving engine.
            budget_checked = True
            if budget.expired():
                return _exhausted(check, ob.name, span, REASON_TIMEOUT)
        metrics.inc(f"cec.engine.{adapter.name}.attempts")
        if adapter.proving:
            with tracer.span(
                f"stage.{adapter.name}", cat="stage", output=ob.name
            ):
                outcome = adapter.decide(ob, ctx)
        else:
            outcome = adapter.decide(ob, ctx)
        if outcome.status in (EQ, NEQ):
            metrics.inc(f"cec.engine.{adapter.name}.decided")
            span.annotate(decided_by=adapter.name, verdict=outcome.status)
            if outcome.status == NEQ:
                return CheckResult(
                    CecVerdict.NOT_EQUIVALENT,
                    counterexample=outcome.counterexample,
                    failing_output=ob.name,
                )
            return None
        if outcome.status == UNKNOWN:
            if budget is not None:
                return _exhausted(
                    check, ob.name, span, outcome.reason or REASON_TIMEOUT
                )
            span.annotate(verdict="unknown")
            return CheckResult(CecVerdict.UNKNOWN, reason=outcome.reason)
        # PASS: the next engine in the portfolio gets the pair.
    # The portfolio ran dry without a decision — e.g. a sim-only
    # portfolio on an equivalent pair.  UNKNOWN with the generic resource
    # code: no engine was *exhausted*, the pool simply has no complete
    # prover for this pair.
    span.annotate(verdict="unknown", reason=REASON_RESOURCE_LIMIT)
    return CheckResult(CecVerdict.UNKNOWN, reason=REASON_RESOURCE_LIMIT)


def _check_outputs(
    check: _Check,
    miter: MiterAIG,
    adapters: Sequence[EngineAdapter],
    conflict_limit: Optional[int],
    sim_width: int,
    seed: int,
) -> CheckResult:
    """The output phase: every output pair walks the engine portfolio."""
    tracer = check.tracer
    ctx = EngineContext(
        aig=check.aig,
        solver=check.solver,
        lit2cnf=check.lit2cnf,
        metrics=check.registry,
        tracer=tracer,
        budget=check.budget,
        conflict_limit=conflict_limit,
        sim_width=sim_width,
        seed=seed,
        cores=check.cores,
    )
    names = [adapter.name for adapter in adapters]
    for name, l1, l2 in miter.output_pairs:
        if "structural" in names and l1 == l2:
            # The miter already hashed both cones onto one literal:
            # decided before any span opens.
            continue
        ob = Obligation(name=name, l1=l1, l2=l2)
        with tracer.span(
            "cec.obligation", cat="obligation", output=name
        ) as span:
            result = _decide_obligation(check, ob, adapters, ctx, span)
        if result is not None:
            return result
    return CheckResult(CecVerdict.EQUIVALENT)


def _begin(
    c1: Circuit,
    c2: Circuit,
    options: CecOptions,
    budget: Union[None, int, float, Budget],
    tracer: Union[None, Tracer, NullTracer],
    metrics: Optional[MetricsRegistry],
) -> _Check:
    """Open a check: its registry, started budget and root span."""
    tracer = coerce_tracer(tracer)
    registry = MetricsRegistry()
    budget = Budget.coerce(budget)
    if budget is not None and budget.unlimited:
        budget = None  # an empty budget constrains nothing
    if budget is not None:
        budget.start()
    root = tracer.span(
        "cec.check",
        cat="pair",
        c1=getattr(c1, "name", ""),
        c2=getattr(c2, "name", ""),
        budgeted=budget is not None,
    )
    return _Check(
        options=options,
        budget=budget,
        tracer=tracer,
        registry=registry,
        caller_metrics=metrics,
        root=root,
        t0=time.perf_counter(),
    )


def _build(check: _Check, c1: Circuit, c2: Circuit) -> Optional[MiterAIG]:
    """Build the miter; None when equivalence is already structural.

    Equivalence is structural when every output pair hashes onto one
    literal in the shared AIG; then no further phase is needed.
    """
    with check.tracer.span("cec.phase.build", cat="phase"):
        miter = build_miter(c1, c2)
    check.registry.set_gauge(
        "cec.phase.build.seconds", time.perf_counter() - check.t0
    )
    check.stats["aig_nodes"] = miter.aig.num_nodes()
    check.stats["aig_ands"] = miter.aig.num_ands()
    if miter.trivially_equivalent:
        check.stats["structural"] = 1
        check.root.annotate(structural=True)
        return None
    return miter


def _tables(check: _Check, miter: MiterAIG) -> Optional[CheckResult]:
    """The table phase: the check's result when truth tables decide it.

    An open output pair's support is the set of AIG inputs in the union
    of its two cones.  When no support is wider than
    :data:`_TABLE_INPUTS`, the pairs are grouped by support and the
    groups' joint cones are simulated over all their assignments
    (:meth:`~repro.aig.aig.AIG.cone_tables`) until the first differing
    pair in output order is known (:func:`_first_difference`).  No
    difference is EQUIVALENT.  Otherwise that pair is the failing output,
    the one the SAT path's output phase reports, and its lowest differing
    row, re-simulated through
    :func:`~repro.cec.engines.validate_counterexample`, is the
    counterexample.  A wider support, or a budget that runs out before a
    slice, decides nothing (None): the check goes on to the SAT path.
    """
    aig, registry = miter.aig, check.registry
    t_tables = time.perf_counter()
    result: Optional[CheckResult] = None
    decided = 0
    with check.tracer.span("cec.phase.tables", cat="phase") as span:
        pairs = [pair for pair in miter.output_pairs if pair[1] != pair[2]]
        masks = aig.support_masks()
        groups: Dict[int, List[int]] = {}
        for position, (_, l1, l2) in enumerate(pairs):
            support = masks[l1 >> 1] | masks[l2 >> 1]
            groups.setdefault(support, []).append(position)
        widest = max(bin(support).count("1") for support in groups)
        found = None
        if widest <= _TABLE_INPUTS:
            found = _first_difference(check, aig, pairs, groups.values())
        if found is not None:
            position, row = found
            if row is None:
                result = CheckResult(CecVerdict.EQUIVALENT)
                decided = len(pairs)
            else:
                name, l1, l2 = pairs[position]
                validate_counterexample(aig, row, l1, l2, name)
                result = CheckResult(
                    CecVerdict.NOT_EQUIVALENT,
                    counterexample=row,
                    failing_output=name,
                )
                decided = position + 1
                span.annotate(refuted=name)
        span.annotate(decided=decided, widest_support=widest)
    registry.set_gauge(
        "cec.phase.tables.seconds", time.perf_counter() - t_tables
    )
    registry.set_gauge("cec.tables.widest_support", widest)
    if decided:
        registry.inc("cec.engine.tables.decided", decided)
    return result


def _first_difference(
    check: _Check,
    aig: AIG,
    pairs: Sequence[Tuple[str, int, int]],
    groups: Iterable[List[int]],
) -> Optional[Tuple[int, Optional[Dict[str, bool]]]]:
    """The first differing pair's position, and its lowest differing row.

    ``groups`` hold pair positions in ascending order and come in order
    of their first position.  A group's slices are compared only on its
    pairs before the earliest difference found so far, and a group that
    starts after that difference is not simulated, so the walk stops once
    every pair before it is proven equal.  A pair's first differing slice
    holds its lowest differing row, which comes back as an input
    assignment (:meth:`~repro.aig.aig.AIG.cone_table_row`).  Position
    ``len(pairs)`` with no row means every pair is equal.  The budget is
    read before every slice, so a budgeted check overruns its deadline by
    at most one 2^16-row slice of a cone; None when it runs out.
    """
    first, where = len(pairs), None
    for positions in groups:
        if positions[0] >= first:
            break
        lits = [lit for p in positions for lit in pairs[p][1:]]
        slices = aig.cone_tables(lits)
        slice_no = 0
        while positions[0] < first:
            if check.expired():
                return None
            words = next(slices, None)
            if words is None:
                break
            for j, p in enumerate(positions):
                if p >= first:
                    break
                if words[2 * j] != words[2 * j + 1]:
                    diff = words[2 * j] ^ words[2 * j + 1]
                    first = p
                    where = (lits, slice_no, (diff & -diff).bit_length() - 1)
                    break
            slice_no += 1
    if where is None:
        return first, None
    return first, aig.cone_table_row(*where)


def _preprocess(check: _Check, miter: MiterAIG) -> Optional[MiterAIG]:
    """Rewrite the miter; None when that makes equivalence structural."""
    registry, tracer = check.registry, check.tracer
    if check.options.preprocess and not check.expired():
        t_pre = time.perf_counter()
        with tracer.span("cec.phase.preprocess", cat="phase"):
            miter, removed = preprocess_miter(miter)
        registry.set_gauge(
            "cec.phase.preprocess.seconds", time.perf_counter() - t_pre
        )
        registry.inc("cec.preprocess.nodes_removed", removed)
        check.stats["aig_ands_preprocessed"] = miter.aig.num_ands()
        if miter.trivially_equivalent:
            check.stats["structural"] = 1
            check.root.annotate(structural=True, preprocessed=True)
            return None
    return miter


def _encode(check: _Check, aig: AIG) -> None:
    """Load the miter AIG's CNF, clause by clause, on a fresh solver."""
    t_enc = time.perf_counter()
    with check.tracer.span("cec.phase.encode", cat="phase"):
        solver = Solver()
        solver.metrics = check.registry
        solver.ensure_vars(aig.num_nodes())
        if not solver.add_clauses(aig.cnf_clauses()):
            # The AIG CNF alone can only be UNSAT if something is deeply wrong.
            raise RuntimeError("inconsistent AIG encoding")
    check.registry.set_gauge(
        "cec.phase.encode.seconds", time.perf_counter() - t_enc
    )
    check.aig, check.solver, check.lit2cnf = aig, solver, lit_to_cnf


def _fold_unit(
    check: _Check,
    index: int,
    unit: WorkUnit,
    result: UnitResult,
    collected: Optional[List[Tuple[Candidate, Dict[str, bool]]]],
) -> bool:
    """Fold one unit's sweep result into the check; True if it deferred.

    The unit's cores join the shared index (unit results arrive already
    remapped to the parent's variable space).  EQ candidates retire
    their node and are merged on the parent's solver; NEQ and UNKNOWN
    ones are resolved, and NEQ models land in ``collected`` as PI
    patterns when it is given.
    """
    registry, aig = check.registry, check.aig
    if result.error:
        registry.inc("cec.worker.failures")
        check.tracer.instant("sweep.unit.lost", unit=index, error=result.error)
    registry.inc("cec.sat_queries", result.sat_queries)
    if result.core_retired:
        registry.inc("cec.sat.core_retired", result.core_retired)
    check.cores.add_many(result.cores)
    deferred = False
    for ci, (cand, status) in enumerate(zip(unit.candidates, result.statuses)):
        if status == EQ:
            registry.inc("cec.sweep.merges")
            check.merge(cand)
            check.active.discard(cand.node)
        elif status == NEQ:
            registry.inc("cec.sweep.refuted")
            check.resolved.add(_pair_key(cand))
            model = result.model_for(ci)
            if collected is not None and model is not None:
                collected.append((cand, _model_to_pattern(aig, model)))
        elif status == DEFERRED:
            deferred = True
            check.deferred_open.add(_pair_key(cand))
        else:
            registry.inc("cec.sweep.unknown")
            check.resolved.add(_pair_key(cand))
    return deferred


def _sweep_round(
    check: _Check,
    class_list: List[List[Candidate]],
    sweep_limit: int,
    refining: bool,
    round_no: int,
) -> Tuple[List[Tuple[Candidate, Dict[str, bool]]], bool]:
    """Partition, sweep and fold one round's candidates.

    Returns the round's refuting ``(candidate, PI pattern)`` pairs (only
    when ``refining``) and whether any query was deferred.
    """
    registry, tracer, aig = check.registry, check.tracer, check.aig
    t_part = time.perf_counter()
    with tracer.span("cec.phase.partition", cat="phase"):
        units = partition_candidates(aig, class_list)
    registry.max_gauge("cec.n_units", len(units))
    check.add_seconds(
        "cec.phase.partition.seconds", time.perf_counter() - t_part
    )

    t_sweep = time.perf_counter()
    budget = check.budget
    sweep_span = tracer.span(
        "cec.phase.sweep", cat="phase", n_units=len(units), round=round_no
    )
    payloads = sweep_unit_payloads(
        check.solver,
        units,
        sweep_limit,
        deadline=budget.deadline if budget is not None else None,
        defer=refining,
        collect_models=refining,
        pi_nodes=aig.pis,
        known_cores=check.cores.export(),
    )
    # Unit solvers count ``sat.*`` only when a trace or the caller reads
    # the registry: counting is ~2% of an untraced check's Python calls.
    observed = tracer.enabled or check.caller_metrics is not None
    results = sweep_units(payloads, tracer, registry if observed else None)
    collected: List[Tuple[Candidate, Dict[str, bool]]] = []
    deferred = False
    for index, (unit, result) in enumerate(zip(units, results)):
        if _fold_unit(
            check,
            index,
            unit,
            result,
            collected=collected if refining else None,
        ):
            deferred = True
    sweep_span.annotate(
        merges=int(registry.counter("cec.sweep.merges")),
        refuted=int(registry.counter("cec.sweep.refuted")),
        unknown=int(registry.counter("cec.sweep.unknown")),
    )
    sweep_span.close()
    check.add_seconds("cec.phase.sweep.seconds", time.perf_counter() - t_sweep)
    return collected, deferred


def _refine_round(
    check: _Check,
    classes: Dict[int, List[int]],
    signatures: List[int],
    sig_mask: int,
    collected: Sequence[Tuple[Candidate, Dict[str, bool]]],
    round_no: int,
) -> Tuple[List[int], int]:
    """Re-split the round's signature classes with its refuting models."""
    t_refine = time.perf_counter()
    with check.tracer.span(
        "cec.phase.refine", cat="phase", round=round_no, models=len(collected)
    ) as refine_span:
        signatures, sig_mask, n_patterns = _refine_signatures(
            check.aig, signatures, sig_mask, collected
        )
        splits = 0
        for members in classes.values():
            alive = [n for n in members if n in check.active]
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
    check.registry.inc("cec.refine.rounds")
    check.registry.inc("cec.refine.patterns", n_patterns)
    check.registry.inc("cec.refine.splits", splits)
    check.add_seconds(
        "cec.phase.refine.seconds", time.perf_counter() - t_refine
    )
    return signatures, sig_mask


def _sweep(
    check: _Check,
    sim_rounds: int,
    sim_width: int,
    seed: int,
    conflict_limit: Optional[int],
    refine_rounds: int,
) -> None:
    """The sweep phase: simulation classes, SAT-swept round by round.

    While refinement is active, one NEQ in a signature class defers the
    class's remaining queries, and the round's refuting models re-split
    the classes for the next round; the loop ends when a round yields no
    new pattern, after ``refine_rounds`` rounds, or when the budget runs
    out.
    """
    registry, tracer, aig = check.registry, check.tracer, check.aig
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
            "cec.sim.words_per_sec", aig.num_nodes() * sim_lanes / sim_seconds
        )

    sweep_limit = conflict_limit or 2000
    budget = check.budget
    if budget is not None and budget.sat_conflicts is not None:
        sweep_limit = min(sweep_limit, budget.sat_conflicts)

    check.active = set(range(aig.num_nodes()))
    group_offset = 0
    round_no = 0
    force_final = False
    while not check.expired():
        refining = (
            check.options.refine
            and round_no < refine_rounds
            and not force_final
        )
        classes = _signature_classes(signatures, sig_mask, check.active)
        class_list = _class_candidates(
            aig, classes, signatures, check.resolved, group_offset
        )
        group_offset += len(classes)
        if not class_list:
            break
        registry.inc(
            "cec.sweep.candidates", sum(len(cls) for cls in class_list)
        )
        if check.deferred_open:
            # A deferred query that comes back as a candidate was not
            # saved after all; it is about to be solved (or deferred
            # again).
            for cls in class_list:
                for cand in cls:
                    check.deferred_open.discard(_pair_key(cand))
        collected, deferred = _sweep_round(
            check, class_list, sweep_limit, refining, round_no
        )
        if collected and refining:
            signatures, sig_mask = _refine_round(
                check, classes, signatures, sig_mask, collected, round_no
            )
            round_no += 1
            continue
        if deferred and refining:
            # No usable model came back (e.g. a lost unit swallowed it)
            # but queries were deferred on its account: finish them in
            # one last non-deferring pass.
            force_final = True
            continue
        break
    registry.inc("cec.refine.queries_saved", len(check.deferred_open))


def _finish(check: _Check, result: CheckResult) -> CheckResult:
    """Close a check: attach stats, close the root span."""
    registry = check.registry
    check.stats["time"] = time.perf_counter() - check.t0
    engine = EngineStats.from_metrics(registry)
    check.stats.update(engine.as_dict())
    result.stats = check.stats
    result.engine = engine
    if check.tracer.enabled:
        check.tracer.metrics(registry.as_flat_dict(), name="cec.metrics")
    check.root.annotate(verdict=result.verdict.value)
    if result.reason:
        check.root.annotate(reason=result.reason)
    check.root.close()
    if check.caller_metrics is not None:
        check.caller_metrics.merge(registry)
    return result


def check_equivalence(
    c1: Circuit,
    c2: Circuit,
    options: Optional[CecOptions] = None,
    *,
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
    (``budget``, ``tracer``, ``metrics``) and the low-level
    sweep parameters (``sim_rounds``, ``sim_width``, ``sweep``,
    ``conflict_limit``, ``seed``, ``refine_rounds``) are keywords.

    The check runs in phases: build the miter, preprocess it, encode it,
    SAT-sweep its simulation classes, then decide each output pair with
    the engine portfolio.  ``sweep=False`` skips the sweep (pure
    monolithic SAT on the miter).  The sweep partitions its candidates
    into cone-disjoint work units and proves each, one at a time, on its
    own solver over only the unit's cone.

    A check whose caller names no portfolio first tries truth tables,
    right after the build: when every output pair the miter leaves open
    reads at most :data:`_TABLE_INPUTS` inputs (the union of its two
    cones), groups of pairs with one input set are simulated over all
    their assignments, with no preprocessing, encoding, sweep or solver
    (``time_tables``, ``engine_tables``).  Agreement on every pair is
    EQUIVALENT.  Otherwise the first differing pair in output order, the
    one the SAT path reports, is the failing output, and its lowest
    differing row, with every input outside its cone False, is the
    counterexample.  A wider output or a spent budget runs the rest of
    the pipeline as if the phase were not there, so verdicts,
    counterexamples, failing outputs and UNKNOWN reasons come from the
    SAT path.

    ``options.refine`` (default on) closes the simulation↔solver loop
    FRAIG style: every refuting SAT model from the sweep is appended as a
    new simulation-pattern column, the surviving signature classes are
    re-split, and the sweep repeats until no new pattern appears (or
    ``refine_rounds`` is reached).  ``options.preprocess`` (default on)
    rewrites the miter before any sweep — constant propagation,
    structural hashing, local two-level rewrites and dead-node
    elimination (:func:`repro.aig.rewrite.preprocess_miter`); the
    AND-node reduction is recorded as ``cec.preprocess.nodes_removed``.
    Neither changes a verdict.

    ``options.engines`` names the output-check portfolio — a sequence
    (or comma-separated string) of registered engine names, see
    :func:`repro.cec.engines.available_engines` — walked in order for
    each output pair.  None (the default) runs structural hashing, then
    the table phase, then ``sat``.  A named portfolio runs exactly what
    it names: :data:`SAT_PORTFOLIO`, ``("structural", "sat")``, is the
    default without the table phase.  A portfolio without ``sat`` skips
    the sweep (sweeping is SAT work).  Unknown names raise
    :class:`ValueError` before any solving starts.

    ``budget`` — a :class:`~repro.runtime.Budget` or bare wall-clock
    seconds — bounds the portfolio without changing it: the sweep, every
    SAT call (conflicts, propagations, deadline), one wall check per
    output pair before its first proving engine, and the node cap of a
    ``bdd`` stage the caller named.  Exhaustion yields an UNKNOWN verdict
    with ``CheckResult.reason`` set, never an exception or a hang.

    ``tracer`` — a :class:`~repro.obs.trace.Tracer` — records the span
    tree of the check (None means the no-op tracer).  ``metrics`` — a
    caller-owned :class:`~repro.obs.metrics.MetricsRegistry` — receives
    a merge of the check's full metric set at finish (the engine counts
    into its own per-check registry first, so a registry shared across
    checks cannot corrupt any single check's stats).

    Every UNSAT under assumptions feeds a shared
    :class:`~repro.sat.cores.CoreIndex`; sweep and output queries whose
    assumptions a known core subsumes are retired without a solver call
    (``cec.sat.core_retired``).  Retirement reduces work only; it never
    changes a verdict.
    """
    if options is None:
        options = CecOptions()
    # Resolve the portfolio first, so an unknown engine name raises
    # before any miter or solver work happens.
    portfolio = resolve_portfolio(
        options.engines if options.engines is not None else SAT_PORTFOLIO
    )
    check = _begin(c1, c2, options, budget, tracer, metrics)
    if options.engines is not None:
        check.root.annotate(engines=",".join(a.name for a in portfolio))
    miter = _build(check, c1, c2)
    if miter is None:
        return _finish(check, CheckResult(CecVerdict.EQUIVALENT))
    if options.engines is None and not check.expired():
        result = _tables(check, miter)
        if result is not None:
            return _finish(check, result)
    miter = _preprocess(check, miter)
    if miter is None:
        return _finish(check, CheckResult(CecVerdict.EQUIVALENT))
    _encode(check, miter.aig)
    if (
        sweep
        and any(adapter.name == "sat" for adapter in portfolio)
        and not check.expired()
    ):
        _sweep(
            check, sim_rounds, sim_width, seed, conflict_limit, refine_rounds
        )
    for key in ("merges", "refuted", "unknown"):
        check.stats[f"sweep_{key}"] = check.registry.counter(
            f"cec.sweep.{key}"
        )
    t_out = time.perf_counter()
    with check.tracer.span("cec.phase.outputs", cat="phase"):
        result = _check_outputs(
            check, miter, portfolio, conflict_limit, sim_width, seed
        )
    check.registry.set_gauge(
        "cec.phase.outputs.seconds", time.perf_counter() - t_out
    )
    return _finish(check, result)


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
