"""Sweep work units in-process, each on its own cone-sliced solver.

Every sweep round runs each cone-disjoint work unit
(:mod:`repro.cec.partition`) from a payload: the parent solver's
root-level clause slice for the unit's cone, remapped to a dense
variable space so the unit's CDCL heuristics never touch foreign
variables, plus the candidate queries.  :func:`sweep_unit_payloads` cuts
every unit's slice in one pass per round, reading the parent's root
trail and clause lists in place through
:meth:`~repro.sat.solver.Solver.root_clauses` (the remapped slice is the
only copy), and :func:`sweep_units` runs the payloads one at a time in
the calling process.  Each unit loads its slice into its own incremental
:class:`~repro.sat.solver.Solver` with one
:meth:`~repro.sat.solver.Solver.add_clauses` call, proves or refutes
candidates in topological order — locally proven merges strengthen the
unit's later queries — and returns one status per candidate.  The
engine then merges proven equivalences back into the parent solver
before the next round and the final output checks.

Assumption cores travel with the unit: the known cores, sliced to the
unit like its clauses, seed a per-unit
:class:`~repro.sat.cores.CoreIndex`; queries whose assumptions a core
subsumes are retired without solving, and the unit's cores come home in
the parent's variable space for the engine's shared index.

A unit that raises is lost, not retried — rerunning a deterministic unit
repeats its failure.  It keeps the verdicts it decided before the
failure (each candidate is proven independently, so partial statuses
are sound) and records UNKNOWN for the rest: the sweep is an
accelerator, so losing part of a unit loses merges, never soundness.

Each unit records onto the check's own sinks: its ``sweep.unit`` span
nests under the innermost open span of the check's tracer, with the
unit's size, effort and its load and search seconds as args, and its
solver counts into the check's metrics registry when one is passed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cec.partition import WorkUnit
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACER, NullSpan, NullTracer, Span, Tracer
from repro.runtime import chaos
from repro.sat.cores import CoreIndex, core_retires
from repro.sat.solver import Solver

__all__ = ["UnitPayload", "UnitResult", "sweep_unit_payloads", "sweep_units"]

EQ = "eq"
NEQ = "neq"
UNKNOWN = "unknown"
#: A query skipped because an earlier query already refuted its signature
#: class this round; the refinement loop re-simulates with the refuting
#: model and re-splits the class, so the pair is re-derived (or proven
#: distinct) from better signatures instead of burning a SAT query now.
DEFERRED = "deferred"


class UnitPayload(NamedTuple):
    """One unit's sweep job, in the unit's variable space.

    Local variable ``i + 1`` is parent CNF variable ``global_vars[i]``.
    ``queries`` holds ``(rep var, node var, phase_equal, group)`` per
    candidate; ``deadline`` is an absolute ``time.monotonic()``
    timestamp.  ``defer`` / ``collect_models`` carry the refinement
    context, with ``pi_map`` pairing each local PI variable with its
    global PI node id.  ``known_cores`` are the known assumption cores,
    already sliced to the unit.
    """

    num_vars: int
    clauses: List[List[int]]
    queries: List[Tuple[int, int, bool, int]]
    conflict_limit: Optional[int]
    deadline: Optional[float]
    unit_index: int
    defer: bool
    collect_models: bool
    pi_map: List[Tuple[int, int]]
    known_cores: List[List[int]]
    global_vars: List[int]


@dataclass
class UnitResult:
    """Per-unit sweep outcome: one status per candidate plus effort.

    ``error`` records the exception of a lost unit — statuses decided
    before the failure are kept and the remainder are UNKNOWN.
    ``models`` aligns with ``statuses`` when NEQ-model collection was on:
    the refuting PI assignment (``{pi node id: value}``) per NEQ status,
    None elsewhere — the raw material of the refinement loop.  ``cores``
    are the assumption cores the unit knows at exit, in the parent's CNF
    variable space; ``core_retired`` counts queries the unit answered
    from a core without solving.
    """

    statuses: List[str] = field(default_factory=list)
    sat_queries: int = 0
    error: Optional[str] = None
    models: Optional[List[Optional[Dict[int, bool]]]] = None
    cores: List[List[int]] = field(default_factory=list)
    core_retired: int = 0

    def model_for(self, index: int) -> Optional[Dict[int, bool]]:
        """The refuting model for candidate ``index``, if one was kept."""
        if self.models is None or index >= len(self.models):
            return None
        return self.models[index]


def _holders(var_maps: Sequence[Dict[int, int]]) -> Dict[int, List[int]]:
    """Parent variable → the units (indices into ``var_maps``) holding it."""
    holders: Dict[int, List[int]] = {}
    for unit, var_of in enumerate(var_maps):
        for var in var_of:
            holders.setdefault(var, []).append(unit)
    return holders


def _slice(
    groups: Iterable[Sequence[int]],
    holders: Dict[int, List[int]],
    var_maps: Sequence[Dict[int, int]],
) -> List[List[List[int]]]:
    """Bucket literal groups by unit in one pass, remapped to local space.

    A group lands in every unit whose map holds all its variables — what
    filtering the groups once per unit would give, in the same order.
    Only the units holding the group's least-shared variable are tried:
    one for any group over an AND node (clusters are cone-disjoint), all
    holders for a group over shared PIs or the constant alone.
    """
    out: List[List[List[int]]] = [[] for _ in var_maps]
    everyone = range(len(var_maps))
    for group in groups:
        owners: Sequence[int] = everyone
        for lit in group:
            held = holders.get(abs(lit))
            if held is None:
                owners = ()
                break
            if len(held) < len(owners):
                owners = held
        for unit in owners:
            var_of = var_maps[unit]
            try:
                local = [var_of[lit] if lit > 0 else -var_of[-lit] for lit in group]
            except KeyError:
                continue  # a variable outside this unit's cone
            out[unit].append(local)
    return out


def sweep_unit_payloads(
    solver: Solver,
    units: Sequence[WorkUnit],
    conflict_limit: Optional[int],
    deadline: Optional[float] = None,
    defer: bool = False,
    collect_models: bool = False,
    pi_nodes: Optional[Sequence[int]] = None,
    known_cores: Optional[Sequence[Sequence[int]]] = None,
) -> List[UnitPayload]:
    """One payload per unit, every slice cut from the parent in one pass.

    A unit's clauses are the parent's root-level units and original
    clauses (:meth:`~repro.sat.solver.Solver.root_clauses`) over only
    the unit's cone variables (node ``n`` is CNF variable ``n + 1``);
    ``known_cores`` — the engine's assumption cores in the parent's
    variable space — are sliced the same way, since a core mentioning a
    foreign variable is meaningless to the slice.

    ``deadline`` is the budget's absolute ``time.monotonic()`` deadline.
    ``defer`` turns on per-group deferral (after one NEQ in a signature
    class, the class's remaining queries come back DEFERRED instead of
    being solved); ``collect_models`` asks for the refuting PI
    assignment of every NEQ, translated back to global node ids via
    ``pi_nodes`` (the AIG's PI node list — only PIs inside the unit's
    cone appear in a model, the rest are unconstrained).
    """
    var_maps = [
        {node + 1: i + 1 for i, node in enumerate(sorted(unit.cone))}
        for unit in units
    ]
    holders = _holders(var_maps)
    clauses = _slice(solver.root_clauses(), holders, var_maps)
    cores = _slice(known_cores or (), holders, var_maps)
    pis = set(pi_nodes or ()) if collect_models else set()
    payloads: List[UnitPayload] = []
    for u, (unit, var_of) in enumerate(zip(units, var_maps)):
        pi_map = [
            (local, var - 1) for var, local in var_of.items() if var - 1 in pis
        ]
        payloads.append(
            UnitPayload(
                num_vars=len(var_of),
                clauses=clauses[u],
                queries=[
                    (var_of[c.rep + 1], var_of[c.node + 1], c.phase_equal, c.group)
                    for c in unit.candidates
                ],
                conflict_limit=conflict_limit,
                deadline=deadline,
                unit_index=unit.index,
                defer=defer,
                collect_models=collect_models,
                pi_map=pi_map,
                known_cores=cores[u],
                global_vars=list(var_of),
            )
        )
    return payloads


def _sweep_unit(
    payload: UnitPayload,
    result: UnitResult,
    metrics: Optional[MetricsRegistry],
    span: Union[Span, NullSpan],
) -> None:
    """Run one unit's queries on a fresh solver, recording into ``result``.

    Statuses, models and the query count land in ``result`` as each
    candidate is decided, so a failure mid-unit leaves the decided
    prefix in place.  The unit's effort lands on ``span`` at the end:
    its queries, core retirements, and the search's conflicts and
    propagations, with the seconds spent loading the slice and
    searching (three clock reads per unit, none per query).
    """
    chaos.fire("worker.entry", payload)
    conflict_limit, deadline = payload.conflict_limit, payload.deadline
    statuses, models = result.statuses, result.models
    t_start = time.perf_counter()
    solver = Solver()
    solver.metrics = metrics
    solver.ensure_vars(payload.num_vars)
    if not solver.add_clauses(payload.clauses):
        raise RuntimeError("inconsistent CNF slice in sweep unit")
    t_loaded = time.perf_counter()
    load_propagations = solver.stats_propagations
    core_index = CoreIndex()
    core_index.add_many(payload.known_cores)
    refuted_groups: set = set()

    def query(
        assumptions: List[int],
    ) -> Tuple[Optional[str], Optional[Dict[int, bool]]]:
        # One direction: None when UNSAT (from a subsuming core or the
        # solver), NEQ with the model, UNKNOWN on a resource limit.
        if core_retires(solver, core_index, assumptions):
            result.core_retired += 1
            return None, None
        res = solver.solve(
            assumptions=assumptions,
            conflict_limit=conflict_limit,
            deadline=deadline,
        )
        result.sat_queries += 1
        if solver.last_unknown:
            return UNKNOWN, None
        if res.satisfiable:
            return NEQ, res.model
        if res.core is not None:
            core_index.add(res.core)
        return None, None

    for a, b_var, phase_equal, group in payload.queries:
        if payload.defer and group in refuted_groups:
            status, model = DEFERRED, None
        else:
            b = b_var if phase_equal else -b_var
            status, model = query([a, -b])
            if status is None:
                status, model = query([-a, b])
            if status is None:
                solver.add_clause([-a, b])
                solver.add_clause([a, -b])
                status = EQ
            elif status == NEQ:
                refuted_groups.add(group)
        statuses.append(status)
        if models is not None:
            models.append(
                None
                if model is None
                else {
                    node: bool(model.get(var, False))
                    for var, node in payload.pi_map
                }
            )
    global_vars = payload.global_vars
    # Unit-local literals back to the parent's CNF variables.
    result.cores = [
        [global_vars[abs(lit) - 1] * (1 if lit > 0 else -1) for lit in core]
        for core in core_index.export()
    ]
    span.annotate(
        sat_queries=result.sat_queries,
        core_retired=result.core_retired,
        conflicts=solver.stats_conflicts,
        propagations=solver.stats_propagations - load_propagations,
        load_s=t_loaded - t_start,
        search_s=time.perf_counter() - t_loaded,
    )


def sweep_units(
    payloads: Sequence[UnitPayload],
    tracer: Union[Tracer, NullTracer] = NULL_TRACER,
    metrics: Optional[MetricsRegistry] = None,
) -> List[UnitResult]:
    """Sweep every unit's payload in-process, in order; results align.

    Each unit gets a ``sweep.unit`` span on ``tracer`` and its solver
    counts into ``metrics``.  A unit that raises keeps its decided
    prefix, UNKNOWN for the rest, with the exception in ``error``.
    """
    results: List[UnitResult] = []
    for payload in payloads:
        result = UnitResult(models=[] if payload.collect_models else None)
        try:
            with tracer.span(
                "sweep.unit",
                cat="worker",
                unit=payload.unit_index,
                candidates=len(payload.queries),
                cone_vars=payload.num_vars,
                clauses=len(payload.clauses),
            ) as span:
                _sweep_unit(payload, result, metrics, span)
        except Exception as exc:  # noqa: BLE001 - a lost unit loses
            # merges, never a verdict: keep the decided prefix.
            result.error = repr(exc)
            missing = len(payload.queries) - len(result.statuses)
            result.statuses.extend([UNKNOWN] * missing)
            if result.models is not None:
                result.models.extend([None] * missing)
        results.append(result)
    return results
