"""Sweep work units on their own cone-sliced solvers, in-process or pooled.

Every sweep round runs each cone-disjoint work unit
(:mod:`repro.cec.partition`) as a self-contained payload: the parent
solver's root-level clause slice for the unit's cone, remapped to a dense
variable space so the unit's CDCL heuristics never touch foreign
variables, plus the candidate queries.  :func:`sweep_unit_payloads` cuts
every unit's slice in one pass over the parent's clauses per round.
:func:`sweep_units` then runs the payloads through the same worker
function, :func:`_sweep_unit_worker`: in-process, one unit at a time, at
``n_jobs=1``, on a process pool otherwise.  Each unit runs its own
incremental :class:`~repro.sat.solver.Solver`, proves or refutes
candidates in topological order — locally proven merges strengthen the
unit's later queries — and returns one status per candidate.  The engine
then merges proven equivalences back into the parent solver before the
next round and the final output checks.

Two kinds of solver knowledge travel with the unit:

* **Shared learned clauses** — the engine's clause pool (quality-filtered
  learned clauses harvested from earlier rounds' units) is sliced to
  each unit's variable map and imported into its solver before it
  starts; at exit the unit exports its own short/low-LBD learned clauses
  back (already remapped to the parent's variable space).  A unit
  requeued in-process after a pool fault additionally folds in the
  clauses its surviving siblings exported this round.  Every clause in
  the pool is a consequence of clauses every solver shares (unit slices
  are subsets of the parent's clause set, merge clauses hold on all
  circuit-consistent assignments), so sharing can never change a verdict.
* **Assumption cores** — known cores (same variable-space discipline)
  seed a per-unit :class:`~repro.sat.cores.CoreIndex`; queries whose
  assumptions a core subsumes are retired without solving, and fresh
  cores ship home for the engine's shared index.

Dispatch is resource-governed and degrades instead of aborting:

* with ``n_jobs > 1`` a ``fork`` process pool is used when available;
  any environment that refuses to spawn processes (or a pool that breaks
  mid-flight) falls back to in-process execution of the same payloads;
* pooled units share a wall-clock window (``unit_timeout``); a worker
  that crashes or hangs past it is killed with the pool and its unit is
  *requeued in-process* with bounded retry + backoff;
* a unit that still fails after its retries keeps whatever verdicts its
  attempts decided before dying (each candidate is proven independently,
  so partial statuses are sound) and records UNKNOWN for the rest — the
  sweep is an accelerator: losing part of a unit loses merges, never
  soundness.  Partial ``sat_queries`` and wall time from failed attempts
  are likewise preserved on the :class:`UnitResult` instead of vanishing.

Observability: when the payload requests collection, each unit records
its own metrics (:class:`repro.obs.metrics.MetricsRegistry` — solver
effort histograms) and spans (a buffering
:class:`repro.obs.trace.Tracer` against the parent's epoch) and ships
them back with the unit result; the engine re-parents the spans into the
main trace, so per-unit lanes, hung-worker kills, and requeues all show
up in the timeline.

Because every ``n_jobs`` runs the same payloads through the same worker
function, ``n_jobs`` never changes a verdict, only wall time — even
under worker faults.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import random
import time
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.cec.partition import WorkUnit
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.runtime import chaos
from repro.runtime.retry import run_with_retries
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
    """One unit's self-contained sweep job, in the unit's variable space.

    Local variable ``i + 1`` is parent CNF variable ``global_vars[i]``.
    ``queries`` holds ``(rep var, node var, phase_equal, group)`` per
    candidate; ``deadline`` is an absolute ``time.monotonic()`` timestamp
    (system-wide under ``fork``, like ``trace_epoch``).  ``collect`` asks
    for the unit's own spans and metrics; ``defer`` / ``collect_models``
    carry the refinement context, with ``pi_map`` pairing each local PI
    variable with its global PI node id.  ``shared_clauses`` /
    ``known_cores`` are peer learned clauses and known assumption cores,
    already sliced to the unit.
    """

    num_vars: int
    clauses: List[List[int]]
    queries: List[Tuple[int, int, bool, int]]
    conflict_limit: Optional[int]
    deadline: Optional[float]
    unit_index: int
    collect: bool
    trace_epoch: float
    defer: bool
    collect_models: bool
    pi_map: List[Tuple[int, int]]
    shared_clauses: List[List[int]]
    known_cores: List[List[int]]
    global_vars: List[int]


# (statuses, sat_queries, seconds, obs, models, extras) where obs is
# None or {"metrics": registry.to_dict(), "events": [trace events]},
# models aligns with statuses (a {pi node: value} dict per NEQ when
# collection is on, None otherwise), and extras is None or
# {"learned": [...], "cores": [...], "core_retired": n,
#  "shared_imported": n} with clauses/cores in the parent's variable
# space.
_WorkerOutput = Tuple[
    List[str],
    int,
    float,
    Optional[Dict[str, Any]],
    Optional[List[Optional[Dict[int, bool]]]],
    Optional[Dict[str, Any]],
]

# Legacy test seam: fault-injection hook run at the entry of every sweep
# unit, in pool workers and in-process alike.  ``fork`` children inherit
# a monkeypatched value, so tests can simulate crashing workers
# deterministically.  New code should prefer the shared registry in
# :mod:`repro.runtime.chaos` (the ``worker.entry`` site fires right after
# this hook); the attribute stays for existing monkeypatch users.
_fault_hook: Optional[Callable[[UnitPayload], None]] = None


class UnitResult:
    """Per-unit sweep outcome: one status per candidate plus timings.

    ``error`` records the final failure of a unit whose worker (and
    retries) died — statuses decided before the failure are kept and the
    remainder are UNKNOWN.  ``retries`` counts how many re-attempts the
    dispatcher spent on the unit.  ``events`` / ``metrics`` carry the
    unit's trace events and metrics snapshot when collection was on.
    ``models`` aligns with ``statuses`` when NEQ-model collection was on:
    the refuting PI assignment (``{pi node id: value}``) per NEQ status,
    None elsewhere — the raw material of the refinement loop.

    ``learned`` / ``cores`` carry the unit's quality-filtered learned
    clauses and the assumption cores it knows at exit, both already in
    the parent's CNF variable space; ``core_retired`` counts queries the
    unit answered from a core without solving, ``shared_imported`` the
    peer clauses it actually installed.
    """

    def __init__(
        self,
        statuses: List[str],
        sat_queries: int,
        seconds: float,
        error: Optional[str] = None,
        retries: int = 0,
        events: Optional[List[Dict[str, Any]]] = None,
        metrics: Optional[Dict[str, Any]] = None,
        models: Optional[List[Optional[Dict[int, bool]]]] = None,
        learned: Optional[List[List[int]]] = None,
        cores: Optional[List[List[int]]] = None,
        core_retired: int = 0,
        shared_imported: int = 0,
    ) -> None:
        self.statuses = statuses
        self.sat_queries = sat_queries
        self.seconds = seconds
        self.error = error
        self.retries = retries
        self.events = events
        self.metrics = metrics
        self.models = models
        self.learned = learned or []
        self.cores = cores or []
        self.core_retired = core_retired
        self.shared_imported = shared_imported

    def model_for(self, index: int) -> Optional[Dict[int, bool]]:
        """The refuting model for candidate ``index``, if one was shipped."""
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
            if all(abs(lit) in var_of for lit in group):
                out[unit].append(
                    [var_of[lit] if lit > 0 else -var_of[-lit] for lit in group]
                )
    return out


def sweep_unit_payloads(
    solver: Solver,
    units: Sequence[WorkUnit],
    conflict_limit: Optional[int],
    deadline: Optional[float] = None,
    collect: bool = False,
    trace_epoch: float = 0.0,
    defer: bool = False,
    collect_models: bool = False,
    pi_nodes: Optional[Sequence[int]] = None,
    shared_clauses: Optional[Sequence[Sequence[int]]] = None,
    known_cores: Optional[Sequence[Sequence[int]]] = None,
) -> List[UnitPayload]:
    """One payload per unit, every slice cut from the parent in one pass.

    A unit's clauses are the parent's root-level units and original
    clauses (:meth:`~repro.sat.solver.Solver.export_clauses`) over only
    the unit's cone variables (node ``n`` is CNF variable ``n + 1``);
    ``shared_clauses`` / ``known_cores`` — the engine's clause pool and
    assumption cores in the parent's variable space — are sliced the same
    way, since a clause mentioning a foreign variable is meaningless to
    the slice.

    ``deadline`` is the budget's absolute ``time.monotonic()`` deadline.
    ``collect`` asks each unit to record its own spans/metrics and ship
    them back; ``trace_epoch`` anchors their timestamps on the parent's
    timeline.  ``defer`` turns on per-group deferral (after one NEQ in a
    signature class, the class's remaining queries come back DEFERRED
    instead of being solved); ``collect_models`` asks for the refuting PI
    assignment of every NEQ, translated back to global node ids via
    ``pi_nodes`` (the AIG's PI node list — only PIs inside the unit's
    cone appear in a model, the rest are unconstrained).
    """
    var_maps = [
        {node + 1: i + 1 for i, node in enumerate(sorted(unit.cone))}
        for unit in units
    ]
    holders = _holders(var_maps)
    clauses = _slice(solver.export_clauses(), holders, var_maps)
    shared = _slice(shared_clauses or (), holders, var_maps)
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
                collect=collect,
                trace_epoch=trace_epoch,
                defer=defer,
                collect_models=collect_models,
                pi_map=pi_map,
                shared_clauses=shared[u],
                known_cores=cores[u],
                global_vars=list(var_of),
            )
        )
    return payloads


def _with_shared(
    payloads: Sequence[UnitPayload], clauses: Sequence[Sequence[int]]
) -> List[UnitPayload]:
    """``payloads`` with parent-space ``clauses`` sliced into their pools."""
    var_maps = [
        {var: i + 1 for i, var in enumerate(payload.global_vars)}
        for payload in payloads
    ]
    extra = _slice(clauses, _holders(var_maps), var_maps)
    return [
        payload._replace(shared_clauses=payload.shared_clauses + more)
        for payload, more in zip(payloads, extra)
    ]


def _sweep_unit_worker(
    payload: UnitPayload, progress: Optional[Dict[str, Any]] = None
) -> _WorkerOutput:
    """Run one unit's queries on a fresh solver (in a worker or in-process).

    ``progress`` (in-process runs only) is updated in place as candidates
    are decided, so a crash mid-unit leaves its partial statuses and
    query count recoverable by the dispatcher.
    """
    if _fault_hook is not None:
        _fault_hook(payload)
    chaos.ensure_env_plan()
    chaos.fire("worker.entry", payload)
    t0 = time.perf_counter()
    conflict_limit, deadline = payload.conflict_limit, payload.deadline
    collect_models, defer = payload.collect_models, payload.defer
    registry: Optional[MetricsRegistry] = None
    tracer: Optional[Tracer] = None
    span = None
    if payload.collect:
        registry = MetricsRegistry()
        tracer = Tracer(sink=[], epoch=payload.trace_epoch)
        span = tracer.span(
            "sweep.unit",
            cat="worker",
            unit=payload.unit_index,
            candidates=len(payload.queries),
        )
    solver = Solver()
    if registry is not None:
        solver.metrics = registry
    solver.ensure_vars(payload.num_vars)
    for clause in payload.clauses:
        if not solver.add_clause(clause):
            raise RuntimeError("inconsistent CNF slice in sweep worker")
    shared_imported = solver.import_learned(payload.shared_clauses)
    core_index = CoreIndex()
    core_index.add_many(payload.known_cores)
    core_retired = 0
    statuses: List[str] = []
    models: List[Optional[Dict[int, bool]]] = []
    refuted_groups: set = set()
    sat_queries = 0
    if progress is not None:
        progress["statuses"] = statuses
        progress["models"] = models
        progress["sat_queries"] = 0

    def record_neq(model: Optional[Dict[int, bool]]) -> None:
        statuses.append(NEQ)
        if collect_models and model is not None:
            models.append(
                {node: bool(model.get(var, False)) for var, node in payload.pi_map}
            )
        else:
            models.append(None)

    def query(assumptions: List[int]) -> Tuple[str, Optional[Dict[int, bool]]]:
        # One direction: "unsat" from a subsuming core or the solver,
        # "sat" with the model, "unknown" on a resource limit.
        nonlocal sat_queries, core_retired
        if core_retires(solver, core_index, assumptions):
            core_retired += 1
            return "unsat", None
        res = solver.solve(
            assumptions=assumptions,
            conflict_limit=conflict_limit,
            deadline=deadline,
        )
        sat_queries += 1
        if progress is not None:
            progress["sat_queries"] = sat_queries
        if solver.last_unknown:
            return "unknown", None
        if res.satisfiable:
            return "sat", res.model
        if res.core is not None:
            core_index.add(res.core)
        return "unsat", None

    for a, b_var, phase_equal, group in payload.queries:
        if defer and group in refuted_groups:
            statuses.append(DEFERRED)
            models.append(None)
            continue
        b = b_var if phase_equal else -b_var
        outcome, model = query([a, -b])
        if outcome == "sat":
            record_neq(model)
            refuted_groups.add(group)
            continue
        if outcome == "unknown":
            statuses.append(UNKNOWN)
            models.append(None)
            continue
        outcome, model = query([-a, b])
        if outcome == "sat":
            record_neq(model)
            refuted_groups.add(group)
            continue
        if outcome == "unknown":
            statuses.append(UNKNOWN)
            models.append(None)
            continue
        solver.add_clause([-a, b])
        solver.add_clause([a, -b])
        statuses.append(EQ)
        models.append(None)
    obs: Optional[Dict[str, Any]] = None
    if registry is not None and tracer is not None and span is not None:
        span.annotate(sat_queries=sat_queries, core_retired=core_retired)
        span.close()
        obs = {"metrics": registry.to_dict(), "events": tracer.events}
    out_models = models if collect_models else None
    global_vars = payload.global_vars

    def unmap(groups: List[List[int]]) -> List[List[int]]:
        # Unit-local literals back to the parent's CNF variables.
        return [
            [
                global_vars[abs(lit) - 1] * (1 if lit > 0 else -1)
                for lit in group
            ]
            for group in groups
        ]

    extras: Dict[str, Any] = {
        "learned": unmap(solver.export_learned()),
        "cores": unmap(core_index.export()),
        "core_retired": core_retired,
        "shared_imported": shared_imported,
    }
    return (
        statuses,
        sat_queries,
        time.perf_counter() - t0,
        obs,
        out_models,
        extras,
    )


def _bump(telemetry: Optional[Dict[str, int]], key: str, by: int = 1) -> None:
    if telemetry is not None:
        telemetry[key] = telemetry.get(key, 0) + by


def _dispatch_pool(
    payloads: Sequence[UnitPayload],
    outputs: List[Optional[_WorkerOutput]],
    n_jobs: int,
    unit_timeout: Optional[float],
    telemetry: Optional[Dict[str, int]],
) -> List[int]:
    """Run payloads on a process pool; returns the indices left undone.

    All units share one wall-clock window of ``unit_timeout`` seconds
    (they run concurrently, so a unit still pending when the window closes
    has had at least that long).  Crashed units and timed-out units are
    returned for the in-process requeue; a window overrun terminates the
    pool, which is the only reliable way to kill a truly hung worker.
    """
    try:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        pool: multiprocessing.pool.Pool = ctx.Pool(
            processes=min(n_jobs, len(payloads))
        )
    except (OSError, PermissionError, ValueError):
        _bump(telemetry, "pool_failures")
        return list(range(len(payloads)))

    pending: List[int] = []
    saw_timeout = False
    try:
        handles = [
            pool.apply_async(_sweep_unit_worker, (payload,))
            for payload in payloads
        ]
        window_end = (
            time.monotonic() + unit_timeout if unit_timeout is not None else None
        )
        for index, handle in enumerate(handles):
            timeout: Optional[float] = None
            if window_end is not None:
                timeout = max(0.0, window_end - time.monotonic())
            try:
                outputs[index] = handle.get(timeout)
            except multiprocessing.TimeoutError:
                saw_timeout = True
                _bump(telemetry, "worker_timeouts")
                pending.append(index)
            except Exception:
                _bump(telemetry, "worker_failures")
                pending.append(index)
    except Exception:
        # Broken pool (e.g. a worker was SIGKILLed): requeue whatever has
        # no result yet and degrade to in-process execution.
        _bump(telemetry, "pool_failures")
        pending = [i for i, out in enumerate(outputs) if out is None]
        saw_timeout = True  # terminate: the pool state is unreliable
    finally:
        if saw_timeout:
            pool.terminate()  # kills hung workers outright
        else:
            pool.close()
        pool.join()
    return pending


def sweep_units(
    payloads: Sequence[UnitPayload],
    n_jobs: int,
    unit_timeout: Optional[float] = None,
    attempts: int = 2,
    backoff_seconds: float = 0.05,
    telemetry: Optional[Dict[str, int]] = None,
) -> List[UnitResult]:
    """Sweep every unit's payload; results align with ``payloads``.

    At ``n_jobs=1`` (or with a single unit) every unit runs in-process,
    one at a time.  Otherwise the units go to a process pool first; the
    pool path preserves input order (handles are collected in order), so
    the result list is deterministic regardless of worker scheduling.
    Units the pool could not finish — crashed, hung past
    ``unit_timeout``, or with no pool at all — run in-process too, first
    folding in the learned clauses their surviving siblings exported, so
    a respawned unit starts from its peers' knowledge.

    In-process units get ``attempts`` bounded retries with jittered
    backoff, stopping at the payloads' deadline; a unit that still fails
    keeps the partial statuses/queries/time its attempts managed
    (UNKNOWN for the rest) rather than an exception.  ``telemetry``
    (optional dict) accumulates ``worker_failures`` / ``worker_timeouts``
    / ``worker_retries`` / ``units_requeued`` / ``pool_failures``
    counters.
    """
    payloads = list(payloads)
    outputs: List[Optional[_WorkerOutput]] = [None] * len(payloads)
    retries = [0] * len(payloads)
    errors: List[Optional[str]] = [None] * len(payloads)
    partial: Dict[
        int,
        Tuple[List[str], int, float, Optional[List[Optional[Dict[int, bool]]]]],
    ] = {}

    pending = list(range(len(payloads)))
    if n_jobs > 1 and len(payloads) > 1:
        pending = _dispatch_pool(
            payloads, outputs, n_jobs, unit_timeout, telemetry
        )
        _bump(telemetry, "units_requeued", len(pending))
    if pending and len(pending) < len(payloads):
        # Respawn with peer knowledge: the requeue of a lost unit starts
        # from the learned clauses its surviving siblings shipped home
        # this round (deduplicated, then sliced to each unit's map).
        peer_learned: List[List[int]] = []
        seen_peer: set = set()
        for out in outputs:
            if out is None:
                continue
            extras = out[5] or {}
            for clause in extras.get("learned", ()):
                key = tuple(sorted(clause))
                if key not in seen_peer:
                    seen_peer.add(key)
                    peer_learned.append(list(clause))
        if peer_learned:
            respawned = _with_shared(
                [payloads[index] for index in pending], peer_learned
            )
            for index, payload in zip(pending, respawned):
                payloads[index] = payload
    for index in pending:
        payload = payloads[index]
        attempt_states: List[Dict[str, Any]] = []

        def attempt(p: UnitPayload = payload) -> _WorkerOutput:
            progress: Dict[str, Any] = {
                "statuses": [],
                "models": [],
                "sat_queries": 0,
                "t0": time.perf_counter(),
            }
            attempt_states.append(progress)
            try:
                return _sweep_unit_worker(p, progress)
            finally:
                progress["seconds"] = time.perf_counter() - progress["t0"]

        # Exponential backoff with full jitter, seeded per unit: when a
        # whole pool dies at once the requeues of its units must not
        # retry in lockstep, yet every run's schedule is reproducible.
        result, error, n_retries = run_with_retries(
            attempt,
            attempts=attempts,
            backoff_seconds=backoff_seconds,
            deadline=payload.deadline,
            exponential=True,
            rng=random.Random(index + 1),
        )
        retries[index] = n_retries
        _bump(telemetry, "worker_retries", n_retries)
        if result is not None:
            outputs[index] = result
        else:
            _bump(telemetry, "worker_failures")
            errors[index] = repr(error) if error is not None else "unknown"
            # Preserve partial work from the failed attempts: the furthest
            # attempt's statuses (each one independently proven) and the
            # query/time totals across all attempts.
            best = max(
                attempt_states,
                key=lambda state: len(state["statuses"]),
                default=None,
            )
            statuses = best["statuses"] if best is not None else []
            best_models = best["models"] if best is not None else []
            partial[index] = (
                list(statuses),
                sum(state["sat_queries"] for state in attempt_states),
                sum(state.get("seconds", 0.0) for state in attempt_states),
                list(best_models) if payload.collect_models else None,
            )

    results: List[UnitResult] = []
    for index, payload in enumerate(payloads):
        out = outputs[index]
        if out is None:
            # Lost unit: keep decided prefixes, UNKNOWN for the remainder
            # — sound (losing merges, never verdicts), just slower.
            statuses, sat_queries, seconds, part_models = partial.get(
                index, ([], 0, 0.0, None)
            )
            n = len(payload.queries)
            statuses = (statuses + [UNKNOWN] * (n - len(statuses)))[:n]
            if part_models is not None:
                part_models = (part_models + [None] * (n - len(part_models)))[
                    :n
                ]
            results.append(
                UnitResult(
                    statuses,
                    sat_queries,
                    seconds,
                    error=errors[index] or "worker lost",
                    retries=retries[index],
                    models=part_models,
                )
            )
        else:
            statuses, sat_queries, seconds, obs, models, extras = out
            extras = extras or {}
            results.append(
                UnitResult(
                    statuses,
                    sat_queries,
                    seconds,
                    retries=retries[index],
                    events=(obs or {}).get("events"),
                    metrics=(obs or {}).get("metrics"),
                    models=models,
                    learned=extras.get("learned"),
                    cores=extras.get("cores"),
                    core_retired=int(extras.get("core_retired", 0)),
                    shared_imported=int(extras.get("shared_imported", 0)),
                )
            )
    return results
