"""Fault-tolerant multiprocessing dispatch for the SAT sweeping work units.

Each work unit ships to a worker process as a self-contained payload: the
parent solver's root-level clause slice for the unit's cone (remapped to a
dense variable space so the worker's CDCL heuristics never touch foreign
variables) plus the candidate queries.  Workers run their own incremental
:class:`~repro.sat.solver.Solver`, prove or refute candidates in
topological order — locally-proven merges strengthen later queries exactly
as in the serial sweep — and return one status per candidate.  The engine
then merges proven equivalences back into the parent solver before the
final output checks.

Two kinds of solver knowledge cross process boundaries with the unit:

* **Shared learned clauses** — the engine's clause pool (quality-filtered
  learned clauses harvested from earlier rounds' workers) is sliced to
  each unit's variable map and imported into the worker's solver before
  it starts; at exit the worker exports its own short/low-LBD learned
  clauses back (already remapped to the parent's variable space).  A
  unit requeued onto the serial path after a pool fault additionally
  folds in the clauses its surviving siblings exported this round.
  Every clause in the pool is a consequence of clauses every solver
  shares (unit slices are subsets of the parent's clause set, merge
  clauses hold on all circuit-consistent assignments), so sharing can
  never change a verdict.
* **Assumption cores** — known cores (same variable-space discipline)
  seed a per-worker :class:`~repro.sat.cores.CoreIndex`; queries whose
  assumptions a core subsumes are retired without solving, and fresh
  cores ship home for the engine's shared index.

Dispatch is resource-governed and degrades instead of aborting:

* a ``fork`` process pool is used when available; any environment that
  refuses to spawn processes (or a pool that breaks mid-flight) falls back
  to in-process execution of the same payloads;
* every unit gets a wall-clock window (``unit_timeout``); a worker that
  crashes or hangs past it is killed with the pool and its unit is
  *requeued onto the serial path* with bounded retry + backoff;
* a unit that still fails after its retries keeps whatever verdicts its
  attempts decided before dying (each candidate is proven independently,
  so partial statuses are sound) and records UNKNOWN for the rest — the
  sweep is an accelerator: losing part of a unit loses merges, never
  soundness.  Partial ``sat_queries`` and wall time from failed attempts
  are likewise preserved on the :class:`UnitResult` instead of vanishing.

Observability: when the payload requests collection, each worker records
its own metrics (:class:`repro.obs.metrics.MetricsRegistry` — solver
effort histograms) and spans (a buffering
:class:`repro.obs.trace.Tracer` against the parent's epoch) and ships
them back with the unit result; the engine re-parents the spans into the
main trace, so per-worker lanes, hung-worker kills, and serial requeues
all show up in the timeline.

Because of that containment, ``n_jobs > 1`` never changes verdicts versus
the serial sweep, only wall time — even under worker faults.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cec.partition import WorkUnit
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.runtime import chaos
from repro.runtime.retry import run_with_retries
from repro.sat.cores import CoreIndex, core_retires
from repro.sat.solver import Solver

__all__ = ["UnitResult", "sweep_units_parallel", "sweep_unit_payload"]

EQ = "eq"
NEQ = "neq"
UNKNOWN = "unknown"
#: A query skipped because an earlier query already refuted its signature
#: class this round; the refinement loop re-simulates with the refuting
#: model and re-splits the class, so the pair is re-derived (or proven
#: distinct) from better signatures instead of burning a SAT query now.
DEFERRED = "deferred"

# payload: (num_vars, clauses, queries, conflict_limit, wall_remaining,
#           unit_index, collect, trace_epoch, defer, collect_models,
#           pi_map, shared_clauses, known_cores, global_vars)
# — the first five fields are the original layout; the next three carry
# observability context; the following three carry the refinement
# context (per-group deferral and NEQ-model collection, with ``pi_map``
# mapping the unit's dense solver variables back to global PI node ids
# so models make sense to the parent).  The final three carry the
# clause-sharing / core context: peer learned clauses and known
# assumption cores already sliced+remapped to the unit's variable space,
# and ``global_vars`` (local var ``i+1`` → parent CNF var
# ``global_vars[i]``) so the worker can emit its own learned clauses and
# cores in the parent's space.
_Payload = Tuple[
    int,
    List[List[int]],
    List[Tuple[int, int, bool, int]],
    Optional[int],
    Optional[float],
    int,
    bool,
    float,
    bool,
    bool,
    List[Tuple[int, int]],
    List[List[int]],
    List[List[int]],
    List[int],
]
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

# Legacy test seam: fault-injection hook run at worker entry (both in
# workers and on the in-process path).  ``fork`` children inherit a
# monkeypatched value, so tests can simulate crashing workers
# deterministically.  New code should prefer the shared registry in
# :mod:`repro.runtime.chaos` (the ``worker.entry`` site fires right after
# this hook); the attribute stays for existing monkeypatch users.
_fault_hook: Optional[Callable[[_Payload], None]] = None


class UnitResult:
    """Per-unit sweep outcome: one status per candidate plus timings.

    ``error`` records the final failure of a unit whose worker (and serial
    retries) died — statuses decided before the failure are kept and the
    remainder are UNKNOWN.  ``retries`` counts how many re-attempts the
    dispatcher spent on the unit.  ``events`` / ``metrics`` carry the
    worker-side trace events and metrics snapshot when collection was on.
    ``models`` aligns with ``statuses`` when NEQ-model collection was on:
    the refuting PI assignment (``{pi node id: value}``) per NEQ status,
    None elsewhere — the raw material of the refinement loop.

    ``learned`` / ``cores`` carry the worker's quality-filtered learned
    clauses and the assumption cores it knows at exit, both already in
    the parent's CNF variable space; ``core_retired`` counts queries the
    worker answered from a core without solving, ``shared_imported`` the
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


def sweep_unit_payload(
    solver: Solver,
    unit: WorkUnit,
    conflict_limit: Optional[int],
    wall_remaining: Optional[float] = None,
    unit_index: int = 0,
    collect: bool = False,
    trace_epoch: float = 0.0,
    defer: bool = False,
    collect_models: bool = False,
    pi_nodes: Optional[Sequence[int]] = None,
    shared_clauses: Optional[Sequence[Sequence[int]]] = None,
    known_cores: Optional[Sequence[Sequence[int]]] = None,
) -> _Payload:
    """Build one worker payload from the parent solver's clause slice.

    ``wall_remaining`` is the budget's remaining wall seconds at dispatch
    time; the worker turns it into its own absolute deadline so budgeted
    sweeps stop in-process even when the pool's timeout never fires.
    ``collect`` asks the worker to record its own spans/metrics and ship
    them back; ``trace_epoch`` anchors worker timestamps on the parent's
    timeline (``CLOCK_MONOTONIC`` is system-wide under ``fork``).

    ``defer`` turns on per-group deferral (after one NEQ in a signature
    class, the class's remaining queries come back DEFERRED instead of
    being solved); ``collect_models`` asks for the refuting PI assignment
    of every NEQ, translated back to global node ids via ``pi_nodes``
    (the AIG's PI node list — only PIs inside the unit's cone appear in a
    model, the rest are unconstrained).

    ``shared_clauses`` / ``known_cores`` are the engine's clause pool
    and assumption cores in the *parent's* variable space; only entries
    falling entirely inside the unit's variable map are shipped (a
    clause mentioning a foreign variable is meaningless to the slice),
    remapped to the unit's dense space.
    """
    nodes = sorted(unit.cone)
    var_of: Dict[int, int] = {node + 1: i + 1 for i, node in enumerate(nodes)}

    def remap_all(groups: Optional[Sequence[Sequence[int]]]) -> List[List[int]]:
        # Slice to the unit: keep only literal groups whose variables
        # all live in the unit's map, remapped to local space.
        out: List[List[int]] = []
        for group in groups or ():
            if all(abs(lit) in var_of for lit in group):
                out.append(
                    [var_of[abs(lit)] * (1 if lit > 0 else -1) for lit in group]
                )
        return out

    clauses = [
        [var_of[abs(lit)] * (1 if lit > 0 else -1) for lit in clause]
        for clause in solver.export_clauses(var_of)
    ]
    queries = [
        (var_of[c.rep + 1], var_of[c.node + 1], c.phase_equal, c.group)
        for c in unit.candidates
    ]
    pi_map: List[Tuple[int, int]] = []
    if collect_models and pi_nodes is not None:
        pi_map = [
            (var_of[node + 1], node)
            for node in pi_nodes
            if node + 1 in var_of
        ]
    return (
        len(nodes),
        clauses,
        queries,
        conflict_limit,
        wall_remaining,
        unit_index,
        collect,
        trace_epoch,
        defer,
        collect_models,
        pi_map,
        remap_all(shared_clauses),
        remap_all(known_cores),
        [node + 1 for node in nodes],
    )


def _sweep_unit_worker(
    payload: _Payload, progress: Optional[Dict[str, Any]] = None
) -> _WorkerOutput:
    """Run one unit's queries on a fresh solver (executes in a worker).

    ``progress`` (serial-requeue path only) is updated in place as
    candidates are decided, so a crash mid-unit leaves its partial
    statuses and query count recoverable by the dispatcher.
    """
    (
        num_vars,
        clauses,
        queries,
        conflict_limit,
        wall_remaining,
        unit_index,
        collect,
        trace_epoch,
        defer,
        collect_models,
        pi_map,
        shared_clauses,
        known_cores,
        global_vars,
    ) = payload
    if _fault_hook is not None:
        _fault_hook(payload)
    chaos.ensure_env_plan()
    chaos.fire("worker.entry", payload)
    t0 = time.perf_counter()
    deadline = (
        time.monotonic() + wall_remaining if wall_remaining is not None else None
    )
    registry: Optional[MetricsRegistry] = None
    tracer: Optional[Tracer] = None
    span = None
    if collect:
        registry = MetricsRegistry()
        tracer = Tracer(sink=[], epoch=trace_epoch)
        span = tracer.span(
            "sweep.unit", cat="worker", unit=unit_index, candidates=len(queries)
        )
    solver = Solver()
    if registry is not None:
        solver.metrics = registry
    solver.ensure_vars(num_vars)
    for clause in clauses:
        if not solver.add_clause(clause):
            raise RuntimeError("inconsistent CNF slice in sweep worker")
    shared_imported = solver.import_learned(shared_clauses)
    core_index = CoreIndex()
    core_index.add_many(known_cores)
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
                {node: bool(model.get(var, False)) for var, node in pi_map}
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

    for a, b_var, phase_equal, group in queries:
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

    def unmap(groups: List[List[int]]) -> List[List[int]]:
        # Worker-local literals back to the parent's CNF variables.
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
    payloads: Sequence[_Payload],
    outputs: List[Optional[_WorkerOutput]],
    n_jobs: int,
    unit_timeout: Optional[float],
    telemetry: Optional[Dict[str, int]],
) -> List[int]:
    """Run payloads on a process pool; returns the indices left undone.

    All units share one wall-clock window of ``unit_timeout`` seconds
    (they run concurrently, so a unit still pending when the window closes
    has had at least that long).  Crashed units and timed-out units are
    returned for the serial path; a window overrun terminates the pool,
    which is the only reliable way to kill a truly hung worker.
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
        # no result yet and degrade to the serial path.
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


def sweep_units_parallel(
    solver: Solver,
    units: Sequence[WorkUnit],
    conflict_limit: Optional[int],
    n_jobs: int,
    wall_remaining: Optional[float] = None,
    unit_timeout: Optional[float] = None,
    attempts: int = 2,
    backoff_seconds: float = 0.05,
    telemetry: Optional[Dict[str, int]] = None,
    collect: bool = False,
    trace_epoch: float = 0.0,
    defer: bool = False,
    collect_models: bool = False,
    pi_nodes: Optional[Sequence[int]] = None,
    shared_clauses: Optional[Sequence[Sequence[int]]] = None,
    known_cores: Optional[Sequence[Sequence[int]]] = None,
) -> List[UnitResult]:
    """Sweep all units; results align with ``units``, faults contained.

    The pool path preserves input order (handles are collected in order),
    so the result list is deterministic regardless of worker scheduling.
    Units the pool could not finish — crashed, hung past ``unit_timeout``,
    or with no pool at all — run in-process with ``attempts`` bounded
    retries and linear backoff; a unit that still fails keeps the partial
    statuses/queries/time its attempts managed (UNKNOWN for the rest)
    rather than an exception.  ``telemetry`` (optional dict) accumulates
    ``worker_failures`` / ``worker_timeouts`` / ``worker_retries`` /
    ``units_requeued`` / ``pool_failures`` counters.  ``collect`` turns on
    worker-side span/metric collection (shipped back per unit).
    ``defer`` / ``collect_models`` / ``pi_nodes`` carry the refinement
    context into each payload (see :func:`sweep_unit_payload`).
    ``shared_clauses`` / ``known_cores`` (parent variable space) are
    sliced into every payload; units requeued onto the serial path
    additionally fold in the learned clauses their surviving pool
    siblings exported this round, so a respawned unit starts from its
    peers' knowledge.
    """

    def build_payload(
        index: int, unit: WorkUnit, extra_shared: Sequence[Sequence[int]] = ()
    ) -> _Payload:
        pool = list(shared_clauses or ())
        pool.extend(extra_shared)
        return sweep_unit_payload(
            solver,
            unit,
            conflict_limit,
            wall_remaining,
            unit_index=index,
            collect=collect,
            trace_epoch=trace_epoch,
            defer=defer,
            collect_models=collect_models,
            pi_nodes=pi_nodes,
            shared_clauses=pool,
            known_cores=known_cores,
        )

    payloads = [build_payload(i, u) for i, u in enumerate(units)]
    outputs: List[Optional[_WorkerOutput]] = [None] * len(payloads)
    retries = [0] * len(payloads)
    errors: List[Optional[str]] = [None] * len(payloads)
    partial: Dict[
        int,
        Tuple[List[str], int, float, Optional[List[Optional[Dict[int, bool]]]]],
    ] = {}

    # One wall window for the whole sweep (pool phase + serial requeues),
    # anchored at dispatch time so retries cannot stretch the budget.
    serial_deadline = (
        time.monotonic() + wall_remaining if wall_remaining is not None else None
    )

    pending = list(range(len(payloads)))
    if n_jobs > 1 and len(payloads) > 1:
        pending = _dispatch_pool(
            payloads, outputs, n_jobs, unit_timeout, telemetry
        )
        _bump(telemetry, "units_requeued", len(pending))
    if pending and len(pending) < len(payloads):
        # Respawn with peer knowledge: the serial requeue of a lost unit
        # starts from the learned clauses its surviving siblings shipped
        # home this round (deduplicated; the payload build re-slices
        # them to each unit's variable map).
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
            for index in pending:
                payloads[index] = build_payload(
                    index, units[index], extra_shared=peer_learned
                )
    for index in pending:
        payload = payloads[index]
        attempt_states: List[Dict[str, Any]] = []

        def attempt(p: _Payload = payload) -> _WorkerOutput:
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
        # whole pool dies at once the serial requeues of its units must
        # not retry in lockstep, yet every run's schedule is reproducible.
        result, error, n_retries = run_with_retries(
            attempt,
            attempts=attempts,
            backoff_seconds=backoff_seconds,
            deadline=serial_deadline,
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
                list(best_models) if collect_models else None,
            )

    results: List[UnitResult] = []
    for index, unit in enumerate(units):
        out = outputs[index]
        if out is None:
            # Lost unit: keep decided prefixes, UNKNOWN for the remainder
            # — sound (losing merges, never verdicts), just slower.
            statuses, sat_queries, seconds, part_models = partial.get(
                index, ([], 0, 0.0, None)
            )
            n = len(unit.candidates)
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
