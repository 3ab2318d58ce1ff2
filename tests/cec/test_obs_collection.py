"""Sweep-unit observability and partial-stat preservation.

Unit-level tests for the two sweep-path guarantees of the observability
stack: (a) every unit records straight onto the sinks it is given — its
``sweep.unit`` span on the tracer, its solver's ``sat.*`` counters on the
registry — and records nothing without them; (b) a unit that dies keeps
the SAT queries, wall time, and independently-proven statuses it managed
instead of degrading to a zero-stat all-UNKNOWN row.
"""

from __future__ import annotations

from repro.cec import parallel
from repro.cec.engine import (
    _class_candidates,
    _initial_signatures,
    _signature_classes,
    check_equivalence,
)
from repro.cec.miter import build_miter
from repro.cec.parallel import (
    EQ,
    NEQ,
    UNKNOWN,
    sweep_unit_payloads,
    sweep_units,
)
from repro.cec.partition import partition_candidates
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_events
from repro.obs.trace import Tracer
from repro.runtime import chaos
from repro.sat.solver import Solver

from tests.cec.test_robustness import crash_at_unit_entry, multi_block_pair
from tests.cec.test_sweep_parallel import SAT_PATH, xor_chain, xor_tree


def solver_and_units(n=8):
    """A loaded parent solver plus its cone-disjoint work units."""
    miter = build_miter(xor_chain(n), xor_tree(n))
    solver = Solver()
    solver.ensure_vars(miter.aig.num_nodes())
    assert solver.add_clauses(miter.aig.cnf_clauses())
    signatures, mask = _initial_signatures(miter.aig, 4, 64, 0)
    classes = _signature_classes(signatures, mask, range(miter.aig.num_nodes()))
    units = partition_candidates(
        miter.aig, _class_candidates(miter.aig, classes, signatures)
    )
    return solver, units


class TestWorkerCollection:
    def test_collect_ships_metrics_and_spans(self):
        solver, units = solver_and_units()
        tracer = Tracer(sink=[])
        registry = MetricsRegistry()
        payloads = sweep_unit_payloads(solver, units, 2000)
        results = sweep_units(payloads, tracer, registry)
        tracer.close()
        assert len(results) == len(units)
        spans = [e for e in tracer.events if e["type"] == "span"]
        assert len(spans) == len(units)
        for index, (unit, payload, result, span) in enumerate(
            zip(units, payloads, results, spans)
        ):
            assert len(result.statuses) == len(unit.candidates)
            assert span["name"] == "sweep.unit"
            assert span["cat"] == "worker"
            args = span["args"]
            assert args["unit"] == index
            assert (args["cone_vars"], args["clauses"]) == (
                payload.num_vars,
                len(payload.clauses),
            )
            assert (args["sat_queries"], args["core_retired"]) == (
                result.sat_queries,
                result.core_retired,
            )
            assert 0.0 <= args["load_s"] and 0.0 <= args["search_s"]
            assert "worker" not in span["args"]
        assert registry.counter("sat.calls") == sum(
            r.sat_queries for r in results
        )
        # Every conflict is a search conflict; a unit's propagations also
        # count what its merge clauses propagate between queries.
        assert registry.counter("sat.conflicts") == sum(
            span["args"]["conflicts"] for span in spans
        )
        assert registry.counter("sat.propagations") <= sum(
            span["args"]["propagations"] for span in spans
        )

    def test_collect_off_ships_nothing(self):
        # No sinks, no recording — and the same answers as with sinks.
        solver, units = solver_and_units()
        payloads = sweep_unit_payloads(solver, units, 2000)
        plain = sweep_units(payloads)
        observed = sweep_units(payloads, Tracer(sink=[]), MetricsRegistry())
        for result, twin in zip(plain, observed):
            assert result.error is None
            assert (result.statuses, result.sat_queries) == (
                twin.statuses,
                twin.sat_queries,
            )

    def test_worker_spans_land_in_engine_trace(self):
        # One sweep round of one unit per block, all in-process.
        tracer = Tracer(sink=[])
        result = check_equivalence(
            *multi_block_pair(), SAT_PATH, tracer=tracer
        )
        tracer.close()
        events = tracer.events
        assert validate_events(events) == []
        unit_spans = [
            e
            for e in events
            if e["type"] == "span" and e["name"] == "sweep.unit"
        ]
        assert result.stats["n_units"] == 4
        assert len(unit_spans) == result.stats["n_units"]
        sweep = next(
            e
            for e in events
            if e["type"] == "span" and e["name"] == "cec.phase.sweep"
        )
        for index, span in enumerate(unit_spans):
            assert span["parent"] == sweep["id"]
            assert span["args"]["unit"] == index
            # Drawn on the main lane of a Chrome export, where it ran.
            assert "worker" not in span["args"]


class FailingSolver(Solver):
    """A solver whose ``solve`` dies after a fixed number of calls."""

    calls = 0
    fail_after = 0

    def solve(self, *args, **kwargs):
        type(self).calls += 1
        if type(self).calls > type(self).fail_after:
            raise RuntimeError("injected mid-unit solver death")
        return super().solve(*args, **kwargs)


class TestPartialStatPreservation:
    def test_lost_unit_keeps_partial_statuses_and_queries(self, monkeypatch):
        solver, units = solver_and_units()
        (unit,) = units  # the 8-input pair is one cone-disjoint cluster
        assert len(unit.candidates) >= 2
        FailingSolver.calls = 0
        FailingSolver.fail_after = 3  # first candidate decided, then die
        monkeypatch.setattr(parallel, "Solver", FailingSolver)
        (result,) = sweep_units(sweep_unit_payloads(solver, units, 2000))
        assert result.error is not None
        assert len(result.statuses) == len(unit.candidates)
        # The decided prefix survives; only the remainder is UNKNOWN.
        assert result.statuses[0] in (EQ, NEQ)
        assert UNKNOWN in result.statuses
        # Partial effort is preserved, not zeroed: the unit got three
        # queries in before dying, and it is not retried.
        assert result.sat_queries == 3
        assert FailingSolver.calls == 4

    def test_immediate_death_degrades_to_all_unknown(self, monkeypatch):
        solver, units = solver_and_units()
        (unit,) = units
        FailingSolver.calls = 0
        FailingSolver.fail_after = 0
        monkeypatch.setattr(parallel, "Solver", FailingSolver)
        (result,) = sweep_units(sweep_unit_payloads(solver, units, 2000))
        assert result.error is not None
        assert result.statuses == [UNKNOWN] * len(unit.candidates)
        assert result.sat_queries == 0

    def test_lost_units_surface_in_engine_stats_and_trace(self):
        # Engine level: units dying at entry must show up as contained
        # failures (telemetry counters, sweep unknowns, lost-unit
        # instants) while the verdict stays identical to a clean run.
        plain = check_equivalence(*multi_block_pair(), SAT_PATH)
        tracer = Tracer(sink=[])
        chaos.install(crash_at_unit_entry())
        try:
            faulty = check_equivalence(
                *multi_block_pair(), SAT_PATH, tracer=tracer
            )
        finally:
            chaos.uninstall()
        tracer.close()
        assert faulty.verdict is plain.verdict
        assert faulty.stats["n_units"] >= 2
        assert faulty.stats["worker_failures"] == faulty.stats["n_units"]
        assert faulty.stats["sweep_unknown"] > 0
        lost = [
            e
            for e in tracer.events
            if e["type"] == "instant" and e["name"] == "sweep.unit.lost"
        ]
        assert len(lost) == faulty.stats["n_units"]
        assert validate_events(tracer.events) == []
