"""Engine-adapter portfolio and dispatch-policy tests (PR 9 tentpole).

Pins the redesign's guarantees:

* the registry round-trips the built-in adapters and rejects unknown
  names loudly (``engines=["nope"]`` raises instead of skipping);
* cascade and heuristic policies return identical EQ/NEQ verdicts,
  serially and with ``n_jobs > 1`` — only UNKNOWNs may differ;
* restricted portfolios behave as selected: SAT-only still decides,
  sim-only refutes but cannot prove, and a portfolio without ``sat``
  skips the sweep entirely (zero SAT queries, including in workers);
* ``cec.cascade.sat`` is counted at a single site (the SAT adapter), so
  it always equals the engine's decided count;
* the heuristic never spends more SAT queries than the cascade and the
  :class:`OutcomeStore` reorders engines once it holds enough data.
"""

from __future__ import annotations

import json
import warnings

import pytest

from repro.bench.random_circuits import random_combinational
from repro.cec import CecOptions
from repro.cec.cache import EQ, NEQ
from repro.cec.dispatch import (
    CascadePolicy,
    HeuristicPolicy,
    OutcomeStore,
    available_policies,
    coerce_policy,
)
from repro.cec.engine import CecVerdict, check_equivalence
from repro.cec.engines.base import (
    _REGISTRY,
    EngineAdapter,
    EngineOutcome,
    Obligation,
    PASS,
    available_engines,
    get_engine,
    register_engine,
    resolve_portfolio,
)
from repro.cec.miter import build_miter
from repro.cec.parallel import UNKNOWN as SWEEP_UNKNOWN
from repro.cec.parallel import _sweep_unit_worker, sweep_unit_payload
from repro.cec.partition import partition_candidates
from repro.netlist.build import CircuitBuilder
from repro.runtime.budget import Budget, REASON_RESOURCE_LIMIT
from repro.sat.solver import Solver
from repro.sim.logic2 import simulate


def xor_chain(n, name="chain"):
    b = CircuitBuilder(name)
    xs = b.inputs(*[f"x{i}" for i in range(n)])
    acc = xs[0]
    for x in xs[1:]:
        acc = b.XOR(acc, x)
    b.output(acc, name="o")
    return b.circuit


def xor_tree(n, name="tree"):
    b = CircuitBuilder(name)
    xs = list(b.inputs(*[f"x{i}" for i in range(n)]))
    while len(xs) > 1:
        nxt = [b.XOR(xs[i], xs[i + 1]) for i in range(0, len(xs) - 1, 2)]
        if len(xs) % 2:
            nxt.append(xs[-1])
        xs = nxt
    b.output(xs[0], name="o")
    return b.circuit


def complement_chain(n, name="notchain"):
    """The chain's complement — differs on *every* input vector."""
    b = CircuitBuilder(name)
    xs = b.inputs(*[f"x{i}" for i in range(n)])
    acc = xs[0]
    for x in xs[1:]:
        acc = b.XOR(acc, x)
    b.output(b.NOT(acc), name="o")
    return b.circuit


class TestRegistry:
    def test_builtins_registered(self):
        assert {"structural", "sim", "bdd", "sat"} <= set(available_engines())

    def test_get_engine_round_trips_names(self):
        for name in available_engines():
            assert get_engine(name).name == name

    def test_unknown_engine_lists_available(self):
        with pytest.raises(ValueError, match="unknown engine 'nope'"):
            get_engine("nope")
        with pytest.raises(ValueError, match="available: .*sat"):
            get_engine("nope")

    def test_unknown_engine_rejected_by_check(self):
        c = xor_chain(4)
        with pytest.raises(ValueError, match="unknown engine"):
            check_equivalence(
                c, xor_tree(4), CecOptions(engines=["sim", "nope"])
            )

    def test_empty_portfolio_rejected(self):
        with pytest.raises(ValueError, match="empty engine portfolio"):
            resolve_portfolio([])

    def test_comma_string_portfolio(self):
        names = [a.name for a in resolve_portfolio("sim, sat")]
        assert names == ["sim", "sat"]

    def test_unknown_policy_lists_available(self):
        with pytest.raises(ValueError, match="unknown dispatch policy"):
            coerce_policy("nope")
        with pytest.raises(ValueError, match="unknown dispatch policy"):
            check_equivalence(
                xor_chain(4), xor_tree(4), CecOptions(dispatch_policy="nope")
            )

    def test_third_party_engine_pluggable(self):
        """A registered custom adapter slots into a portfolio end to end."""

        class NosyEngine(EngineAdapter):
            name = "nosy"
            proving = True
            seen = 0

            def decide(self, ob, ctx):
                """Count the obligation, then hand it on."""
                NosyEngine.seen += 1
                return EngineOutcome(PASS)

        register_engine(NosyEngine)
        try:
            r = check_equivalence(
                xor_chain(6),
                xor_tree(6),
                CecOptions(
                    engines=["structural", "nosy", "sat"], preprocess=False
                ),
            )
            assert r.equivalent
            assert NosyEngine.seen > 0
            assert r.stats.get("engine_nosy", 0) == 0  # never decided
        finally:
            _REGISTRY.pop("nosy", None)


class TestPolicyVerdictParity:
    """Cascade and heuristic must agree on every decided verdict."""

    CASES = [
        ("eq-xor", lambda: (xor_chain(12, "a"), xor_tree(12, "b")), EQ),
        (
            "neq-complement",
            lambda: (xor_chain(8, "a"), complement_chain(8, "b")),
            NEQ,
        ),
        (
            "neq-random",
            lambda: (
                random_combinational(seed=3, name="a"),
                random_combinational(seed=77, name="b"),
            ),
            None,  # whatever cascade says, heuristic must match
        ),
    ]

    @pytest.mark.parametrize("policy", ["cascade", "heuristic"])
    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize(
        "case", CASES, ids=[case[0] for case in CASES]
    )
    def test_same_verdict(self, case, policy, n_jobs):
        _, make, expect = case
        c1, c2 = make()
        reference = check_equivalence(c1, c2)
        r = check_equivalence(
            c1, c2, CecOptions(dispatch_policy=policy), n_jobs=n_jobs
        )
        assert r.verdict is reference.verdict
        if expect == EQ:
            assert r.equivalent
        elif expect == NEQ:
            assert r.verdict is CecVerdict.NOT_EQUIVALENT
        if r.verdict is CecVerdict.NOT_EQUIVALENT:
            vec = {k: bool(v) for k, v in r.counterexample.items()}
            assert (
                simulate(c1, [vec]).outputs[0]
                != simulate(c2, [vec]).outputs[0]
            )

    def test_heuristic_never_spends_more_sat_queries(self):
        pairs = [
            (xor_chain(10, "a"), xor_tree(10, "b")),
            (xor_chain(8, "a"), complement_chain(8, "b")),
        ]
        for c1, c2 in pairs:
            cascade = check_equivalence(c1, c2)
            heuristic = check_equivalence(
                c1, c2, CecOptions(dispatch_policy="heuristic")
            )
            assert heuristic.verdict is cascade.verdict
            assert (
                heuristic.stats["sat_queries"]
                <= cascade.stats["sat_queries"]
            )


class TestPortfolioSelection:
    def test_sat_only_proves(self):
        r = check_equivalence(
            xor_chain(8, "a"), xor_tree(8, "b"),
            CecOptions(engines=["sat"], preprocess=False),
        )
        assert r.equivalent
        assert r.stats.get("engine_sat", 0) >= 1

    def test_sat_only_refutes_with_counterexample(self):
        c1, c2 = xor_chain(6, "a"), complement_chain(6, "b")
        r = check_equivalence(
            c1, c2, CecOptions(engines=["sat"], preprocess=False)
        )
        assert r.verdict is CecVerdict.NOT_EQUIVALENT
        vec = {k: bool(v) for k, v in r.counterexample.items()}
        assert simulate(c1, [vec]).outputs[0] != simulate(c2, [vec]).outputs[0]

    def test_sim_only_cannot_prove(self):
        r = check_equivalence(
            xor_chain(8, "a"), xor_tree(8, "b"),
            CecOptions(engines=["structural", "sim"], preprocess=False),
        )
        assert r.verdict is CecVerdict.UNKNOWN
        assert r.reason == REASON_RESOURCE_LIMIT
        assert r.stats["sat_queries"] == 0  # sweep skipped without "sat"

    def test_sim_only_refutes(self):
        r = check_equivalence(
            xor_chain(6, "a"), complement_chain(6, "b"),
            CecOptions(engines=["sim"], preprocess=False),
        )
        assert r.verdict is CecVerdict.NOT_EQUIVALENT
        assert r.stats["sat_queries"] == 0

    def test_worker_honors_portfolio(self):
        """A sweep payload without ``sat`` decides nothing, queries nothing."""
        m = build_miter(xor_chain(8), xor_tree(8))
        cnf, _ = m.aig.to_cnf()
        solver = Solver()
        assert solver.add_cnf(cnf)
        from repro.cec.engine import (
            _class_candidates,
            _initial_signatures,
            _signature_classes,
        )

        signatures, mask = _initial_signatures(m.aig, 4, 64, 0)
        classes = _signature_classes(
            signatures, mask, range(m.aig.num_nodes())
        )
        units = partition_candidates(
            m.aig, _class_candidates(m.aig, classes, signatures), 2
        )
        assert units
        for unit in units:
            payload = sweep_unit_payload(
                solver, unit, 2000, engines=("structural", "sim")
            )
            statuses, n_queries, _elapsed, _obs, _models, _extras = (
                _sweep_unit_worker(payload)
            )
            assert n_queries == 0
            assert statuses == [SWEEP_UNKNOWN] * len(unit.candidates)


class TestSingleSiteSatCounting:
    """Satellite 2: ``cec.cascade.sat`` is incremented only in the adapter."""

    def test_cascade_sat_equals_engine_decided(self):
        # A tiny BDD node bound forces the budgeted ladder past the BDD
        # stage, so the SAT adapter decides (and counts) the outputs.
        r = check_equivalence(
            xor_chain(10, "a"),
            xor_tree(10, "b"),
            CecOptions(preprocess=False),
            budget=Budget(wall_seconds=60.0, bdd_nodes=4),
        )
        assert r.equivalent
        assert r.stats["cascade_sat"] >= 1
        assert r.stats["cascade_sat"] == r.stats["engine_sat"]

    def test_classic_run_counts_cascade_like_budgeted(self):
        # Satellite 2: the old adapter gated the cascade counters on
        # ``ctx.budgeted``, so classic runs reported an empty cascade
        # breakdown even though the SAT engine decided every output.
        # Both paths now count once per decided obligation.
        r = check_equivalence(
            xor_chain(8, "a"), xor_tree(8, "b"), CecOptions(preprocess=False)
        )
        assert r.equivalent
        assert r.stats.get("engine_sat", 0) >= 1
        assert r.stats["cascade_sat"] == r.stats["engine_sat"]


class TestOutcomeStore:
    def test_record_and_attempts(self):
        store = OutcomeStore()
        assert store.attempts("sat", 100) == 0
        store.record("sat", 100, decided=True, seconds=0.25)
        store.record("sat", 120, decided=False, seconds=0.75)  # same bucket
        assert store.attempts("sat", 100) == 2
        assert store.attempts("sat", 100_000) == 0  # different bucket

    def test_expected_cost_prices_per_decision(self):
        store = OutcomeStore()
        assert store.expected_cost("sat", 100) is None
        store.record("sat", 100, decided=True, seconds=0.2)
        store.record("sat", 100, decided=True, seconds=0.4)
        assert store.expected_cost("sat", 100) == pytest.approx(0.3)
        # An engine that never decides is expensive but not infinite.
        store.record("bdd", 100, decided=False, seconds=0.1)
        cost = store.expected_cost("bdd", 100)
        assert cost is not None and cost > 0.1

    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "outcomes.json"
        store = OutcomeStore(path)
        store.record("sat", 100, decided=True, seconds=0.5)
        store.save()
        assert not store.dirty
        reloaded = OutcomeStore(path)
        assert reloaded.attempts("sat", 100) == 1
        assert reloaded.expected_cost("sat", 100) == pytest.approx(0.5)

    def test_save_without_path_is_noop(self):
        store = OutcomeStore()
        store.record("sat", 1, decided=True, seconds=0.1)
        store.save()  # must not raise
        assert store.dirty  # nothing was persisted

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"not": "a store"}))
        with pytest.raises(ValueError, match="not a dispatch outcome store"):
            OutcomeStore(path)

    def test_ingest_oblog_rows(self):
        store = OutcomeStore()
        rows = [
            {"engine": "sat", "verdict": EQ, "cone": 90, "seconds": 0.2},
            {"engine": "sat", "verdict": "unknown", "cone": 90, "seconds": 1.0},
            {"engine": "", "verdict": EQ, "cone": 90, "seconds": 0.1},  # skip
        ]
        assert store.ingest_records(rows) == 2
        assert store.attempts("sat", 90) == 2

    def test_store_reorders_heuristic(self):
        """Enough recorded data flips the static BDD-before-SAT rank."""
        adapters = resolve_portfolio(["structural", "sim", "bdd", "sat"])
        ob = Obligation("o", 2, 4, _cone=100)  # small cone: bdd first

        static = HeuristicPolicy()
        assert [a.name for a in static.order(ob, adapters, None)] == [
            "structural", "sim", "bdd", "sat",
        ]

        store = OutcomeStore()
        for _ in range(HeuristicPolicy.min_attempts):
            store.record("sim", 100, decided=False, seconds=0.001)
            store.record("bdd", 100, decided=False, seconds=1.0)  # costly
            store.record("sat", 100, decided=True, seconds=0.01)  # cheap
        trained = HeuristicPolicy(store=store)
        ordered = [a.name for a in trained.order(ob, adapters, None)]
        assert ordered.index("sat") < ordered.index("bdd")
        assert ordered[0] == "structural"  # passive adapters stay first

    def test_cascade_policy_records_into_store(self):
        """Outcome recording is policy-independent — cascade trains too."""
        store = OutcomeStore()
        r = check_equivalence(
            xor_chain(8, "a"),
            xor_tree(8, "b"),
            CecOptions(dispatch_store=store, preprocess=False),
        )
        assert r.equivalent
        assert any(key.startswith("sat|") for key in store.cells)

    def test_available_policy_names(self):
        assert {"cascade", "heuristic"} <= set(available_policies())
        assert CascadePolicy.name == "cascade"
        assert coerce_policy(None).name == "cascade"
