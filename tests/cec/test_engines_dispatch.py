"""Engine-adapter portfolio tests.

Pins the portfolio's guarantees:

* the registry round-trips the built-in adapters and rejects unknown
  names loudly (``engines=["nope"]`` raises instead of skipping);
* the default portfolio (structural → SAT), named or not, returns the
  same verdict, and a budget that does not run out changes nothing
  about its outcome;
* restricted portfolios behave as selected: SAT-only still decides,
  sim-only refutes but cannot prove, and a portfolio without ``sat``
  skips the sweep entirely (zero SAT queries);
* ``cec.cascade.sat`` is counted at a single site (the SAT adapter), so
  it always equals the engine's decided count.
"""

from __future__ import annotations

import pytest

from repro.bench.random_circuits import random_combinational
from repro.cec import SAT_PORTFOLIO, CecOptions
from repro.cec.parallel import EQ, NEQ
from repro.cec.engine import CecVerdict, check_equivalence
from repro.cec.engines.base import (
    _REGISTRY,
    EngineAdapter,
    EngineOutcome,
    PASS,
    available_engines,
    get_engine,
    register_engine,
    resolve_portfolio,
)
from repro.netlist.build import CircuitBuilder
from repro.runtime.budget import Budget, REASON_RESOURCE_LIMIT
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
    """The default portfolio decides alike whether or not it is named."""

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
            None,  # whatever the unnamed run says, the named must match
        ),
    ]

    # ``cascade`` leaves the portfolio unnamed (structural, truth
    # tables, SAT); ``named`` names the SAT path without the tables.
    @pytest.mark.parametrize(
        "engines",
        [
            pytest.param(None, id="cascade"),
            pytest.param(SAT_PORTFOLIO, id="named"),
        ],
    )
    @pytest.mark.parametrize(
        "case", CASES, ids=[case[0] for case in CASES]
    )
    def test_same_verdict(self, case, engines):
        _, make, expect = case
        c1, c2 = make()
        reference = check_equivalence(c1, c2)
        r = check_equivalence(c1, c2, CecOptions(engines=engines))
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


class TestBudgetOnlyBounds:
    """A budget bounds the engines a portfolio runs; it never changes them."""

    @pytest.mark.parametrize(
        "case",
        TestPolicyVerdictParity.CASES,
        ids=[case[0] for case in TestPolicyVerdictParity.CASES],
    )
    def test_unspent_budget_changes_nothing(self, case):
        # The SAT portfolio, named: its counts are what a budget must
        # leave alone, and the default check's truth-table phase would
        # decide the equivalent cases without any.
        _, make, _ = case
        c1, c2 = make()
        options = CecOptions(engines=SAT_PORTFOLIO)
        free = check_equivalence(c1, c2, options)
        bounded = check_equivalence(
            c1, c2, options, budget=Budget(wall_seconds=1e4)
        )
        assert bounded.verdict is free.verdict
        assert bounded.counterexample == free.counterexample
        assert bounded.failing_output == free.failing_output
        keys = {
            key
            for stats in (free.stats, bounded.stats)
            for key in stats
            if key in ("sat_queries", "core_retired")
            or key.startswith(("engine_", "cascade_"))
        }
        assert "engine_sat" in keys
        for key in sorted(keys):
            assert bounded.stats.get(key) == free.stats.get(key), key


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


class TestSingleSiteSatCounting:
    """Satellite 2: ``cec.cascade.sat`` is incremented only in the adapter."""

    def test_cascade_sat_equals_engine_decided(self):
        # A tiny BDD node bound forces the full ladder past the BDD
        # stage, so the SAT adapter decides (and counts) the outputs.
        r = check_equivalence(
            xor_chain(10, "a"),
            xor_tree(10, "b"),
            CecOptions(
                engines=("structural", "sim", "bdd", "sat"), preprocess=False
            ),
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
            xor_chain(8, "a"),
            xor_tree(8, "b"),
            CecOptions(preprocess=False, engines=SAT_PORTFOLIO),
        )
        assert r.equivalent
        assert r.stats.get("engine_sat", 0) >= 1
        assert r.stats["cascade_sat"] == r.stats["engine_sat"]
