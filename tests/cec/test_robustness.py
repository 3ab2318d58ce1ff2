"""Robustness of the CEC engine: dying sweep units, budgets.

The invariant under test everywhere: faults and resource exhaustion may
cost wall time or decidedness (UNKNOWN), but they must never change a
decided verdict — a crashed sweep unit or a conflict-limited solve must
leave the engine verdict-identical to a clean run.
"""

from __future__ import annotations

import time

import pytest

from repro.cec import CecOptions
from repro.cec.engine import (
    CecVerdict,
    check_equivalence,
    check_equivalence_bdd,
)
from repro.runtime import chaos
from repro.runtime.budget import (
    KNOWN_REASONS,
    REASON_BDD_BLOWUP,
    REASON_CONFLICT_LIMIT,
    REASON_TIMEOUT,
    Budget,
)
from repro.runtime.chaos import FaultPlan, FaultRule

from tests.cec.test_sweep_parallel import SAT_PATH, xor_chain, xor_tree


def multi_block_pair(blocks=4, width=10):
    """Equivalent multi-output pairs with cone-disjoint outputs.

    Each output is an independent XOR block (chain on one side, tree on
    the other), so the sweep partitions into one work unit per block.
    """
    from repro.netlist.build import CircuitBuilder

    def build(kind, name):
        b = CircuitBuilder(name)
        for j in range(blocks):
            xs = list(b.inputs(*[f"x{j}_{i}" for i in range(width)]))
            if kind == "chain":
                acc = xs[0]
                for x in xs[1:]:
                    acc = b.XOR(acc, x)
            else:
                while len(xs) > 1:
                    nxt = [
                        b.XOR(xs[i], xs[i + 1])
                        for i in range(0, len(xs) - 1, 2)
                    ]
                    if len(xs) % 2:
                        nxt.append(xs[-1])
                    xs = nxt
                acc = xs[0]
            b.output(acc, name=f"o{j}")
        return b.circuit

    return build("chain", "mchain"), build("tree", "mtree")


def crash_at_unit_entry(**when):
    """A fault plan crashing sweep units at ``worker.entry`` (every hit
    unless ``when`` narrows it, e.g. ``hits=[1]``)."""
    return FaultPlan([FaultRule(site="worker.entry", action="crash", **when)])


class TestWorkerFaults:
    @pytest.fixture(autouse=True)
    def _disarm(self):
        yield
        chaos.uninstall()

    def test_crashing_workers_preserve_verdict(self):
        c1, c2 = multi_block_pair()
        clean = check_equivalence(c1, c2, SAT_PATH)
        plan = chaos.install(crash_at_unit_entry())
        faulty = check_equivalence(c1, c2, SAT_PATH)
        assert faulty.verdict is clean.verdict
        # Every unit died at entry, once (no retry): the telemetry must
        # show contained failures, not silence.
        assert plan.fired("worker.entry") == faulty.stats["n_units"] == 4
        assert faulty.stats["worker_failures"] == 4

    def test_inconsistent_cnf_slice_is_contained(self):
        # Satellite regression: an exception inside one sweep unit (its
        # CNF sanity check, say) used to kill the whole sweep; now it
        # costs only that unit's merges.
        c1, c2 = multi_block_pair()
        clean = check_equivalence(c1, c2, SAT_PATH)
        chaos.install(crash_at_unit_entry(hits=[1]))
        faulty = check_equivalence(c1, c2, SAT_PATH)
        assert faulty.verdict is clean.verdict
        assert faulty.stats["worker_failures"] == 1
        assert faulty.stats["sweep_unknown"] > 0
        assert faulty.stats["sweep_merges"] > 0  # the other units merged


class TestBudgetedEngine:
    def test_no_budget_is_bitforbit_baseline(self):
        c1, c2 = xor_chain(16), xor_tree(16)
        plain = check_equivalence(c1, c2)
        nulled = check_equivalence(c1, c2, budget=Budget())
        assert plain.verdict is nulled.verdict
        assert plain.reason is None and nulled.reason is None
        # Canonical keys are always present, and the decided-pair
        # counter records the same decisions on both paths.
        assert nulled.stats["engine_tables"] == plain.stats["engine_tables"]
        # The two paths must agree key-for-key (satellite of the
        # zero-suppression fix: suppression happens at render time only).
        assert set(plain.stats) == set(nulled.stats)

    def test_classic_unknown_carries_solver_reason(self):
        # Satellite: the unbudgeted SAT path used to discard the
        # solver's reason (reason=None on UNKNOWN); it now propagates
        # ``last_unknown_reason`` exactly like the budgeted path.
        r = check_equivalence(
            xor_chain(40),
            xor_tree(40),
            CecOptions(preprocess=False),
            conflict_limit=1,
        )
        assert r.verdict is CecVerdict.UNKNOWN
        assert r.reason == REASON_CONFLICT_LIMIT
        assert r.reason in KNOWN_REASONS

    def test_hard_miter_budget_returns_within_two_x(self):
        c1, c2 = xor_chain(1500), xor_tree(1500)
        window = 1.0
        t0 = time.monotonic()
        result = check_equivalence(c1, c2, budget=window)
        elapsed = time.monotonic() - t0
        assert result.verdict is CecVerdict.UNKNOWN
        assert result.reason in KNOWN_REASONS
        assert elapsed < window * 2 + 0.5

    def test_budget_unknown_reason_is_surfaced(self):
        result = check_equivalence(
            xor_chain(800), xor_tree(800), budget=Budget(wall_seconds=0.0)
        )
        assert result.verdict is CecVerdict.UNKNOWN
        assert result.reason == REASON_TIMEOUT

    def test_budgeted_inequivalence_still_finds_cex(self):
        c1 = xor_chain(16)
        from repro.netlist.build import CircuitBuilder

        b = CircuitBuilder("mutant")
        xs = b.inputs(*[f"x{i}" for i in range(16)])
        acc = xs[0]
        for x in xs[1:-1]:
            acc = b.XOR(acc, x)
        acc = b.OR(acc, xs[-1])  # the bug
        b.output(acc, name="o")
        result = check_equivalence(c1, b.circuit, budget=10.0)
        assert result.verdict is CecVerdict.NOT_EQUIVALENT
        assert result.counterexample is not None


class TestBoundedBddCheck:
    def test_node_limit_yields_unknown(self):
        c1, c2 = xor_chain(24), xor_tree(24)
        result = check_equivalence_bdd(c1, c2, node_limit=10)
        assert result.verdict is CecVerdict.UNKNOWN
        assert result.reason == REASON_BDD_BLOWUP

    def test_unlimited_still_decides(self):
        c1, c2 = xor_chain(12), xor_tree(12)
        assert check_equivalence_bdd(c1, c2).verdict is CecVerdict.EQUIVALENT
