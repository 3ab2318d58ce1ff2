"""Robustness of the CEC engine: poisoned caches, dying workers, budgets.

The invariant under test everywhere: faults and resource exhaustion may
cost wall time or decidedness (UNKNOWN), but they must never change a
decided verdict — a crashed worker, a corrupted cache file, or a
conflict-limited solve must leave the engine verdict-identical to a
clean serial run.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.cec import CecOptions, parallel
from repro.cec.cache import EQ, NEQ, SCHEMA_VERSION, ProofCache
from repro.cec.engine import (
    CecVerdict,
    check_equivalence,
    check_equivalence_bdd,
)
from repro.runtime.budget import (
    KNOWN_REASONS,
    REASON_BDD_BLOWUP,
    REASON_CONFLICT_LIMIT,
    REASON_TIMEOUT,
    Budget,
)

from tests.cec.test_sweep_parallel import xor_chain, xor_tree


class TestCacheHardening:
    def _roundtrip(self, tmp_path):
        path = tmp_path / "proofs.json"
        cache = ProofCache(path)
        cache.put("k1", EQ)
        cache.put("k2", NEQ)
        cache.save()
        return path

    def test_envelope_roundtrip(self, tmp_path):
        path = self._roundtrip(tmp_path)
        raw = json.loads(path.read_text())
        assert raw["version"] == SCHEMA_VERSION
        reloaded = ProofCache(path)
        assert reloaded.get("k1") == EQ
        assert reloaded.get("k2") == NEQ

    @pytest.mark.parametrize(
        "content",
        [
            "not json at all {{{",
            '"a bare string"',
            "[1, 2, 3]",
            '{"no": "envelope"}',
            '{"version": 999, "proofs": {"k1": "eq"}}',
            '{"version": 1, "proofs": "not-a-dict"}',
        ],
    )
    def test_poisoned_file_degrades_to_misses(self, tmp_path, content):
        path = tmp_path / "proofs.json"
        path.write_text(content)
        cache = ProofCache(path)
        assert len(cache) == 0
        assert cache.get("k1") is None

    def test_invalid_verdicts_dropped_individually(self, tmp_path):
        path = tmp_path / "proofs.json"
        path.write_text(
            json.dumps(
                {
                    "version": SCHEMA_VERSION,
                    "proofs": {"good": "eq", "bad": "maybe", "worse": 7},
                }
            )
        )
        cache = ProofCache(path)
        assert cache.get("good") == EQ
        assert cache.get("bad") is None
        assert cache.get("worse") is None

    def test_pre_envelope_format_is_ignored(self, tmp_path):
        # The seed's bare {key: verdict} files have no version field.
        path = tmp_path / "proofs.json"
        path.write_text(json.dumps({"k1": "eq"}))
        assert ProofCache(path).get("k1") is None

    def test_uncacheable_verdict_rejected(self):
        with pytest.raises(ValueError):
            ProofCache().put("k", "unknown")

    def test_save_leaves_no_temp_files(self, tmp_path):
        self._roundtrip(tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["proofs.json"]

    def test_corrupted_cache_does_not_change_verdict(self, tmp_path):
        c1, c2 = xor_chain(16), xor_tree(16)
        clean = check_equivalence(c1, c2)
        path = tmp_path / "proofs.json"
        # A hostile file full of wrong verdicts under random keys plus
        # garbage rows: everything must be ignored or dropped.
        path.write_text(
            json.dumps(
                {
                    "version": SCHEMA_VERSION,
                    "proofs": {f"bogus{i}": NEQ for i in range(50)},
                }
            )
        )
        poisoned = check_equivalence(c1, c2, CecOptions(cache=path))
        assert poisoned.verdict is clean.verdict

    def test_unparsable_file_quarantined_as_evidence(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        path = tmp_path / "proofs.json"
        path.write_text("not json at all {{{")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            cache = ProofCache(path)
        # The corrupt bytes are set aside, byte-for-byte, not destroyed.
        assert not path.exists()
        quarantined = tmp_path / "proofs.json.corrupt"
        assert quarantined.read_text() == "not json at all {{{"
        assert cache.corrupt_files == 1
        registry = MetricsRegistry()
        cache.attach_metrics(registry)
        assert registry.counter("cec.cache.corrupt_files") == 1
        # The next save writes a fresh file; the evidence stays put.
        cache.put("k1", EQ)
        cache.save()
        assert path.exists() and quarantined.exists()

    def test_version_mismatch_ignored_not_quarantined(self, tmp_path):
        path = tmp_path / "proofs.json"
        content = json.dumps({"version": 999, "proofs": {"k1": "eq"}})
        path.write_text(content)
        cache = ProofCache(path)
        # Incompatible-but-well-formed is not corruption: file untouched.
        assert cache.corrupt_files == 0
        assert path.read_text() == content
        assert not (tmp_path / "proofs.json.corrupt").exists()


def multi_block_pair(blocks=4, width=10):
    """Equivalent multi-output pairs with cone-disjoint outputs.

    Each output is an independent XOR block (chain on one side, tree on
    the other), so the sweep partitions into multiple work units and the
    pool path genuinely engages under ``n_jobs > 1``.
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


class TestWorkerFaults:
    def _pair(self):
        return multi_block_pair()

    def test_crashing_workers_preserve_verdict(self, monkeypatch):
        c1, c2 = self._pair()
        serial = check_equivalence(c1, c2, n_jobs=1)

        def crash(payload):
            raise RuntimeError("injected worker crash")

        monkeypatch.setattr(parallel, "_fault_hook", crash)
        faulty = check_equivalence(c1, c2, n_jobs=2)
        assert faulty.verdict is serial.verdict
        # Every unit died in the pool AND on the serial retries, so the
        # telemetry must show contained failures, not silence.
        assert faulty.stats.get("worker_failures", 0) > 0

    def test_inconsistent_cnf_slice_is_contained(self, monkeypatch):
        # Satellite regression: the sweep worker's CNF sanity check used
        # to kill the whole sweep; now it costs only that unit's merges.
        c1, c2 = self._pair()
        serial = check_equivalence(c1, c2, n_jobs=1)

        def poison(payload):
            raise RuntimeError("inconsistent CNF slice in sweep worker")

        monkeypatch.setattr(parallel, "_fault_hook", poison)
        faulty = check_equivalence(c1, c2, n_jobs=2)
        assert faulty.verdict is serial.verdict
        assert faulty.stats.get("sweep_unknown", 0) > 0

    def test_intermittent_crash_recovers_via_retry(self, monkeypatch):
        c1, c2 = self._pair()
        serial = check_equivalence(c1, c2, n_jobs=1)
        state = {"calls": 0}

        def flaky(payload):
            state["calls"] += 1
            if state["calls"] % 2 == 1:
                raise RuntimeError("flaky worker")

        monkeypatch.setattr(parallel, "_fault_hook", flaky)
        faulty = check_equivalence(c1, c2, n_jobs=2)
        assert faulty.verdict is serial.verdict

    def test_hung_worker_is_killed_and_requeued(self, monkeypatch):
        c1, c2 = self._pair()
        serial = check_equivalence(c1, c2, n_jobs=1)

        def hang_in_pool(payload):
            # The hook runs in fork children AND on the serial requeue
            # path; hang only in children so the requeue succeeds.
            import multiprocessing

            if multiprocessing.parent_process() is not None:
                time.sleep(60)

        monkeypatch.setattr(parallel, "_fault_hook", hang_in_pool)
        t0 = time.monotonic()
        result = check_equivalence(
            c1, c2, n_jobs=2, budget=Budget(wall_seconds=2.0)
        )
        elapsed = time.monotonic() - t0
        assert elapsed < 15.0  # 60s sleeps must not be waited out
        assert result.verdict is serial.verdict or (
            result.verdict is CecVerdict.UNKNOWN
            and result.reason in KNOWN_REASONS
        )


class TestBudgetedEngine:
    def test_no_budget_is_bitforbit_baseline(self):
        c1, c2 = xor_chain(16), xor_tree(16)
        plain = check_equivalence(c1, c2)
        nulled = check_equivalence(c1, c2, budget=Budget())
        assert plain.verdict is nulled.verdict
        assert plain.reason is None and nulled.reason is None
        # Canonical keys are always present, and the cascade counters
        # record decided obligations on both paths (satellite: the old
        # ``ctx.budgeted`` gate left classic runs with zero cascades).
        assert nulled.stats["cascade_sat"] == plain.stats["cascade_sat"]
        assert nulled.stats["cascade_bdd"] == plain.stats["cascade_bdd"]
        assert nulled.stats["cascade_sim"] == plain.stats["cascade_sim"]
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

    def test_bdd_fallback_decides_under_sat_starvation(self):
        # With SAT effectively disabled (conflict cap 1) the bounded BDD
        # stage must still prove the pair inside the budget.
        c1, c2 = xor_chain(12), xor_tree(12)
        result = check_equivalence(
            c1,
            c2,
            sweep=False,
            budget=Budget(wall_seconds=20.0),
        )
        assert result.verdict is CecVerdict.EQUIVALENT
        assert result.stats.get("cascade_bdd", 0) > 0

    def test_tiny_bdd_limit_falls_through_to_sat(self):
        c1, c2 = xor_chain(12), xor_tree(12)
        result = check_equivalence(
            c1,
            c2,
            sweep=False,
            budget=Budget(wall_seconds=20.0, bdd_nodes=8),
        )
        assert result.verdict is CecVerdict.EQUIVALENT
        assert result.stats.get("bdd_blowups", 0) > 0
        assert result.stats.get("cascade_sat", 0) > 0


class TestBoundedBddCheck:
    def test_node_limit_yields_unknown(self):
        c1, c2 = xor_chain(24), xor_tree(24)
        result = check_equivalence_bdd(c1, c2, node_limit=10)
        assert result.verdict is CecVerdict.UNKNOWN
        assert result.reason == REASON_BDD_BLOWUP

    def test_unlimited_still_decides(self):
        c1, c2 = xor_chain(12), xor_tree(12)
        assert check_equivalence_bdd(c1, c2).verdict is CecVerdict.EQUIVALENT
