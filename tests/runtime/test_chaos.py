"""Deterministic fault injection: plans, firing rules, registry, backoff.

Chaos is only trustworthy if it is *reproducible*: the same plan against
the same workload must fire the same faults at the same hits, regardless
of cross-site interleaving.  These tests pin that contract, the plan
format's loud validation, the zero-overhead off state, and the jittered
exponential backoff the requeue paths share.
"""

from __future__ import annotations

import asyncio
import json
import random
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.runtime import chaos
from repro.runtime.chaos import ChaosError, FaultPlan, FaultRule
from repro.runtime.retry import backoff_pause, run_with_retries


@pytest.fixture(autouse=True)
def _no_leaked_plan(monkeypatch):
    """Every test starts and ends chaos-free."""
    monkeypatch.delenv(chaos.ENV_VAR, raising=False)
    chaos.uninstall()
    yield
    chaos.uninstall()


class TestFaultRule:
    def test_unknown_site_rejected(self):
        # The proof cache's sites went with it in 1.5.0: a plan that
        # still names one fails loudly instead of never firing.
        for site in ("nonsense.site", "cache.load", "cache.save"):
            with pytest.raises(ValueError, match="unknown chaos site"):
                FaultRule(site=site, action="crash")
            with pytest.raises(ValueError, match="unknown chaos site"):
                FaultPlan.from_dict(
                    {"faults": [{"site": site, "action": "crash"}]}
                )

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            FaultRule(site="worker.entry", action="explode")
        with pytest.raises(ValueError, match="unknown chaos action"):
            FaultPlan.from_dict(
                {"faults": [{"site": "worker.entry", "action": "corrupt"}]}
            )

    def test_unknown_plan_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-rule"):
            FaultRule.from_dict(
                {"site": "worker.entry", "action": "crash", "wat": 1}
            )
        with pytest.raises(ValueError, match="unknown fault-plan"):
            FaultPlan.from_dict({"faults": [], "extra": True})

    def test_roundtrip(self):
        plan = FaultPlan(
            rules=[
                FaultRule(site="worker.entry", action="crash", hits=[1, 3]),
                FaultRule(site="store.append", action="delay", seconds=0.5),
            ],
            seed=7,
        )
        again = FaultPlan.from_dict(plan.to_dict())
        assert again.to_dict() == plan.to_dict()
        assert again.seed == 7


class TestFiring:
    def test_hits_list_fires_exactly_those_visits(self):
        plan = FaultPlan(
            [FaultRule(site="worker.entry", action="crash", hits=[2, 4])]
        )
        outcomes = []
        for _ in range(5):
            try:
                plan.fire("worker.entry")
                outcomes.append("ok")
            except ChaosError:
                outcomes.append("crash")
        assert outcomes == ["ok", "crash", "ok", "crash", "ok"]

    def test_every_and_times_cap(self):
        plan = FaultPlan(
            [FaultRule(site="store.append", action="crash", every=2, times=1)]
        )
        crashes = 0
        for _ in range(6):
            try:
                plan.fire("store.append")
            except ChaosError:
                crashes += 1
        assert crashes == 1  # every 2nd hit, capped at one firing

    def test_delay_sleeps(self):
        plan = FaultPlan(
            [FaultRule(site="scheduler.dispatch", action="delay", seconds=0.03)]
        )
        t0 = time.perf_counter()
        plan.fire("scheduler.dispatch")
        assert time.perf_counter() - t0 >= 0.025

    def test_afire_delay_and_crash(self):
        plan = FaultPlan(
            [
                FaultRule(
                    site="scheduler.dispatch", action="crash", hits=[2]
                )
            ]
        )

        async def drive():
            assert await plan.afire("scheduler.dispatch", "x") == "x"
            with pytest.raises(ChaosError):
                await plan.afire("scheduler.dispatch", "x")

        asyncio.run(drive())

    def test_log_records_every_firing(self):
        plan = FaultPlan(
            [FaultRule(site="worker.entry", action="crash", hits=[1])]
        )
        with pytest.raises(ChaosError):
            plan.fire("worker.entry")
        plan.fire("worker.entry")
        assert plan.fired() == 1
        assert plan.fired("worker.entry") == 1
        assert plan.fired("store.append") == 0
        entry = plan.log[0]
        assert entry["site"] == "worker.entry"
        assert entry["action"] == "crash"
        assert entry["hit"] == 1

    def test_metrics_counter(self):
        registry = MetricsRegistry()
        plan = FaultPlan([FaultRule(site="store.append", action="delay", seconds=0)])
        plan.metrics = registry
        plan.fire("store.append")
        plan.fire("store.append")
        assert registry.counter("chaos.faults_fired") == 2


class TestDeterminism:
    def test_prob_pattern_reproducible_across_instances(self):
        def pattern():
            plan = FaultPlan(
                [FaultRule(site="worker.entry", action="crash", prob=0.5)],
                seed=42,
            )
            fired = []
            for _ in range(32):
                try:
                    plan.fire("worker.entry")
                    fired.append(0)
                except ChaosError:
                    fired.append(1)
            return fired

        assert pattern() == pattern()

    def test_site_isolation_from_interleaving(self):
        """Hitting *other* sites never shifts a site's firing pattern."""
        rules = [
            FaultRule(site="worker.entry", action="crash", prob=0.5),
            FaultRule(site="store.append", action="crash", prob=0.5),
        ]
        solo = FaultPlan(list(rules), seed=9)
        mixed = FaultPlan(list(rules), seed=9)
        solo_pattern = []
        for _ in range(20):
            try:
                solo.fire("worker.entry")
                solo_pattern.append(0)
            except ChaosError:
                solo_pattern.append(1)
        mixed_pattern = []
        for _ in range(20):
            # Interleave hits on an unrelated site between every visit.
            try:
                mixed.fire("store.append")
            except ChaosError:
                pass
            try:
                mixed.fire("worker.entry")
                mixed_pattern.append(0)
            except ChaosError:
                mixed_pattern.append(1)
        assert mixed_pattern == solo_pattern

    def test_different_seeds_differ(self):
        def pattern(seed):
            plan = FaultPlan(
                [FaultRule(site="worker.entry", action="crash", prob=0.5)],
                seed=seed,
            )
            out = []
            for _ in range(64):
                try:
                    plan.fire("worker.entry")
                    out.append(0)
                except ChaosError:
                    out.append(1)
            return out

        assert pattern(1) != pattern(2)


class TestRegistry:
    def test_fire_is_noop_when_off(self):
        assert chaos.active() is None
        assert chaos.fire("worker.entry", "data") == "data"

        async def drive():
            return await chaos.afire("scheduler.dispatch", "x")

        assert asyncio.run(drive()) == "x"

    def test_install_uninstall(self):
        plan = FaultPlan([FaultRule(site="worker.entry", action="crash")])
        chaos.install(plan)
        assert chaos.active() is plan
        with pytest.raises(ChaosError):
            chaos.fire("worker.entry")
        assert chaos.uninstall() is plan
        assert chaos.active() is None

    def test_ensure_env_plan_installs_from_env(self, tmp_path, monkeypatch):
        path = tmp_path / "plan.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 3,
                    "faults": [{"site": "worker.entry", "action": "crash"}],
                }
            )
        )
        monkeypatch.setenv(chaos.ENV_VAR, str(path))
        plan = chaos.ensure_env_plan()
        assert plan is not None and plan.seed == 3
        # Idempotent: a second call keeps the installed plan.
        assert chaos.ensure_env_plan() is plan

    def test_ensure_env_plan_fails_loudly_on_bad_file(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        monkeypatch.setenv(chaos.ENV_VAR, str(path))
        with pytest.raises(ValueError):
            chaos.ensure_env_plan()

    def test_no_env_means_no_plan(self):
        assert chaos.ensure_env_plan() is None


class TestBackoffPause:
    def test_linear_default_unchanged(self):
        assert backoff_pause(1, 0.05) == pytest.approx(0.05)
        assert backoff_pause(3, 0.05) == pytest.approx(0.15)

    def test_exponential_bounded_by_doubling_ceiling(self):
        rng = random.Random(0)
        for attempt in range(1, 8):
            pause = backoff_pause(
                attempt, 0.1, exponential=True, backoff_cap=2.0, rng=rng
            )
            assert 0.0 <= pause <= min(2.0, 0.1 * 2 ** (attempt - 1))

    def test_exponential_respects_cap(self):
        rng = random.Random(1)
        draws = [
            backoff_pause(20, 1.0, exponential=True, backoff_cap=0.25, rng=rng)
            for _ in range(50)
        ]
        assert all(d <= 0.25 for d in draws)

    def test_seeded_rng_reproducible(self):
        a = [
            backoff_pause(k, 0.1, exponential=True, rng=random.Random(5))
            for k in range(1, 6)
        ]
        b = [
            backoff_pause(k, 0.1, exponential=True, rng=random.Random(5))
            for k in range(1, 6)
        ]
        assert a == b

    def test_zero_base_never_pauses(self):
        assert backoff_pause(4, 0.0, exponential=True) == 0.0

    def test_run_with_retries_exponential_path(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise RuntimeError("boom")
            return "ok"

        result, error, retries = run_with_retries(
            flaky,
            attempts=3,
            backoff_seconds=0.0,
            exponential=True,
            rng=random.Random(0),
        )
        assert result == "ok" and error is None and retries == 2
