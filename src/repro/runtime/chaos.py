"""Deterministic fault injection for the verification runtime.

Robustness claims are only as good as the faults they were tested
against, and ad-hoc monkeypatching (the old private ``_fault_hook`` seam
in :mod:`repro.cec.parallel`) does not scale past one call site.  This
module is the shared registry that replaces it: production code is
instrumented with *named sites* —

==========================  ==============================================
``worker.entry``            a batch/sweep worker function begins a job
``scheduler.dispatch``      the batch scheduler ships a job to a worker
``store.append``            a result line is about to be written
``cache.load``              a proof-cache file is about to be read
``cache.save``              a proof-cache file is about to be written
==========================  ==============================================

— and a :class:`FaultPlan` decides, deterministically, what happens at
each hit of each site: nothing (the default), ``crash`` (raise
:class:`ChaosError`) or ``delay`` (sleep).  Determinism comes from
per-site hit counters and a per-site RNG seeded from ``(plan seed, site
name)``, so a rule's firing pattern depends only on how often *its* site
was hit, never on cross-site interleaving.

Sites call :func:`fire` (or :func:`afire` from coroutines, which uses
``asyncio.sleep`` for delays).  With no plan installed both are a single
``None`` check — chaos is zero-overhead when off.  Activation:

* explicitly, via :func:`install` (tests, ``repro batch --chaos``);
* by environment, via ``REPRO_CHAOS=/path/to/plan.json`` — worker
  processes check it on entry (:func:`ensure_env_plan`), so a plan
  installed by the CLI reaches pool workers even under ``spawn``.

Every firing is appended to the plan's :attr:`~FaultPlan.log` (the
chaos-trace artifact CI uploads) and counted as ``chaos.faults_fired``
when a metrics registry is attached.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Union

__all__ = [
    "ChaosError",
    "FaultRule",
    "FaultPlan",
    "KNOWN_SITES",
    "KNOWN_ACTIONS",
    "ENV_VAR",
    "install",
    "uninstall",
    "active",
    "ensure_env_plan",
    "fire",
    "afire",
]

#: Environment variable naming a fault-plan JSON file to auto-install.
ENV_VAR = "REPRO_CHAOS"

#: The instrumented sites (documentation + plan validation; a plan may
#: name only known sites so a typoed site fails loudly, not silently).
KNOWN_SITES = frozenset(
    {
        "worker.entry",
        "scheduler.dispatch",
        "store.append",
        "cache.load",
        "cache.save",
    }
)

ACTION_CRASH = "crash"
ACTION_DELAY = "delay"
KNOWN_ACTIONS = frozenset({ACTION_CRASH, ACTION_DELAY})


class ChaosError(RuntimeError):
    """The injected failure raised by a ``crash`` fault.

    A plain RuntimeError subclass on purpose: production code must
    survive it through its *generic* fault handling (retry, requeue,
    UNKNOWN degradation), not by special-casing chaos.
    """


def _site_seed(seed: int, site: str) -> int:
    # Stable across processes and runs (no PYTHONHASHSEED dependence).
    acc = 2166136261
    for byte in f"{seed}\x00{site}".encode("utf-8"):
        acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
    return acc


@dataclass
class FaultRule:
    """One fault: where it applies, when it fires, and what it does.

    Firing condition (evaluated against the site's 1-based hit number):
    ``hits`` (an explicit list of hit numbers), ``every`` (every Nth
    hit), or ``prob`` (a per-hit Bernoulli draw from the plan's per-site
    RNG).  With none given the rule fires on every hit.  ``times`` caps
    total firings; ``seconds`` is the ``delay`` duration.
    """

    site: str
    action: str
    hits: Optional[List[int]] = None
    every: Optional[int] = None
    prob: Optional[float] = None
    times: Optional[int] = None
    seconds: float = 0.01
    fired: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown chaos site {self.site!r} "
                f"(known: {sorted(KNOWN_SITES)})"
            )
        if self.action not in KNOWN_ACTIONS:
            raise ValueError(
                f"unknown chaos action {self.action!r} "
                f"(known: {sorted(KNOWN_ACTIONS)})"
            )

    def wants(self, hit: int, rng) -> bool:
        """Does this rule fire on the site's ``hit``-th visit?"""
        if self.times is not None and self.fired >= self.times:
            return False
        if self.hits is not None:
            return hit in self.hits
        if self.every is not None:
            return self.every > 0 and hit % self.every == 0
        if self.prob is not None:
            return rng.random() < self.prob
        return True

    def to_dict(self) -> Dict[str, Any]:
        """The rule as a plan-file row (defaults omitted)."""
        out: Dict[str, Any] = {"site": self.site, "action": self.action}
        for key in ("hits", "every", "prob", "times"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.action == ACTION_DELAY:
            out["seconds"] = self.seconds
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultRule":
        """Parse a plan-file row; unknown fields are a ``ValueError``."""
        known = {"site", "action", "hits", "every", "prob", "times", "seconds"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-rule field(s): {sorted(unknown)}")
        return cls(
            site=str(data["site"]),
            action=str(data["action"]),
            hits=[int(h) for h in data["hits"]] if "hits" in data else None,
            every=int(data["every"]) if "every" in data else None,
            prob=float(data["prob"]) if "prob" in data else None,
            times=int(data["times"]) if "times" in data else None,
            seconds=float(data.get("seconds", 0.01)),
        )


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s plus the firing machinery.

    One plan instance is installed at a time (:func:`install`); sites
    consult it through :func:`fire`.  ``log`` accumulates one record per
    firing — ``{"site", "action", "hit", "rule"}`` — and is the run's
    chaos trace.
    """

    def __init__(
        self, rules: List[FaultRule], seed: int = 0
    ) -> None:
        import random

        self.rules = list(rules)
        self.seed = int(seed)
        self.log: List[Dict[str, Any]] = []
        self.metrics = None  # optional repro.obs.metrics.MetricsRegistry
        self._hits: Dict[str, int] = {}
        self._rngs = {
            site: random.Random(_site_seed(self.seed, site))
            for site in {rule.site for rule in self.rules}
        }
        self._by_site: Dict[str, List[FaultRule]] = {}
        for rule in self.rules:
            self._by_site.setdefault(rule.site, []).append(rule)

    # ------------------------------------------------------------------
    # construction / serialisation
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultPlan":
        """Parse ``{"seed": ..., "faults": [...]}``; strict on fields."""
        known = {"seed", "faults"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault-plan field(s): {sorted(unknown)}")
        faults = data.get("faults")
        if not isinstance(faults, list):
            raise ValueError("fault plan needs a 'faults' list")
        return cls(
            rules=[FaultRule.from_dict(row) for row in faults],
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "FaultPlan":
        """Load a JSON plan file (the ``--chaos`` argument)."""
        with open(os.fspath(path), "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))

    def to_dict(self) -> Dict[str, Any]:
        """The plan back as its JSON file shape."""
        return {
            "seed": self.seed,
            "faults": [rule.to_dict() for rule in self.rules],
        }

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def _arm(self, site: str) -> Optional[FaultRule]:
        """Count one hit of ``site``; return the rule that fires, if any."""
        rules = self._by_site.get(site)
        if not rules:
            return None
        hit = self._hits.get(site, 0) + 1
        self._hits[site] = hit
        rng = self._rngs[site]
        for rule in rules:
            if rule.wants(hit, rng):
                rule.fired += 1
                self.log.append(
                    {
                        "site": site,
                        "action": rule.action,
                        "hit": hit,
                        "rule": rule.to_dict(),
                    }
                )
                if self.metrics is not None:
                    self.metrics.inc("chaos.faults_fired")
                return rule
        return None

    def fire(self, site: str, data: Any = None) -> Any:
        """Synchronous site visit: crash or sleep; returns ``data``."""
        rule = self._arm(site)
        if rule is None:
            return data
        if rule.action == ACTION_CRASH:
            raise ChaosError(f"injected crash at {site}")
        time.sleep(rule.seconds)
        return data

    async def afire(self, site: str, data: Any = None) -> Any:
        """Coroutine site visit (delays must not block the event loop)."""
        import asyncio

        rule = self._arm(site)
        if rule is None:
            return data
        if rule.action == ACTION_CRASH:
            raise ChaosError(f"injected crash at {site}")
        await asyncio.sleep(rule.seconds)
        return data

    def fired(self, site: Optional[str] = None) -> int:
        """How many faults fired (at one site, or overall)."""
        if site is None:
            return len(self.log)
        return sum(1 for entry in self.log if entry["site"] == site)

    def __repr__(self) -> str:
        return (
            f"FaultPlan(seed={self.seed}, rules={len(self.rules)}, "
            f"fired={len(self.log)})"
        )


# ----------------------------------------------------------------------
# the module-level registry
# ----------------------------------------------------------------------
_plan: Optional[FaultPlan] = None


def install(plan: FaultPlan, metrics=None) -> FaultPlan:
    """Make ``plan`` the active plan (replacing any previous one)."""
    global _plan
    plan.metrics = metrics if metrics is not None else plan.metrics
    _plan = plan
    return plan


def uninstall() -> Optional[FaultPlan]:
    """Deactivate chaos; returns the plan that was active, if any."""
    global _plan
    plan, _plan = _plan, None
    return plan


def active() -> Optional[FaultPlan]:
    """The currently installed plan, or None."""
    return _plan


def ensure_env_plan() -> Optional[FaultPlan]:
    """Install the ``REPRO_CHAOS`` plan if set and nothing is installed.

    Called at worker entry so pool workers honour the parent's plan even
    when the pool start method does not inherit module state (``spawn``).
    Unreadable plans fail loudly — silently running fault-free while the
    operator believes chaos is on would invalidate the whole run.
    """
    if _plan is not None:
        return _plan
    path = os.environ.get(ENV_VAR)
    if not path:
        return None
    return install(FaultPlan.load(path))


def fire(site: str, data: Any = None) -> Any:
    """Visit ``site``; returns ``data`` unchanged.

    No-op (one ``is None`` check) unless a plan is installed.
    """
    if _plan is None:
        return data
    return _plan.fire(site, data)


async def afire(site: str, data: Any = None) -> Any:
    """Async :func:`fire` — injected delays yield to the event loop."""
    if _plan is None:
        return data
    return await _plan.afire(site, data)
