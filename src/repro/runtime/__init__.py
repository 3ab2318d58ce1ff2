"""Resource governance for the verification runtime.

The paper's reduction makes sequential checking *tractable*, not *free*:
BDDs can still blow up, SAT queries can still diverge, and a Table 1 run
is only as robust as its weakest row.  This package is the budget-and-
degradation layer every proving engine polls:

* :class:`Budget` — wall-clock deadline, SAT conflict/propagation caps,
  per-obligation ``slice()`` sub-budgets;
* reason codes (``REASON_*``) — the stable vocabulary UNKNOWN verdicts
  are tagged with;
* :class:`BddBlowupError` / :class:`BudgetExceededError` — the catchable
  resource failures the engines raise instead of hanging;
* :func:`run_with_retries` — bounded retry + backoff (linear or
  exponential-with-jitter) for requeuing crashed parallel work;
* :mod:`repro.runtime.chaos` — the deterministic fault-injection
  registry (:class:`FaultPlan`, :func:`chaos.fire`) that robustness
  tests drive production fault paths through.

The package deliberately imports nothing else from :mod:`repro`, so every
layer (sat, bdd, cec, flows) can depend on it without cycles.
"""

from repro.runtime.budget import (
    KNOWN_REASONS,
    REASON_BDD_BLOWUP,
    REASON_CONFLICT_LIMIT,
    REASON_PROPAGATION_LIMIT,
    REASON_RESOURCE_LIMIT,
    REASON_TIMEOUT,
    REASON_WORKER_FAILURE,
    Budget,
)
from repro.runtime.chaos import ChaosError, FaultPlan, FaultRule
from repro.runtime.errors import (
    BddBlowupError,
    BudgetExceededError,
    ResourceError,
)
from repro.runtime.retry import backoff_pause, run_with_retries

__all__ = [
    "Budget",
    "BddBlowupError",
    "BudgetExceededError",
    "ChaosError",
    "FaultPlan",
    "FaultRule",
    "ResourceError",
    "backoff_pause",
    "run_with_retries",
    "KNOWN_REASONS",
    "REASON_BDD_BLOWUP",
    "REASON_CONFLICT_LIMIT",
    "REASON_PROPAGATION_LIMIT",
    "REASON_RESOURCE_LIMIT",
    "REASON_TIMEOUT",
    "REASON_WORKER_FAILURE",
]
