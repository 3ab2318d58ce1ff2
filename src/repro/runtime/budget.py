"""Resource budgets for the proving engines.

A :class:`Budget` bundles every limit a verification obligation may be
given — a wall-clock deadline, SAT conflict/propagation caps, and a BDD
node limit — behind one object that the SAT solver, the BDD manager, and
the CEC engine all poll.  Budgets never abort silently: exhaustion turns
into an UNKNOWN verdict tagged with one of the ``REASON_*`` codes below,
so a flow report can say *why* each obligation was given up, not just
that it was.

Reason codes (stable strings, used in reports/checkpoints):

==========================  ==============================================
``timeout``                 the wall-clock deadline passed
``conflict-limit``          the SAT conflict cap was reached
``propagation-limit``       the SAT propagation cap was reached
``bdd-blowup``              BDD construction exceeded the node limit
``worker-failure``          a batch worker crashed/hung past its retries
``resource-limit``          generic/unclassified resource exhaustion
==========================  ==============================================

Budgets are *started* lazily: the deadline clock begins on the first call
that needs it (``start()``, ``deadline``, ``remaining()``, ``expired()``),
so a budget built at CLI-parse time does not charge the obligation for
setup work done before proving starts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Union

from repro.runtime.errors import BudgetExceededError

__all__ = [
    "Budget",
    "REASON_TIMEOUT",
    "REASON_CONFLICT_LIMIT",
    "REASON_PROPAGATION_LIMIT",
    "REASON_BDD_BLOWUP",
    "REASON_WORKER_FAILURE",
    "REASON_RESOURCE_LIMIT",
    "KNOWN_REASONS",
]

REASON_TIMEOUT = "timeout"
REASON_CONFLICT_LIMIT = "conflict-limit"
REASON_PROPAGATION_LIMIT = "propagation-limit"
REASON_BDD_BLOWUP = "bdd-blowup"
REASON_WORKER_FAILURE = "worker-failure"
REASON_RESOURCE_LIMIT = "resource-limit"

KNOWN_REASONS = frozenset(
    {
        REASON_TIMEOUT,
        REASON_CONFLICT_LIMIT,
        REASON_PROPAGATION_LIMIT,
        REASON_BDD_BLOWUP,
        REASON_WORKER_FAILURE,
        REASON_RESOURCE_LIMIT,
    }
)


@dataclass
class Budget:
    """Resource limits for one verification task.

    Every field is optional; ``None`` means unlimited, and an all-``None``
    budget behaves exactly like no budget at all.  ``slice(n)`` carves
    per-obligation sub-budgets out of the remaining wall time while
    keeping the parent deadline as a hard ceiling.
    """

    wall_seconds: Optional[float] = None
    sat_conflicts: Optional[int] = None
    sat_propagations: Optional[int] = None
    bdd_nodes: Optional[int] = None

    def __post_init__(self) -> None:
        self._deadline: Optional[float] = None

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def coerce(
        value: Union[None, int, float, "Budget"]
    ) -> Optional["Budget"]:
        """Accept a Budget, a bare wall-clock seconds number, or None."""
        if value is None or isinstance(value, Budget):
            return value
        return Budget(wall_seconds=float(value))

    @property
    def unlimited(self) -> bool:
        """True when no field constrains anything."""
        return (
            self.wall_seconds is None
            and self.sat_conflicts is None
            and self.sat_propagations is None
            and self.bdd_nodes is None
        )

    # ------------------------------------------------------------------
    # the wall clock
    # ------------------------------------------------------------------
    def start(self) -> "Budget":
        """Begin the wall clock (idempotent); returns self for chaining."""
        if self._deadline is None and self.wall_seconds is not None:
            self._deadline = time.monotonic() + self.wall_seconds
        return self

    @property
    def deadline(self) -> Optional[float]:
        """Absolute ``time.monotonic()`` deadline, or None when untimed."""
        self.start()
        return self._deadline

    def remaining(self) -> Optional[float]:
        """Wall seconds left (clamped at 0), or None when untimed."""
        deadline = self.deadline
        if deadline is None:
            return None
        return max(0.0, deadline - time.monotonic())

    def expired(self) -> bool:
        """True when the wall-clock deadline has passed."""
        deadline = self.deadline
        return deadline is not None and time.monotonic() >= deadline

    def check(self, context: Optional[str] = None) -> None:
        """Raise :class:`BudgetExceededError` if the deadline has passed."""
        if self.expired():
            raise BudgetExceededError(REASON_TIMEOUT, context)

    # ------------------------------------------------------------------
    # sub-budgets
    # ------------------------------------------------------------------
    def slice(self, n_obligations: int) -> "Budget":
        """A per-obligation sub-budget: an even share of the time left.

        The child inherits every cap and receives ``remaining / n`` wall
        seconds, with its deadline clipped to the parent's — a slow
        obligation can never spend a sibling's share *and* overrun the
        parent.  With no wall limit the child is simply a copy.
        """
        n = max(1, int(n_obligations))
        child = Budget(
            wall_seconds=self.wall_seconds,
            sat_conflicts=self.sat_conflicts,
            sat_propagations=self.sat_propagations,
            bdd_nodes=self.bdd_nodes,
        )
        remaining = self.remaining()
        if remaining is not None:
            share = remaining / n
            child.wall_seconds = share
            assert self._deadline is not None
            child._deadline = min(self._deadline, time.monotonic() + share)
        return child

    def __repr__(self) -> str:
        parts = []
        if self.wall_seconds is not None:
            parts.append(f"wall={self.wall_seconds:g}s")
        if self.sat_conflicts is not None:
            parts.append(f"conflicts={self.sat_conflicts}")
        if self.sat_propagations is not None:
            parts.append(f"propagations={self.sat_propagations}")
        if self.bdd_nodes is not None:
            parts.append(f"bdd_nodes={self.bdd_nodes}")
        return f"Budget({', '.join(parts) or 'unlimited'})"
