"""The engine-adapter protocol: one pluggable proof procedure per name.

The CEC engine's output checks used to be a fixed ladder inlined into
``cec/engine.py`` (structural hash → simulation refutation → bounded BDD
→ bounded SAT).  This package turns each rung into an
:class:`EngineAdapter` — a named, registered object that tries to decide
one :class:`Obligation` against a shared :class:`EngineContext` — so the
cascade becomes *data*: an ordered portfolio of adapter names, walked in
order for every output pair (``structural`` then ``sat`` unless the
caller names engines).

Contract of an adapter (narrative form in ``docs/API.md``):

* :meth:`EngineAdapter.decide` returns an :class:`EngineOutcome` whose
  ``status`` is ``EQ``/``NEQ`` when the engine proved or refuted the
  pair, :data:`PASS` when it cannot decide and the next engine in the
  portfolio should try, or :data:`UNKNOWN` when the whole check must
  stop (resource exhaustion; the runner turns it into the check's
  verdict, with ``outcome.reason`` as the ``REASON_*`` code).
* Budget discipline: adapters read their limits from the context
  (``ctx.sat_limit`` / ``ctx.propagation_limit`` / ``ctx.deadline`` /
  ``ctx.node_limit`` / ``ctx.budget``) and must never block past them.
  Wall-clock expiry *between* engines is the runner's job, not the
  adapter's.
* Metrics: adapters count their effort into ``ctx.metrics`` under the
  ``cec.*`` names catalogued in ``docs/OBSERVABILITY.md``.  The
  historical ladder's decision counters (``cec.cascade.<stage>``) are
  incremented *inside* the deciding adapter, exactly once per decided
  obligation, on budgeted and unbudgeted checks alike — so a classic
  run's cascade breakdown matches a budgeted run of the same miter.
  Single-site counting makes double counting structurally impossible.
* NEQ outcomes must carry a counterexample already re-validated against
  the AIG (:func:`validate_counterexample`); the runner trusts it.

Third-party engines register via :func:`register_engine` and become
addressable from every layer (``CecOptions(engines=[...])``,
``VerifyRequest(engines=[...])``, ``repro verify --engines ...``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cec.parallel import EQ, NEQ

__all__ = [
    "DEFAULT_BDD_NODE_LIMIT",
    "EQ",
    "NEQ",
    "PASS",
    "UNKNOWN",
    "Obligation",
    "EngineContext",
    "EngineOutcome",
    "EngineAdapter",
    "register_engine",
    "get_engine",
    "available_engines",
    "resolve_portfolio",
    "extract_counterexample",
    "validate_counterexample",
    "lit_word",
]

#: Node cap for a bounded BDD attempt when the budget does not set one
#: explicitly; small enough that a blow-up costs milliseconds.
DEFAULT_BDD_NODE_LIMIT = 100_000

#: Outcome status: the adapter cannot decide this pair; the runner hands
#: it to the next engine in the portfolio order.
PASS = "pass"
#: Outcome status: stop the portfolio — the check's verdict is UNKNOWN
#: (``EngineOutcome.reason`` says why when the check is budget-governed).
UNKNOWN = "unknown"


@dataclass
class Obligation:
    """One output pair to decide: the unit of work adapters receive."""

    name: str
    l1: int
    l2: int


class EngineContext:
    """Shared state one output-check run hands to every adapter.

    Owns the derived resource limits so every adapter prices work the
    same way: ``sat_limit`` folds the caller's conflict limit with the
    budget's, ``propagation_limit`` and ``deadline`` are the budget's
    (None without one), and ``node_limit`` is the budget's BDD cap (or
    the default).

    ``cores`` is the run's shared :class:`~repro.sat.cores.CoreIndex`
    (when the caller maintains one): the SAT adapter consults it to
    retire assumption sets subsumed by an already-known core without a
    solver call, and feeds every fresh core back into it.

    :meth:`signature` lazily computes (and caches) the random-simulation
    words the sim adapter refutes from, so portfolios without a sim stage
    never pay for them.
    """

    def __init__(
        self,
        *,
        aig,
        solver,
        lit2cnf,
        metrics,
        tracer,
        budget,
        conflict_limit: Optional[int],
        sim_width: int,
        seed: int,
        cores=None,
    ) -> None:
        self.aig = aig
        self.solver = solver
        self.lit2cnf = lit2cnf
        self.metrics = metrics
        self.tracer = tracer
        self.budget = budget
        self.propagation_limit = (
            budget.sat_propagations if budget is not None else None
        )
        self.cores = cores
        self.conflict_limit = conflict_limit
        self.sim_width = sim_width
        self.seed = seed
        sat_limit = conflict_limit
        if budget is not None and budget.sat_conflicts is not None:
            sat_limit = (
                budget.sat_conflicts
                if sat_limit is None
                else min(sat_limit, budget.sat_conflicts)
            )
        self.sat_limit = sat_limit
        self.node_limit = (
            budget.bdd_nodes if budget is not None else None
        ) or DEFAULT_BDD_NODE_LIMIT
        self._signature: Optional[Tuple[List[int], int]] = None

    @property
    def deadline(self) -> Optional[float]:
        """The budget's absolute wall-clock deadline (None when untimed)."""
        return self.budget.deadline if self.budget is not None else None

    def signature(self) -> Tuple[List[int], int]:
        """Random-simulation ``(words, mask)`` of the miter AIG."""
        if self._signature is None:
            self._signature = self.aig.random_simulate(
                width=self.sim_width, seed=self.seed
            )
        return self._signature


@dataclass
class EngineOutcome:
    """What one adapter concluded about one obligation."""

    status: str  # EQ | NEQ | PASS | UNKNOWN
    counterexample: Optional[Dict[str, bool]] = None
    reason: Optional[str] = None


class EngineAdapter:
    """Base class of pluggable proof engines.

    Subclass, set :attr:`name`, implement :meth:`decide`, and register
    with :func:`register_engine`.  ``proving`` distinguishes real proof
    procedures — which get a ``stage.<name>`` tracer span per attempt and
    a budget wall check before the first of them runs — from bookkeeping
    adapters like the structural literal check, which stay span-free and
    free of charge.
    """

    name: str = ""
    proving: bool = True

    def decide(self, ob: Obligation, ctx: EngineContext) -> EngineOutcome:
        """Attempt one obligation; EQ/NEQ decide it, PASS hands it on.

        UNKNOWN stops the whole check (budget/limit exhaustion).  Must
        never raise on resource exhaustion.
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, Callable[[], EngineAdapter]] = {}


def register_engine(
    factory: Callable[[], EngineAdapter], name: Optional[str] = None
):
    """Register an adapter factory (usable as a class decorator).

    ``name`` defaults to the factory's ``name`` attribute.  Registering
    an existing name replaces it — deliberate, so a downstream package
    can swap a built-in engine for an instrumented one.
    """
    key = name or getattr(factory, "name", "")
    if not key:
        raise ValueError("engine adapter needs a non-empty name")
    _REGISTRY[str(key)] = factory
    return factory


def available_engines() -> List[str]:
    """Sorted names of every registered engine adapter."""
    return sorted(_REGISTRY)


def get_engine(name: str) -> EngineAdapter:
    """Instantiate the adapter registered under ``name``.

    Raises ``ValueError`` listing the known names on a miss — a typoed
    engine silently meaning "skip that stage" is how wrong expectations
    get trusted.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: "
            + ", ".join(available_engines())
        ) from None
    return factory()


def resolve_portfolio(
    names: Union[str, Sequence[str]]
) -> List[EngineAdapter]:
    """Build an ordered adapter list from names (or a comma list)."""
    if isinstance(names, str):
        names = [part.strip() for part in names.split(",") if part.strip()]
    adapters = [get_engine(str(name)) for name in names]
    if not adapters:
        raise ValueError("empty engine portfolio")
    return adapters


# ----------------------------------------------------------------------
# Counterexample plumbing shared by the proving adapters
# ----------------------------------------------------------------------
def extract_counterexample(
    aig, model: Dict[int, bool], lit2cnf, lits: Sequence[int]
) -> Dict[str, bool]:
    """Named PI assignment from a SAT model, over the cone of ``lits``.

    ``lits`` are the failing obligation's two literals.  PIs outside
    their fanin cone cannot affect the pair, so they are False whatever
    the model's saved phases say, as are PIs the model leaves unset: a
    witness carries only the failing cone, and the sequential lift has
    no stray True bits to minimise away.
    """
    cone = aig.cone_nodes(lits)
    return {
        pi: node in cone and bool(model.get(lit2cnf(2 * node), False))
        for node, pi in zip(aig.pis, aig.pi_names)
    }


def validate_counterexample(
    aig, cex: Dict[str, bool], l1: int, l2: int, name: str
) -> None:
    """Re-simulate an extracted assignment; raise unless it distinguishes.

    A SAT/BDD model is only a counterexample if replaying it through the
    AIG actually drives the paired output literals apart — anything else
    means the encoding, the model extraction, or a sweep merge is
    corrupt, and returning it would be reporting NOT_EQUIVALENT on
    fiction.
    """
    v1, v2 = aig.eval_literals([l1, l2], cex)
    if v1 == v2:
        raise RuntimeError(
            f"extracted counterexample does not distinguish output {name!r}; "
            "CEC engine state is inconsistent"
        )


def lit_word(words: List[int], mask: int, lit: int) -> int:
    """Simulation word of an AIG literal (complement under the mask)."""
    word = words[lit >> 1]
    return (~word & mask) if lit & 1 else word
