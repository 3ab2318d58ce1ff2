"""Combinational equivalence checking.

The engine follows the filter architecture of the tools the paper cites
(Matsunaga [10]; Kuehlmann & Krohm [12]):

1. **structural hashing** — both circuits are imported into one AIG so that
   shared substructure (the common case after retiming + resynthesis)
   collapses immediately;
2. **random simulation** — candidate internal equivalences are the node
   classes with equal (or complementary) simulation signatures;
3. **SAT sweeping** — candidates are proven/refuted in topological order
   with a CDCL solver; proven merges strengthen later queries;
4. **output check** — each output pair is then checked, yielding either
   EQUIVALENT or a counterexample assignment.

A BDD-based engine (:func:`check_equivalence_bdd`) provides an independent
cross-check for small circuits.

Scaling layers on top of the serial filter pipeline:

* :mod:`repro.cec.partition` — cone-disjoint work units over the miter AIG;
* :mod:`repro.cec.parallel` — a ``multiprocessing`` sweep dispatcher
  (``check_equivalence(..., n_jobs=N)``), verdict-identical to serial;
* :mod:`repro.cec.cache` — a persistent proof cache keyed by canonical
  structural cone hashes, so repeated checks across a flow (or across
  runs) replay proven merges instead of re-solving them;
* :mod:`repro.cec.engines` — the pluggable engine-adapter portfolio:
  each ladder stage (structural, sim, BDD, SAT) is a registered
  :class:`~repro.cec.engines.EngineAdapter`, and third-party engines
  register the same way;
* :mod:`repro.cec.dispatch` — dispatch policies that order the portfolio
  per obligation (``"cascade"`` reproduces the fixed ladder bit for bit;
  ``"heuristic"`` ranks engines from obligation features and a
  persistent :class:`~repro.cec.dispatch.OutcomeStore`);
* :mod:`repro.cec.options` — :class:`CecOptions`, the engine options
  every caller passes as one value (``check_equivalence(c1, c2, options)``).
"""

from repro.cec.cache import ProofCache
from repro.cec.dispatch import (
    CascadePolicy,
    DispatchPolicy,
    HeuristicPolicy,
    OutcomeStore,
    available_policies,
    coerce_policy,
    register_policy,
)
from repro.cec.engine import (
    CecVerdict,
    CheckResult,
    EngineStats,
    check_equivalence,
    check_equivalence_bdd,
    check_miter_unsat,
)
from repro.cec.engines import (
    EngineAdapter,
    EngineContext,
    EngineOutcome,
    Obligation,
    available_engines,
    get_engine,
    register_engine,
    resolve_portfolio,
)
from repro.cec.miter import build_miter
from repro.cec.options import CecOptions
from repro.cec.partition import Candidate, WorkUnit, partition_candidates

__all__ = [
    "Candidate",
    "CascadePolicy",
    "CecOptions",
    "CecVerdict",
    "CheckResult",
    "DispatchPolicy",
    "EngineAdapter",
    "EngineContext",
    "EngineOutcome",
    "EngineStats",
    "HeuristicPolicy",
    "Obligation",
    "OutcomeStore",
    "ProofCache",
    "WorkUnit",
    "available_engines",
    "available_policies",
    "check_equivalence",
    "check_equivalence_bdd",
    "check_miter_unsat",
    "build_miter",
    "coerce_policy",
    "get_engine",
    "partition_candidates",
    "register_engine",
    "register_policy",
    "resolve_portfolio",
]
