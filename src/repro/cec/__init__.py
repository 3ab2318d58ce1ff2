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
4. **output check** — each output pair still open is then decided by
   SAT, yielding either EQUIVALENT or a counterexample assignment.

:func:`check_miter` runs every phase after the miter build on a miter
built elsewhere (the sequential check lowers its CBF/EDBF pair straight
into one).  A BDD-based engine (:func:`check_equivalence_bdd`) provides an independent
cross-check for small circuits.

Scaling layers on top of the filter pipeline:

* :mod:`repro.cec.partition` — one work unit per cone-disjoint cluster
  of signature classes over the miter AIG;
* :mod:`repro.cec.parallel` — every unit swept in-process, one at a
  time, on its own cone-sliced solver;
* :mod:`repro.cec.options` — :class:`CecOptions`, the engine options
  every caller passes as one value (``check_equivalence(c1, c2, options)``).
  Every check runs structural hashing, then truth tables when each open
  output reads at most 22 inputs, then SAT; ``engines`` naming ``sat``
  (:data:`SAT_PORTFOLIO`) runs the SAT path alone.
"""

from repro.cec.engine import (
    SAT_PORTFOLIO,
    CecVerdict,
    CheckResult,
    EngineStats,
    check_equivalence,
    check_equivalence_bdd,
    check_miter,
    check_miter_unsat,
)
from repro.cec.miter import build_miter
from repro.cec.options import CecOptions
from repro.cec.partition import Candidate, WorkUnit, partition_candidates

__all__ = [
    "SAT_PORTFOLIO",
    "Candidate",
    "CecOptions",
    "CecVerdict",
    "CheckResult",
    "EngineStats",
    "WorkUnit",
    "check_equivalence",
    "check_equivalence_bdd",
    "check_miter",
    "check_miter_unsat",
    "build_miter",
    "partition_candidates",
]
