"""The CEC engine's options as one value.

The sequential reduction (Sec. 7.4 of the paper) hands each pair of
lowered circuits to an ordinary combinational checker; how that checker
sweeps is one opaque choice to every layer above it.  :class:`CecOptions`
is that choice: the CLI and :class:`repro.api.VerifyRequest` build one,
and the flows and :func:`repro.core.verify.check_sequential_equivalence`
pass it whole to :func:`repro.cec.check_equivalence`, the only reader of
its fields.

Run resources — worker count, budget, tracer, metrics — are not engine
options: they describe the host running a check, not the check, and stay
separate keywords next to ``options``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cec.cache import ProofCache
    from repro.cec.dispatch import DispatchPolicy, OutcomeStore

__all__ = ["CecOptions"]


@dataclass(frozen=True)
class CecOptions:
    """How :func:`repro.cec.check_equivalence` sweeps and decides outputs.

    None of these changes a verdict; they change the effort spent on it.

    * ``cache`` — a :class:`~repro.cec.ProofCache` or a path to one:
      replay proven candidate and output verdicts by structural cone hash.
    * ``refine`` — counterexample-guided refinement: refuting SAT models
      re-split the simulation classes between sweep rounds.
    * ``preprocess`` — rewrite the miter AIG before sweeping (constant
      propagation, strashing, two-level rewrites, dead-node removal).
    * ``share_learned`` — pool short learned clauses across parallel sweep
      workers and into the final output checks.
    * ``engines`` — the output-check adapter portfolio (names or a comma
      list); None lets the dispatch policy choose.
    * ``dispatch_policy`` — ``"cascade"``, ``"heuristic"`` or a
      :class:`~repro.cec.DispatchPolicy` instance.
    * ``dispatch_store`` — an :class:`~repro.cec.OutcomeStore` or a path
      to one, recording per-engine outcomes across runs.
    """

    cache: Union[None, str, os.PathLike, ProofCache] = None
    refine: bool = True
    preprocess: bool = True
    share_learned: bool = True
    engines: Union[None, str, Sequence[str]] = None
    dispatch_policy: Union[str, DispatchPolicy] = "cascade"
    dispatch_store: Union[None, str, os.PathLike, OutcomeStore] = None
