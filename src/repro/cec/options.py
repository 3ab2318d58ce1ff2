"""The CEC engine's options as one value.

The sequential reduction (Sec. 7.4 of the paper) hands each pair of
lowered circuits to an ordinary combinational checker; how that checker
sweeps is one opaque choice to every layer above it.  :class:`CecOptions`
is that choice: the CLI and :class:`repro.api.VerifyRequest` build one,
and the flows and :func:`repro.core.verify.check_sequential_equivalence`
pass it whole to :func:`repro.cec.check_equivalence`, the only reader of
its fields.

Run resources — budget, tracer, metrics — are not engine options: they
describe the run of a check, not the check, and stay separate keywords
next to ``options``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Union

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.cec.cache import ProofCache

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
    * ``engines`` — the output-check adapter portfolio (names or a comma
      list), walked in order; None runs ``structural`` then ``sat``.
    """

    cache: Union[None, str, os.PathLike, ProofCache] = None
    refine: bool = True
    preprocess: bool = True
    engines: Union[None, str, Sequence[str]] = None
