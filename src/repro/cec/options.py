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

from dataclasses import dataclass
from typing import Sequence, Union

__all__ = ["CecOptions"]


@dataclass(frozen=True)
class CecOptions:
    """How :func:`repro.cec.check_equivalence` sweeps and decides outputs.

    None of these changes a verdict; they change the effort spent on it.

    * ``refine`` — counterexample-guided refinement: refuting SAT models
      re-split the simulation classes between sweep rounds.
    * ``preprocess`` — rewrite the miter AIG before sweeping (constant
      propagation, strashing, two-level rewrites, dead-node removal).
    * ``engines`` — the output-check adapter portfolio (names or a comma
      list), walked in order.  None runs structural hashing, then truth
      tables when every open output reads at most 22 inputs, then
      ``sat``.  A named portfolio runs exactly what it names, so
      :data:`repro.cec.SAT_PORTFOLIO`, ``("structural", "sat")``, is the
      default path without the tables.
    """

    refine: bool = True
    preprocess: bool = True
    engines: Union[None, str, Sequence[str]] = None
