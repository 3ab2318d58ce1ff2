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
from typing import List, Optional, Sequence, Union

__all__ = ["CecOptions", "parse_engines"]


def parse_engines(
    value: Union[None, str, Sequence[str]]
) -> Optional[List[str]]:
    """An ``engines`` value as a list of names, or None for the default.

    A string is a comma list.  A named value must be non-empty, hold only
    ``structural`` and ``sat``, and include ``sat``: every such value
    names the SAT path alone.  Anything else raises ``ValueError`` naming
    the two accepted names.  ``CecOptions``, ``VerifyRequest`` and the
    ``--engines`` flags all check their value here.
    """
    if value is None:
        return None
    if isinstance(value, str):
        names = [part.strip() for part in value.split(",") if part.strip()]
    else:
        names = [str(name) for name in value]
    if "sat" not in names or not set(names) <= {"structural", "sat"}:
        raise ValueError(
            f"engines must name 'sat', alone or with 'structural'; "
            f"got {value!r}"
        )
    return names


@dataclass(frozen=True)
class CecOptions:
    """How :func:`repro.cec.check_equivalence` sweeps and decides outputs.

    None of these changes a verdict; they change the effort spent on it.

    * ``refine`` — counterexample-guided refinement: refuting SAT models
      re-split the simulation classes between sweep rounds.
    * ``preprocess`` — rewrite the miter AIG before sweeping (constant
      propagation, strashing, two-level rewrites, dead-node removal).
    * ``engines`` — None runs structural hashing, then truth tables when
      every open output reads at most 22 inputs, then SAT.  Naming
      ``sat`` (with or without ``structural``; a list or a comma list)
      runs the SAT path alone, without the tables:
      :data:`repro.cec.SAT_PORTFOLIO` is its one spelling.  Any other
      value raises ``ValueError`` (:func:`parse_engines`).
    """

    refine: bool = True
    preprocess: bool = True
    engines: Union[None, str, Sequence[str]] = None

    def __post_init__(self) -> None:
        parse_engines(self.engines)
