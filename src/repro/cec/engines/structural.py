"""Structural adapter: literal identity.

Stage 1 of the historical ladder.  Not a proving engine — it only
recognises pairs the miter's structural hashing already merged onto one
literal, and hands every other pair to the next engine.
"""

from __future__ import annotations

from repro.cec.engines.base import (
    EQ,
    PASS,
    EngineAdapter,
    EngineContext,
    EngineOutcome,
    Obligation,
    register_engine,
)

__all__ = ["StructuralEngine"]


@register_engine
class StructuralEngine(EngineAdapter):
    name = "structural"
    proving = False

    def decide(self, ob: Obligation, ctx: EngineContext) -> EngineOutcome:
        """EQ when both literals already coincide; PASS otherwise."""
        if ob.l1 == ob.l2:
            return EngineOutcome(EQ)
        return EngineOutcome(PASS)
