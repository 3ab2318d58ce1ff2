"""Miter construction at the AIG level."""

from __future__ import annotations

from typing import Collection, List, Tuple

from repro.aig.aig import AIG, aig_from_circuit
from repro.netlist.circuit import Circuit

__all__ = ["build_miter", "MiterAIG", "paired_outputs"]


class MiterAIG:
    """Both circuits in one shared AIG plus the paired output literals.

    ``names`` labels the two sides (the circuits' names); the CEC check
    puts them on its ``cec.check`` span.
    """

    def __init__(
        self,
        aig: AIG,
        output_pairs: List[Tuple[str, int, int]],
        names: Tuple[str, str],
    ) -> None:
        self.aig = aig
        self.output_pairs = output_pairs  # (name, lit in c1, lit in c2)
        self.names = names

    @property
    def trivially_equivalent(self) -> bool:
        """All output pairs collapsed to identical literals structurally."""
        return all(l1 == l2 for _, l1, l2 in self.output_pairs)

    def miter_literal(self) -> int:
        """Single literal that is 1 iff some output pair differs."""
        xors = [self.aig.xor(l1, l2) for _, l1, l2 in self.output_pairs]
        return self.aig.or_all(xors)


def paired_outputs(outputs1: Collection[str], outputs2: Collection[str]) -> List[str]:
    """The output names a miter pairs, in pair order (sorted).

    Mismatched output sets are a hard error, since an unpaired output has
    no equivalence question to answer.
    """
    names = set(outputs1)
    if names != set(outputs2):
        raise ValueError(f"output sets differ: {sorted(names ^ set(outputs2))}")
    return sorted(names)


def build_miter(c1: Circuit, c2: Circuit) -> MiterAIG:
    """Import both combinational circuits into one AIG, pair the outputs.

    Inputs are matched by name over the *union* of the two input sets: an
    input present on only one side — typically a primary input resynthesis
    swept away as unused — is treated as unconstrained on the side that
    lacks it, which is exactly the semantics of a free PI in the shared
    AIG.  The output sets must match (:func:`paired_outputs`).
    """
    names = paired_outputs(c1.outputs, c2.outputs)
    aig = AIG()
    aig, lits1 = aig_from_circuit(c1, aig)
    aig, lits2 = aig_from_circuit(c2, aig)
    pairs = [(name, lits1[name], lits2[name]) for name in names]
    return MiterAIG(aig, pairs, (c1.name, c2.name))
