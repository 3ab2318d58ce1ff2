"""``script_delay`` — the paper's synthesis script (Fig. 17 analogue).

The paper's modified ``script.delay``::

    sweep; decomp -q; tech_decomp -o 2; resub -a -d; sweep;
    reduce_depth -b -r; eliminate -l 100 -1; simplify -l; sweep;
    decomp -q; fx -l; tech_decomp -o 2
    map (inv/nand2/nor2 library, unit delay, fanout limit 4)

:func:`script_delay` runs the same pipeline on a combinational circuit;
:func:`optimize_sequential_delay` wraps it for sequential circuits by
cutting the latches (the latch boundary is preserved — exactly the
combinational-synthesis step of the retime-and-resynthesise loop).
"""

from __future__ import annotations

from typing import Optional

from repro.netlist.circuit import Circuit
from repro.netlist.transform import combinational_core, rebuild_from_core
from repro.synth.cse import strash
from repro.synth.decomp import algebraic_decomp, tech_decomp
from repro.synth.depth import reduce_depth
from repro.synth.eliminate import eliminate
from repro.synth.fx import fast_extract
from repro.synth.network import CoverTable
from repro.synth.resub import resubstitute
from repro.synth.simplify import simplify_network
from repro.synth.sweep import sweep

__all__ = ["script_delay", "optimize_sequential_delay"]


def script_delay(
    circuit: Circuit,
    effort: str = "medium",
    table: Optional[CoverTable] = None,
) -> Circuit:
    """Run the delay script on a *combinational* circuit (in place).

    ``effort='low'`` skips the quadratic passes (resub/fx) for very large
    networks; ``'medium'`` is the paper's pipeline; ``'high'`` adds a second
    simplification round.  ``eliminate`` and ``simplify`` take their
    composed and minimised covers from ``table``, a fresh
    :class:`~repro.synth.network.CoverTable` when none is given; the
    circuit comes out the same either way.
    """
    if circuit.latches:
        raise ValueError("script_delay is combinational; use optimize_sequential_delay")
    if table is None:
        table = CoverTable()
    sweep(circuit)
    strash(circuit)
    algebraic_decomp(circuit)
    tech_decomp(circuit)
    if effort != "low":
        resubstitute(circuit)
    sweep(circuit)
    reduce_depth(circuit)
    eliminate(circuit, threshold=-1, max_literals=100, table=table)
    simplify_network(circuit, table=table)
    sweep(circuit)
    algebraic_decomp(circuit)
    if effort != "low":
        fast_extract(circuit)
    if effort == "high":
        simplify_network(circuit, table=table)
        sweep(circuit)
    tech_decomp(circuit)
    reduce_depth(circuit)
    sweep(circuit)
    return circuit


def optimize_sequential_delay(
    circuit: Circuit,
    effort: str = "medium",
    name: Optional[str] = None,
    table: Optional[CoverTable] = None,
) -> Circuit:
    """Combinational delay optimisation of a sequential circuit.

    Latch positions are fixed: the combinational core is cut out (latch
    outputs become PIs, latch data/enable nets POs), optimised with
    :func:`script_delay`, and the latches re-attached — exactly how SIS
    treats sequential circuits under combinational scripts.  ``table`` is
    passed to :func:`script_delay`: a caller that synthesises related
    circuits can share one, and gets the circuits it would get without.
    """
    if not circuit.latches:
        result = circuit.copy(name or circuit.name + "_opt")
        script_delay(result, effort, table)
        return result
    core = combinational_core(circuit)
    script_delay(core.circuit, effort, table)
    return rebuild_from_core(core, name or circuit.name + "_opt")
