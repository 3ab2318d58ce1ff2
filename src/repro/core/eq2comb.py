"""Generating equivalent combinational circuits (paper Sec. 7.4, Fig. 18).

A CBF/EDBF is a Boolean function over ``(input, time-tag)`` variables.  To
hand the equivalence problem to an off-the-shelf combinational checker, the
expression DAG is materialised as a combinational circuit: each variable
becomes a primary input named ``input@tag`` and each DAG node becomes a
gate.  Because the DAG was built with memoisation per (signal, tag), a cone
needed at *k* tags appears *k* times — exactly the replication of Fig. 18.

Two circuits compared with a *shared* expression table / event context get
identical variable names on both sides, so their lowered circuits can be
mitered directly.

The sequential check lowers a CBF or EDBF pair straight into the miter
AIG the CEC engine reads (:func:`expr_to_miter`): the same AIG, node for
node, that :func:`~repro.cec.miter.build_miter` builds from the two
lowered circuits, without building them.  The circuits
(:func:`cbf_to_circuit`, :func:`edbf_to_circuit`) stay the independent
path to that AIG, and the form a lowered pair is written out in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.aig.aig import AIG, FALSE_LIT, TRUE_LIT
from repro.cec.miter import MiterAIG, paired_outputs
from repro.core.cbf import CBF
from repro.core.edbf import EDBF
from repro.core.timedvar import CONST0, CONST1, ExprTable, VarKey
from repro.netlist.circuit import Circuit
from repro.netlist.cube import Sop

__all__ = [
    "LoweredPair",
    "cbf_to_circuit",
    "edbf_to_circuit",
    "expr_to_circuit",
    "expr_to_miter",
    "timed_input_name",
]


def timed_input_name(key) -> str:
    """Canonical PI name for a timed/evented variable key."""
    tag, name, when = key
    if tag == "t":
        return f"{name}@{when}"
    return f"{name}@E{when}"


def expr_to_circuit(
    table: ExprTable,
    outputs: Dict[str, int],
    name: str,
    extra_inputs: Sequence = (),
) -> Circuit:
    """Lower expression roots to a combinational circuit.

    ``extra_inputs`` lists variable keys that must exist as PIs even if the
    outputs do not depend on them (used to give two compared circuits the
    same input set: the union of both supports).
    """
    circuit = Circuit(name)
    # Collect the union of supports to declare PIs deterministically.
    keys = set(extra_inputs)
    for node in outputs.values():
        keys |= table.support(node)
    for key in sorted(keys, key=repr):
        circuit.add_input(timed_input_name(key))

    signal_of: Dict[int, str] = {}
    # The walk holds every root, constants included.
    for n in table.descendants(list(outputs.values())):
        kind = table.kind(n)
        if kind == "c":
            sig = f"__const{n}"
            circuit.add_gate(
                sig, (), Sop.const1(0) if n == CONST1 else Sop.const0(0)
            )
            signal_of[n] = sig
        elif kind == "v":
            signal_of[n] = timed_input_name(table.var_key(n))
        else:
            sop, children = table.op_parts(n)
            sig = f"__n{n}"
            circuit.add_gate(sig, tuple(signal_of[c] for c in children), sop)
            signal_of[n] = sig
    for out_name, node in outputs.items():
        # Buffer so the output has its own name.
        out_sig = f"__out_{out_name}"
        circuit.add_gate(out_sig, (signal_of[node],), Sop.and_all(1))
        circuit.add_output(out_sig)
    return circuit


def cbf_to_circuit(
    cbf: CBF, name: Optional[str] = None, extra_inputs: Sequence = ()
) -> Circuit:
    """The combinational circuit of a CBF (Fig. 18(b) for Fig. 18(a))."""
    return expr_to_circuit(
        cbf.table,
        cbf.outputs,
        name or (cbf.circuit_name + "_cbf"),
        extra_inputs,
    )


def edbf_to_circuit(
    edbf: EDBF, name: Optional[str] = None, extra_inputs: Sequence = ()
) -> Circuit:
    """The combinational circuit of an EDBF."""
    return expr_to_circuit(
        edbf.table,
        edbf.outputs,
        name or (edbf.circuit_name + "_edbf"),
        extra_inputs,
    )


@dataclass
class LoweredPair:
    """Two sides' expression roots lowered into one miter AIG.

    ``miter`` is the AIG that :func:`~repro.cec.miter.build_miter` builds
    from the two sides' :func:`expr_to_circuit` circuits (each declaring
    the union of both sides' variables), equal in every PI, AND node,
    registered output and output pair; the pairs are named
    ``__out_<output>``.  ``variables`` holds each side's variable keys
    and ``gates`` the gate count each side's circuit would have: one per
    constant and operation node, and one output buffer per output.
    """

    miter: MiterAIG
    variables: Tuple[Set[VarKey], Set[VarKey]]
    gates: Tuple[int, int]


def expr_to_miter(
    table: ExprTable,
    outputs1: Mapping[str, int],
    outputs2: Mapping[str, int],
    names: Tuple[str, str],
) -> LoweredPair:
    """Lower two sides' expression roots straight into one miter AIG.

    Both sides' roots are nodes of ``table`` — two CBFs over one table,
    or two EDBFs over one event context's — and must have the same output
    names.  Each side's DAG is walked once
    (:meth:`ExprTable.descendants`).  The PIs are the ``repr``-sorted
    union of both sides' variables, named by :func:`timed_input_name`;
    then side 1's operation nodes and side 2's are imported in walk
    order, each cover through :meth:`~repro.aig.aig.AIG.add_sop` as
    :func:`~repro.aig.aig.aig_from_circuit` imports a gate.  The
    circuits' output buffers add no node, so this is the AIG of
    ``build_miter`` on the two lowered circuits, node for node (see
    :class:`LoweredPair`).  ``names`` labels the two sides of the miter.
    """
    order = paired_outputs(outputs1, outputs2)
    sides = (outputs1, outputs2)
    walks = [table.descendants(list(outputs.values())) for outputs in sides]
    variables = tuple(
        {table.var_key(n) for n in walk if table.kind(n) == "v"} for walk in walks
    )
    aig = AIG()
    pi_lit = {
        key: aig.add_pi(timed_input_name(key))
        for key in sorted(variables[0] | variables[1], key=repr)
    }
    gates: List[int] = []
    out_lits: List[Dict[str, int]] = []
    for walk, outputs, side_vars in zip(walks, sides, variables):
        lit_of = {CONST0: FALSE_LIT, CONST1: TRUE_LIT}
        for n in walk:
            kind = table.kind(n)
            if kind == "v":
                lit_of[n] = pi_lit[table.var_key(n)]
            elif kind == "op":
                sop, children = table.op_parts(n)
                lit_of[n] = aig.add_sop(sop, [lit_of[c] for c in children])
        lits = {name: lit_of[node] for name, node in outputs.items()}
        for name, lit in lits.items():
            aig.add_output(f"__out_{name}", lit)
        out_lits.append(lits)
        gates.append(len(walk) - len(side_vars) + len(outputs))
    pairs = [
        (f"__out_{name}", out_lits[0][name], out_lits[1][name]) for name in order
    ]
    return LoweredPair(MiterAIG(aig, pairs, names), variables, (gates[0], gates[1]))
