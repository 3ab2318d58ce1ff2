"""Clocked Boolean Functions (paper Sec. 4.1 and 5.1).

The CBF of an output of an acyclic sequential circuit with regular latches
expresses its value at time ``t`` as a Boolean function of primary-input
values at times ``t, t-1, ..., t-d`` where ``d`` is the circuit's sequential
depth.  Input values at different time instants are independent variables.

The computation follows Fig. 7 of the paper: a memoised recursion over
``(signal, delay)`` pairs — gates compose their fanins at the same delay,
latches shift the delay by one, and primary inputs become timed variables.

Theorem 5.1: two acyclic regular-latch circuits are exact-3-valued
equivalent **iff** their CBFs are equal as Boolean functions.  This holds
for *any* equivalent pair, not just retiming/resynthesis ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.timedvar import CONST0, CONST1, ExprTable
from repro.netlist.circuit import Circuit, Gate

__all__ = ["CBF", "compute_cbf", "sequential_depth", "TimedVar", "topological_latch_depth"]

# A CBF variable: primary input `name` sampled `delay` cycles ago.
TimedVar = Tuple[str, str, int]  # ("t", input name, delay)


def timed_var(name: str, delay: int) -> TimedVar:
    """The CBF variable key for input ``name`` delayed by ``delay``."""
    return ("t", name, delay)


@dataclass
class CBF:
    """A set of output CBFs sharing one expression table."""

    table: ExprTable
    outputs: Dict[str, int]
    circuit_name: str = ""

    def depth(self) -> int:
        """Syntactic sequential depth: max delay in the variable support."""
        depth = 0
        for node in self.outputs.values():
            for key in self.table.support(node):
                depth = max(depth, key[2])
        return depth

    def variables(self) -> Set[TimedVar]:
        """All timed variables in the outputs' support."""
        out: Set[TimedVar] = set()
        for node in self.outputs.values():
            out |= self.table.support(node)
        return out


def require_acyclic(cyclic: Collection[str]) -> None:
    """Raise :class:`ValueError` when a circuit has feedback latches.

    ``cyclic`` is the circuit's :func:`~repro.netlist.graph.feedback_latches`.
    CBFs and EDBFs exist only for acyclic circuits: on a latch cycle their
    recursion would not terminate.
    """
    if cyclic:
        raise ValueError(
            f"circuit has feedback latches {sorted(cyclic)[:5]}; "
            "expose latches or remodel feedback first"
        )


def compute_cbf(
    circuit: Circuit,
    table: Optional[ExprTable] = None,
    *,
    order: Optional[Sequence[Gate]] = None,
) -> CBF:
    """Compute the CBF of every primary output (algorithm of Fig. 7).

    Requirements (checked): all latches regular (no load enables) and no
    latch lies on a feedback cycle — otherwise the recursion would not
    terminate, mirroring the paper's restriction to acyclic circuits.

    A shared ``table`` may be supplied so two circuits' CBFs live in one
    node space (variables ``(input, delay)`` then coincide by construction).

    ``order`` is the circuit's ``topo_gates()``, from a caller that has
    already checked the circuit for feedback latches on the latch graph
    built on that order, as
    :func:`~repro.core.verify.check_sequential_equivalence` does when it
    classifies the circuit: then only the enables are checked here.
    Without it the circuit is sorted here, which rejects a combinational
    cycle, and its feedback latches are found on that order.
    """
    from repro.netlist.graph import feedback_latches

    for latch in circuit.latches.values():
        if latch.enable is not None:
            raise ValueError(
                f"latch {latch.output!r} is load-enabled; use compute_edbf"
            )
    if order is None:
        require_acyclic(feedback_latches(circuit, circuit.topo_gates()))
    if table is None:
        table = ExprTable()

    memo: Dict[Tuple[str, int], int] = {}

    def compute(root_sig: str, root_delay: int) -> int:
        stack: List[Tuple[str, int, bool]] = [(root_sig, root_delay, False)]
        while stack:
            sig, delay, expanded = stack.pop()
            key = (sig, delay)
            if not expanded and key in memo:
                continue
            kind = circuit.driver_kind(sig)
            if kind == "input":
                memo[key] = table.var(timed_var(sig, delay))
            elif kind is None:
                raise ValueError(f"undriven signal {sig!r}")
            elif kind == "latch":
                latch = circuit.latches[sig]
                child_key = (latch.data, delay + 1)
                if expanded:
                    memo[key] = memo[child_key]
                else:
                    stack.append((sig, delay, True))
                    if child_key not in memo:
                        stack.append((latch.data, delay + 1, False))
            else:  # gate (no combinational cycle: see ``order``)
                gate = circuit.gates[sig]
                if expanded:
                    children = [memo[(s, delay)] for s in gate.inputs]
                    memo[key] = table.apply(gate.sop, children)
                else:
                    stack.append((sig, delay, True))
                    for s in gate.inputs:
                        if (s, delay) not in memo:
                            stack.append((s, delay, False))
        return memo[(root_sig, root_delay)]

    outputs = {out: compute(out, 0) for out in circuit.outputs}
    return CBF(table, outputs, circuit.name)


def topological_latch_depth(circuit: Circuit) -> int:
    """Max number of latches along any input-to-output path (Def. 4 remark)."""
    # Longest path in the (acyclic) signal graph counting latch edges.
    depth: Dict[str, int] = {}

    def get(sig: str, trail: Set[str]) -> int:
        if sig in depth:
            return depth[sig]
        if sig in trail:
            raise ValueError(f"feedback cycle through {sig!r}")
        trail.add(sig)
        kind = circuit.driver_kind(sig)
        if kind == "input" or kind is None:
            d = 0
        elif kind == "latch":
            d = get(circuit.latches[sig].data, trail) + 1
        else:
            gate = circuit.gates[sig]
            d = max((get(s, trail) for s in gate.inputs), default=0)
        trail.discard(sig)
        depth[sig] = d
        return d

    import sys

    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, 10000 + 4 * (len(circuit.gates) + len(circuit.latches))))
    try:
        return max((get(o, set()) for o in circuit.outputs), default=0)
    finally:
        sys.setrecursionlimit(old)


def sequential_depth(cbf: CBF, semantic: bool = True) -> int:
    """Sequential depth (Def. 4): the largest delay that truly matters.

    With ``semantic=True`` false dependencies are pruned by computing the
    BDD support of each output CBF; otherwise the syntactic support is used
    (equals the topological latch depth over true paths).
    """
    if not semantic:
        return cbf.depth()
    from repro.bdd.bdd import BDD

    manager = BDD()
    # Order variables by delay then name for a stable, shallow order.
    all_vars = sorted(cbf.variables(), key=lambda k: (k[2], k[1]))
    for key in all_vars:
        manager.add_var(_var_name(key))
    nodes = cbf.table.to_bdd(
        list(cbf.outputs.values()), manager, _var_name
    )
    depth = 0
    name_to_delay = {_var_name(k): k[2] for k in all_vars}
    for node in nodes:
        for name in manager.support(node):
            depth = max(depth, name_to_delay[name])
    return depth


def _var_name(key: TimedVar) -> str:
    return f"{key[1]}@{key[2]}"
