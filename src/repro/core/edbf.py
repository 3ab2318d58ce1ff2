"""Event-Driven Boolean Functions (paper Sec. 4.2 and 5.2).

The EDBF of an output of an acyclic sequential circuit with load-enabled
latches is a Boolean function over variables ``(input, event)``: the value
of the input at the time instant ``η(event)``.  The computation follows
Fig. 8 of the paper:

* a gate composes its fanins' EDBFs at the same event;
* a latch with data ``y`` and enable ``e`` maps ``F(x, E)`` to
  ``F(y, [p_e] + E)`` where ``p_e`` is the *predicate* of ``e`` — the EDBF
  of the enable as a function of an arbitrary scan time (computed at the
  empty event), canonicalised so that resynthesised enables still match;
* a regular latch contributes the constant-true predicate (a unit delay);
* a primary input becomes the variable ``(input, E)``.

Theorem 5.2: for two circuits related by retiming (class-aware, à la Legl)
and combinational resynthesis, EDBF equality is equivalent to sequential
equivalence.  For arbitrary equivalent pairs the check is conservative —
see Figs. 10 and 11 — which the verifier surfaces as INCONCLUSIVE.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cbf import require_acyclic
from repro.core.events import EMPTY_EVENT, EventContext
from repro.core.timedvar import CONST0, CONST1, ExprTable
from repro.netlist.circuit import Circuit, Gate

__all__ = ["EDBF", "compute_edbf", "EventVar", "edbf_eval_on_trace"]

# An EDBF variable: primary input `name` at time η(event).
EventVar = Tuple[str, str, int]  # ("e", input name, event id)


def event_var(name: str, event_id: int) -> EventVar:
    """The EDBF variable key for ``name`` at event ``event_id``."""
    return ("e", name, event_id)


@dataclass
class EDBF:
    """Output EDBFs sharing one expression table and event context."""

    context: EventContext
    outputs: Dict[str, int]
    circuit_name: str = ""

    @property
    def table(self) -> ExprTable:
        """The shared expression table."""
        return self.context.table

    def variables(self) -> Set[EventVar]:
        """All evented variables in the outputs' support."""
        out: Set[EventVar] = set()
        for node in self.outputs.values():
            out |= self.table.support(node)
        return out

    def events_used(self) -> Set[int]:
        """Ids of events appearing in the variable support."""
        return {key[2] for key in self.variables()}


def compute_edbf(
    circuit: Circuit,
    context: Optional[EventContext] = None,
    *,
    order: Optional[Sequence[Gate]] = None,
) -> EDBF:
    """Compute the EDBF of every primary output (algorithm of Fig. 8).

    The circuit must be acyclic at the latch level (no feedback); both
    regular and load-enabled latches are supported.  Pass a shared
    ``context`` to compute two circuits' EDBFs in one variable space.

    ``order`` is the circuit's ``topo_gates()``, from a caller that has
    already checked the circuit for feedback latches, as for
    :func:`~repro.core.cbf.compute_cbf`; then nothing is checked here.
    Without it the circuit is sorted here, which rejects a combinational
    cycle, and its feedback latches are found on that order.
    """
    from repro.netlist.graph import feedback_latches

    if order is None:
        require_acyclic(feedback_latches(circuit, circuit.topo_gates()))
    if context is None:
        context = EventContext()
    table = context.table

    memo: Dict[Tuple[str, int], int] = {}
    predicate_memo: Dict[str, int] = {}

    def compute(root_sig: str, root_event: int) -> int:
        stack: List[Tuple[str, int, bool]] = [(root_sig, root_event, False)]
        while stack:
            sig, event, expanded = stack.pop()
            key = (sig, event)
            if not expanded and key in memo:
                continue
            kind = circuit.driver_kind(sig)
            if kind == "input":
                memo[key] = table.var(event_var(sig, event))
            elif kind is None:
                raise ValueError(f"undriven signal {sig!r}")
            elif kind == "latch":
                latch = circuit.latches[sig]
                predicate = _predicate_of(latch.enable)
                child_event = context.prepend(predicate, event)
                child_key = (latch.data, child_event)
                if expanded:
                    memo[key] = memo[child_key]
                else:
                    stack.append((sig, event, True))
                    if child_key not in memo:
                        stack.append((latch.data, child_event, False))
            else:  # gate
                gate = circuit.gates[sig]
                if expanded:
                    children = [memo[(s, event)] for s in gate.inputs]
                    memo[key] = table.apply(gate.sop, children)
                else:
                    stack.append((sig, event, True))
                    for s in gate.inputs:
                        if (s, event) not in memo:
                            stack.append((s, event, False))
        return memo[(root_sig, root_event)]

    def _predicate_of(enable: Optional[str]) -> int:
        if enable is None:
            return CONST1
        pred = predicate_memo.get(enable)
        if pred is None:
            pred = context.canonical_predicate(compute(enable, EMPTY_EVENT))
            predicate_memo[enable] = pred
        return pred

    outputs = {out: compute(out, EMPTY_EVENT) for out in circuit.outputs}
    return EDBF(context, outputs, circuit.name)


# ----------------------------------------------------------------------
# Trace oracle (used by tests): evaluate an EDBF against a concrete run.
# ----------------------------------------------------------------------
def edbf_eval_on_trace(
    edbf: EDBF,
    input_trace: Dict[str, Sequence[bool]],
    at_time: int,
) -> Dict[str, Optional[bool]]:
    """Evaluate each output EDBF at cycle ``at_time`` of a concrete trace.

    ``input_trace[name][t]`` is the value of input ``name`` at cycle ``t``.
    Returns ``None`` for an output whose value depends on a time before the
    trace began (η = -∞, i.e. a power-up-dependent value).

    This realises the η semantics directly and is the oracle the test suite
    uses to validate :func:`compute_edbf` against plain simulation.
    """
    ctx = edbf.context
    table = edbf.table

    eta_cache: Dict[Tuple[int, int], Optional[int]] = {}

    def eta(event_id: int, now: int) -> Optional[int]:
        key = (event_id, now)
        if key in eta_cache:
            return eta_cache[key]
        preds = ctx.predicates(event_id)
        if not preds:
            eta_cache[key] = now
            return now
        tail_event = ctx.intern(preds[1:])
        t_rest = eta(tail_event, now)
        result: Optional[int] = None
        if t_rest is not None:
            tau = t_rest - 1
            while tau >= 0:
                val = pred_value(preds[0], tau)
                if val is None:
                    result = None
                    break
                if val:
                    result = tau
                    break
                tau -= 1
        eta_cache[key] = result
        return result

    def pred_value(pred: int, now: int) -> Optional[bool]:
        return expr_value(pred, now)

    expr_cache: Dict[Tuple[int, int], Optional[bool]] = {}

    def expr_value(node: int, now: int) -> Optional[bool]:
        key = (node, now)
        if key in expr_cache:
            return expr_cache[key]
        kind = table.kind(node)
        if kind == "c":
            result: Optional[bool] = node == CONST1
        elif kind == "v":
            _, name, event_id = table.var_key(node)
            t = eta(event_id, now)
            if t is None or t >= len(input_trace[name]):
                result = None
            else:
                result = bool(input_trace[name][t])
        else:
            sop, children = table.op_parts(node)
            child_vals = [expr_value(c, now) for c in children]
            if any(v is None for v in child_vals):
                # Try definite evaluation: the cover may not depend on the
                # unknown child for this assignment.  Conservative: unknown.
                result = _eval_sop_partial(sop, child_vals)
            else:
                result = sop.eval_bool([bool(v) for v in child_vals])
        expr_cache[key] = result
        return result

    out: Dict[str, Optional[bool]] = {}
    for name, node in edbf.outputs.items():
        out[name] = expr_value(node, at_time)
    return out


def _eval_sop_partial(sop, child_vals: List[Optional[bool]]) -> Optional[bool]:
    """3-valued SOP evaluation: definite 0/1 if possible, else None."""
    any_unknown = False
    for cube in sop.cubes:
        cube_val: Optional[bool] = True
        for i, ch in enumerate(cube):
            if ch == "-":
                continue
            v = child_vals[i]
            if v is None:
                if cube_val is not False:
                    cube_val = None
            elif (ch == "1") != v:
                cube_val = False
                break
        if cube_val is True:
            return True
        if cube_val is None:
            any_unknown = True
    return None if any_unknown else False
