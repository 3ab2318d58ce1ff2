"""Feedback-latch remodelling (paper Sec. 6, Figs. 12-14).

A latch ``x`` whose next-state function ``F`` depends on its own output has
a feedback path.  Lemma 6.1: ``F`` can be decomposed as ``F = e·d + ē·x``
(a MUX feeding the latch, Fig. 12) **iff** ``F`` is positive unate in ``x``.
The enable part is unique (``ē = Fx · ¬Fx̄``); any ``d`` with
``Fx̄ ≤ d ≤ Fx`` works (Eq. 6).  A latch fed by such a MUX is exactly a
load-enabled latch (Fig. 13), which removes the feedback edge and makes the
circuit amenable to the EDBF machinery.

Decomposition choice (Sec. 6 discussion):

* if a ``d`` with Boolean support disjoint from ``e``'s exists, it is unique
  (Lemma 6.2) — we detect this case by quantifying ``e``'s support out of
  the interval and take the canonical decomposition;
* otherwise we take the lower limit ``d = Fx̄`` (the paper's option (b)).

Both ``e`` and ``d`` are independent of ``x`` by construction, so the
rebuilt circuit is acyclic at this latch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.bdd.bdd import BDD
from repro.bdd.synth import bdd_to_gates, sop_from_bdd
from repro.netlist.circuit import Circuit, Gate, Latch
from repro.netlist.graph import combinational_fanin_cone, self_loop_latches

__all__ = [
    "FeedbackAnalysis",
    "analyze_feedback_latch",
    "remodel_feedback_latches",
    "unate_decomposition",
    "next_state_bdd",
    "topo_rank",
]


@dataclass
class FeedbackAnalysis:
    """Result of analysing one self-loop latch."""

    latch: str
    positive_unate: bool
    enable_bdd: Optional[int] = None
    data_bdd: Optional[int] = None
    canonical: bool = False  # disjoint-support decomposition found
    manager: Optional[BDD] = None


def topo_rank(
    circuit: Circuit, order: Optional[Sequence[Gate]] = None
) -> Dict[str, int]:
    """Each gate's position in ``circuit.topo_gates()``.

    Adding gates that no existing gate reads leaves every position as it
    is, so one rank serves all :func:`next_state_bdd` calls on a circuit
    that only grows that way.  ``order`` is that ``topo_gates()`` list,
    computed when not given.
    """
    if order is None:
        order = circuit.topo_gates()
    return {gate.output: i for i, gate in enumerate(order)}


def next_state_bdd(
    circuit: Circuit,
    latch_name: str,
    manager: Optional[BDD] = None,
    rank: Optional[Dict[str, int]] = None,
) -> Tuple[BDD, int]:
    """BDD of a latch's next-state function over PIs and latch outputs.

    For a load-enabled latch the *effective* next-state function
    ``e·data + ē·x`` is returned, so the unateness test covers Fig. 14-style
    conditional-update structures uniformly.

    Only the latch's cone is built, its gates in :func:`topo_rank` order:
    the order of the whole circuit's ``topo_gates()``, so the BDD's node
    ids do not depend on anything outside the cone.  ``rank`` is computed
    when not given.
    """
    if manager is None:
        manager = BDD()
    latch = circuit.latches[latch_name]
    roots = [latch.data] + ([latch.enable] if latch.enable is not None else [])
    cone = combinational_fanin_cone(circuit, roots)
    gates = [sig for sig in cone if sig in circuit.gates]
    if rank is None or not all(sig in rank for sig in gates):
        # None given, or taken before some of these gates were added.
        rank = topo_rank(circuit)
    gates.sort(key=rank.__getitem__)
    nodes: Dict[str, int] = {}

    # Leaves of the cone (PIs and latch outputs) become variables, ordered
    # depth-first for a reasonable static order.
    def leaf_order() -> List[str]:
        order: List[str] = []
        seen: Set[str] = set()
        stack = list(roots)
        while stack:
            sig = stack.pop()
            if sig in seen:
                continue
            seen.add(sig)
            if sig in circuit.gates:
                stack.extend(reversed(circuit.gates[sig].inputs))
            elif sig not in order:
                order.append(sig)
        return order

    for leaf in leaf_order():
        nodes[leaf] = manager.add_var(leaf)
    for sig in gates:
        gate = circuit.gates[sig]
        fanins = [nodes[s] for s in gate.inputs]
        nodes[gate.output] = manager.from_sop(gate.sop, fanins)
    data = nodes[latch.data]
    if latch.enable is None:
        return manager, data
    enable = nodes[latch.enable]
    x = manager.add_var(latch_name)
    return manager, manager.ite(enable, data, x)


def unate_decomposition(
    manager: BDD, f: int, x_name: str
) -> Optional[Tuple[int, int, bool]]:
    """Lemma 6.1/6.2 decomposition of ``F`` w.r.t. latch variable ``x``.

    Returns ``(e, d, canonical)`` with ``F = e·d + ē·x``, or ``None`` when
    ``F`` is not positive unate in ``x``.  ``canonical`` is True when ``d``
    has support disjoint from ``e`` (the unique decomposition of Lemma 6.2).
    """
    f0 = manager.cofactor(f, x_name, False)  # Fx̄ = B
    f1 = manager.cofactor(f, x_name, True)  # Fx = A + B
    if not manager.implies(f0, f1):
        return None  # not positive unate
    # ē = Fx · ¬Fx̄  (unique);  e = ¬Fx + Fx̄.
    e = manager.apply_or(manager.apply_not(f1), f0)
    # Try the canonical disjoint-support d: quantify e's support out of the
    # interval [Fx̄, Fx].  d must satisfy Fx̄ ≤ d ≤ Fx.
    e_support = manager.support(e)
    d_lower = manager.exists(f0, e_support)
    d_upper = manager.forall(f1, e_support)
    canonical = False
    if manager.implies(d_lower, d_upper):
        # Any function in [d_lower, d_upper] has support disjoint from e's
        # support; take the lower bound as the representative.  Verify it is
        # still inside the original interval (it is by construction:
        # Fx̄ ≤ ∃S.Fx̄ and ∀S.Fx ≤ Fx).
        d = d_lower
        if manager.implies(f0, d) and manager.implies(d, f1):
            canonical = True
        else:  # pragma: no cover - defensive
            d = f0
    else:
        d = f0  # paper option (b): lower limit d = Fx̄
    # Sanity: F == e·d + ē·x.
    x = manager.var(x_name)
    rebuilt = manager.apply_or(
        manager.apply_and(e, d),
        manager.apply_and(manager.apply_not(e), x),
    )
    if rebuilt != f:
        raise AssertionError("decomposition failed to rebuild F")
    return e, d, canonical


def analyze_feedback_latch(
    circuit: Circuit,
    latch_name: str,
    manager: Optional[BDD] = None,
    rank: Optional[Dict[str, int]] = None,
) -> FeedbackAnalysis:
    """Check the paper's feedback condition for one self-loop latch.

    ``rank`` is passed on to :func:`next_state_bdd`.
    """
    manager, f = next_state_bdd(circuit, latch_name, manager, rank)
    if latch_name not in manager.support(f):
        # No true dependence on itself: trivially fine (enable = 1).
        return FeedbackAnalysis(
            latch_name, True, manager.ONE, f, True, manager
        )
    decomp = unate_decomposition(manager, f, latch_name)
    if decomp is None:
        return FeedbackAnalysis(latch_name, False, manager=manager)
    e, d, canonical = decomp
    return FeedbackAnalysis(latch_name, True, e, d, canonical, manager)


def remodel_feedback_latches(
    circuit: Circuit,
    latches: Optional[Sequence[str]] = None,
    order: Optional[Sequence[Gate]] = None,
) -> Tuple[Circuit, List[str], List[str]]:
    """Re-model self-loop latches as load-enabled latches (Figs. 12-13).

    Tries every latch in ``latches`` (default: all self-loop latches whose
    cycle is only through themselves).  Returns ``(new_circuit, remodelled,
    failed)`` where ``failed`` lists latches that are not positive unate and
    must be exposed instead.

    The new enable/data cones are synthesised from the decomposition BDDs
    (single-SOP gates when small, MUX trees otherwise).  ``order`` is the
    circuit's ``topo_gates()``, computed when not given.
    """
    if latches is None:
        latches = sorted(self_loop_latches(circuit))
    result = circuit.copy(circuit.name + "_remodel")
    # Remodelling removes no gate, and only the remodelled latch reads the
    # gates it adds, so one rank lasts the loop.  The copy keeps the gate
    # dict, so ``order`` is its order too.
    rank = topo_rank(result, order)
    remodelled: List[str] = []
    failed: List[str] = []
    for name in latches:
        analysis = analyze_feedback_latch(result, name, rank=rank)
        if not analysis.positive_unate:
            failed.append(name)
            continue
        manager = analysis.manager
        assert manager is not None
        assert analysis.enable_bdd is not None and analysis.data_bdd is not None
        e_sig = _materialize(manager, analysis.enable_bdd, result, f"__fb_en_{name}")
        d_sig = _materialize(manager, analysis.data_bdd, result, f"__fb_d_{name}")
        # On an already-enabled latch (Fig. 14 conditional update) the
        # effective next-state decomposition replaces enable and data both.
        result.replace_latch(Latch(name, d_sig, e_sig))
        remodelled.append(name)
    return result, remodelled, failed


def _materialize(manager: BDD, f: int, circuit: Circuit, base: str) -> str:
    """Emit the BDD as logic in the circuit; returns the output signal."""
    support = sorted(manager.support(f), key=manager.level_of)
    extraction = sop_from_bdd(manager, f, support)
    if extraction is not None:
        sop, fanins = extraction
        sig = circuit.fresh_signal(base)
        circuit.add_gate(sig, fanins, sop)
        return sig
    return bdd_to_gates(manager, f, circuit, base)
