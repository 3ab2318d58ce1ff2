"""``resub`` — algebraic resubstitution.

For each pair of nodes (divisor ``d``, target ``f``), try weak-dividing
``f``'s cover by ``d``'s cover; when the quotient is non-trivial and the
substitution saves literals, rewrite ``f`` as ``q·d + r`` with ``d`` as a
new fanin.  Substitution into a node inside ``d``'s own transitive fanin is
skipped (it would create a combinational cycle).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.netlist.circuit import Circuit, Gate
from repro.netlist.cube import Sop, cube_from_literals, cube_literals
from repro.netlist.graph import combinational_fanin_cone
from repro.synth.division import weak_divide
from repro.synth.network import reader_index, require_combinational

__all__ = ["resubstitute"]


def _gate_alg(gate: Gate) -> Tuple[List[FrozenSet[int]], List[str]]:
    """Cover in literal-set form over the gate's fanin names."""
    return [cube_literals(c) for c in gate.sop.cubes], list(gate.inputs)


def _remap_to(
    cubes: Sequence[FrozenSet[int]], old_names: List[str], index: Dict[str, int]
) -> List[FrozenSet[int]]:
    out = []
    for cube in cubes:
        mapped = set()
        for lit in cube:
            var, phase = divmod(lit, 2)
            mapped.add(2 * index[old_names[var]] + phase)
        out.append(frozenset(mapped))
    return out


def resubstitute(circuit: Circuit, max_divisor_literals: int = 30) -> Circuit:
    """One pass of algebraic resubstitution over all node pairs (in place)."""
    require_combinational(circuit, "resubstitute")
    names = list(circuit.gates)
    position = {name: i for i, name in enumerate(names)}
    readers = reader_index(circuit)
    constants = [name for name in names if not circuit.gates[name].inputs]
    for target_name in names:
        target = circuit.gates.get(target_name)
        if target is None or len(target.sop.cubes) < 2:
            continue
        target_fanins = set(target.inputs)
        if len(target_fanins) != len(target.inputs):
            continue  # aliased fanins; sweep normalises these first
        # A divisor reads only target fanins (below), so it is listed as a
        # reader of one of them or has no fanins; visit them in gate order.
        candidates = set(constants)
        for src in target_fanins:
            candidates.update(readers.get(src, ()))
        best: Optional[Tuple[int, str, Sop, Tuple[str, ...]]] = None
        for div_name in sorted(candidates, key=position.__getitem__):
            if div_name == target_name:
                continue
            divisor = circuit.gates[div_name]
            if len(divisor.sop.cubes) < 2:
                continue
            if divisor.num_literals > max_divisor_literals:
                continue
            if not target_fanins.issuperset(divisor.inputs):
                # The divisor must be built from the target's own fanins;
                # this also guarantees acyclicity: the new edge div→target
                # cannot close a cycle because div's fanins are target's
                # fanins, which cannot depend on target.
                continue
            rewritten = _try_divide(target, divisor)
            if rewritten is None:
                continue
            saving, sop, fanins = rewritten
            if saving > 0 and (best is None or saving > best[0]):
                best = (saving, div_name, sop, fanins)
        if best is not None:
            _, div_name, sop, fanins = best
            circuit.replace_gate(Gate(target_name, fanins, sop))
            for src in fanins:
                if src not in target_fanins:
                    readers.setdefault(src, []).append(target_name)
    return circuit


def _try_divide(
    target: Gate, divisor: Gate
) -> Optional[Tuple[int, Sop, Tuple[str, ...]]]:
    """Rewrite target as q·d + r; returns (literal saving, cover, fanins)."""
    merged: List[str] = list(target.inputs)
    if divisor.output in merged:
        return None
    index = {s: i for i, s in enumerate(merged)}
    t_cubes, t_names = _gate_alg(target)
    d_cubes, d_names = _gate_alg(divisor)
    t_alg = _remap_to(t_cubes, t_names, index)
    d_alg = _remap_to(d_cubes, d_names, index)
    quotient, remainder = weak_divide(t_alg, d_alg)
    if not quotient:
        return None
    # New cover over merged + [divisor output].
    new_names = merged + [divisor.output]
    n = len(new_names)
    d_lit = 2 * (n - 1) + 1
    new_cubes = [frozenset(q | {d_lit}) for q in quotient] + list(remainder)
    cubes = tuple(cube_from_literals(c, n) for c in new_cubes)
    sop = Sop(n, cubes).scc_minimal()
    # Drop unused fanins.
    support = sop.support()
    keep = sorted(support)
    for pos in range(n - 1, -1, -1):
        if pos not in support:
            sop = sop.remove_input(pos)
    fanins = tuple(new_names[i] for i in keep)
    old_literals = target.num_literals
    new_literals = sop.num_literals
    saving = old_literals - new_literals
    return saving, sop, fanins
