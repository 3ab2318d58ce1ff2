"""``fx`` — fast extraction of common divisors.

A simplified Rajski/Vasudevamurthy fast-extract: enumerate candidate
divisors — *single cubes* (common cubes of cube pairs) and *double-cube
divisors* (cube-free two-cube kernels arising from cube pairs) — count how
many literals each saves across the whole network, extract the best as a
new node, rewrite all users by algebraic division, and iterate until no
candidate saves literals.

Weak division by a divisor yields a quotient only on a cover that holds
every literal of the divisor, so each iteration indexes the covers by
literal and divides only those.  Savings, the tie-break and the extracted
network are the same as dividing every cover.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.netlist.circuit import Circuit, Gate
from repro.netlist.cube import Sop, cube_from_literals
from repro.synth.division import weak_divide
from repro.synth.network import require_combinational

__all__ = ["fast_extract"]

AlgCube = FrozenSet[int]
Divisor = Tuple[AlgCube, ...]  # 1-cube or normalised 2-cube divisor


def _node_alg(gate: Gate, global_index: Dict[str, int]) -> List[AlgCube]:
    """Gate cover in global literal space (literals = 2*signal_id + phase)."""
    out = []
    for cube in gate.sop.cubes:
        lits = set()
        for i, ch in enumerate(cube):
            if ch == "-":
                continue
            sid = global_index[gate.inputs[i]]
            lits.add(2 * sid + (1 if ch == "1" else 0))
        out.append(frozenset(lits))
    return out


def _candidates_of(cover: Sequence[AlgCube]) -> Set[Divisor]:
    """Single-cube and double-cube divisor candidates from cube pairs."""
    found: Set[Divisor] = set()
    n = len(cover)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = cover[i], cover[j]
            cc = a & b
            if len(cc) >= 2:
                found.add((frozenset(cc),))
            # Double-cube divisor: the cube-free part of {a, b}.
            ra, rb = a - cc, b - cc
            if ra and rb:
                pair = tuple(sorted((frozenset(ra), frozenset(rb)), key=sorted))
                found.add(pair)
    return found


def _literal_index(covers: Dict[str, List[AlgCube]]) -> Dict[int, Set[str]]:
    """Literal → names of the covers with that literal in some cube."""
    index: Dict[int, Set[str]] = {}
    for name, cover in covers.items():
        for lit in frozenset().union(*cover):
            index.setdefault(lit, set()).add(name)
    return index


def _holders(index: Dict[int, Set[str]], divisor: Divisor) -> Set[str]:
    """Names of the covers holding every literal of the divisor."""
    sets = sorted((index[lit] for cube in divisor for lit in cube), key=len)
    return sets[0].intersection(*sets[1:])


def _divisor_saving(
    covers: Dict[str, List[AlgCube]], index: Dict[int, Set[str]], divisor: Divisor
) -> int:
    """Literals saved by extracting the divisor as a node.

    One use rewrites ``|q|·|d|`` product cubes (each ``lits(q_i)+lits(d_j)``
    literals) into ``|q|`` cubes of ``lits(q_i)+1`` literals, saving
    ``(|d|−1)·Σ lits(q) + |q|·lits(d) − |q|``.
    """
    holders = _holders(index, divisor)
    if len(holders) < 2:
        return -1
    div_lits = sum(len(c) for c in divisor)
    saved = 0
    uses = 0
    for name in holders:
        q, _ = weak_divide(covers[name], list(divisor))
        if q:
            uses += 1
            q_lits = sum(len(c) for c in q)
            saved += (
                (len(divisor) - 1) * q_lits + len(q) * div_lits - len(q)
            )
    if uses < 2:
        return -1
    return saved - div_lits  # pay for the new node once


def fast_extract(
    circuit: Circuit, max_iterations: int = 50, max_node_cubes: int = 40
) -> Circuit:
    """Greedy divisor extraction (in place); returns the circuit."""
    require_combinational(circuit, "fast_extract")
    counter = 0
    for _ in range(max_iterations):
        signals = list(circuit.signals())
        global_index = {s: i for i, s in enumerate(signals)}
        covers: Dict[str, List[AlgCube]] = {}
        for name, gate in circuit.gates.items():
            if 2 <= len(gate.sop.cubes) <= max_node_cubes:
                covers[name] = _node_alg(gate, global_index)
        if not covers:
            break
        candidates: Set[Divisor] = set()
        for cover in covers.values():
            candidates |= _candidates_of(cover)
        index = _literal_index(covers)
        best: Optional[Tuple[int, Divisor]] = None
        for divisor in candidates:
            saving = _divisor_saving(covers, index, divisor)
            if saving > 0 and (
                best is None
                or saving > best[0]
                or (saving == best[0] and _div_key(divisor) < _div_key(best[1]))
            ):
                best = (saving, divisor)
        if best is None:
            break
        _, divisor = best
        counter += 1
        _extract(circuit, divisor, signals, global_index, covers, counter)
    return circuit


def _div_key(d: Divisor):
    return tuple(tuple(sorted(c)) for c in d)


def _extract(
    circuit: Circuit,
    divisor: Divisor,
    signals: List[str],
    global_index: Dict[str, int],
    covers: Dict[str, List[AlgCube]],
    counter: int,
) -> None:
    # Materialise the divisor as a new gate.
    support_ids = sorted({lit >> 1 for cube in divisor for lit in cube})
    fanins = tuple(signals[sid] for sid in support_ids)
    local = {sid: i for i, sid in enumerate(support_ids)}
    cubes = []
    for cube in divisor:
        cubes.append(
            cube_from_literals(
                {2 * local[lit >> 1] + (lit & 1) for lit in cube}, len(fanins)
            )
        )
    new_name = circuit.fresh_signal(f"__fx{counter}")
    circuit.add_gate(new_name, fanins, Sop(len(fanins), tuple(cubes)))
    new_sid = len(signals)  # conceptual id of the new signal
    new_lit = 2 * new_sid + 1

    # Rewrite every user.
    for name, cover in covers.items():
        q, r = weak_divide(cover, list(divisor))
        if not q:
            continue
        new_cover = [frozenset(c | {new_lit}) for c in q] + list(r)
        # Back to an SOP over (old signal ids ∪ new node).
        used_ids = sorted({lit >> 1 for cube in new_cover for lit in cube})
        gate_fanins = tuple(
            new_name if sid == new_sid else signals[sid] for sid in used_ids
        )
        local2 = {sid: i for i, sid in enumerate(used_ids)}
        sop_cubes = tuple(
            cube_from_literals(
                {2 * local2[lit >> 1] + (lit & 1) for lit in cube},
                len(gate_fanins),
            )
            for cube in new_cover
        )
        circuit.replace_gate(Gate(name, gate_fanins, Sop(len(gate_fanins), sop_cubes)))
