"""And-Inverter Graphs.

Literal encoding: node ``n`` has literals ``2n`` (positive) and ``2n + 1``
(complemented).  Node 0 is the constant-FALSE node, so literal 0 is FALSE
and literal 1 is TRUE.  AND nodes store two child literals; structural
hashing plus the usual one-level simplifications (``x·x = x``, ``x·x̄ = 0``,
``x·1 = x``, ``x·0 = 0``) keep the graph reduced, which is what makes
retimed-and-resynthesised circuit pairs collapse substantially before any
SAT effort (the "structural" filter of the CEC engines the paper cites).
"""

from __future__ import annotations

import functools
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.netlist.circuit import Circuit

__all__ = ["AIG", "aig_from_circuit", "aig_to_circuit", "lit_to_cnf"]

FALSE_LIT = 0
TRUE_LIT = 1

#: Inputs that get projection words in a :meth:`AIG.cone_tables` slice,
#: so a slice word holds at most 2^16 bits.
_SLICE_INPUTS = 16


@functools.lru_cache(maxsize=_SLICE_INPUTS + 1)
def _projection_words(n: int) -> Tuple[int, ...]:
    """The ``n`` projection words over ``2**n`` rows.

    Bit ``r`` of word ``i`` is bit ``i`` of ``r``: a period of ``2**i``
    zeros then ``2**i`` ones, doubled out to the full width.
    """
    width = 1 << n
    words = []
    for i in range(n):
        half = 1 << i
        word = ((1 << half) - 1) << half
        period = 2 * half
        while period < width:
            word |= word << period
            period *= 2
        words.append(word)
    return tuple(words)


def lit_to_cnf(lit: int) -> int:
    """An AIG literal as a CNF literal: node ``n`` is variable ``n + 1``."""
    var = (lit >> 1) + 1
    return -var if lit & 1 else var


class AIG:
    """A structurally hashed and-inverter graph."""

    def __init__(self) -> None:
        # Node arrays; node 0 is constant FALSE.
        self._fanin0: List[int] = [0]
        self._fanin1: List[int] = [0]
        self._is_pi: List[bool] = [False]
        self._strash: Dict[Tuple[int, int], int] = {}
        self.pis: List[int] = []  # node ids
        self.pi_names: List[str] = []
        self._pi_index: Dict[str, int] = {}
        self.outputs: List[Tuple[str, int]] = []  # (name, literal)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_pi(self, name: str) -> int:
        """Add (or fetch) a primary input; returns its positive literal."""
        if name in self._pi_index:
            return 2 * self._pi_index[name]
        node = len(self._fanin0)
        self._fanin0.append(0)
        self._fanin1.append(0)
        self._is_pi.append(True)
        self.pis.append(node)
        self.pi_names.append(name)
        self._pi_index[name] = node
        return 2 * node

    def add_output(self, name: str, lit: int) -> None:
        """Register a named output literal."""
        self.outputs.append((name, lit))

    def and_(self, a: int, b: int) -> int:
        """Structurally hashed AND of two literals."""
        if a > b:
            a, b = b, a
        if a == FALSE_LIT:
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if a == b:
            return a
        if a ^ b == 1:
            return FALSE_LIT
        key = (a, b)
        node = self._strash.get(key)
        if node is None:
            node = len(self._fanin0)
            self._fanin0.append(a)
            self._fanin1.append(b)
            self._is_pi.append(False)
            self._strash[key] = node
        return 2 * node

    def or_(self, a: int, b: int) -> int:
        """Disjunction of two literals (via De Morgan)."""
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def not_(self, a: int) -> int:
        """Complemented literal."""
        return a ^ 1

    def xor(self, a: int, b: int) -> int:
        """Exclusive-or of two literals."""
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def mux(self, sel: int, then_lit: int, else_lit: int) -> int:
        """``sel ? then : else`` over literals."""
        return self.or_(self.and_(sel, then_lit), self.and_(sel ^ 1, else_lit))

    def and_all(self, lits: Iterable[int]) -> int:
        """Balanced AND over many literals."""
        level = [l for l in lits]
        if not level:
            return TRUE_LIT
        while len(level) > 1:
            nxt = [
                self.and_(level[i], level[i + 1])
                for i in range(0, len(level) - 1, 2)
            ]
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    def or_all(self, lits: Iterable[int]) -> int:
        """Balanced OR over many literals."""
        return self.and_all(l ^ 1 for l in lits) ^ 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def num_nodes(self) -> int:
        """Total node count (constant + PIs + ANDs)."""
        return len(self._fanin0)

    def num_ands(self) -> int:
        """AND-node count."""
        return self.num_nodes() - 1 - len(self.pis)

    def is_pi_node(self, node: int) -> bool:
        """True when the node is a primary input."""
        return self._is_pi[node]

    def fanins(self, node: int) -> Tuple[int, int]:
        """The two child literals of an AND node."""
        return self._fanin0[node], self._fanin1[node]

    def and_nodes(self) -> Iterable[int]:
        """All AND node ids in topological (creation) order."""
        for node in range(1, self.num_nodes()):
            if not self._is_pi[node]:
                yield node

    def cone_nodes(self, lits: Iterable[int]) -> Set[int]:
        """Transitive-fanin node set (PIs included) of some literals."""
        cone: Set[int] = set()
        stack = [lit >> 1 for lit in lits]
        while stack:
            node = stack.pop()
            if node in cone:
                continue
            cone.add(node)
            if node and not self._is_pi[node]:
                stack.append(self._fanin0[node] >> 1)
                stack.append(self._fanin1[node] >> 1)
        return cone

    def eval_literals(
        self, lits: Sequence[int], pi_values: Dict[str, bool]
    ) -> List[bool]:
        """Evaluate arbitrary literals on one input assignment.

        Inputs absent from ``pi_values`` default to False (an unconstrained
        input on one side of a miter).
        """
        words = self.simulate(
            {name: int(pi_values.get(name, False)) for name in self.pi_names},
            1,
        )
        return [bool(words[lit >> 1] ^ (lit & 1)) for lit in lits]

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def simulate(self, pi_words: Dict[str, int], mask: int) -> List[int]:
        """Bit-parallel simulation; returns a word per node.

        One big-int word per node, evaluated in creation order; every PI
        must appear in ``pi_words`` (:meth:`simulate_words` defaults
        missing ones to 0).
        """
        words = [0] * self.num_nodes()
        for node, name in zip(self.pis, self.pi_names):
            words[node] = pi_words[name] & mask

        def lit_word(lit: int) -> int:
            w = words[lit >> 1]
            return (~w & mask) if lit & 1 else w

        for node in range(1, self.num_nodes()):
            if self._is_pi[node]:
                continue
            words[node] = lit_word(self._fanin0[node]) & lit_word(self._fanin1[node])
        return words

    def support_masks(self) -> List[int]:
        """Every node's support as a bit mask over the PIs.

        Bit ``i`` of ``masks[n]`` is set when PI ``pis[i]`` lies in node
        ``n``'s cone; one pass in creation order.
        """
        masks = [0] * self.num_nodes()
        for i, node in enumerate(self.pis):
            masks[node] = 1 << i
        fanin0, fanin1, is_pi = self._fanin0, self._fanin1, self._is_pi
        for node in range(1, len(masks)):
            if not is_pi[node]:
                masks[node] = masks[fanin0[node] >> 1] | masks[fanin1[node] >> 1]
        return masks

    def cone_tables(self, lits: Sequence[int]) -> Iterator[List[int]]:
        """Exhaustive truth tables of some literals, one slice at a time.

        The support is the ``k`` PIs of the literals' joint cone, in node
        order.  The low ``min(k, 16)`` of them get projection words: bit
        ``r`` of input ``i``'s word is bit ``i`` of ``r``.  Each assignment
        of the remaining inputs, counted up from all-0, is one slice in
        which they are all-0 or all-1 words.  A slice yields one
        ``2**min(k, 16)``-bit word per literal, and only the cone is
        evaluated, so no word grows past 2^16 bits whatever ``k`` is.
        Memory is one such word per cone node: it grows with the cone,
        not with ``k`` past 16, while time grows with both (``2**k``
        rows over every cone node).  The slices in order concatenate to
        each literal's full table.
        """
        cone = sorted(self.cone_nodes(lits))
        position = {node: i for i, node in enumerate(cone)}
        inputs = [position[n] for n in cone if self._is_pi[n]]
        low = min(len(inputs), _SLICE_INPUTS)
        mask = (1 << (1 << low)) - 1
        words = [0] * len(cone)  # the constant node stays 0
        for i, word in zip(inputs, _projection_words(low)):
            words[i] = word
        fanin0, fanin1 = self._fanin0, self._fanin1
        program = [
            (
                position[node],
                position[fanin0[node] >> 1],
                mask if fanin0[node] & 1 else 0,
                position[fanin1[node] >> 1],
                mask if fanin1[node] & 1 else 0,
            )
            for node in cone
            if node and not self._is_pi[node]
        ]
        outs = [(position[lit >> 1], mask if lit & 1 else 0) for lit in lits]
        high = inputs[low:]
        for slice_no in range(1 << len(high)):
            for j, i in enumerate(high):
                words[i] = mask if slice_no >> j & 1 else 0
            for i, a, flip_a, b, flip_b in program:
                words[i] = (words[a] ^ flip_a) & (words[b] ^ flip_b)
            yield [words[i] ^ flip for i, flip in outs]

    def cone_table_row(
        self, lits: Sequence[int], slice_no: int, bit: int
    ) -> Dict[str, bool]:
        """The input assignment of one row of :meth:`cone_tables`.

        Bit ``bit`` of slice ``slice_no`` is row ``slice_no << low | bit``
        of the full table, ``low`` being ``min(k, 16)``: support input
        ``i`` (node order) takes bit ``i`` of that row, so the projected
        inputs read ``bit`` and the counted ones ``slice_no``.  Every PI
        outside the literals' cone is False.
        """
        cone = self.cone_nodes(lits)
        support = [node for node in self.pis if node in cone]
        row = slice_no << min(len(support), _SLICE_INPUTS) | bit
        values = {node: bool(row >> i & 1) for i, node in enumerate(support)}
        return {
            name: values.get(node, False)
            for node, name in zip(self.pis, self.pi_names)
        }

    def simulate_words(self, pi_words: Dict[str, int], width: int) -> List[int]:
        """Simulate a ``width``-pattern corpus; returns a word per node.

        PIs absent from ``pi_words`` default to 0.
        """
        mask = (1 << width) - 1
        return self.simulate(
            {name: pi_words.get(name, 0) for name in self.pi_names}, mask
        )

    def random_simulate(
        self, width: int = 64, seed: int = 0
    ) -> Tuple[List[int], int]:
        """Random-pattern simulation; returns (node words, mask)."""
        rng = random.Random(seed)
        mask = (1 << width) - 1
        pi_words = {name: rng.getrandbits(width) for name in self.pi_names}
        return self.simulate_words(pi_words, width), mask

    def simulate_patterns(
        self, assignments: Sequence[Dict[str, bool]]
    ) -> Tuple[List[int], int]:
        """Bit-parallel simulation of explicit PI assignments.

        Each assignment becomes one bit column (assignment ``i`` is bit
        ``i``); PIs absent from an assignment default to False.  Returns
        ``(node words, mask)`` exactly like :meth:`random_simulate`, so
        the columns can be appended to existing simulation signatures.
        """
        width = len(assignments)
        mask = (1 << width) - 1
        pi_words = {name: 0 for name in self.pi_names}
        for i, assignment in enumerate(assignments):
            bit = 1 << i
            for name in self.pi_names:
                if assignment.get(name, False):
                    pi_words[name] |= bit
        return self.simulate_words(pi_words, width), mask

    def eval_outputs(self, pi_values: Dict[str, bool]) -> Dict[str, bool]:
        """Evaluate all registered outputs on one assignment."""
        words = self.simulate({n: int(v) for n, v in pi_values.items()}, 1)

        def lit_val(lit: int) -> bool:
            w = words[lit >> 1]
            return bool(w ^ (lit & 1))

        return {name: lit_val(lit) for name, lit in self.outputs}

    # ------------------------------------------------------------------
    # CNF encoding
    # ------------------------------------------------------------------
    def cnf_clauses(self) -> Iterator[Tuple[int, ...]]:
        """The CNF of every AND node, one clause at a time.

        Node ``n`` is CNF variable ``n + 1`` (:func:`lit_to_cnf`): first
        the unit that fixes node 0 (constant FALSE, variable 1) false,
        then the three Tseitin clauses of each AND node in node order.
        """
        yield (-1,)
        fanin0, fanin1 = self._fanin0, self._fanin1
        for node in self.and_nodes():
            out = node + 1
            a = lit_to_cnf(fanin0[node])
            b = lit_to_cnf(fanin1[node])
            yield (-out, a)
            yield (-out, b)
            yield (out, -a, -b)


def aig_to_circuit(aig: AIG, name: str = "from_aig") -> Circuit:
    """Export an AIG as a combinational circuit of AND2/INV gates.

    Inverted output literals get dedicated inverter gates so the circuit's
    output names match the AIG's registered outputs.
    """
    from repro.netlist.cube import Sop

    circuit = Circuit(name)
    for pi_name in aig.pi_names:
        circuit.add_input(pi_name)
    signal_of: Dict[int, str] = {}
    const0: Optional[str] = None

    def const_signal() -> str:
        nonlocal const0
        if const0 is None:
            const0 = circuit.fresh_signal("__aig_const0")
            circuit.add_gate(const0, (), Sop.const0(0))
        return const0

    for node, pi_name in zip(aig.pis, aig.pi_names):
        signal_of[node] = pi_name
    for node in aig.and_nodes():
        f0, f1 = aig.fanins(node)
        sop = Sop(
            2,
            (
                ("1" if not (f0 & 1) else "0")
                + ("1" if not (f1 & 1) else "0"),
            ),
        )
        sig = circuit.fresh_signal(f"__aig_n{node}")
        fanin_sigs = []
        for lit in (f0, f1):
            child = lit >> 1
            fanin_sigs.append(
                const_signal() if child == 0 else signal_of[child]
            )
        circuit.add_gate(sig, tuple(fanin_sigs), sop)
        signal_of[node] = sig

    used_names: Dict[str, int] = {}
    for out_name, lit in aig.outputs:
        node = lit >> 1
        if node == 0:
            base = const_signal()
            value_sig = base
            inverted = bool(lit & 1)
        else:
            value_sig = signal_of[node]
            inverted = bool(lit & 1)
        sop = Sop.and_all(1, [not inverted])
        if circuit.driver_kind(out_name) is None:
            circuit.add_gate(out_name, (value_sig,), sop)
            circuit.add_output(out_name)
        else:
            alias = circuit.fresh_signal(out_name)
            circuit.add_gate(alias, (value_sig,), sop)
            circuit.add_output(alias)
    return circuit


def aig_from_circuit(
    circuit: Circuit, aig: Optional[AIG] = None
) -> Tuple[AIG, Dict[str, int]]:
    """Import a combinational circuit; returns (aig, literal per signal).

    Passing an existing ``aig`` shares PIs (by name) and the structural hash
    table between several circuits — the CEC engine imports both sides of a
    miter into one AIG so identical substructure collapses to identical
    literals.
    """
    if circuit.latches:
        raise ValueError("aig_from_circuit requires a combinational circuit")
    if aig is None:
        aig = AIG()
    lit_of: Dict[str, int] = {}
    for pi in circuit.inputs:
        lit_of[pi] = aig.add_pi(pi)
    for gate in circuit.topo_gates():
        fanin_lits = [lit_of[s] for s in gate.inputs]
        cube_lits = []
        for cube in gate.sop.cubes:
            term_lits = [
                fanin_lits[i] if ch == "1" else fanin_lits[i] ^ 1
                for i, ch in enumerate(cube)
                if ch != "-"
            ]
            cube_lits.append(aig.and_all(term_lits))
        lit_of[gate.output] = aig.or_all(cube_lits) if cube_lits else FALSE_LIT
    for out in circuit.outputs:
        aig.add_output(out, lit_of[out])
    return aig, lit_of
