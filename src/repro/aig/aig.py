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

import hashlib
import random
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.netlist.circuit import Circuit

__all__ = ["AIG", "aig_from_circuit", "aig_to_circuit"]

FALSE_LIT = 0
TRUE_LIT = 1


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

    def pair_cone_key(self, lit_a: int, lit_b: int) -> str:
        """Canonical structural hash of a candidate pair's fanin cone.

        Nodes are renumbered in deterministic DFS discovery order from the
        pair, so the key depends only on the cone's structure, the
        complementation pattern, and which leaves are shared — not on node
        ids or input names.  Structurally identical pairs from unrelated
        circuits (or unrelated runs) therefore hash equal, which is what
        makes the proof cache reusable across whole flows.
        """
        ids: Dict[int, int] = {}
        parts: List[str] = []
        for root in (lit_a >> 1, lit_b >> 1):
            # Iterative post-order DFS (cones can exceed recursion limits).
            stack: List[Tuple[int, bool]] = [(root, False)]
            while stack:
                node, expanded = stack.pop()
                if node in ids:
                    continue
                if node == 0 or self._is_pi[node]:
                    ids[node] = len(ids)
                    parts.append("c" if node == 0 else "i")
                    continue
                f0, f1 = self._fanin0[node], self._fanin1[node]
                if expanded:
                    ids[node] = len(ids)
                    parts.append(
                        f"a{ids[f0 >> 1]}.{f0 & 1}.{ids[f1 >> 1]}.{f1 & 1}"
                    )
                else:
                    stack.append((node, True))
                    stack.append((f1 >> 1, False))
                    stack.append((f0 >> 1, False))
        parts.append(f"q{ids[lit_a >> 1]}.{lit_a & 1}.{ids[lit_b >> 1]}.{lit_b & 1}")
        return hashlib.sha256("|".join(parts).encode("ascii")).hexdigest()

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
    def to_cnf(self):
        """Encode all AND nodes; returns (CNF, var_of_node list).

        Node ``n`` gets CNF variable ``n + 1`` (node 0 / constant FALSE gets
        variable 1, constrained to false).
        """
        from repro.sat.cnf import CNF

        cnf = CNF(self.num_nodes())
        cnf.add_clause([-1])  # node 0 is FALSE

        def lit2cnf(lit: int) -> int:
            var = (lit >> 1) + 1
            return -var if lit & 1 else var

        for node in self.and_nodes():
            out = node + 1
            a = lit2cnf(self._fanin0[node])
            b = lit2cnf(self._fanin1[node])
            cnf.add_clause([-out, a])
            cnf.add_clause([-out, b])
            cnf.add_clause([out, -a, -b])
        return cnf, lit2cnf


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
