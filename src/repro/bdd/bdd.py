"""A reduced ordered BDD manager.

Nodes are integers.  ``ZERO = 0`` and ``ONE = 1`` are the terminals; every
other node ``n`` has a level (variable), a low child (else) and a high child
(then), stored in parallel lists.  Reduction invariants: no node has
``low == high``, and ``(level, low, high)`` triples are unique.

The manager is deliberately simple — no complement edges, no garbage
collection, no dynamic reordering by default — which keeps every operation
easy to audit.  Performance is adequate for the circuit sizes used in the
paper's flow (levels are created on demand; ``ite`` is memoised).

``ite`` is one flat loop: terminal cases are answered on entry, before any
stack exists, and each pending call is a plain tuple frame, with the
standard-triple normalisation, the choice of the top level and the three
cofactors written out inline.  ``apply_not`` is a post-order walk, low
child first, that reads and writes the ite cache's ``(f, 0, 1)`` entries,
so a complement and an ``ite(f, 0, 1)`` share their work.  Both make
nodes in exactly the order the recursive definition does (low cofactor
before high, each node after its children), so node ids never depend on
how an operation is implemented: gates named after node ids (see
``repro.bdd.synth``) stay the same, and ``tests/bdd/ite_oracle.py`` keeps
a tagged-frame ``ite`` that must leave identical node arrays, unique
table and ite cache.

Construction can be bounded: a manager built with ``node_limit=N`` (or
capped later via :meth:`BDD.set_node_limit`) raises
:class:`~repro.runtime.errors.BddBlowupError` from ``_mk`` once N nodes
exist, so a caller can attempt a BDD proof and fall back to SAT instead of
letting a bad variable order consume the machine.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.runtime.errors import BddBlowupError

__all__ = ["BDD"]


class BDD:
    """A BDD manager over named variables."""

    ZERO = 0
    ONE = 1

    def __init__(
        self,
        variables: Iterable[str] = (),
        node_limit: Optional[int] = None,
    ) -> None:
        # Parallel node arrays; entries 0/1 are terminal placeholders.
        self._level: List[int] = [-1, -1]
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._ite_cache: Dict[Tuple[int, int, int], int] = {}
        self._var_names: List[str] = []
        self._var_index: Dict[str, int] = {}
        self._node_limit = node_limit
        # Optional repro.obs.metrics.MetricsRegistry (see attach_metrics).
        self.metrics = None
        for name in variables:
            self.add_var(name)

    def set_node_limit(self, node_limit: Optional[int]) -> None:
        """Cap (or uncap, with None) total node allocation."""
        self._node_limit = node_limit

    def attach_metrics(self, registry) -> None:
        """Attach a :class:`repro.obs.metrics.MetricsRegistry`.

        Blow-ups feed the ``bdd.blowups`` counter as they happen; node
        growth is sampled by :meth:`flush_metrics` (nodes are never freed,
        so the current count *is* the peak).
        """
        self.metrics = registry

    def flush_metrics(self) -> None:
        """Record the manager's node growth into the attached registry."""
        if self.metrics is not None:
            nodes = self.num_nodes()
            self.metrics.max_gauge("bdd.peak_nodes", nodes)
            self.metrics.observe("bdd.nodes_built", nodes)

    # ------------------------------------------------------------------
    # variables
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> int:
        """Declare a variable (idempotent); returns its node."""
        if name not in self._var_index:
            self._var_index[name] = len(self._var_names)
            self._var_names.append(name)
        return self.var(name)

    def var(self, name: str) -> int:
        """The node for variable ``name`` (declares it if new)."""
        if name not in self._var_index:
            return self.add_var(name)
        level = self._var_index[name]
        return self._mk(level, self.ZERO, self.ONE)

    def nvar(self, name: str) -> int:
        """The node for the complement of variable ``name``."""
        if name not in self._var_index:
            self.add_var(name)
        level = self._var_index[name]
        return self._mk(level, self.ONE, self.ZERO)

    @property
    def var_names(self) -> List[str]:
        """Declared variable names in level order."""
        return list(self._var_names)

    def level_of(self, name: str) -> int:
        """The level (order position) of a variable."""
        return self._var_index[name]

    def name_of_level(self, level: int) -> str:
        """The variable name at a level."""
        return self._var_names[level]

    def num_nodes(self) -> int:
        """Total nodes allocated (including terminals)."""
        return len(self._level)

    # ------------------------------------------------------------------
    # node construction
    # ------------------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            if (
                self._node_limit is not None
                and len(self._level) >= self._node_limit
            ):
                if self.metrics is not None:
                    self.metrics.inc("bdd.blowups")
                    self.metrics.max_gauge("bdd.peak_nodes", len(self._level))
                raise BddBlowupError(len(self._level), self._node_limit)
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def node_level(self, f: int) -> int:
        """The variable level of a non-terminal node."""
        return self._level[f]

    def node_low(self, f: int) -> int:
        """The else-child of a node."""
        return self._low[f]

    def node_high(self, f: int) -> int:
        """The then-child of a node."""
        return self._high[f]

    def is_terminal(self, f: int) -> bool:
        """True for the 0/1 terminal nodes."""
        return f <= 1

    # ------------------------------------------------------------------
    # core algorithm: if-then-else
    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        """``f ? g : h`` — the universal ternary operator, one flat loop.

        Depth-first and low cofactor first, memoised on the normalised
        triple; no Python recursion, so deep BDDs need no raised limit.
        """
        if f <= 1:
            return g if f else h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        level_of = self._level
        low_of = self._low
        high_of = self._high
        cache = self._ite_cache
        mk = self._mk
        # (top, key, f1, g1, h1): the low cofactor is being computed, the
        # high one is next; (top, key, low): the high cofactor is being
        # computed, then node (top, low, high) is made and cached at key.
        stack: List[tuple] = []
        while True:
            if f <= 1:
                r = g if f else h
            elif g == h:
                r = g
            elif g == 1 and h == 0:
                r = f
            else:
                # Standard-triple normalisation (no complement edges).
                if f == g:
                    g = 1
                elif f == h:
                    h = 0
                if g == h:
                    r = g
                elif g == 1 and h == 0:
                    r = f
                else:
                    key = (f, g, h)
                    r = cache.get(key)
                    if r is None:
                        # Terminals sit at level -1, which no top level is.
                        top = lf = level_of[f]
                        lg = level_of[g]
                        lh = level_of[h]
                        if g > 1 and lg < top:
                            top = lg
                        if h > 1 and lh < top:
                            top = lh
                        # Go on with the low cofactors in f, g and h; the
                        # frame keeps the high ones for later.
                        if lf == top:
                            f, f1 = low_of[f], high_of[f]
                        else:
                            f1 = f
                        if lg == top:
                            g, g1 = low_of[g], high_of[g]
                        else:
                            g1 = g
                        if lh == top:
                            h, h1 = low_of[h], high_of[h]
                        else:
                            h1 = h
                        stack.append((top, key, f1, g1, h1))
                        continue
            # r is the result of the current call: hand it to the frames.
            while stack:
                frame = stack.pop()
                if len(frame) == 5:
                    top, key, f, g, h = frame
                    stack.append((top, key, r))
                    break
                top, key, low = frame
                r = mk(top, low, r)
                cache[key] = r
            else:
                return r

    def _cofactors_at(self, f: int, level: int) -> Tuple[int, int]:
        if f > 1 and self._level[f] == level:
            return self._low[f], self._high[f]
        return f, f

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------
    def apply_not(self, f: int) -> int:
        """Complement of ``f``: ``ite(f, 0, 1)`` as a post-order walk.

        Low child first, reading and writing the ite cache's
        ``(node, 0, 1)`` entries, so it makes the same nodes in the same
        order as ``ite(f, 0, 1)`` would and leaves the same cache.
        """
        if f <= 1:
            return 1 - f
        level_of = self._level
        low_of = self._low
        high_of = self._high
        cache = self._ite_cache
        mk = self._mk
        # (node, None): its low child is being complemented, the high one
        # is next; (node, low): its high child is being complemented.
        stack: List[tuple] = []
        while True:
            if f <= 1:
                r = 1 - f
            else:
                r = cache.get((f, 0, 1))
                if r is None:
                    stack.append((f, None))
                    f = low_of[f]
                    continue
            while stack:
                node, low = stack.pop()
                if low is None:
                    stack.append((node, r))
                    f = high_of[node]
                    break
                r = mk(level_of[node], low, r)
                cache[(node, 0, 1)] = r
            else:
                return r

    def apply_and(self, f: int, g: int) -> int:
        """Conjunction of two nodes."""
        return self.ite(f, g, self.ZERO)

    def apply_or(self, f: int, g: int) -> int:
        """Disjunction of two nodes."""
        return self.ite(f, self.ONE, g)

    def apply_xor(self, f: int, g: int) -> int:
        """Exclusive-or of two nodes."""
        return self.ite(f, self.apply_not(g), g)

    def apply_xnor(self, f: int, g: int) -> int:
        """Complemented exclusive-or of two nodes."""
        return self.ite(f, g, self.apply_not(g))

    def apply_implies(self, f: int, g: int) -> int:
        """Implication ``f -> g``."""
        return self.ite(f, g, self.ONE)

    def and_all(self, nodes: Iterable[int]) -> int:
        """Conjunction over many nodes (short-circuits on 0)."""
        acc = self.ONE
        for n in nodes:
            acc = self.apply_and(acc, n)
            if acc == self.ZERO:
                break
        return acc

    def or_all(self, nodes: Iterable[int]) -> int:
        """Disjunction over many nodes (short-circuits on 1)."""
        acc = self.ZERO
        for n in nodes:
            acc = self.apply_or(acc, n)
            if acc == self.ONE:
                break
        return acc

    # ------------------------------------------------------------------
    # cofactors / composition / quantification
    # ------------------------------------------------------------------
    def cofactor(self, f: int, name: str, phase: bool) -> int:
        """Shannon cofactor against variable ``name``."""
        level = self._var_index[name]
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= 1 or self._level[node] > level:
                return node
            hit = cache.get(node)
            if hit is not None:
                return hit
            if self._level[node] == level:
                result = self._high[node] if phase else self._low[node]
            else:
                result = self._mk(
                    self._level[node],
                    walk(self._low[node]),
                    walk(self._high[node]),
                )
            cache[node] = result
            return result

        return self._walk_iterative(f, walk)

    def _walk_iterative(self, root: int, walk) -> int:
        """Run a recursive walker with a raised recursion limit."""
        import sys

        old = sys.getrecursionlimit()
        needed = len(self._var_names) * 4 + 10000
        if old < needed:
            sys.setrecursionlimit(needed)
        try:
            return walk(root)
        finally:
            sys.setrecursionlimit(old)

    def restrict(self, f: int, assignment: Dict[str, bool]) -> int:
        """Cofactor against several variables at once."""
        for name, phase in assignment.items():
            f = self.cofactor(f, name, phase)
        return f

    def compose(self, f: int, name: str, g: int) -> int:
        """Substitute BDD ``g`` for variable ``name`` in ``f``."""
        level = self._var_index[name]
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= 1 or self._level[node] > level:
                return node
            hit = cache.get(node)
            if hit is not None:
                return hit
            if self._level[node] == level:
                result = self.ite(g, self._high[node], self._low[node])
            else:
                low = walk(self._low[node])
                high = walk(self._high[node])
                var_node = self._mk(self._level[node], self.ZERO, self.ONE)
                result = self.ite(var_node, high, low)
            cache[node] = result
            return result

        return self._walk_iterative(f, walk)

    def compose_many(self, f: int, substitution: Dict[str, int]) -> int:
        """Simultaneous composition (applied bottom-up level by level)."""
        # Apply from the deepest level upward so earlier substitutions do not
        # disturb later ones; since substituted functions may mention any
        # variables, sequential composition deepest-first is correct for
        # acyclic substitutions (our use: signal cones over leaf variables).
        order = sorted(
            substitution, key=lambda n: self._var_index[n], reverse=True
        )
        for name in order:
            f = self.compose(f, name, substitution[name])
        return f

    def exists(self, f: int, names: Iterable[str]) -> int:
        """Existential quantification over the named variables."""
        for name in names:
            f = self.apply_or(
                self.cofactor(f, name, False), self.cofactor(f, name, True)
            )
        return f

    def forall(self, f: int, names: Iterable[str]) -> int:
        """Universal quantification over the named variables."""
        for name in names:
            f = self.apply_and(
                self.cofactor(f, name, False), self.cofactor(f, name, True)
            )
        return f

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def support(self, f: int) -> FrozenSet[str]:
        """The set of variable names ``f`` depends on."""
        seen: Set[int] = set()
        levels: Set[int] = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node <= 1 or node in seen:
                continue
            seen.add(node)
            levels.add(self._level[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return frozenset(self._var_names[lv] for lv in levels)

    def eval(self, f: int, assignment: Dict[str, bool]) -> bool:
        """Evaluate ``f`` under a complete variable assignment."""
        node = f
        while node > 1:
            name = self._var_names[self._level[node]]
            node = self._high[node] if assignment[name] else self._low[node]
        return node == self.ONE

    def implies(self, f: int, g: int) -> bool:
        """True if ``f <= g`` as functions."""
        return self.apply_and(f, self.apply_not(g)) == self.ZERO

    def equiv(self, f: int, g: int) -> bool:
        """True if the nodes denote the same function (canonical ids)."""
        return f == g

    def is_positive_unate(self, f: int, name: str) -> bool:
        """True if ``f`` is positive unate in ``name``: f|x=0 ≤ f|x=1."""
        return self.implies(
            self.cofactor(f, name, False), self.cofactor(f, name, True)
        )

    def is_negative_unate(self, f: int, name: str) -> bool:
        """True if ``f`` is negative unate in ``name``."""
        return self.implies(
            self.cofactor(f, name, True), self.cofactor(f, name, False)
        )

    def sat_count(self, f: int, nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``nvars`` variables.

        ``nvars`` defaults to (and must be at least) the number of declared
        variables.
        """
        total_vars = len(self._var_names)
        if nvars is None:
            nvars = total_vars
        if nvars < total_vars:
            raise ValueError("nvars smaller than the declared variable count")
        if f == self.ZERO:
            return 0
        if f == self.ONE:
            return 1 << nvars
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            # Counts assignments over variables strictly below node's level.
            if node == self.ZERO:
                return 0
            if node == self.ONE:
                return 1
            hit = cache.get(node)
            if hit is not None:
                return hit
            level = self._level[node]
            lo, hi = self._low[node], self._high[node]
            lo_count = walk(lo) << self._gap(lo, level)
            hi_count = walk(hi) << self._gap(hi, level)
            result = lo_count + hi_count
            cache[node] = result
            return result

        return (walk(f) << self._level[f]) << (nvars - total_vars)

    def _gap(self, child: int, parent_level: int) -> int:
        child_level = (
            self._level[child] if child > 1 else len(self._var_names)
        )
        return child_level - parent_level - 1

    def pick_minterm(self, f: int) -> Optional[Dict[str, bool]]:
        """One satisfying assignment over the support; ``None`` if f = 0."""
        if f == self.ZERO:
            return None
        assignment: Dict[str, bool] = {}
        node = f
        while node > 1:
            name = self._var_names[self._level[node]]
            if self._high[node] != self.ZERO:
                assignment[name] = True
                node = self._high[node]
            else:
                assignment[name] = False
                node = self._low[node]
        return assignment

    def iter_minterms(self, f: int, over: Sequence[str]) -> Iterable[Dict[str, bool]]:
        """Iterate all satisfying assignments over the given variables."""
        over_levels = sorted(self._var_index[name] for name in over)
        names = [self._var_names[lv] for lv in over_levels]

        def rec(node: int, idx: int, partial: Dict[str, bool]):
            if idx == len(names):
                if node == self.ONE:
                    yield dict(partial)
                return
            if node == self.ZERO:
                return
            name = names[idx]
            level = over_levels[idx]
            if node > 1 and self._level[node] == level:
                lo, hi = self._low[node], self._high[node]
            else:
                lo = hi = node
            partial[name] = False
            yield from rec(lo, idx + 1, partial)
            partial[name] = True
            yield from rec(hi, idx + 1, partial)
            del partial[name]

        yield from rec(f, 0, {})

    # ------------------------------------------------------------------
    # SOP extraction (Minato-Morreale irredundant SOP)
    # ------------------------------------------------------------------
    def isop(self, f: int) -> List[Dict[str, bool]]:
        """An irredundant SOP cover of ``f`` as literal dictionaries."""
        cover, _ = self._isop(f, f, {})
        return cover

    def _isop(self, lower: int, upper: int, cache: Dict) -> Tuple[List[Dict[str, bool]], int]:
        """Minato-Morreale ISOP over the interval [lower, upper]."""
        if lower == self.ZERO:
            return [], self.ZERO
        if upper == self.ONE:
            return [{}], self.ONE
        key = (lower, upper)
        hit = cache.get(key)
        if hit is not None:
            return hit
        level = min(
            lv
            for lv in (
                self._level[lower] if lower > 1 else None,
                self._level[upper] if upper > 1 else None,
            )
            if lv is not None
        )
        name = self._var_names[level]
        l0, l1 = self._cofactors_at(lower, level)
        u0, u1 = self._cofactors_at(upper, level)
        # Cubes that must contain literal ~x.
        cover0, bdd0 = self._isop(self.apply_and(l0, self.apply_not(u1)), u0, cache)
        # Cubes that must contain literal x.
        cover1, bdd1 = self._isop(self.apply_and(l1, self.apply_not(u0)), u1, cache)
        # Remainder handled without a literal on x.
        rem0 = self.apply_and(l0, self.apply_not(bdd0))
        rem1 = self.apply_and(l1, self.apply_not(bdd1))
        lower_star = self.apply_or(rem0, rem1)
        upper_star = self.apply_and(u0, u1)
        cover_star, bdd_star = self._isop(lower_star, upper_star, cache)
        cover = (
            [dict(c, **{name: False}) for c in cover0]
            + [dict(c, **{name: True}) for c in cover1]
            + cover_star
        )
        var_node = self._mk(level, self.ZERO, self.ONE)
        result_bdd = self.or_all(
            [
                self.apply_and(self.apply_not(var_node), bdd0),
                self.apply_and(var_node, bdd1),
                bdd_star,
            ]
        )
        cache[key] = (cover, result_bdd)
        return cover, result_bdd

    # ------------------------------------------------------------------
    # helpers for building from other representations
    # ------------------------------------------------------------------
    def from_sop(self, sop, fanin_nodes: Sequence[int]) -> int:
        """Build the BDD of an :class:`~repro.netlist.cube.Sop` cover."""
        acc = self.ZERO
        for cube in sop.cubes:
            term = self.ONE
            for i, ch in enumerate(cube):
                if ch == "1":
                    term = self.apply_and(term, fanin_nodes[i])
                elif ch == "0":
                    term = self.apply_and(term, self.apply_not(fanin_nodes[i]))
                if term == self.ZERO:
                    break
            acc = self.apply_or(acc, term)
            if acc == self.ONE:
                break
        return acc

    def clear_caches(self) -> None:
        """Drop the ite memo table (frees memory between phases)."""
        self._ite_cache.clear()
