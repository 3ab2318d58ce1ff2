"""The tagged-frame ``ite`` loop, kept as a BDD manager subclass.

A test oracle for :meth:`repro.bdd.bdd.BDD.ite` and
:meth:`~repro.bdd.bdd.BDD.apply_not`.  Every frame here is tagged with a
string and each call frame goes through the terminal, normalisation and
cofactor helpers; a complement is ``ite(f, 0, 1)``.  The manager's own
flat loop and complement walk must make the same nodes in the same order
and leave the same unique table and ite cache:
``tests/bdd/test_ite_oracle.py`` runs both managers side by side.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.bdd.bdd import BDD

__all__ = ["TaggedFrameBDD"]


class TaggedFrameBDD(BDD):
    """A :class:`BDD` whose ``ite`` and ``apply_not`` use tagged frames."""

    def ite(self, f: int, g: int, h: int) -> int:
        """``f ? g : h`` — the universal ternary operator, iterative."""
        stack: List[Tuple] = [("call", f, g, h, None)]
        results: List[int] = []
        # Frames: ("call", f, g, h) computes ite and pushes the result;
        #         ("combine", level, key) pops two results and makes a node.
        while stack:
            frame = stack.pop()
            if frame[0] == "call":
                _, f, g, h, _ = frame
                shortcut = self._ite_terminal(f, g, h)
                if shortcut is not None:
                    results.append(shortcut)
                    continue
                f, g, h = self._ite_normalize(f, g, h)
                shortcut = self._ite_terminal(f, g, h)
                if shortcut is not None:
                    results.append(shortcut)
                    continue
                key = (f, g, h)
                cached = self._ite_cache.get(key)
                if cached is not None:
                    results.append(cached)
                    continue
                level = min(
                    lv
                    for lv in (
                        self._level[f] if f > 1 else None,
                        self._level[g] if g > 1 else None,
                        self._level[h] if h > 1 else None,
                    )
                    if lv is not None
                )
                f0, f1 = self._cofactors_at(f, level)
                g0, g1 = self._cofactors_at(g, level)
                h0, h1 = self._cofactors_at(h, level)
                stack.append(("combine", level, key))
                stack.append(("call", f1, g1, h1, None))
                stack.append(("call", f0, g0, h0, None))
            else:
                _, level, key = frame
                low = results.pop(-2)
                high = results.pop()
                node = self._mk(level, low, high)
                self._ite_cache[key] = node
                results.append(node)
        assert len(results) == 1
        return results[0]

    def _ite_terminal(self, f: int, g: int, h: int) -> Optional[int]:
        if f == self.ONE:
            return g
        if f == self.ZERO:
            return h
        if g == h:
            return g
        if g == self.ONE and h == self.ZERO:
            return f
        return None

    def _ite_normalize(self, f: int, g: int, h: int) -> Tuple[int, int, int]:
        """Standard-triple normalisation (partial, without complement edges)."""
        if f == g:
            g = self.ONE
        elif f == h:
            h = self.ZERO
        return f, g, h

    def apply_not(self, f: int) -> int:
        """Complement of ``f``."""
        return self.ite(f, self.ZERO, self.ONE)
