"""Assumption-core bookkeeping for the SAT sweep.

A :class:`~repro.sat.solver.Solver` UNSAT result under assumptions comes
with :attr:`~repro.sat.solver.SATResult.core` — the subset of assumption
literals the refutation actually used.  Cores generalise: any later
query whose assumption set is a *superset* of a known core is UNSAT by
construction and needs no solver call.  :class:`CoreIndex` stores the
cores seen so far and answers that subsumption question, so the sweep
can retire whole families of candidate-pair queries (counted under
``cec.sat.core_retired``) instead of re-proving each one.

Singleton cores are the common and most valuable case — a core ``{l}``
means the formula itself implies ``-l``, so *every* query assuming ``l``
(e.g. either direction of any pair involving a stuck-at-constant node)
dies instantly.  They are kept in a flat set for O(assumptions) lookup.
Wider cores are bucketed under their smallest literal: a core inside an
assumption set has its smallest literal in that set, so a lookup reads
only the buckets of the query's own literals instead of every core.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional

__all__ = ["CoreIndex", "core_retires"]


class CoreIndex:
    """A subsumption index over assumption cores.

    ``add`` records a core (any iterable of assumption literals);
    ``subsumed`` reports whether a known core is contained in a given
    assumption set.  The empty core — the formula is UNSAT outright —
    subsumes everything.
    """

    __slots__ = ("_empty", "_units", "_wide", "_seen")

    def __init__(self) -> None:
        self._empty = False
        self._units: set = set()
        # Wide cores, in add order, under their smallest literal.
        self._wide: Dict[int, List[FrozenSet[int]]] = {}
        self._seen: set = set()

    def __len__(self) -> int:
        wide = sum(len(bucket) for bucket in self._wide.values())
        return int(self._empty) + len(self._units) + wide

    def add(self, core: Iterable[int]) -> None:
        """Record a core.  Duplicates and supersets of singletons are
        dropped; an empty core marks the whole formula UNSAT."""
        key = frozenset(core)
        if not key:
            self._empty = True
            return
        if key in self._seen:
            return
        self._seen.add(key)
        if len(key) == 1:
            self._units.add(next(iter(key)))
        elif not any(lit in self._units for lit in key):
            self._wide.setdefault(min(key), []).append(key)

    def add_many(self, cores: Iterable[Iterable[int]]) -> None:
        """Record a batch of cores (e.g. brought home by a sweep unit)."""
        for core in cores:
            self.add(core)

    def subsumed(self, assumptions: Iterable[int]) -> bool:
        """True when some known core is a subset of ``assumptions`` —
        i.e. the query is UNSAT without asking the solver."""
        if self._empty:
            return True
        aset = set(assumptions)
        if not self._units.isdisjoint(aset):
            return True
        wide = self._wide
        for lit in aset:
            bucket = wide.get(lit)
            if bucket is not None and any(core <= aset for core in bucket):
                return True
        return False

    def export(self) -> List[List[int]]:
        """All recorded cores as plain lists (for shipping between
        processes; literals stay in this index's variable space)."""
        out: List[List[int]] = []
        if self._empty:
            out.append([])
        out.extend([lit] for lit in sorted(self._units))
        for bucket in self._wide.values():
            out.extend(sorted(core) for core in bucket)
        return out


def core_retires(
    solver, cores: Optional[CoreIndex], assumptions: Iterable[int]
) -> bool:
    """True when ``assumptions`` is already known UNSAT without a solve.

    Either a recorded core is a subset of the assumption set, or some
    assumption literal is false at the solver's root level (the formula
    implies its negation) — in which case the singleton is also recorded
    so later subsumption checks are a set lookup.  With ``cores`` None
    (core tracking off) nothing retires and the caller always solves.
    """
    if cores is None:
        return False
    assumptions = list(assumptions)
    if cores.subsumed(assumptions):
        return True
    for lit in assumptions:
        if solver.root_value(lit) == 0:
            cores.add([lit])
            return True
    return False
