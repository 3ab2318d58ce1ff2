"""Exact two-level minimisation (Quine-McCluskey + exact covering).

A test oracle.  For small covers (≲ 10 inputs) this computes a *minimum*
SOP: prime implicants by iterated merging, then a minimum prime cover by
essential extraction and branch-and-bound set covering.
``tests/synth/test_exact_min.py`` measures the heuristic minimiser
(:meth:`repro.netlist.cube.Sop.minimized`) against it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.netlist.cube import Sop, cube_contains

__all__ = ["prime_implicants", "exact_minimize"]

_MAX_INPUTS = 12


def _minterms_of(sop: Sop) -> Set[int]:
    out = set()
    for m in range(1 << sop.ninputs):
        if sop.eval_bool([(m >> i) & 1 == 1 for i in range(sop.ninputs)]):
            out.add(m)
    return out


def _cube_of_minterm(m: int, n: int) -> str:
    return "".join("1" if (m >> i) & 1 else "0" for i in range(n))


def _merge(a: str, b: str) -> Optional[str]:
    """Combine two cubes differing in exactly one specified position."""
    diff = -1
    for i, (ca, cb) in enumerate(zip(a, b)):
        if ca != cb:
            if ca == "-" or cb == "-" or diff >= 0:
                return None
            diff = i
    if diff < 0:
        return None
    return a[:diff] + "-" + a[diff + 1 :]


def prime_implicants(sop: Sop) -> List[str]:
    """All prime implicants of the function (Quine-McCluskey merging)."""
    if sop.ninputs > _MAX_INPUTS:
        raise ValueError(f"exact minimisation limited to {_MAX_INPUTS} inputs")
    n = sop.ninputs
    current: Set[str] = {_cube_of_minterm(m, n) for m in _minterms_of(sop)}
    primes: Set[str] = set()
    while current:
        merged_from: Set[str] = set()
        next_level: Set[str] = set()
        current_list = sorted(current)
        # Group by don't-care mask and number of ones for fewer pair tests.
        by_key: Dict[Tuple[str, int], List[str]] = {}
        for cube in current_list:
            mask = "".join("-" if ch == "-" else "x" for ch in cube)
            ones = sum(1 for ch in cube if ch == "1")
            by_key.setdefault((mask, ones), []).append(cube)
        for (mask, ones), cubes in by_key.items():
            partners = by_key.get((mask, ones + 1), [])
            for a in cubes:
                for b in partners:
                    m = _merge(a, b)
                    if m is not None:
                        next_level.add(m)
                        merged_from.add(a)
                        merged_from.add(b)
        primes |= current - merged_from
        current = next_level
    return sorted(primes)


def exact_minimize(sop: Sop) -> Sop:
    """A minimum-cube (then minimum-literal) SOP for the function."""
    if not sop.cubes:
        return sop
    minterms = sorted(_minterms_of(sop))
    if not minterms:
        return Sop.const0(sop.ninputs)
    if len(minterms) == 1 << sop.ninputs:
        return Sop.const1(sop.ninputs)
    primes = prime_implicants(sop)

    def covers(cube: str, m: int) -> bool:
        return cube_contains(cube, _cube_of_minterm(m, sop.ninputs))

    cover_map: Dict[int, List[int]] = {
        m: [i for i, p in enumerate(primes) if covers(p, m)] for m in minterms
    }

    # Essential primes first.
    chosen: Set[int] = set()
    remaining: Set[int] = set(minterms)
    for m, options in cover_map.items():
        if len(options) == 1:
            chosen.add(options[0])
    for i in chosen:
        remaining -= {m for m in remaining if covers(primes[i], m)}

    # Branch-and-bound over the residual covering problem.
    best: Optional[Set[int]] = None

    def literals(selection: Set[int]) -> int:
        return sum(
            sum(1 for ch in primes[i] if ch != "-") for i in selection
        )

    def bound_ok(selection: Set[int]) -> bool:
        if best is None:
            return True
        if len(selection) < len(best):
            return True
        if len(selection) == len(best):
            return literals(selection) < literals(best)
        return False

    def search(selection: Set[int], uncovered: Set[int]) -> None:
        nonlocal best
        if not bound_ok(selection):
            return
        if not uncovered:
            if best is None or not bound_ok(best) or (
                len(selection) < len(best)
                or (
                    len(selection) == len(best)
                    and literals(selection) < literals(best)
                )
            ):
                best = set(selection)
            return
        # Branch on the hardest minterm (fewest covering primes).
        m = min(uncovered, key=lambda mm: len(cover_map[mm]))
        for i in cover_map[m]:
            if i in selection:
                continue
            covered = {mm for mm in uncovered if covers(primes[i], mm)}
            search(selection | {i}, uncovered - covered)

    search(set(chosen), set(remaining))
    assert best is not None
    cubes = tuple(sorted(primes[i] for i in best))
    return Sop(sop.ninputs, cubes)
