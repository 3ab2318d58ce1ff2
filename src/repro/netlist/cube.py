"""Cube and sum-of-products (SOP) covers with BLIF ``.names`` semantics.

A *cube* over ``n`` positional inputs is a string of length ``n`` over the
alphabet ``{'0', '1', '-'}``.  A :class:`Sop` is an on-set cover: the function
is 1 exactly when some cube matches the input assignment.  The empty cover is
constant 0; a cover containing the all-don't-care cube is constant 1 (for
``n == 0`` the all-don't-care cube is the empty string).

This module provides the cube algebra used throughout the synthesis and
verification code: evaluation (bit-parallel), cofactors, containment,
complementation, tautology checking, a light-weight two-level minimiser, and
the literal-set view used by algebraic division.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Sop",
    "cube_and",
    "cube_contains",
    "cube_distance",
    "cube_literals",
    "cube_from_literals",
]


def _check_cube(cube: str, ninputs: int) -> None:
    if len(cube) != ninputs:
        raise ValueError(f"cube {cube!r} has length {len(cube)}, expected {ninputs}")
    # Stripping stops at the first character outside the alphabet.
    bad = cube.strip("01-")
    if bad:
        raise ValueError(f"invalid cube character {bad[0]!r} in {cube!r}")


#: ``str.translate`` tables giving a cube's care and one-valued positions
#: as binary digits (input 0 is the most significant bit).
_CARE_BITS = str.maketrans("01-", "110")
_ONE_BITS = str.maketrans("01-", "010")


@functools.lru_cache(maxsize=128)
def _all_inputs(ninputs: int) -> FrozenSet[int]:
    """The support of a cover that reads every input."""
    return frozenset(range(ninputs))


class _cover_fact:
    """A fact about an immutable cover, computed on first use.

    The value lands in the instance ``__dict__``, which then shadows this
    descriptor, so later reads are plain attribute lookups.  Dataclass
    equality, hashing and ``repr`` look only at the fields, and
    :meth:`Sop.__getstate__` leaves the facts out of pickles.  This is
    ``functools.cached_property`` without the lock that Python versions
    before 3.12 take on every first read: the minimiser reads facts of
    many short-lived covers once each, where that lock cost several times
    the fact itself.
    """

    def __init__(self, compute) -> None:
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, sop, owner=None):
        if sop is None:
            return self
        value = sop.__dict__[self.name] = self.compute(sop)
        return value


def cube_and(a: str, b: str) -> Optional[str]:
    """Intersection of two cubes; ``None`` if they are disjoint."""
    out = []
    for ca, cb in zip(a, b):
        if ca == "-":
            out.append(cb)
        elif cb == "-" or ca == cb:
            out.append(ca)
        else:
            return None
    return "".join(out)


def cube_contains(big: str, small: str) -> bool:
    """True if cube ``big`` contains cube ``small`` (as point sets)."""
    for cb, cs in zip(big, small):
        if cb != "-" and cb != cs:
            return False
    return True


def cube_distance(a: str, b: str) -> int:
    """Number of positions where the cubes conflict (0/1 vs 1/0)."""
    return sum(1 for ca, cb in zip(a, b) if ca != "-" and cb != "-" and ca != cb)


def cube_literals(cube: str) -> FrozenSet[int]:
    """Literal-set view of a cube for algebraic operations.

    Literal encoding: positive literal of input ``i`` is ``2*i + 1``, negative
    literal is ``2*i``.  Don't-care positions contribute nothing.
    """
    lits = set()
    for i, ch in enumerate(cube):
        if ch == "1":
            lits.add(2 * i + 1)
        elif ch == "0":
            lits.add(2 * i)
    return frozenset(lits)


def cube_from_literals(lits: Iterable[int], ninputs: int) -> str:
    """Inverse of :func:`cube_literals`."""
    chars = ["-"] * ninputs
    for lit in lits:
        i, phase = divmod(lit, 2)
        if i >= ninputs:
            raise ValueError(f"literal {lit} out of range for {ninputs} inputs")
        want = "1" if phase else "0"
        if chars[i] != "-" and chars[i] != want:
            raise ValueError("contradictory literals for the same input")
        chars[i] = want
    return "".join(chars)


@dataclass(frozen=True)
class Sop:
    """An on-set sum-of-products cover over ``ninputs`` positional inputs."""

    ninputs: int
    cubes: Tuple[str, ...]

    def __post_init__(self) -> None:
        ninputs = self.ninputs
        for cube in self.cubes:
            if len(cube) != ninputs or cube.strip("01-"):
                _check_cube(cube, ninputs)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @staticmethod
    def const0(ninputs: int = 0) -> "Sop":
        """The constant-0 cover (empty on-set)."""
        return Sop(ninputs, ())

    @staticmethod
    def const1(ninputs: int = 0) -> "Sop":
        """The constant-1 cover (one all-don't-care cube)."""
        return Sop(ninputs, ("-" * ninputs,))

    @staticmethod
    def literal(ninputs: int, index: int, phase: bool = True) -> "Sop":
        """The single-literal function ``x_index`` (or its complement)."""
        if not 0 <= index < ninputs:
            raise ValueError(f"literal index {index} out of range")
        chars = ["-"] * ninputs
        chars[index] = "1" if phase else "0"
        return Sop(ninputs, ("".join(chars),))

    @staticmethod
    def and_all(ninputs: int, phases: Optional[Sequence[bool]] = None) -> "Sop":
        """AND of all inputs, each optionally complemented."""
        if phases is None:
            phases = [True] * ninputs
        cube = "".join("1" if p else "0" for p in phases)
        return Sop(ninputs, (cube,))

    @staticmethod
    def or_all(ninputs: int, phases: Optional[Sequence[bool]] = None) -> "Sop":
        """OR of all inputs, each optionally complemented."""
        if phases is None:
            phases = [True] * ninputs
        cubes = []
        for i, p in enumerate(phases):
            chars = ["-"] * ninputs
            chars[i] = "1" if p else "0"
            cubes.append("".join(chars))
        return Sop(ninputs, tuple(cubes))

    @staticmethod
    def xor2() -> "Sop":
        """Two-input exclusive-or cover."""
        return Sop(2, ("10", "01"))

    @staticmethod
    def xnor2() -> "Sop":
        """Two-input complemented exclusive-or cover."""
        return Sop(2, ("11", "00"))

    @staticmethod
    def mux() -> "Sop":
        """2:1 multiplexer over inputs ``(sel, a, b)``: sel ? a : b."""
        return Sop(3, ("11-", "0-1"))

    @staticmethod
    def from_truth_table(ninputs: int, bits: int) -> "Sop":
        """Build a (minterm-canonical) cover from a truth-table integer.

        Bit ``m`` of ``bits`` is the function value on the minterm whose
        input ``i`` equals bit ``i`` of ``m`` (input 0 is the LSB).
        """
        cubes = []
        for m in range(1 << ninputs):
            if (bits >> m) & 1:
                cube = "".join("1" if (m >> i) & 1 else "0" for i in range(ninputs))
                cubes.append(cube)
        return Sop(ninputs, tuple(cubes))

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_cubes(self) -> int:
        """Number of cubes in the cover."""
        return len(self.cubes)

    @_cover_fact
    def num_literals(self) -> int:
        """Total literal count (the SIS cost measure)."""
        return sum(len(cube) - cube.count("-") for cube in self.cubes)

    def is_const0(self) -> bool:
        """Syntactic (and semantic) zero test: empty cover."""
        return not self.cubes

    def is_const1_syntactic(self) -> bool:
        """True if some cube is the universal cube (sufficient, not necessary)."""
        return self._has_universal_cube

    def support(self) -> FrozenSet[int]:
        """Indices of inputs that appear in some cube (syntactic support)."""
        return self._support

    @_cover_fact
    def _has_universal_cube(self) -> bool:
        return "-" * self.ninputs in self.cubes

    @_cover_fact
    def _support(self) -> FrozenSet[int]:
        care = 0
        for cube in self.cubes:
            care |= int(cube.translate(_CARE_BITS) or "0", 2)
        if care == (1 << self.ninputs) - 1:
            return _all_inputs(self.ninputs)  # the common case: one shared set
        last = self.ninputs - 1
        return frozenset(i for i in range(self.ninputs) if care >> (last - i) & 1)

    def __getstate__(self) -> Dict[str, object]:
        # Only the fields: cached facts never travel in a pickle.
        return {"ninputs": self.ninputs, "cubes": self.cubes}

    def uses_input(self, index: int) -> bool:
        """True if some cube constrains input ``index``."""
        return any(cube[index] != "-" for cube in self.cubes)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def eval_bool(self, assignment: Sequence[bool]) -> bool:
        """Evaluate on a single Boolean assignment."""
        if len(assignment) != self.ninputs:
            raise ValueError("assignment length mismatch")
        for cube in self.cubes:
            ok = True
            for ch, val in zip(cube, assignment):
                if ch == "1" and not val:
                    ok = False
                    break
                if ch == "0" and val:
                    ok = False
                    break
            if ok:
                return True
        return False

    def eval_parallel(self, words: Sequence[int], mask: int) -> int:
        """Bit-parallel evaluation.

        ``words[i]`` holds one bit per pattern for input ``i``; ``mask`` is an
        all-ones integer covering the pattern width.  Returns the output word.
        """
        result = 0
        for cube in self.cubes:
            term = mask
            for i, ch in enumerate(cube):
                if ch == "1":
                    term &= words[i]
                elif ch == "0":
                    term &= ~words[i]
                if not term:
                    break
            result |= term & mask
            if result == mask:
                break
        return result & mask

    def truth_table(self) -> int:
        """Truth table as an integer (only sensible for small ``ninputs``)."""
        if self.ninputs > 20:
            raise ValueError("truth table too large")
        bits = 0
        for m in range(1 << self.ninputs):
            assignment = [(m >> i) & 1 == 1 for i in range(self.ninputs)]
            if self.eval_bool(assignment):
                bits |= 1 << m
        return bits

    # ------------------------------------------------------------------
    # structural operations
    # ------------------------------------------------------------------
    def cofactor(self, index: int, phase: bool) -> "Sop":
        """Shannon cofactor with respect to input ``index`` (same arity)."""
        want = "1" if phase else "0"
        other = "0" if phase else "1"
        cubes = []
        for cube in self.cubes:
            ch = cube[index]
            if ch == other:
                continue
            cubes.append(cube[:index] + "-" + cube[index + 1 :])
        return Sop(self.ninputs, tuple(cubes))

    def restrict(self, assignment: Dict[int, bool]) -> "Sop":
        """Cofactor against several inputs at once (same arity)."""
        if not assignment:
            return self
        # Equivalent to cofactoring input by input: cubes clashing with the
        # assignment drop, the rest lose the assigned literals, order kept.
        clashes = [(i, "0" if phase else "1") for i, phase in assignment.items()]
        cubes = []
        for cube in self.cubes:
            if any(cube[i] == other for i, other in clashes):
                continue
            chars = list(cube)
            for i in assignment:
                chars[i] = "-"
            cubes.append("".join(chars))
        return Sop(self.ninputs, tuple(cubes))

    def remove_input(self, index: int) -> "Sop":
        """Drop a (non-support) input column, renumbering later inputs."""
        if self.uses_input(index):
            raise ValueError(f"input {index} is in the support; cofactor first")
        cubes = tuple(cube[:index] + cube[index + 1 :] for cube in self.cubes)
        return Sop(self.ninputs - 1, cubes)

    def permute(self, new_of_old: Sequence[int], new_ninputs: int) -> "Sop":
        """Re-map input positions: old input ``i`` becomes ``new_of_old[i]``."""
        cubes = []
        for cube in self.cubes:
            chars = ["-"] * new_ninputs
            for i, ch in enumerate(cube):
                if ch != "-":
                    j = new_of_old[i]
                    if chars[j] != "-" and chars[j] != ch:
                        raise ValueError("permutation merges conflicting literals")
                    chars[j] = ch
            cubes.append("".join(chars))
        return Sop(new_ninputs, tuple(cubes))

    def negate_input(self, index: int) -> "Sop":
        """Complement the polarity of one input."""
        flip = {"0": "1", "1": "0", "-": "-"}
        cubes = tuple(
            cube[:index] + flip[cube[index]] + cube[index + 1 :] for cube in self.cubes
        )
        return Sop(self.ninputs, cubes)

    # ------------------------------------------------------------------
    # Boolean operations (same arity)
    # ------------------------------------------------------------------
    def or_(self, other: "Sop") -> "Sop":
        """Disjunction of two same-arity covers (cube union)."""
        self._check_same_arity(other)
        return Sop(self.ninputs, self.cubes + other.cubes)

    def and_(self, other: "Sop") -> "Sop":
        """Conjunction of two same-arity covers (pairwise cube products)."""
        self._check_same_arity(other)
        cubes = []
        for a in self.cubes:
            for b in other.cubes:
                c = cube_and(a, b)
                if c is not None:
                    cubes.append(c)
        return Sop(self.ninputs, tuple(cubes))

    def complement(self) -> "Sop":
        """Exact complement via recursive Shannon expansion."""
        return _complement(self)

    def xor(self, other: "Sop") -> "Sop":
        """Exclusive-or of two same-arity covers."""
        self._check_same_arity(other)
        return self.and_(other.complement()).or_(other.and_(self.complement()))

    # ------------------------------------------------------------------
    # semantic queries
    # ------------------------------------------------------------------
    def is_tautology(self) -> bool:
        """Semantic constant-1 test (unate-reduction recursion)."""
        return _tautology(self)

    def implies(self, other: "Sop") -> bool:
        """True if this function is contained in ``other``."""
        self._check_same_arity(other)
        return self.and_(other.complement()).is_const0_semantic()

    def is_const0_semantic(self) -> bool:
        """Semantic zero test (every cube covers at least one minterm)."""
        return not self.cubes

    def equivalent(self, other: "Sop") -> bool:
        """Semantic equality of two same-arity covers."""
        self._check_same_arity(other)
        return self.implies(other) and other.implies(self)

    # ------------------------------------------------------------------
    # minimisation
    # ------------------------------------------------------------------
    def scc_minimal(self) -> "Sop":
        """Remove single-cube-contained cubes (keeps semantics).

        The kept cubes are ordered by don't-care count, then as strings.
        """
        ordered = sorted((cube.count("-"), cube) for cube in set(self.cubes))
        if len(ordered) < 2:
            return Sop(self.ninputs, tuple(cube for _, cube in ordered))
        # Only a cube with more don't-cares can contain another (distinct)
        # cube, and containment is transitive: testing each cube, widest
        # first, against the surviving wider cubes keeps exactly the cubes
        # no other cube contains.
        kept: List[str] = []
        wider: List[Tuple[int, int]] = []  # (care, ones) of kept wider cubes
        level: List[Tuple[int, int]] = []  # the same, at the current width
        width = -1
        for dcs, cube in reversed(ordered):
            if dcs != width:
                wider.extend(level)
                level = []
                width = dcs
            care = int(cube.translate(_CARE_BITS), 2)
            ones = int(cube.translate(_ONE_BITS), 2)
            for w_care, w_ones in wider:
                if w_care & care == w_care and ones & w_care == w_ones:
                    break  # contained in a wider cube
            else:
                level.append((care, ones))
                kept.append(cube)
        kept.reverse()
        return Sop(self.ninputs, tuple(kept))

    def minimized(self) -> "Sop":
        """Light-weight two-level minimisation (espresso-lite).

        Iterates distance-1 cube merging, literal expansion against the cover,
        and redundant-cube removal until a fixpoint.  Not guaranteed minimum,
        but semantics-preserving and effective in practice.
        """
        return _minimize(self)

    # ------------------------------------------------------------------
    def _check_same_arity(self, other: "Sop") -> None:
        if self.ninputs != other.ninputs:
            raise ValueError("arity mismatch between covers")

    def __str__(self) -> str:
        if not self.cubes:
            return f"<Sop/{self.ninputs} const0>"
        return f"<Sop/{self.ninputs} {' + '.join(self.cubes)}>"


def _select_binate_input(sop: Sop) -> Optional[int]:
    """Pick the most binate input, or ``None`` if the cover is unate."""
    best = None
    best_score = -1
    for i, column in enumerate(zip(*sop.cubes)):
        pos = column.count("1")
        neg = column.count("0")
        if pos and neg:
            score = pos + neg
            if score > best_score:
                best_score = score
                best = i
    return best


def _tautology(sop: Sop) -> bool:
    if sop.is_const1_syntactic():
        return True
    if not sop.cubes:
        return False
    binate = _select_binate_input(sop)
    if binate is None:
        # Unate cover: tautology iff it contains the universal cube
        # (classic unate-reduction result).
        return sop.is_const1_syntactic()
    return _tautology(sop.cofactor(binate, True)) and _tautology(
        sop.cofactor(binate, False)
    )


def _complement(sop: Sop) -> Sop:
    if not sop.cubes:
        return Sop.const1(sop.ninputs)
    if sop.is_const1_syntactic():
        return Sop.const0(sop.ninputs)
    if len(sop.cubes) == 1:
        # De Morgan on a single cube.
        cube = sop.cubes[0]
        cubes = []
        for i, ch in enumerate(cube):
            if ch == "-":
                continue
            chars = ["-"] * sop.ninputs
            chars[i] = "0" if ch == "1" else "1"
            cubes.append("".join(chars))
        return Sop(sop.ninputs, tuple(cubes))
    index = _select_binate_input(sop)
    if index is None:
        # Unate: pick any support input to split on.
        support = sop.support()
        if not support:
            return Sop.const0(sop.ninputs)
        index = min(support)
    pos = _complement(sop.cofactor(index, True))
    neg = _complement(sop.cofactor(index, False))
    lit_pos = Sop.literal(sop.ninputs, index, True)
    lit_neg = Sop.literal(sop.ninputs, index, False)
    return lit_pos.and_(pos).or_(lit_neg.and_(neg)).scc_minimal()


def _cube_redundant(sop: Sop, skip: int) -> bool:
    """Is cube ``skip`` contained in the rest of the cover?"""
    cube = sop.cubes[skip]
    rest = [c for i, c in enumerate(sop.cubes) if i != skip]
    # Cube is redundant iff cofactoring the rest against it is a tautology.
    assignment = {i: ch == "1" for i, ch in enumerate(cube) if ch != "-"}
    reduced = Sop(sop.ninputs, tuple(rest)).restrict(assignment)
    return _tautology(reduced)


def _try_expand_cube(sop: Sop, index: int) -> Optional[str]:
    """Try removing literals from cube ``index`` while staying in the cover."""
    cube = sop.cubes[index]
    changed = False
    for pos in range(len(cube)):
        if cube[pos] == "-":
            continue
        candidate = cube[:pos] + "-" + cube[pos + 1 :]
        # The expansion is valid iff the candidate is contained in the cover.
        assignment = {i: ch == "1" for i, ch in enumerate(candidate) if ch != "-"}
        if _tautology(sop.restrict(assignment)):
            cube = candidate
            changed = True
    return cube if changed else None


def _minimize(sop: Sop) -> Sop:
    current = sop.scc_minimal()
    for _ in range(8):  # fixpoint with a hard bound
        changed = False
        # 1. distance-1 merges: a cube pair differing in one opposed literal.
        cubes = list(current.cubes)
        merged: List[str] = []
        used = [False] * len(cubes)
        for i in range(len(cubes)):
            if used[i]:
                continue
            for j in range(i + 1, len(cubes)):
                if used[j]:
                    continue
                if cube_distance(cubes[i], cubes[j]) == 1:
                    a, b = cubes[i], cubes[j]
                    if all(
                        ca == cb or (ca != "-" and cb != "-" and ca != cb)
                        for ca, cb in zip(a, b)
                    ):
                        # identical except the single conflicting position
                        pos = next(
                            k
                            for k, (ca, cb) in enumerate(zip(a, b))
                            if ca != "-" and cb != "-" and ca != cb
                        )
                        merged.append(a[:pos] + "-" + a[pos + 1 :])
                        used[i] = used[j] = True
                        changed = True
                        break
            if not used[i]:
                merged.append(cubes[i])
                used[i] = True
        current = Sop(current.ninputs, tuple(merged)).scc_minimal()
        # 2. literal expansion
        expanded: List[str] = []
        for i in range(len(current.cubes)):
            bigger = _try_expand_cube(current, i)
            if bigger is not None:
                expanded.append(bigger)
                changed = True
            else:
                expanded.append(current.cubes[i])
        current = Sop(current.ninputs, tuple(expanded)).scc_minimal()
        # 3. redundant-cube removal
        i = 0
        while i < len(current.cubes):
            if len(current.cubes) > 1 and _cube_redundant(current, i):
                current = Sop(
                    current.ninputs,
                    tuple(c for j, c in enumerate(current.cubes) if j != i),
                )
                changed = True
            else:
                i += 1
        if not changed:
            break
    return current
