"""Exact 3-valued semantics (paper Def. 1).

Under the paper's notion, a circuit's output on an input sequence π is a
Boolean value *o* if every power-up state of the latches yields *o*, and ⊥
otherwise.  Unlike conservative 3-valued simulation, distinct occurrences of
unknown power-up values are correlated — so Fig. 1's ``q XOR q`` is a defined
0, not X.

For circuits with few latches we enumerate all ``2^|L|`` power-up states
(bit-parallel, so cost is ~one simulation); for larger circuits we sample a
configurable number of random power-up states, which is sound for
*disproving* definedness/equality and heuristic for confirming it.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.netlist.circuit import Circuit, Gate
from repro.sim.logic2 import simulate_parallel

__all__ = ["BOT", "exact3_outputs", "exact3_equivalent"]


class _BotType:
    """Singleton marker for the undefined output value ⊥."""

    _instance: Optional["_BotType"] = None

    def __new__(cls) -> "_BotType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "⊥"


BOT = _BotType()

ExactValue = Union[bool, _BotType]

_ENUM_LIMIT = 16  # enumerate exactly up to this many latches


def _powerup_words(
    circuit: Circuit, rng: random.Random, samples: int
) -> Tuple[Dict[str, int], int]:
    """Per-latch power-up words; returns (words, width)."""
    latches = list(circuit.latches)
    n = len(latches)
    if n <= _ENUM_LIMIT:
        width = 1 << n
        words = {}
        for i, latch in enumerate(latches):
            # Bit p of the word = bit i of the state index p.
            word = 0
            for p in range(width):
                if (p >> i) & 1:
                    word |= 1 << p
            words[latch] = word
        return words, width
    width = samples
    words = {l: rng.getrandbits(width) for l in latches}
    # Always include the all-0 and all-1 power-up states.
    for l in latches:
        words[l] &= ~1
        words[l] |= 1 << (width - 1)
    return words, width


def exact3_outputs(
    circuit: Circuit,
    input_vectors: Sequence[Mapping[str, bool]],
    samples: int = 256,
    seed: int = 0,
    topo: Optional[Sequence[Gate]] = None,
) -> List[Dict[str, ExactValue]]:
    """Per-cycle output values under exact 3-valued semantics.

    Exact when ``|latches| <= 16`` (full enumeration); otherwise a sampled
    approximation: reported Booleans may in truth be ⊥, but reported ⊥ are
    definitely ⊥.  ``topo`` is passed on to :func:`simulate_parallel`.
    """
    rng = random.Random(seed)
    words, width = _powerup_words(circuit, rng, samples)
    mask = (1 << width) - 1
    input_words = [
        {pi: (mask if vec[pi] else 0) for pi in circuit.inputs}
        for vec in input_vectors
    ]
    if not circuit.latches:
        width = 1
        mask = 1
        input_words = [
            {pi: (1 if vec[pi] else 0) for pi in circuit.inputs}
            for vec in input_vectors
        ]
        words = {}
    raw = simulate_parallel(circuit, input_words, words, width, topo)
    result: List[Dict[str, ExactValue]] = []
    for cycle in raw:
        row: Dict[str, ExactValue] = {}
        for out, word in cycle.items():
            word &= mask
            if word == 0:
                row[out] = False
            elif word == mask:
                row[out] = True
            else:
                row[out] = BOT
        result.append(row)
    return result


def exact3_equivalent(
    c1: Circuit,
    c2: Circuit,
    input_sequences: Sequence[Sequence[Mapping[str, bool]]],
    samples: int = 256,
    seed: int = 0,
    warmup: int = 0,
    warmup_trials: int = 4,
) -> bool:
    """Check Def. 1 equivalence over the given input sequences.

    Both circuits must share input/output names.  This is a *testing* oracle
    (complete only if the sequences and power-up enumeration are exhaustive);
    the real decision procedure is the CBF/EDBF reduction in
    :mod:`repro.core`.

    ``warmup > 0`` switches to the *unknown-past* semantics the paper's CBF
    construction encodes: the circuits are compared only after a shared,
    concrete prefix of ``warmup`` random input vectors (``warmup_trials``
    different prefixes are tried), with power-up still quantified.  Plain
    Def. 1 (``warmup = 0``) additionally distinguishes circuits by their
    transient power-up behaviour, which retiming with latch-chain sharing
    does not preserve — see EXPERIMENTS.md for the discussion.
    """
    if set(c1.inputs) != set(c2.inputs) or set(c1.outputs) != set(c2.outputs):
        raise ValueError("circuits must share input/output names")
    rng = random.Random((seed << 1) ^ 0x5EED)
    if warmup > 0:
        prefixes = [
            [
                {pi: rng.random() < 0.5 for pi in sorted(c1.inputs)}
                for _ in range(warmup)
            ]
            for _ in range(warmup_trials)
        ]
    else:
        prefixes = [[]]
    for pi_seq in input_sequences:
        for prefix in prefixes:
            full = list(prefix) + list(pi_seq)
            o1 = exact3_outputs(c1, full, samples=samples, seed=seed)
            o2 = exact3_outputs(c2, full, samples=samples, seed=seed)
            for row1, row2 in zip(o1[len(prefix) :], o2[len(prefix) :]):
                for out in c1.outputs:
                    if row1[out] is not row2[out] and row1[out] != row2[out]:
                        return False
    return True
