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

:func:`exact3_distinguishes` asks "which of these input sequences tell
two circuits apart?" for a whole batch at once: each sequence owns a
block of lanes carrying the power-up words a lone :func:`exact3_outputs`
call uses, so one bit-parallel simulation per circuit answers for the
batch, and each answer equals the one-sequence answer.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Union

from repro.netlist.circuit import Circuit, Gate
from repro.sim.logic2 import simulate_parallel

__all__ = [
    "BOT",
    "exact3_outputs",
    "exact3_distinguishes",
    "exact3_batch_size",
    "exact3_equivalent",
]


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
_SAMPLES = 256  # power-up states sampled above _ENUM_LIMIT latches
_SEED = 0  # seed of the sampled power-up states

#: Lanes one batched simulation may use.  A trace's block is as wide as
#: the pair's power-up words: 2^|L| lanes for enumerated latches (up to
#: 65,536) or ``_SAMPLES``.  A run carries as many blocks as fit, and at
#: least one, so a 16-latch circuit is simulated one trace at a time and
#: never pays for a large speculative batch.
BATCH_LANES = 4096


def _repeat(pattern: int, period: int, count: int) -> int:
    """``pattern`` (narrower than ``period`` bits) placed ``count`` times,
    every ``period`` bits."""
    return pattern * (((1 << (period * count)) - 1) // ((1 << period) - 1))


def _block_width(circuit: Circuit, samples: int) -> int:
    """Lanes of one trace: every power-up state, or ``samples`` of them."""
    n = len(circuit.latches)
    return 1 << n if n <= _ENUM_LIMIT else samples


def _powerup_words(circuit: Circuit, samples: int, seed: int) -> Dict[str, int]:
    """Per-latch power-up words, :func:`_block_width` lanes wide."""
    latches = list(circuit.latches)
    width = _block_width(circuit, samples)
    if len(latches) <= _ENUM_LIMIT:
        # Lane p holds power-up state p: latch i reads bit i of p, a word
        # whose every other run of 2^i lanes is set.
        return {
            latch: _repeat(((1 << (1 << i)) - 1) << (1 << i), 2 << i, width >> (i + 1))
            for i, latch in enumerate(latches)
        }
    rng = random.Random(seed)
    words = {l: rng.getrandbits(width) for l in latches}
    # Always include the all-0 and all-1 power-up states.
    for l in latches:
        words[l] &= ~1
        words[l] |= 1 << (width - 1)
    return words


def _simulate(
    circuit: Circuit,
    input_words: Sequence[Mapping[str, int]],
    lanes: int,
    samples: int,
    seed: int,
    topo: Optional[Sequence[Gate]],
) -> List[Dict[str, int]]:
    """One bit-parallel run over ``lanes`` lanes.

    The power-up words are repeated to fill the lanes.  Each trace's block
    of lanes is a multiple of their width, so it holds every power-up state
    a lone replay holds, and an output's values over the block are its
    values over those states.
    """
    width = _block_width(circuit, samples)
    spread = _repeat(1, width, lanes // width)
    state = {
        latch: word * spread
        for latch, word in _powerup_words(circuit, samples, seed).items()
    }
    return simulate_parallel(circuit, input_words, state, lanes, topo)


def _value(word: int, mask: int) -> ExactValue:
    if word == 0:
        return False
    if word == mask:
        return True
    return BOT


def exact3_outputs(
    circuit: Circuit,
    input_vectors: Sequence[Mapping[str, bool]],
    samples: int = _SAMPLES,
    seed: int = _SEED,
    topo: Optional[Sequence[Gate]] = None,
) -> List[Dict[str, ExactValue]]:
    """Per-cycle output values under exact 3-valued semantics.

    Exact when ``|latches| <= 16`` (full enumeration); otherwise a sampled
    approximation: reported Booleans may in truth be ⊥, but reported ⊥ are
    definitely ⊥.  ``topo`` is passed on to :func:`simulate_parallel`.
    """
    width = _block_width(circuit, samples)
    mask = (1 << width) - 1
    input_words = [
        {pi: (mask if vec[pi] else 0) for pi in circuit.inputs}
        for vec in input_vectors
    ]
    raw = _simulate(circuit, input_words, width, samples, seed, topo)
    return [{out: _value(word, mask) for out, word in cycle.items()} for cycle in raw]


def _pair_block(c1: Circuit, c2: Circuit) -> int:
    """Lanes of one trace in a batch.  Both widths are powers of two, so
    the wider is a multiple of the narrower."""
    return max(_block_width(c1, _SAMPLES), _block_width(c2, _SAMPLES))


def exact3_batch_size(c1: Circuit, c2: Circuit) -> int:
    """How many traces one batched run of the pair carries."""
    return max(1, BATCH_LANES // _pair_block(c1, c2))


def _batch_input_words(
    traces: Sequence[Sequence[Mapping[str, bool]]], names: Sequence[str], block: int
) -> List[Dict[str, int]]:
    """Per-cycle input words with trace k on lanes ``[k*block, (k+1)*block)``.

    Traces are left-aligned; a trace's lanes read 0 after its last cycle.
    """
    mask = (1 << block) - 1
    words = []
    for t in range(max(len(trace) for trace in traces)):
        heads = dict.fromkeys(names, 0)
        for k, trace in enumerate(traces):
            if t < len(trace):
                vec, head = trace[t], 1 << (k * block)
                for name in names:
                    if vec[name]:
                        heads[name] |= head
        words.append({name: head * mask for name, head in heads.items()})
    return words


def _blocks_differ(
    raw1: Sequence[Mapping[str, int]],
    raw2: Sequence[Mapping[str, int]],
    lengths: Sequence[int],
    outputs: Sequence[str],
    block: int,
) -> List[bool]:
    """Per block: does some output on one of its trace's cycles differ?"""
    mask = (1 << block) - 1
    hits = [False] * len(lengths)
    for t, (row1, row2) in enumerate(zip(raw1, raw2)):
        live = [k for k, n in enumerate(lengths) if n > t and not hits[k]]
        if not live:
            continue
        for out in outputs:
            w1, w2 = row1[out], row2[out]
            if w1 == w2:
                continue
            diff = w1 ^ w2
            for k in live:
                shift = k * block
                if hits[k] or not (diff >> shift) & mask:
                    continue
                # The blocks differ, so unless both are ⊥ (mixed) the
                # trace distinguishes the circuits.
                b1, b2 = (w1 >> shift) & mask, (w2 >> shift) & mask
                if b1 in (0, mask) or b2 in (0, mask):
                    hits[k] = True
    return hits


def exact3_distinguishes(
    c1: Circuit,
    c2: Circuit,
    traces: Sequence[Sequence[Mapping[str, bool]]],
    topo1: Optional[Sequence[Gate]] = None,
    topo2: Optional[Sequence[Gate]] = None,
) -> Iterator[bool]:
    """Per trace, in order: do the circuits visibly differ on it (Def. 1)?

    An output that is ⊥ in one circuit and Boolean in the other, or
    Boolean in both with different values, on some cycle of the trace
    distinguishes them.  Each answer equals the one :func:`exact3_outputs`
    gives trace by trace at its default ``samples`` and ``seed``: trace k
    of a run owns the lanes ``[k*B, (k+1)*B)``, which carry each
    circuit's power-up words (repeated where one circuit's are narrower
    than ``B``, which leaves the set of power-up states as it is), and is
    read only on its own cycles.

    Traces are simulated in runs of :func:`exact3_batch_size` traces, one
    bit-parallel simulation per circuit per run.  A run starts when its
    first answer is asked for, so a caller that stops early pays for no
    later run.  ``topo1``/``topo2`` are the circuits' ``topo_gates()``.
    """
    block = _pair_block(c1, c2)
    size = exact3_batch_size(c1, c2)
    names = list(dict.fromkeys([*c1.inputs, *c2.inputs]))
    if topo1 is None:
        topo1 = c1.topo_gates()
    if topo2 is None:
        topo2 = c2.topo_gates()
    for start in range(0, len(traces), size):
        run = traces[start : start + size]
        input_words = _batch_input_words(run, names, block)
        lanes = block * len(run)
        raw1 = _simulate(c1, input_words, lanes, _SAMPLES, _SEED, topo1)
        raw2 = _simulate(c2, input_words, lanes, _SAMPLES, _SEED, topo2)
        yield from _blocks_differ(
            raw1, raw2, [len(trace) for trace in run], c1.outputs, block
        )


def exact3_equivalent(
    c1: Circuit,
    c2: Circuit,
    input_sequences: Sequence[Sequence[Mapping[str, bool]]],
    samples: int = _SAMPLES,
    seed: int = _SEED,
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
