"""Deterministic seed derivation for parallel Monte Carlo trials.

Every random stream in cascadelab is seeded by mixing one 64-bit master
seed with a list of context tokens (experiment tag, model name, cell
parameters, trial index).  The mixer is SplitMix64 (Steele, Lea & Flood's
finalizer, the same one java.util.SplittableRandom uses); string tokens
are first reduced to 64 bits with FNV-1a.  Distinct token sequences give
independent, reproducible streams, so trials can run in any order or in
parallel without changing results.

The generators draw through :class:`_Replay`: numpy's own values, computed
in plain Python from raw words fetched in bulk, so a per-edge loop makes no
numpy call per draw.
"""

from __future__ import annotations

from collections.abc import Iterator
from operator import length_hint
from weakref import proxy

import numpy as np

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_MUL1 = 0xBF58476D1CE4E5B9
_MIX_MUL2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64(x: int) -> int:
    """One SplitMix64 step: advance x by the golden gamma and finalize."""
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX_MUL1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX_MUL2) & _MASK64
    return x ^ (x >> 31)


def _token64(token: int | str) -> int:
    """Reduce a context token to 64 bits (FNV-1a for strings)."""
    if isinstance(token, int):
        return token & _MASK64
    if isinstance(token, str):
        h = _FNV_OFFSET
        for byte in token.encode("utf-8"):
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
        return h
    raise TypeError(f"seed token must be int or str, got {type(token).__name__}")


def derive_seed(master_seed: int, *tokens: int | str) -> int:
    """Derive a 64-bit stream seed from the master seed and context tokens.

    The same (master_seed, tokens) always yields the same seed; different
    token sequences collide only with probability ~2^-64 per pair.
    """
    state = splitmix64(master_seed & _MASK64)
    for token in tokens:
        state = splitmix64(state ^ _token64(token))
    return state


def derive_trial_seed(
    master_seed: int, experiment_tag: str, model: str, n: int, trial_index: int
) -> int:
    """Seed for one Monte Carlo trial of one experiment cell."""
    return derive_seed(master_seed, experiment_tag, model, n, trial_index)


def rng_from(master_seed: int, *tokens: int | str) -> np.random.Generator:
    """A PCG64 generator on the derived stream for (master_seed, tokens)."""
    return np.random.Generator(np.random.PCG64(derive_seed(master_seed, *tokens)))


_MASK32 = (1 << 32) - 1
_WORDS_PER_FETCH = 1 << 14
_WORDS_PER_PIECE = 1 << 10  # words turned into Python ints at a time


def _words(replay: _Replay) -> Iterator[int]:  # a weak proxy: no cycle keeps a replay alive
    while True:
        replay._piece = iter(replay._ahead(_WORDS_PER_PIECE).tolist())
        replay._at += _WORDS_PER_PIECE
        yield from replay._piece


class _Replay:
    """The draws of numpy ``Generator(PCG64)`` ``rng``, replayed from its raw
    64-bit words, value for value, provided ``rng`` draws nothing itself:

    * ``random()`` is ``(word >> 11) * 2**-53``;
    * ``integers(0, high)`` draws nothing for ``high == 1`` and otherwise
      runs Lemire's multiply-and-reject on 32-bit halves up to 2**32, on
      words above.  A split word gives its low half first; the high half
      waits for the next 32-bit draw, while whole-word draws pass it by;
    * ``choice(pop, size, replace=False)`` is Floyd's algorithm, then a
      shuffle of the picks; for pop > 10000 and size > pop // 50 it is a
      shuffle of the tail of ``range(pop)`` instead.
    """

    __slots__ = ("_bits", "_buf", "_at", "_piece", "_next64", "_half", "__weakref__")

    def __init__(self, rng: np.random.Generator):
        self._bits = rng.bit_generator
        self._buf, self._at = np.empty(0, dtype=np.uint64), 0  # raw words, next one
        self._piece: Iterator[int] = iter(())  # words the scalar draws take next
        self._next64 = _words(proxy(self)).__next__
        self._half = -1  # pending high half of a split word, or -1

    def _ahead(self, count: int) -> np.ndarray:  # the next count words past the pieces
        if self._at + count > len(self._buf):
            fetched = self._bits.random_raw(max(count, _WORDS_PER_FETCH))
            self._buf, self._at = np.concatenate([self._buf[self._at:], fetched]), 0
        return self._buf[self._at:self._at + count]

    def random(self) -> float:
        return (self._next64() >> 11) * (1.0 / (1 << 53))

    def _next32(self) -> int:
        half = self._half
        if half >= 0:
            self._half = -1
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def halves(self, k: int) -> np.ndarray:
        """The next k 32-bit draws as uint64 (the pending half, then each
        word's low and high half), which only ``skip`` takes."""
        self._at -= length_hint(self._piece)  # the scalar draws restart at _at
        self._piece, self._next64 = iter(()), _words(proxy(self)).__next__
        lead = [] if self._half < 0 else [self._half]
        words = self._ahead((k - len(lead) + 1) // 2)
        return np.concatenate([np.array(lead, dtype=np.uint64),
                               np.column_stack([words & _MASK32, words >> 32]).ravel()])[:k]

    def skip(self, k: int) -> None:
        """Take the first k draws that ``halves`` just showed."""
        k -= self._half >= 0  # -1: the pending half stays
        if k >= 0:
            self._at += (k + 1) // 2
            self._half = int(self._buf[self._at - 1] >> 32) if k % 2 else -1

    def integers(self, high: int) -> int:
        """Like ``rng.integers(0, high)``."""
        if high <= 1 << 32:  # at 2**32 this takes one half as it is
            if high == 1:
                return 0
            m = self._next32() * high
            if m & _MASK32 < high:
                threshold = (1 << 32) % high
                while m & _MASK32 < threshold:
                    m = self._next32() * high
            return m >> 32
        m = self._next64() * high
        if m & _MASK64 < high:
            threshold = (1 << 64) % high
            while m & _MASK64 < threshold:
                m = self._next64() * high
        return m >> 64

    def choice(self, pop: int, size: int) -> list[int]:
        """Like ``rng.choice(pop, size, replace=False).tolist()``."""
        if pop > 10000 and size > pop // 50:
            moved: dict[int, int] = {}
            for i in range(pop - 1, max(pop - size, 1) - 1, -1):
                j = self.integers(i + 1)
                moved[i], moved[j] = moved.get(j, j), moved.get(i, i)
            return [moved.get(k, k) for k in range(pop - size, pop)]
        picks: list[int] = []
        seen: set[int] = set()
        for j in range(pop - size, pop):
            val = self.integers(j + 1)
            if val in seen:
                val = j
            seen.add(val)
            picks.append(val)
        for i in range(size - 1, 0, -1):
            j = self.integers(i + 1)
            picks[i], picks[j] = picks[j], picks[i]
        return picks
