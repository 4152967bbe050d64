"""Deterministic seed derivation for parallel Monte Carlo trials.

Every random stream in cascadelab is seeded by mixing one 64-bit master
seed with a list of context tokens (experiment tag, model name, cell
parameters, trial index).  The mixer is SplitMix64 (Steele, Lea & Flood's
finalizer, the same one java.util.SplittableRandom uses); string tokens
are first reduced to 64 bits with FNV-1a.  Distinct token sequences give
independent, reproducible streams, so trials can run in any order or in
parallel without changing results.  The generators compute numpy's values
from these PCG64 streams' raw words (:mod:`cascadelab.generators`).
"""

from __future__ import annotations

import operator

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
    if hasattr(token, "__index__"):  # a numpy integer too
        return operator.index(token) & _MASK64
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
    state = splitmix64(operator.index(master_seed) & _MASK64)
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
