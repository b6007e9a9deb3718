"""Deterministic derivation of independent random streams.

Every stochastic component derives its generator from integer keys
(seed, stream id, epoch/trial index, ...) so that runs are bit-identical
no matter how work is scheduled.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1

# Stream ids. Keep stable: changing them changes every seeded run.
EPOCH_STREAM = 1
DATA_STREAM = 2
TRIAL_STREAM = 3
SPLIT_STREAM = 4

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

_BLOCK = 64  # last keys seeded in one pass
_PREFIXES = 8  # key prefixes whose current block is kept
_blocks: dict = {}  # prefix -> (the block's first last key, its seed words)
_Seeded = None  # the ISeedSequence that hands PCG64 its words; see _seed_words


def derive_rng(*keys: int) -> np.random.Generator:
    """Generator for the stream addressed by ``keys``: ``default_rng`` of
    their seed sequence.  The words PCG64 seeds itself from are computed
    for 64 consecutive last keys at once and kept per key prefix; the
    generator's state is the seed sequence's, bit for bit."""
    masked = [int(k) & _MASK for k in keys]
    if not masked or masked[-1] >= (1 << 32) - _BLOCK:
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(masked)))
    *prefix, last = masked
    prefix = tuple(prefix)
    start = last - last % _BLOCK
    block = _blocks.pop(prefix, None)
    if block is None or block[0] != start:
        block = (start, _seed_words(prefix, start))
    _blocks[prefix] = block
    if len(_blocks) > _PREFIXES:
        del _blocks[next(iter(_blocks))]
    return np.random.Generator(np.random.PCG64(_Seeded(block[1][last - start])))


def _seed_words(prefix: tuple, start: int) -> np.ndarray:
    """``SeedSequence([*prefix, last]).generate_state(4, np.uint64)`` for
    each last key ``start .. start + 63``, one row per key: numpy's mixing
    run on ``uint32`` arrays, a column per key."""
    global _Seeded
    if _Seeded is None:  # numpy.random loads on first use, not on import
        from numpy.random.bit_generator import ISeedSequence

        class _Seeded(ISeedSequence):
            """The four uint64 words a PCG64 seeds itself from."""

            def __init__(self, words):
                self.words = words

            def generate_state(self, n_words, dtype=np.uint32):
                if n_words != 4 or dtype is not np.uint64:
                    raise ValueError("holds PCG64's four uint64 seed words only")
                return self.words

    words = [w for k in prefix for w in ((k & 0xFFFFFFFF, k >> 32) if k >> 32 else (k,))]
    entropy = np.zeros((max(len(words) + 1, 4), _BLOCK), np.uint32)
    entropy[: len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = np.arange(start, start + _BLOCK, dtype=np.uint32)
    hashes = _consts(_INIT_A, _MULT_A, 4 * len(entropy) + 1)
    pool = _hashmix(entropy[:4], hashes, 0, 4)
    for src in range(4):  # every pool word into the other three
        others = [dst for dst in range(4) if dst != src]
        pool[others] = _mix(pool[others], _hashmix(pool[src], hashes, 4 + 3 * src, 3))
    for src in range(4, len(entropy)):  # entropy past the pool into every word
        pool = _mix(pool, _hashmix(entropy[src], hashes, 4 * src, 4))
    hashes = _consts(_INIT_B, _MULT_B, 9)
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], hashes, 0, 8).astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


def _consts(first: int, mult: int, count: int) -> np.ndarray:
    """The ``count`` hash constants ``first * mult**i`` (mod 2**32), as a column."""
    out = [first]
    for _ in range(count - 1):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, np.uint32)[:, None]


def _hashmix(value: np.ndarray, consts: np.ndarray, at: int, count: int) -> np.ndarray:
    """numpy's ``hashmix`` of ``value`` as its hashes ``at .. at + count - 1``:
    one row per hash."""
    value = (value ^ consts[at: at + count]) * consts[at + 1: at + count + 1]
    return value ^ (value >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x = x * _MIX_L - y * _MIX_R
    return x ^ (x >> 16)


def derive_seed(*keys: int) -> int:
    """A single integer seed derived from ``keys`` (for nested configs)."""
    seq = np.random.SeedSequence([int(k) & _MASK for k in keys])
    return int(seq.generate_state(1, np.uint64)[0])
