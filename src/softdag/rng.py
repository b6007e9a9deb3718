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


def derive_rng(*keys: int) -> np.random.Generator:
    """Generator for the stream addressed by ``keys``: ``default_rng`` of
    their seed sequence, built without its argument checks."""
    seq = np.random.SeedSequence([int(k) & _MASK for k in keys])
    return np.random.Generator(np.random.PCG64(seq))


def derive_seed(*keys: int) -> int:
    """A single integer seed derived from ``keys`` (for nested configs)."""
    seq = np.random.SeedSequence([int(k) & _MASK for k in keys])
    return int(seq.generate_state(1, np.uint64)[0])
