"""The host's speed at a moment, from a fixed piece of work.

The benchmark shares a few cores of a busy host.  For spells of ten
seconds to minutes, other tenants make every instruction it runs take up
to twice as long, so two runs of the same code can differ by a third, and
neither a median over a run nor the fastest of several repeats removes
that.

A fixed piece of numpy and interpreter work, independent of ``softdag``,
is timed right after each epoch.  It slows with the host, so
``epoch time * REFERENCE_S / piece time`` is what the epoch would take
while the host runs the piece in ``REFERENCE_S``: the host's speed divides
out, a change to ``softdag`` does not.  An epoch lasts tens to hundreds
of pieces and so meets more of the short stalls that other tenants cause;
the mean of the pieces around an epoch (``around``) weighs those stalls
as the epoch meets them.  On a 2-vCPU 2.1 GHz x86 host the raw epoch
median of one workload moved between 3.5 and 6.6 ms over four minutes
while the scaled one stayed within 3% of its median.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# about the piece's time on a quiet 2.1 GHz x86 core; it only scales the figures
REFERENCE_S = 100e-6
NEIGHBOURS = 2  # pieces on each side of an epoch's own that ``around`` averages

_X, _Y = np.random.default_rng(0).standard_normal((2, 1000))


def _work(rounds: int) -> float:
    s = 0.0
    for i in range(rounds):
        a = np.sin(_X) * _Y + i
        s += float((a > 0).sum())
        s += len({j: 2 * j for j in range(20)})
    return s


def piece_s() -> float:
    """The time of one piece now, in seconds.  One untimed round first
    warms the caches the epoch before it left cold."""
    _work(1)
    t = perf_counter()
    _work(8)
    return perf_counter() - t


def around(pieces: np.ndarray) -> np.ndarray:
    """Each piece's time averaged with its neighbours'."""
    i = np.arange(len(pieces))
    lo = np.maximum(i - NEIGHBOURS, 0)
    hi = np.minimum(i + NEIGHBOURS + 1, len(pieces))
    total = np.concatenate([[0.0], np.cumsum(pieces)])
    return (total[hi] - total[lo]) / (hi - lo)


def scale(seconds, piece):
    """``seconds`` measured while the piece took ``piece`` seconds, at the
    reference speed."""
    return seconds * REFERENCE_S / piece
