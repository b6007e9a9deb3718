"""Sampling function graphs and the reachability of their rows.

A :class:`SampledDAG` pins one incoming edge for every argument row and
every output row.  All rows are sampled, including ones no output can
reach; probabilities and gradients only ever account for the rows
reachable backward from the outputs, so unreachable choices marginalize
out and the induced distribution over reachable configurations sums to 1.
``sample_many`` draws a whole :class:`SampledPopulation` at once: one
choice matrix per level, with one row per graph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .network import Network

__all__ = [
    "SampledDAG",
    "SampledPopulation",
    "sample",
    "sample_many",
    "reachable_images",
    "reached_rows",
    "log_probability",
    "most_likely_dag",
]


@dataclass(frozen=True)
class SampledDAG:
    """One chosen source index per argument row and per output row."""

    choices: tuple[np.ndarray, ...]  # per level, shape (M,), int
    output_choices: np.ndarray  # shape (output_count,), int

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SampledDAG):
            return NotImplemented
        return len(self.choices) == len(other.choices) and all(
            np.array_equal(a, b) for a, b in zip(self.choices, other.choices)
        ) and np.array_equal(self.output_choices, other.output_choices)


@dataclass(frozen=True, eq=False)
class SampledPopulation:
    """Graphs drawn together, one row each in shared choice matrices.

    ``choices[q]`` is the ``(count, M)`` matrix of level-``q`` choices and
    ``output_choices`` the ``(count, output_count)`` output choices.
    Indexing or iterating yields each graph as a :class:`SampledDAG` of row
    views; the matrices are read-only, so writing into one graph's row
    cannot change another graph.  ``probs`` holds the softmax rows
    ``sample_many`` drew from (``Network.block_probs``), else ``None``.
    """

    choices: tuple[np.ndarray, ...]
    output_choices: np.ndarray
    probs: tuple[np.ndarray, ...] | None = None

    def __post_init__(self) -> None:
        for matrix in (*self.choices, self.output_choices, *(self.probs or ())):
            matrix.flags.writeable = False

    @classmethod
    def of(cls, dags) -> "SampledPopulation":
        """The population itself, or a non-empty sequence of graphs stacked."""
        if isinstance(dags, SampledPopulation):
            return dags
        return cls(
            choices=tuple(np.array(c) for c in zip(*(d.choices for d in dags))),
            output_choices=np.array([d.output_choices for d in dags]),
        )

    def __len__(self) -> int:
        return len(self.output_choices)

    def __getitem__(self, index: int) -> SampledDAG:
        # a slice would give one SampledDAG of 2-D matrices, not a population
        index = operator.index(index)
        return SampledDAG(tuple(c[index] for c in self.choices), self.output_choices[index])

    def __iter__(self):
        for *choices, out in zip(*self.choices, self.output_choices):
            yield SampledDAG(tuple(choices), out)


# The widest rows, in sources, whose block ``_draw`` counts in one compare;
# wider rows make one binary search each.  Timed inside lfsr4's
# ``sample_many`` during training (120 epochs per cell, medians), on blocks
# of 1-42 rows at 50-150 draws: the compare took 0.45-0.99x the searches'
# time on blocks of 4 or more rows up to 40 sources, 0.86-1.05x at 48,
# 0.96-1.09x at 56, 1.02-1.20x at 64, 1.4x at 96, 2.5-3.1x at 256 and
# 5-7x at 800; on one-row blocks it was 0.93-1.21x up to 64 sources, a
# microsecond or two.  The counts are bytes, so the gate must stay at most
# 256.
DRAW_COMPARE_SOURCES = 48


def _draw(probs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The draws of every row of ``probs`` on the uniforms ``r``, of shape
    ``(count, rows)``.

    A draw is the number of its row's cumulative sums at or below its
    uniform, capped at the last source, since rounding can leave the last
    sum below a uniform.  The sums never decrease, so this is
    ``searchsorted(..., side="right")`` of each row, clamped.  Rows of at
    most ``DRAW_COMPARE_SOURCES`` sources count every draw in one compare
    against all of their sums but the last, which caps each draw by
    itself; wider rows make one binary search per row, which costs
    O(log sources) per choice however wide the rows are.
    """
    cum = probs.cumsum(axis=1)
    if probs.shape[1] <= DRAW_COMPARE_SOURCES:
        # row-major, then sum, then draw: each compare runs along a row's
        # contiguous draws, and the count sums whole planes of bytes
        hit = np.less_equal(cum[:, :-1, None], np.ascontiguousarray(r.T)[:, None, :])
        count = np.add.reduce(hit.view(np.uint8), axis=1, dtype=np.uint8)
        return np.ascontiguousarray(count.T, dtype=np.int64)
    # one search per row, mapped over the rows without a Python loop
    idx = np.array(list(map(np.ndarray.searchsorted, cum, r.T, repeat("right")))).T.copy()
    return np.minimum(idx, probs.shape[1] - 1, out=idx)


def sample_many(network: Network, rng: np.random.Generator, count: int) -> SampledPopulation:
    """Draw ``count`` graphs from the network's current distribution.

    Every row's index is drawn from its own categorical; draw order is
    fixed (levels bottom-up, then the outputs; graph-major within each), so
    a given generator state always produces the same graphs.  One call
    draws every uniform: the generator fills its output in order, so each
    block's slice holds the doubles that a call of its own would draw.
    """
    probs = network.block_probs()
    r = rng.random(count * sum(map(len, probs)))
    draws = []
    for p in probs:
        draws.append(_draw(p, r[:count * len(p)].reshape(count, len(p))))
        r = r[count * len(p):]
    *choices, out = draws
    return SampledPopulation(choices=tuple(choices), output_choices=out, probs=tuple(probs))


def sample(network: Network, rng: np.random.Generator) -> SampledDAG:
    """Draw a single graph."""
    return sample_many(network, rng, 1)[0]


def most_likely_dag(network: Network) -> SampledDAG:
    """Per-row argmax graph; ties resolve to the lowest source index."""
    # argmax gives int64 (intp) already; ``copy=False`` keeps it uncopied
    choices = tuple(
        np.argmax(w, axis=1).astype(np.int64, copy=False) for w in network.weights
    )
    out = np.argmax(network.output_weights, axis=1).astype(np.int64, copy=False)
    return SampledDAG(choices=choices, output_choices=out)


def reachable_images(network: Network, arg_codes, roots, hits=None) -> np.ndarray:
    """Which images each graph reaches backward from its roots.

    ``arg_codes[q]`` holds each graph's level-``q`` choices as global source
    codes, shape ``(graphs, M)``; ``roots`` the codes each graph starts
    from, shape ``(graphs, k)``.  Returns a ``(graphs, levels * N)`` bool
    matrix whose column ``q * N + i`` is image ``(q, i)``.  Images read only
    lower levels, so one pass from the top level down is complete.
    ``hits``, if given, is a dict that receives per level ``q`` the flat
    index ``graph * M + row`` of each reached argument row, ascending.
    """
    u, M = network.u, network.M
    width = u + network.levels * network.N
    live = np.zeros((len(roots), width), dtype=bool)
    # flat indices: a graph's cells start at ``graph * width``
    cells = live.reshape(-1)
    start = np.arange(0, live.size, width)
    cells[(start[:, None] + roots).ravel()] = True
    images = live[:, u:]
    for q in reversed(range(network.levels)):
        # ``graph * M + row`` of each live argument row
        hit = images[:, network.row_columns[q]].ravel().nonzero()[0]
        cells[start[hit // M] + arg_codes[q].ravel().take(hit)] = True
        if hits is not None:
            hits[q] = hit
    return images


def reached_rows(network: Network, population: SampledPopulation, graph, roots, live=None):
    """For each level in turn, ``(pair, row, chosen)``: the argument rows
    that pair ``k`` reaches from the source codes ``roots[k]`` in graph
    ``graph[k]`` of ``population``, pair-major, and the source index each
    row chose.  ``live``, if given, is the ``reachable_images`` of the
    pairs, already known."""
    if live is None:
        # the walk finds each level's reached rows as it goes
        picked, hits = [c[graph] for c in population.choices], {}
        reachable_images(network, network.source_codes(picked), roots, hits)
        for q, choices in enumerate(picked):
            pair, row = np.divmod(hits[q], network.M)
            yield pair, row, choices.ravel().take(hits[q])
        return
    for q, choices in enumerate(population.choices):
        pair, row = live[:, network.row_columns[q]].nonzero()
        yield pair, row, choices[graph[pair], row]


def log_probability(network: Network, dag: SampledDAG, output_subset=None) -> float:
    """Sum of log edge probabilities over output-reachable rows.

    Each row counts exactly once even when several paths reach it; rows no
    requested output can reach contribute nothing.
    """
    v = network.config.output_count
    if output_subset is None:
        outs = list(range(v))
    else:
        outs = sorted(set(int(j) for j in output_subset))
        if any(j < 0 or j >= v for j in outs):
            raise ValueError("output index out of range")
    roots = network.output_codes[dag.output_choices[outs]][None]
    terms = [network.output_probs()[outs, dag.output_choices[outs]]]
    levels = reached_rows(network, SampledPopulation.of([dag]), np.zeros(1, dtype=np.intp), roots)
    for q, (_, row, chosen) in enumerate(levels):
        terms.append(network.level_probs(q)[row, chosen])
    with np.errstate(divide="ignore"):
        return float(np.log(np.concatenate(terms)).sum())
