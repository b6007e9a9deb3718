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


# The most compares per selection row, draws times sources, at which
# ``_draw`` counts a block's draws in one compare; past it each row makes
# one binary search, which costs about the same whatever the draw count.
# Against the searches mapped over a block's rows, the compare took
# 0.4-0.8x their time on blocks of 8-13 rows up to 400 compares per row,
# about the same at 800 and 1.0-1.7x from 1200 on; on blocks of 1-4 rows
# it was up to 3x slower at 800, a few us.  On MNIST's 791-source rows it
# was 13x slower.
DRAW_ROW_COMPARES = 1024


def _draw(probs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The draws of every row of ``probs`` on the uniforms ``r``, of shape
    ``(count, rows)``.

    A draw is the number of its row's cumulative sums at or below its
    uniform.  The sums never decrease, so this is ``searchsorted(...,
    side="right")`` of each row, and it is one of two forms: a count over
    one compare of the whole block, or, for wide rows or many draws
    (``DRAW_ROW_COMPARES``), one binary search per row, which costs
    O(log sources) per choice however wide the rows are.
    """
    cum = probs.cumsum(axis=1)
    if len(r) * probs.shape[1] <= DRAW_ROW_COMPARES:
        # sources leading and contiguous: the sum runs over whole planes
        idx = np.less_equal(np.ascontiguousarray(cum.T)[:, None, :], r).sum(axis=0)
    else:
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
    choices = tuple(
        np.argmax(w, axis=1).astype(np.int64) for w in network.weights
    )
    out = np.argmax(network.output_weights, axis=1).astype(np.int64)
    return SampledDAG(choices=choices, output_choices=out)


def reachable_images(network: Network, arg_codes, roots) -> np.ndarray:
    """Which images each graph reaches backward from its roots.

    ``arg_codes[q]`` holds each graph's level-``q`` choices as global source
    codes, shape ``(graphs, M)``; ``roots`` the codes each graph starts
    from, shape ``(graphs, k)``.  Returns a ``(graphs, levels * N)`` bool
    matrix whose column ``q * N + i`` is image ``(q, i)``.  Images read only
    lower levels, so one pass from the top level down is complete.
    """
    u, N, M = network.u, network.N, network.M
    width = u + network.levels * N
    live = np.zeros((len(roots), width), dtype=bool)
    # flat indices: a graph's cells start at ``graph * width``
    cells = live.reshape(-1)
    start = np.arange(0, live.size, width)
    cells[(start[:, None] + roots).ravel()] = True
    for q in reversed(range(network.levels)):
        # ``graph * M + row`` of each live argument row
        hit = live[:, u + q * N + network.row_image].ravel().nonzero()[0]
        cells[start[hit // M] + arg_codes[q].ravel().take(hit)] = True
    return live[:, u:]


def reached_rows(network: Network, population: SampledPopulation, graph, roots, live=None):
    """For each level in turn, ``(pair, row, chosen)``: the argument rows
    that pair ``k`` reaches from the source codes ``roots[k]`` in graph
    ``graph[k]`` of ``population``, pair-major, and the source index each
    row chose.  ``live``, if given, is the ``reachable_images`` of the
    pairs, already known."""
    if live is None:
        arg_codes = [codes[c[graph]] for codes, c in zip(network.arg_codes, population.choices)]
        live = reachable_images(network, arg_codes, roots)
    for q, choices in enumerate(population.choices):
        pair, row = live[:, q * network.N + network.row_image].nonzero()
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
