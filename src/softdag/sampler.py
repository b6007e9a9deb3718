"""Sampling function graphs, scoring them, and running them on data.

A :class:`SampledDAG` pins one incoming edge for every argument row and
every output row.  All rows are sampled, including ones no output can
reach; probabilities and gradients only ever account for the rows
reachable backward from the outputs, so unreachable choices marginalize
out and the induced distribution over reachable configurations sums to 1.
``sample_many`` draws a whole :class:`SampledPopulation` at once: one
choice matrix per level, with one row per graph.

Graphs run on data through a :class:`PopulationPlan`, which hash-conses
the nodes of a whole population: each distinct ``(basis, child ids)`` node
is computed once per batch, and :func:`population_fitness` scores each
distinct ``(node, output)`` column once.  ``evaluate`` and
``evaluate_recurrent`` are the one-graph case of the same plan.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .network import Network

__all__ = [
    "SampledDAG",
    "SampledPopulation",
    "sample",
    "sample_many",
    "reachable_images",
    "log_probability",
    "evaluate",
    "evaluate_recurrent",
    "fitness",
    "PopulationPlan",
    "population_fitness",
    "most_likely_dag",
    "dag_to_text",
    "dag_from_text",
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
    cannot change another graph.
    """

    choices: tuple[np.ndarray, ...]
    output_choices: np.ndarray

    def __post_init__(self) -> None:
        for matrix in (*self.choices, self.output_choices):
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

    def arg_codes(self, network: Network, graphs=slice(None)) -> list[np.ndarray]:
        """Per level, the given graphs' argument choices as global source
        codes, shape ``(graphs, M)``."""
        return [network.arg_codes[q][c[graphs]] for q, c in enumerate(self.choices)]


def _draw(probs: np.ndarray, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` draws from every row of ``probs``, shape ``(count, rows)``.

    Each row is one binary search for all ``count`` uniforms, so a draw
    costs O(log sources) per choice however wide the rows are.
    """
    cum = np.cumsum(probs, axis=1)
    r = rng.random((count, probs.shape[0]))
    idx = np.empty(r.shape, dtype=np.int64)
    for m in range(probs.shape[0]):
        idx[:, m] = np.searchsorted(cum[m], r[:, m], side="right")
    return np.minimum(idx, probs.shape[1] - 1, out=idx)


def sample_many(network: Network, rng: np.random.Generator, count: int) -> SampledPopulation:
    """Draw ``count`` graphs from the network's current distribution.

    Every row's index is drawn from its own categorical; draw order is
    fixed (levels bottom-up, then the outputs; graph-major within each), so
    a given generator state always produces the same graphs.
    """
    return SampledPopulation(
        choices=tuple(_draw(network.level_probs(q), rng, count) for q in range(network.levels)),
        output_choices=_draw(network.output_probs(), rng, count),
    )


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
    u, N = network.u, network.N
    live = np.zeros((len(roots), u + network.levels * N), dtype=bool)
    live[np.arange(len(roots))[:, None], roots] = True
    for q in reversed(range(network.levels)):
        graph, row = np.nonzero(live[:, u + q * N + network.row_image])
        live[graph, arg_codes[q][graph, row]] = True
    return live[:, u:]


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
    live = reachable_images(
        network,
        SampledPopulation.of([dag]).arg_codes(network),
        network.output_codes[dag.output_choices[outs]][None],
    )[0]
    N = network.N
    terms = [network.output_probs()[outs, dag.output_choices[outs]]]
    for q in range(network.levels):
        rows = np.flatnonzero(live[q * N + network.row_image])
        terms.append(network.level_probs(q)[rows, dag.choices[q][rows]])
    with np.errstate(divide="ignore"):
        return float(np.log(np.concatenate(terms)).sum())


# exp underflows to exactly 0.0 below about -745.13
_EXP_ZERO = -746.0


def fitness(predictions, targets, variance: float):
    """Summed Gaussian-kernel similarity; non-finite predictions add zero.

    ``predictions`` is one column of shape ``(n,)``, scored to a float, or
    a block ``(rows, n)`` of columns, scored to one sum per row.
    ``targets`` has the same shape or is a scalar.
    """
    if variance <= 0:
        raise ValueError("variance must be positive")
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim and p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    with np.errstate(all="ignore"):
        k = np.atleast_1d(p - t)
        np.square(k, out=k)
        # -(x / c) as x / -c: IEEE division is sign-symmetric, so this is
        # bit-identical and saves a pass
        np.divide(k, -2.0 * variance, out=k)
        # exp is exactly 0.0 there but takes a slow path; NaN takes the
        # fast one and becomes 0.0 below all the same
        np.copyto(k, np.nan, where=k < _EXP_ZERO)
        np.exp(k, out=k)
        np.divide(k, math.sqrt(2.0 * math.pi * variance), out=k)
    np.fmax(k, 0.0, out=k)
    # summing along the contiguous axis keeps each row's sum bit-identical
    # to the sum of that row on its own
    sums = k.sum(axis=-1)
    return sums if p.ndim > 1 else float(sums)


class PopulationPlan:
    """Hash-consed evaluation plan of several graphs and recurrent depths.

    Ids ``0..u-1`` are the leaves: the input columns, then the constants.
    Every later id is one distinct ``(basis, child ids)`` node of some
    graph, numbered after its children, so id order is a topological
    order.  ``outputs`` holds one candidate per graph and depth, sample-major
    then depth: the id of each of its outputs.  Depth ``d + 1`` takes depth
    ``d``'s output ids as its input leaves.
    """

    def __init__(self, network: Network, dags, depth: int = 1):
        cfg = network.config
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth > 1 and cfg.output_count != cfg.input_count:
            raise ValueError("recurrent evaluation needs output_count == input_count")
        self.network = network
        self.fns: list = []  # per node id - u: the basis function
        self.kids: list[tuple[int, ...]] = []  # per node id - u: child ids
        self.outputs: list[tuple[int, ...]] = []
        if not len(dags):
            return
        u, N, levels = network.u, network.N, network.levels
        slot = network.slot_offset
        # one key per basis name, so repeated occurrences share nodes
        first: dict[str, int] = {}
        names = [first.setdefault(b.name, i) for i, b in enumerate(network.bases)]
        fns = [b.fn for b in network.bases]
        population = SampledPopulation.of(dags)
        codes = population.arg_codes(network)
        out_codes = network.output_codes[population.output_choices]
        live = reachable_images(network, codes, out_codes)
        # per graph, its live images in ascending code order: images read
        # only lower levels, so children come first
        dag_of, image_of = np.nonzero(live)
        bounds = np.searchsorted(dag_of, np.arange(len(dags) + 1)).tolist()
        image_of = image_of.tolist()
        codes = [c.tolist() for c in codes]
        constants = list(range(cfg.input_count, u))
        ids: dict[tuple, int] = {}
        for r, outs in enumerate(out_codes.tolist()):
            nodes = []
            for f in image_of[bounds[r]:bounds[r + 1]]:
                q, i = divmod(f, N)
                nodes.append((u + f, names[i], fns[i], codes[q][r][slot[i]:slot[i + 1]]))
            id_of = list(range(u)) + [0] * (levels * N)
            for d in range(depth):
                if d:
                    id_of[:u] = [*self.outputs[-1], *constants]
                for code, name, fn, kid_codes in nodes:
                    key = (name, *map(id_of.__getitem__, kid_codes))
                    k = ids.get(key)
                    if k is None:
                        k = ids[key] = u + len(self.kids)
                        self.fns.append(fn)
                        self.kids.append(key[1:])
                    id_of[code] = k
                self.outputs.append(tuple(map(id_of.__getitem__, outs)))

    def run(self, X: np.ndarray, sink) -> None:
        """Evaluate every node once, in id order, on the float64 batch ``X``
        of shape ``(n, input_count)``.

        ``sink(id, values)`` receives each candidate output id's values as
        soon as they exist; every other value is dropped after its last
        consumer, so memory holds only the live frontier of the population.
        """
        cfg = self.network.config
        n = X.shape[0]
        u = self.network.u
        values: list = [X[:, k] for k in range(cfg.input_count)]
        values += [np.full(n, c) for c in cfg.constants]
        values += [None] * len(self.kids)
        last = [-1] * len(values)
        for k, kids in enumerate(self.kids, start=u):
            for c in kids:
                last[c] = k
        wanted = {k for outs in self.outputs for k in outs}
        for k in range(u):
            if k in wanted:
                sink(k, values[k])
        with np.errstate(all="ignore"):
            for k, (fn, kids) in enumerate(zip(self.fns, self.kids), start=u):
                value = np.asarray(fn(*[values[c] for c in kids]), dtype=np.float64)
                for c in kids:
                    if last[c] == k:
                        values[c] = None
                if last[k] > k:
                    values[k] = value
                if k in wanted:
                    sink(k, value)


# Columns scored per ``fitness`` call: 32 rows of a 1000-row batch are 256 KB,
# so memory stays bounded whatever the population size.
SCORE_BLOCK_ROWS = 32


class _BlockScorer:
    """Fitness of each distinct ``(node, output)`` column, in row blocks.

    Each column's residual ``value - Y[:, j]`` is written into the next row
    of a fixed block as soon as the node is computed; a full block is
    scored by one ``fitness`` call.
    """

    def __init__(self, outputs, Y: np.ndarray, variance: float):
        self.targets = np.ascontiguousarray(Y.T)
        self.variance = variance
        columns: dict[tuple[int, int], int] = {}
        self.index = np.array(
            [[columns.setdefault((k, j), len(columns)) for j, k in enumerate(outs)]
             for outs in outputs],
            dtype=np.intp,
        ).reshape(len(outputs), self.targets.shape[0])
        self.by_node: dict[int, list[tuple[int, int]]] = {}
        for (k, j), col in columns.items():
            self.by_node.setdefault(k, []).append((j, col))
        self.scores = np.empty(len(columns))
        rows = min(SCORE_BLOCK_ROWS, len(columns))
        self.block = np.empty((rows, self.targets.shape[1]))
        self.pending: list[int] = []

    def __call__(self, k: int, value: np.ndarray) -> None:
        for j, col in self.by_node[k]:
            np.subtract(value, self.targets[j], out=self.block[len(self.pending)])
            self.pending.append(col)
            if len(self.pending) == len(self.block):
                self.flush()

    def flush(self) -> None:
        if self.pending:
            rows = len(self.pending)
            self.scores[self.pending] = fitness(self.block[:rows], 0.0, self.variance)
            self.pending.clear()


def population_fitness(network: Network, dags, X, Y, depth: int, variance: float) -> np.ndarray:
    """Fitness matrix of a population: one row per candidate, one column
    per output.

    Candidate ``r * depth + d - 1`` is graph ``r`` self-composed ``d``
    times.  Each distinct node is evaluated once and each distinct
    ``(node, output)`` column is scored once; every entry equals
    ``fitness`` of that candidate's ``evaluate``/``evaluate_recurrent``
    column bit for bit.
    """
    X = _check_batch(network, X)
    Y = np.asarray(Y, dtype=np.float64)
    if Y.shape != (X.shape[0], network.config.output_count):
        raise ValueError(f"targets of shape {Y.shape} for a batch of shape {X.shape}")
    plan = PopulationPlan(network, dags, depth)
    scorer = _BlockScorer(plan.outputs, Y, variance)
    plan.run(X, scorer)
    scorer.flush()
    return scorer.scores[scorer.index]


def _check_batch(network: Network, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != network.config.input_count:
        raise ValueError(
            f"expected batch of shape (n, {network.config.input_count}), got {X.shape}"
        )
    return X


def _evaluate_depths(network: Network, dag: SampledDAG, X, depth: int) -> list[np.ndarray]:
    plan = PopulationPlan(network, [dag], depth)
    X = _check_batch(network, X)
    got: dict[int, np.ndarray] = {}
    plan.run(X, got.__setitem__)
    return [np.column_stack([got[k] for k in outs]) for outs in plan.outputs]


def evaluate(network: Network, dag: SampledDAG, X) -> np.ndarray:
    """Run the sampled function on a batch.

    ``X`` has one row per sample and ``input_count`` columns; constants are
    appended internally.  Only the output-reachable subgraph is computed.
    Non-finite intermediates propagate to the affected output entries only.
    """
    return _evaluate_depths(network, dag, X, 1)[0]


def evaluate_recurrent(network: Network, dag: SampledDAG, X, depth: int) -> list[np.ndarray]:
    """Self-compose the sampled function ``depth`` times.

    Element ``d`` (1-based) of the result is the depth-``d`` output batch.
    Requires the output width to equal the input width so outputs can be
    fed back in; a sentinel at depth ``d`` stays a sentinel at all deeper
    depths for that sample.
    """
    return _evaluate_depths(network, dag, X, depth)


# ---------------------------------------------------------------------------
# text form: one "(level, row, index)" triple per line, outputs last


def dag_to_text(network: Network, dag: SampledDAG) -> str:
    lines = []
    for level, idx in enumerate(dag.choices):
        for row, choice in enumerate(idx):
            lines.append(f"{level} {row} {int(choice)}")
    out_level = network.levels
    for j, choice in enumerate(dag.output_choices):
        lines.append(f"{out_level} {j} {int(choice)}")
    return "\n".join(lines) + "\n"


def dag_from_text(network: Network, text: str) -> SampledDAG:
    choices = [np.zeros(network.M, dtype=np.int64) for _ in range(network.levels)]
    out = np.zeros(network.config.output_count, dtype=np.int64)
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        level, row, idx = (int(tok) for tok in line.split())
        if level == network.levels:
            if not (0 <= row < network.config.output_count):
                raise ValueError(f"bad output row {row}")
            if not (0 <= idx < network.output_source_count()):
                raise ValueError(f"output choice {idx} out of range")
            out[row] = idx
        else:
            if not (0 <= level < network.levels and 0 <= row < network.M):
                raise ValueError(f"bad row address ({level}, {row})")
            if not (0 <= idx < network.arg_source_count(level)):
                raise ValueError(f"choice {idx} out of range at level {level}")
            choices[level][row] = idx
    return SampledDAG(choices=tuple(choices), output_choices=out)
