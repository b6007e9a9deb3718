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
is computed once per batch, one ``(depth, level)`` round at a time and one
basis call per chunk of stacked nodes, and :func:`population_fitness`
scores each distinct ``(node, output)`` column once, on the distinct rows
of a batch that repeats its rows.  :func:`population_select` returns each
output's fittest candidates and scores exactly only the columns that an
upper bound cannot rule out.  ``evaluate`` and ``evaluate_recurrent`` are
the one-graph case of the same plan.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .network import ConfigError, Network

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
    "population_select",
    "select_top",
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
    probs = network.block_probs()
    return SampledPopulation(
        choices=tuple(_draw(p, rng, count) for p in probs[:-1]),
        output_choices=_draw(probs[-1], rng, count),
        probs=tuple(probs),
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
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if t.ndim and p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    with np.errstate(all="ignore"):
        sums = _kernel_sums(np.atleast_1d(p - t), variance)
    return sums if p.ndim > 1 else float(sums)


# Columns scored per ``fitness`` call on a full batch: 32 rows of a 1000-row
# batch are 256 KB, so memory stays bounded whatever the population size.
# A block of distinct rows holds as many values, and so does a gathered one.
SCORE_BLOCK_ROWS = 32


def _kernel_terms(k: np.ndarray, variance: float) -> np.ndarray:
    """Each lane's ``fitness`` term of the residuals ``k``, in place."""
    if variance <= 0:
        raise ValueError("variance must be positive")
    with np.errstate(all="ignore"):
        np.square(k, out=k)
        # -(x / c) as x / -c: IEEE division is sign-symmetric, so this is
        # bit-identical and saves a pass
        np.divide(k, -2.0 * variance, out=k)
        # exp is exactly 0.0 there but takes a slow path; NaN takes the
        # fast one and becomes 0.0 below all the same
        np.putmask(k, k < _EXP_ZERO, np.nan)
        np.exp(k, out=k)
        np.divide(k, math.sqrt(2.0 * math.pi * variance), out=k)
    return np.fmax(k, 0.0, out=k)


def _kernel_sums(k: np.ndarray, variance: float, lanes=None) -> np.ndarray:
    """``fitness`` of the residuals ``k``, one sum per row; overwrites ``k``.

    With ``lanes``, the columns of ``k`` are the distinct rows of a batch
    and ``lanes[i]`` is the column of batch row ``i``: each row's sum runs
    over ``k[r, lanes]``, gathered ``SCORE_BLOCK_ROWS`` rows at a time.
    """
    terms = _kernel_terms(k, variance)
    # summing along the contiguous axis keeps each row's sum bit-identical
    # to the sum of that row on its own, gathered or not
    if lanes is None:
        return terms.sum(axis=-1)
    sums = np.empty(len(terms))
    gathered = np.empty((min(SCORE_BLOCK_ROWS, len(terms)), len(lanes)))
    for a in range(0, len(terms), SCORE_BLOCK_ROWS):
        rows = terms[a:a + SCORE_BLOCK_ROWS]
        part = gathered[:len(rows)]
        rows.take(lanes, 1, out=part, mode="clip")
        sums[a:a + len(rows)] = part.sum(axis=-1)
    return sums


# Nodes per basis call.  The gathered arguments of a chunk of 4-ary nodes
# on a 1000-row batch are 8 x 4 x 8 KB = 256 KB, so they stay in cache.
CHUNK_NODES = 8


class PopulationPlan:
    """Hash-consed evaluation plan of several graphs and recurrent depths.

    Ids ``0..u-1`` are the leaves: the input columns, then the constants.
    Every later id is one distinct ``(basis, child ids)`` node of some
    graph.  Nodes are interned and run in rounds: round 0 is the leaves,
    and round ``1 + d * levels + q`` is level ``q`` of recurrent depth
    ``d``.  Ids ``bounds[r]..bounds[r + 1] - 1`` are the nodes first met in
    round ``r``; a level reads only lower levels and the depth before it,
    so id order is a topological order.

    ``basis[k - u]`` indexes ``network.bases`` and ``kids[k - u]`` holds
    node ``k``'s child ids, padded with -1 to the largest arity.
    ``outputs`` has one row per graph and depth, sample-major then depth:
    the id of each of its outputs.  Depth ``d + 1`` takes depth ``d``'s
    output ids as its input leaves.

    Values live in the rows of one ``(buffer_rows, n)`` buffer, id ``k`` in
    row ``rows[k]``.  A row is reused once no later round reads it, so the
    buffer holds only the live frontier of the population.
    """

    def __init__(self, network: Network, dags, depth: int = 1):
        cfg = network.config
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth > 1 and cfg.output_count != cfg.input_count:
            raise ValueError("recurrent evaluation needs output_count == input_count")
        self.network = network
        u, N, M, levels = network.u, network.N, network.M, network.levels
        population = _population_of(network, dags)
        graphs = len(population)
        # per graph, the id of every source code, then a cell holding -1
        # for padding and one cell per basis holding its name's first
        # occurrence; a node's key is a row of these cells
        width = u + levels * N + 1 + N
        pad = width - N - 1
        id_of = np.empty((graphs, width), dtype=np.int64)
        id_of[:, :u] = np.arange(u)
        id_of[:, pad] = -1
        id_of[:, pad + 1:] = network.basis_first
        codes = np.full((levels, graphs, M + 1), pad)
        for q, choices in enumerate(population.choices):
            codes[q, :, :M] = network.arg_codes[q][choices]
        out_codes = network.output_codes[population.output_choices]
        live = reachable_images(network, codes[:, :, :M], out_codes)
        # every live image, level-major: its key cells and its id cell
        level, graph, image = np.nonzero(live.reshape(graphs, levels, N).transpose(1, 0, 2))
        base = graph * width
        keys = np.empty((len(graph), 1 + network.image_slots.shape[1]), dtype=np.int64)
        keys[:, 0] = base + pad + 1 + image
        keys[:, 1:] = codes[level[:, None], graph[:, None], network.image_slots[image]]
        keys[:, 1:] += base[:, None]
        cells = base + u + level * N + image
        ends = [0, *np.searchsorted(level, np.arange(1, levels + 1)).tolist()]
        spans = list(zip(ends[:-1], ends[1:]))
        out_cells = np.arange(graphs)[:, None] * width + out_codes
        row_bytes = np.dtype((np.void, keys.itemsize * keys.shape[1]))
        ids: dict[bytes, int] = {}
        fresh_keys = []
        bounds = [0, u]
        outputs = []
        for d in range(depth):
            if d:
                id_of[:, :cfg.input_count] = outputs[-1]
            for a, b in spans:
                # one round: each live image's key as bytes, the keys not
                # met before numbered in order of first occurrence
                found = id_of.take(keys[a:b]).view(row_bytes).ravel().tolist()
                fresh = [k for k in dict.fromkeys(found) if k not in ids]
                ids.update(zip(fresh, range(bounds[-1], bounds[-1] + len(fresh))))
                id_of.put(cells[a:b], list(map(ids.__getitem__, found)))
                fresh_keys += fresh
                bounds.append(bounds[-1] + len(fresh))
            outputs.append(id_of.take(out_cells))
        nodes = np.frombuffer(b"".join(fresh_keys), dtype=np.int64)
        nodes = nodes.reshape(len(ids), keys.shape[1])
        self.basis = nodes[:, 0]
        self.kids = nodes[:, 1:]
        self.bounds = np.array(bounds)
        self.outputs = np.stack(outputs, axis=1).reshape(graphs * depth, cfg.output_count)
        self._schedule([b - a for a, b in zip(bounds, bounds[1:])])

    def _schedule(self, counts: list[int]) -> None:
        """Give each id a buffer row, reusing rows no later round reads, and
        split each round's nodes into runs of one basis."""
        u, N = self.network.u, self.network.N
        # the round after which an id is dead: the last round that reads
        # it, else its own; the extra cell takes the -1 padding
        last = np.repeat(np.arange(len(counts) + 1), [*counts, 1])
        born = last[:-1].copy()
        np.maximum.at(last, self.kids, born[u:, None])
        dying = np.argsort(last[:-1], kind="stable")
        dead = np.searchsorted(last[dying], np.arange(len(counts)), side="right").tolist()
        rows = np.empty(len(born), dtype=np.intp)
        free: list[int] = []
        top = lo = gone = 0
        for count, dead_upto in zip(counts, dead):
            reused = min(count, len(free))
            rows[lo:lo + reused] = free[len(free) - reused:]
            del free[len(free) - reused:]
            rows[lo + reused:lo + count] = range(top, top + count - reused)
            top += count - reused
            lo += count
            free += rows[dying[gone:dead_upto]].tolist()
            gone = dead_upto
        self.rows = rows
        self.buffer_rows = top
        # runs of equal (round, basis), in id order within each run
        group = born[u:] * N + self.basis
        order = np.argsort(group, kind="stable")
        group = group[order]
        starts = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist()] if len(group) else []
        self._groups: list[list] = [[] for _ in counts]
        bases = self.network.bases
        for r_b, a, b in zip(group[starts].tolist(), starts, [*starts[1:], len(order)]):
            r, i = divmod(r_b, N)
            self._groups[r].append((bases[i].fn, bases[i].arity, a, b))
        self._src = rows[self.kids[order]]
        self._dst = rows[u + order]

    def run(self, X: np.ndarray, wanted, sink, chunk: int = CHUNK_NODES) -> None:
        """Evaluate every node once, round by round, on the float64 batch
        ``X`` of shape ``(n, input_count)``.

        ``wanted`` lists ids in ascending order.  As soon as a round has
        computed ids ``wanted[a:b]``, ``sink(a, b, buffer, rows)`` receives
        their values as rows ``rows`` of ``buffer``, valid during the call.

        A round runs each basis's nodes ``chunk`` at a time in one call on
        stacked rows.  Bases are elementwise, so every value has the bits of
        a call on its row alone, except the payload of a NaN that an
        addition or multiplication makes from two NaNs: numpy takes it from
        either operand, by the lane's place in its vector loop.  With
        ``chunk=1`` every node is its own call, payloads included.
        """
        cfg = self.network.config
        u = self.network.u
        buf = np.empty((self.buffer_rows, X.shape[0]))
        buf[self.rows[:cfg.input_count]] = X.T
        buf[self.rows[cfg.input_count:u]] = np.array(cfg.constants)[:, None]
        src, dst = self._src, self._dst
        wanted_rows = self.rows[wanted]
        ready = np.searchsorted(wanted, self.bounds[1:]).tolist()
        done = 0
        with np.errstate(all="ignore"):
            for groups, upto in zip(self._groups, ready):
                for fn, arity, lo, hi in groups:
                    for a in range(lo, hi, chunk):
                        b = min(a + chunk, hi)
                        buf[dst[a:b]] = fn(*buf.take(src[a:b, :arity].T, 0, mode="clip"))
                if upto > done:
                    sink(done, upto, buf, wanted_rows[done:upto])
                    done = upto


def _row_hash(columns: np.ndarray) -> np.ndarray:
    """One ``uint64`` per row of a batch given as its ``(w, n)`` ``uint64``
    columns: a polynomial in an odd multiplier, so rows that differ in one
    column never collide."""
    h = columns[0].copy()
    for column in columns[1:]:
        h *= np.uint64(0x9E3779B97F4A7C15)
        h += column
    return h


def _distinct_rows(X: np.ndarray, Y: np.ndarray):
    """``(first, lanes)`` when at most half of the batch's ``(x, y)`` rows
    are distinct, else ``None``: ``X[first]``, ``Y[first]`` are the distinct
    rows and row ``i`` of the batch is distinct row ``lanes[i]``.

    Rows are told apart by their bytes, so ``-0.0`` and ``0.0`` differ and
    so do NaNs with different payloads.  The rows' sums decide most
    batches: equal rows have equal sums, so if more than half of the sums
    differ, so do the rows.  One input column would not do for images,
    whose corner pixel is the same in every row.  Rows are grouped by a
    hash of their bits; if two rows of a group differ, the rows' bytes are
    sorted instead.
    """
    n = len(X)
    if not n or len(np.unique(X.sum(axis=1))) > n // 2:
        return None
    columns = np.empty((X.shape[1] + Y.shape[1], n), dtype=np.uint64)
    columns[:X.shape[1]] = X.T.view(np.uint64)
    columns[X.shape[1]:] = Y.T.view(np.uint64)
    _, first, lanes = np.unique(_row_hash(columns), return_index=True, return_inverse=True)
    if not np.array_equal(columns[:, first[lanes]], columns):
        rows = np.ascontiguousarray(columns.T)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
        _, first, lanes = np.unique(keys, return_index=True, return_inverse=True)
    return (first, lanes) if len(first) <= n // 2 else None


# A column's upper bound adds, per residual, the kernel term of the
# smallest magnitude that shares its sign, exponent and top two mantissa
# bits (``bits >> 50``).  Squaring and dividing round monotonically, so
# only exp and the sums can put a lane's term above its bucket's: exp by a
# few ulps, or by a few subnormal steps where its result is subnormal, and
# a sum over ``n`` lanes in another order by ``n`` ulps.  So every nonzero
# entry gains ``_BOUND_ABS`` (divided by the kernel's scale when that is
# below 1) and every bound ``_BOUND_REL`` of itself.  An entry of 0, as for
# the NaN and inf buckets, stays 0: its residuals' terms are exactly 0.
_BOUND_SHIFT = 50
_BOUND_REL = 1e-9
_BOUND_ABS = 2.0**-1070

# Columns scored exactly per kernel call while selecting: each call can
# raise the cut that the block's remaining bounds must reach.
SELECT_ROWS = 8


@functools.lru_cache(maxsize=8)
def _bound_table(variance: float) -> np.ndarray:
    """Per bucket of ``bits >> 50``, an upper bound of the kernel term of
    every residual in it."""
    smallest = np.arange(1 << (64 - _BOUND_SHIFT), dtype=np.uint64) << np.uint64(_BOUND_SHIFT)
    table = _kernel_terms(np.abs(smallest.view(np.float64)), variance)
    scale = math.sqrt(2.0 * math.pi * variance)
    table[table > 0.0] += _BOUND_ABS / min(scale, 1.0)
    table.flags.writeable = False
    return table


def _column_scores(network: Network, dags, X, Y, depth: int, variance: float, count=None):
    """``(scores, index)``: the fitness of each distinct ``(node, output)``
    column, and per candidate and output the column it reads.

    Without ``count`` every column is scored.  With it, once the columns
    fill more than two blocks, a column is scored only if it can be among
    its output's ``count`` best candidates, and the others hold ``-inf``.
    Each block of residuals gets an upper bound per
    column (``_bound_table``), and its columns are scored in descending
    bound order, ``SELECT_ROWS`` at a time, while their bound is at least
    their output's cut: the ``count``-th best exact score so far, counting
    a column once per candidate that reads it.  A column left out scores
    below the final cut, and one that ties it is scored, so the ``count``
    best candidates, ties to the lower index, are all scored.
    """
    X = _check_batch(network, X)
    Y = np.asarray(Y, dtype=np.float64)
    v = network.config.output_count
    if Y.shape != (X.shape[0], v):
        raise ValueError(f"targets of shape {Y.shape} for a batch of shape {X.shape}")
    plan = PopulationPlan(network, dags, depth)
    block_rows, lanes = SCORE_BLOCK_ROWS, None
    distinct = _distinct_rows(X, Y)
    if distinct is not None:
        first, lanes = distinct
        block_rows = SCORE_BLOCK_ROWS * len(X) // len(first)
        X, Y = X[first], Y[first]
    targets = np.ascontiguousarray(Y.T)
    # distinct (node, output) columns, ordered by node id
    columns, index = np.unique(plan.outputs * v + np.arange(v), return_inverse=True)
    index = index.reshape(plan.outputs.shape)
    node, output = np.divmod(columns, v)
    scores = np.full(len(columns), -np.inf)
    block = np.empty((min(block_rows, len(columns)), X.shape[0]))
    # the first block mostly sets the cut, so bounds pay only from the third
    # block on: on two blocks they cost training time (33 to 45 columns of
    # poly_2x2_3x, scored by 50 graphs) and on one they cannot save a call
    select = count is not None and count > 0 and len(columns) > 2 * len(block)
    if select:
        table = _bound_table(variance)
        codes = np.empty(block.shape, dtype=np.int64)
        terms = np.empty(block.shape)
        # a distinct row's term counts once per batch row it stands for
        weights = None if lanes is None else np.bincount(lanes, minlength=X.shape[0]).astype(float)
        shares = np.minimum(np.bincount(index.ravel(), minlength=len(columns)), count)
        best = [np.empty(0)] * v
        cut = np.full(v, -np.inf)

    def flush(part: np.ndarray, a: int) -> None:
        """Score the residual rows ``part``, columns ``a, a + 1, ...``."""
        if not select:
            scores[a:a + len(part)] = _kernel_sums(part, variance, lanes)
            return
        np.right_shift(part.view(np.uint64), _BOUND_SHIFT, out=codes[:len(part)].view(np.uint64))
        lane_bounds = table.take(codes[:len(part)], out=terms[:len(part)], mode="clip")
        bound = lane_bounds.sum(axis=1) if weights is None else lane_bounds @ weights
        bound *= 1.0 + _BOUND_REL
        todo = np.argsort(-bound, kind="stable")
        while len(todo := todo[bound[todo] >= cut[output[a + todo]]]):
            rows, todo = todo[:SELECT_ROWS], todo[SELECT_ROWS:]
            got = scores[a + rows] = _kernel_sums(part[rows], variance, lanes)
            outs = output[a + rows]
            for j in set(outs.tolist()):
                mine = outs == j
                kept = np.concatenate([best[j], np.repeat(got[mine], shares[a + rows[mine]])])
                best[j] = np.sort(kept)[::-1][:count]
                if len(best[j]) == count:
                    cut[j] = best[j][-1]

    fill = scored = 0

    def score(a: int, b: int, buf: np.ndarray, rows: np.ndarray) -> None:
        nonlocal fill, scored
        while a < b:
            take = min(b - a, len(block) - fill)
            part = block[fill:fill + take]
            buf.take(rows[:take], 0, out=part, mode="clip")
            # one output needs no gathered copy of its target
            np.subtract(part, targets[0] if v == 1 else targets[output[a:a + take]], out=part)
            a, rows, fill = a + take, rows[take:], fill + take
            if fill == len(block):
                flush(block, scored)
                scored, fill = scored + fill, 0

    plan.run(X, node, score)
    if fill:
        flush(block[:fill], scored)
    return scores, index


def population_fitness(network: Network, dags, X, Y, depth: int, variance: float) -> np.ndarray:
    """Fitness matrix of a population: one row per candidate, one column
    per output.

    Candidate ``r * depth + d - 1`` is graph ``r`` self-composed ``d``
    times.  Each distinct node is evaluated once and each distinct
    ``(node, output)`` column is scored once: its residual
    ``value - Y[:, j]`` goes into the next row of one block as soon as its
    round has run, and each full block is one call of the ``fitness``
    kernel.  A batch that repeats its rows (``_distinct_rows``) is
    evaluated and scored on its distinct rows, and only the kernel's sum
    runs over every row.  Every entry equals ``fitness`` of that
    candidate's ``evaluate``/``evaluate_recurrent`` column bit for bit.
    :func:`population_select` runs the same scorer (``_column_scores``)
    and skips the columns it can rule out; here every column is scored.
    """
    scores, index = _column_scores(network, dags, X, Y, depth, variance)
    return scores[index]


def population_select(network: Network, dags, X, Y, depth: int, variance: float, count: int):
    """Per output, the ``count`` fittest candidates of a population as
    ``(candidate_index, fitness)`` pairs, fittest first, ties to the lower
    index: ``select_top(population_fitness(...), count)`` bit for bit.

    Candidates are numbered as in :func:`population_fitness`.  A column is
    scored exactly only while its upper bound reaches its output's
    ``count``-th best exact fitness so far (``_column_scores``); a column
    it skips scores below the final cut and cannot be selected.  Raises
    ``ConfigError`` when ``count`` exceeds the candidates, as
    :func:`select_top` does.
    """
    scores, index = _column_scores(network, dags, X, Y, depth, variance, count)
    return select_top(scores[index], count)


def select_top(fitness_matrix: np.ndarray, count: int):
    """Per output, the ``count`` highest-fitness candidates.

    Returns one list of ``(candidate_index, fitness)`` pairs per output;
    ties resolve toward the lower candidate index.
    """
    K = np.asarray(fitness_matrix, dtype=np.float64)
    if K.ndim != 2:
        raise ValueError("fitness matrix must be 2-D (candidates x outputs)")
    n_cand = K.shape[0]
    if count > n_cand:
        raise ConfigError(f"cannot select {count} of {n_cand} candidates")
    picks = []
    order_tiebreak = np.arange(n_cand)
    for j in range(K.shape[1]):
        order = np.lexsort((order_tiebreak, -K[:, j]))[:count]
        picks.append([(int(c), float(K[c, j])) for c in order])
    return picks


def _population_of(network: Network, dags) -> SampledPopulation:
    if len(dags):
        return SampledPopulation.of(dags)
    return SampledPopulation(
        choices=tuple(np.empty((0, network.M), dtype=np.int64) for _ in range(network.levels)),
        output_choices=np.empty((0, network.config.output_count), dtype=np.int64),
    )


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
    wanted, index = np.unique(plan.outputs, return_inverse=True)
    values = np.empty((len(wanted), X.shape[0]))

    def keep(a: int, b: int, buf: np.ndarray, rows: np.ndarray) -> None:
        values[a:b] = buf[rows]

    # one node per call: callers get the values themselves, so NaN payloads
    # stay those of evaluating the graph node by node
    plan.run(X, wanted, keep, chunk=1)
    return [np.ascontiguousarray(values[i].T) for i in index.reshape(plan.outputs.shape)]


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

