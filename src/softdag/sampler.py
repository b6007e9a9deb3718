"""Sampling function graphs, scoring them, and running them on data.

A :class:`SampledDAG` pins one incoming edge for every argument row and
every output row.  All rows are sampled, including ones no output can
reach; probabilities and gradients only ever account for the rows
reachable backward from the outputs, so unreachable choices marginalize
out and the induced distribution over reachable configurations sums to 1.
``sample_many`` draws a whole :class:`SampledPopulation` at once: one
choice matrix per level, with one row per graph.

Graphs run on data through a :class:`PopulationPlan`, which value-numbers
the nodes of a whole population: one ``(depth, level)`` round at a time,
each distinct ``(basis, child ids)`` node is computed once per batch, in
basis calls on stacked nodes, and a node whose value repeats an earlier
one bit for bit takes that value's id, so its parents merge too.
:func:`population_fitness` scores each distinct ``(node, output)`` column
once, on the distinct rows of a batch that repeats its rows.
:func:`population_select` returns each output's fittest candidates and
scores exactly only the columns that an upper bound cannot rule out.
``evaluate`` and ``evaluate_recurrent`` are the one-graph case of the same
plan.
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


# Argument rows per basis call: 8 nodes of a 4-ary basis, 16 of a binary
# one.  Their gathered values on a 1000-row batch are 32 x 8 KB = 256 KB,
# so they stay in cache.
CHUNK_ROWS = 32


# Lanes of a value row that key its hash table: the first ones, whose bits
# lie together.  Every hit is checked on all lanes, so the lanes decide only
# how often a check fails.
HASH_LANES = 32


class PopulationPlan:
    """Value-numbered evaluation plan of several graphs and recurrent depths.

    Ids ``0..u-1`` are the leaves: the input columns, then the constants.
    Every later id is one distinct key ``(basis, child ids)`` that
    :meth:`run` met.  It interns and computes the population in rounds:
    round 0 is the leaves, and round ``1 + d * levels + q`` is level ``q``
    of recurrent depth ``d``.  A level reads only lower levels and the
    depth before it, so children have lower ids than their parents.  Depth
    ``d + 1`` takes depth ``d``'s outputs as its input leaves.

    Keys are value-numbered.  Once a round has computed its new nodes, each
    one whose value repeats a live value bit for bit becomes an alias of
    that value's id, its canonical id.  The graphs' id tables hold
    canonical ids, so the parents of equal values have equal keys, and the
    next round merges them before it computes anything.

    The constructor keeps only what does not depend on the batch: every
    graph's live images, the cells their keys read and write, and the
    cells that no input reaches.  After a
    run, ``basis[k - u]`` and ``kids[k - u]`` hold node ``k``'s key,
    children padded with -1, ``canon[k]`` its canonical id, and ``index``
    the column of each candidate and output, candidates sample-major then
    depth.
    ``interned`` counts the output-reachable nodes of every graph and
    depth, one key lookup each; ``evaluated`` the nodes computed by a basis
    call; ``merged`` the computed nodes and leaves whose value repeats an
    earlier one; ``columns`` the distinct ``(node, output)`` columns.

    Values live in the rows of one buffer, id ``k``'s in row ``rows[k]``
    (-1 for an alias or a value whose row is gone).  An alias gives its row
    up at once; a canonical value keeps its row to the end of its depth.
    Once a depth has emitted its columns, only the values that the next
    depth can read keep their rows: the leaves, the depth's outputs and
    the values of the cells that no input reaches, whose keys are the same
    at every depth.  A later round that meets the key of a value whose row
    is gone computes the node again under its old id.  When a round needs
    more rows than are free, the buffer doubles.  ``buffer_rows`` counts
    the rows used.
    """

    def __init__(self, network: Network, dags, depth: int = 1):
        cfg = network.config
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if depth > 1 and cfg.output_count != cfg.input_count:
            raise ValueError("recurrent evaluation needs output_count == input_count")
        self.network = network
        self.depth = depth
        u, N, M, levels = network.u, network.N, network.M, network.levels
        population = _population_of(network, dags)
        graphs = len(population)
        self.candidates = graphs * depth
        # per graph, the id of every source code, then a cell holding -1
        # for padding and one cell per basis holding its name's first
        # occurrence; a node's key is a row of these cells
        width = u + levels * N + 1 + N
        pad = width - N - 1
        id_of = np.empty((graphs, width), dtype=np.int64)
        id_of[:, pad] = -1
        id_of[:, pad + 1:] = network.basis_first
        codes = np.full((levels, graphs, M + 1), pad)
        for q, choices in enumerate(population.choices):
            codes[q, :, :M] = network.arg_codes[q][choices]
        out_codes = network.output_codes[population.output_choices]
        live = reachable_images(network, codes[:, :, :M], out_codes)
        # every live image, level-major and then by basis, so that a
        # round's new keys come in runs of one basis: its key cells and its
        # id cell
        by_basis = np.argsort(network.basis_first, kind="stable")
        level, image, graph = np.nonzero(
            live.reshape(graphs, levels, N)[:, :, by_basis].transpose(1, 2, 0)
        )
        image = by_basis[image]
        base = graph * width
        keys = np.empty((len(graph), 1 + network.image_slots.shape[1]), dtype=np.int64)
        keys[:, 0] = base + pad + 1 + image
        keys[:, 1:] = codes[level[:, None], graph[:, None], network.image_slots[image]]
        keys[:, 1:] += base[:, None]
        cells = base + u + level * N + image
        ends = [0, *np.searchsorted(level, np.arange(1, levels + 1)).tolist()]
        spans = list(zip(ends[:-1], ends[1:]))
        out_cells = np.arange(graphs)[:, None] * width + out_codes
        self._id_of, self._keys, self._cells, self._spans = id_of, keys, cells, spans
        # the cells whose values the next depth can read: the outputs, and
        # the cells that no input reaches, whose keys are the same at every
        # depth
        self._kept = out_cells.ravel()
        if depth > 1:
            varies = np.zeros(graphs * width, dtype=bool)
            varies[np.arange(graphs)[:, None] * width + np.arange(cfg.input_count)] = True
            for a, b in spans:
                varies[cells[a:b]] = varies[keys[a:b, 1:]].any(axis=1)
            self._kept = np.concatenate([self._kept, cells[~varies[cells]]])
        # room for the leaves and the values of the widest round, or of a
        # whole depth if that needs less: a level has at most one distinct
        # key per live image, and at most one per choice of each basis's
        # children among the ids before it
        arities = [network.bases[i].arity for i in set(network.basis_first.tolist())]
        ids = u
        for a, b in spans:
            ids += min(b - a, sum(ids**k for k in arities))
        self._room = min(u + max((b - a for a, b in spans), default=0), ids)
        self._key_bytes = np.dtype((np.void, keys.itemsize * keys.shape[1]))
        self._constants = np.array(cfg.constants)[:, None]
        self._out_cells = out_cells
        self.interned = len(cells) * depth

    def run(self, X: np.ndarray, sink, chunk: int = CHUNK_ROWS) -> None:
        """Evaluate every graph and depth on the float64 batch ``X`` of
        shape ``(n, input_count)``, one round at a time.

        Once a depth has run, ``sink(buffer, rows, outputs, readers)``
        receives its distinct ``(node, output)`` columns not met before,
        numbered on from the columns before: their values as rows ``rows``
        of ``buffer``, valid during the call, their output indices, and how
        many of the depth's candidates read each.  Then, if another depth
        follows, one sweep (``_sweep``) frees the rows of the values that it
        cannot read, and a round of a later depth computes again each node
        whose key it meets but whose value's row is gone.

        A round runs each basis's new nodes in calls on stacked rows, as
        many nodes per call as fit in ``chunk`` argument rows.  Bases are
        elementwise, so every value has the bits of a call on its row alone,
        except the payload of a NaN that an addition or multiplication makes
        from two NaNs: numpy takes it from either operand, by the lane's
        place in its vector loop.  With ``chunk=1`` every node is its own
        call, payloads included.  Values merge only when all their bits
        agree, payloads included.
        """
        cfg = self.network.config
        u, v = self.network.u, cfg.output_count
        most = u + self.interned
        self.canon = np.arange(most)
        self.rows = np.full(most, -1)
        self.index = np.empty((self.candidates // self.depth, self.depth, v), dtype=np.int64)
        self.evaluated = self.merged = self.columns = 0
        self.buffer_rows = u
        self._chunk = chunk
        self._lanes = min(X.shape[0], HASH_LANES)
        # ``_room`` rows; it doubles when a round needs more rows than are free
        self._view(np.empty((self._room, X.shape[0])))
        self._free: list[int] = []
        self._table: dict[bytes, int] = {}
        self._spill: dict[bytes, list[int]] = {}
        self._column_of = np.full(most * v, -1)
        # the keys of the ids from u on, one block per round
        self._nodes: list[np.ndarray] = []
        count = 0
        ids: dict[bytes, int] = {}
        canon = self.canon
        id_of = self._id_of.copy()
        with np.errstate(all="ignore"):
            self.rows[:u] = leaves = np.arange(u)
            self._buf[:cfg.input_count] = X.T
            self._buf[cfg.input_count:u] = self._constants
            self._merge(leaves, leaves)
            id_of[:, :u] = canon[:u]
            for d in range(self.depth):
                if d:
                    self._sweep(id_of)
                    id_of[:, :cfg.input_count] = id_of.take(self._out_cells)
                for a, b in self._spans:
                    # one round: each live image's key as bytes, the keys not
                    # met before numbered in order of first occurrence
                    found = id_of.take(self._keys[a:b]).view(self._key_bytes).ravel().tolist()
                    top = u + count
                    fresh = [k for k in dict.fromkeys(found) if k not in ids]
                    ids.update(zip(fresh, range(top, top + len(fresh))))
                    node = np.fromiter(map(ids.__getitem__, found), np.int64, len(found))
                    if d:
                        # keys met before whose value's row is gone run again
                        again = node[self.rows[canon[node]] < 0]
                        again = np.unique(again[again < top])
                        if len(again):
                            canon[again] = again
                            keys = np.concatenate(self._nodes)[again - u]
                            order = np.argsort(keys[:, 0], kind="stable")
                            again, keys = again[order], keys[order]
                            self._merge(again, self._evaluate(keys, again))
                    if fresh:
                        keys = np.frombuffer(b"".join(fresh), dtype=np.int64)
                        keys = keys.reshape(len(fresh), -1)
                        self._nodes.append(keys)
                        count += len(fresh)
                        todo = np.arange(top, u + count)
                        self._merge(todo, self._evaluate(keys, todo))
                    node = canon[node]
                    id_of.put(self._cells[a:b], node)
                self._emit(id_of, d, sink)
        nodes = np.concatenate([self._keys[:0], *self._nodes])
        self.basis, self.kids = nodes[:, 0], nodes[:, 1:]
        self.canon, self.rows = self.canon[:u + count], self.rows[:u + count]
        self.index = self.index.reshape(self.candidates, v)
        self._view(None)
        self._table = self._spill = self._free = None

    def _view(self, buf) -> None:
        """Take ``buf`` as the value buffer, and view the first
        ``HASH_LANES`` lanes of each row as one byte string: the keys of the
        hash table, which Python hashes."""
        self._buf = buf
        self._samples = None
        if buf is not None and self._lanes:
            sample = np.dtype((np.void, buf.itemsize * self._lanes))
            self._samples = np.ndarray((len(buf),), sample, buf, strides=buf.strides[:1])

    def _rows(self, count: int) -> np.ndarray:
        """``count`` free buffer rows, the most recently freed first; the
        buffer doubles when too few are free."""
        free = self._free
        reused = min(count, len(free))
        rows = free[len(free) - reused:]
        del free[len(free) - reused:]
        if reused < count:
            top = self.buffer_rows
            self.buffer_rows += count - reused
            rows += range(top, self.buffer_rows)
            if self.buffer_rows > len(self._buf):
                grown = np.empty((max(self.buffer_rows, 2 * len(self._buf)), self._buf.shape[1]))
                grown[:top] = self._buf[:top]
                self._view(grown)
        return np.array(rows, dtype=np.int64)

    def _sweep(self, id_of: np.ndarray) -> None:
        """Free the row of every value that the next depth cannot read: all
        but the leaves and the values of the cells in ``_kept``."""
        keep = np.zeros(len(self.rows), dtype=bool)
        keep[:self.network.u] = True
        keep[id_of.take(self._kept)] = True
        gone = np.flatnonzero((self.rows >= 0) & ~keep)
        self._free += self.rows[gone].tolist()
        self.rows[gone] = -1

    def _evaluate(self, keys: np.ndarray, todo: np.ndarray) -> np.ndarray:
        """Compute the nodes ``todo``, whose ``keys`` come in runs of one
        basis, into free rows, and return the rows."""
        rows = self._rows(len(todo))
        buf, chunk, bases = self._buf, self._chunk, self.network.bases
        self.rows[todo] = rows
        # children are canonical ids, whose rows are live
        src = self.rows[keys[:, 1:]]
        basis = keys[:, 0].tolist()
        starts = [i for i in range(len(basis)) if not i or basis[i] != basis[i - 1]]
        for lo, hi in zip(starts, [*starts[1:], len(basis)]):
            b = bases[basis[lo]]
            step = max(1, chunk // b.arity)
            for a in range(lo, hi, step):
                z = min(a + step, hi)
                buf[rows[a:z]] = b.fn(*buf.take(src[a:z, :b.arity].T, 0, mode="clip"))
        self.evaluated += len(todo)
        return rows

    def _merge(self, todo: np.ndarray, rows: np.ndarray) -> None:
        """Make each id of ``todo``, just computed into ``rows``, an alias of
        the live value that repeats its row bit for bit, if any.

        The first lanes of a row look up the first live value that shares
        them, and a hit merges only if all of the row's bytes match; one that
        does not is compared with the other live values that share them.
        """
        canon, table, buf, rows_of = self.canon, self._table, self._buf, self.rows
        keys = self._samples[rows].tolist() if self._samples is not None else [b""] * len(rows)
        ids = todo.tolist()
        # the first live value of each sample, else the first row of the
        # round that has it
        cand = list(map(table.setdefault, keys, ids))
        if cand == ids:
            return
        hits = [i for i, (c, k) in enumerate(zip(cand, ids)) if c != k]
        # a sample of every lane is the whole row
        whole = self._samples is not None and self._lanes == buf.shape[1]
        rows = rows.tolist()
        alias, target, freed = [], [], []
        for i in hits:
            k, key, c = ids[i], keys[i], cand[i]
            if rows_of[c] < 0:
                # that value's row is gone: the first row of the round with
                # this sample stands for it
                if rows_of[table[key]] < 0:
                    table[key] = k
                c = table[key]
                if c == k:
                    continue
            if not whole:
                mine = buf[rows[i]].tobytes()
                if buf[rows_of[c]].tobytes() != mine:
                    # a node met again may find itself among the others
                    for c in self._spill.get(key, ()):
                        if c != k and canon[c] == c and rows_of[c] >= 0:
                            if buf[rows_of[c]].tobytes() == mine:
                                break
                    else:
                        self._spill.setdefault(key, []).append(k)
                        continue
            alias.append(k)
            target.append(c)
            freed.append(rows[i])
        canon[alias] = target
        rows_of[alias] = -1
        self._free += freed
        self.merged += len(alias)
        if self._spill:
            # an alias of a value that became an alias in this round
            canon[todo] = canon[canon[todo]]

    def _emit(self, id_of: np.ndarray, d: int, sink) -> None:
        """Hand ``sink`` the columns of depth ``d``'s outputs not met before,
        and index every candidate of depth ``d``."""
        v = self.network.config.output_count
        key = id_of.take(self._out_cells) * v + np.arange(v)
        column = self._column_of[key]
        new = key[column < 0]
        if len(new):
            fresh = np.unique(new)
            self._column_of[fresh] = np.arange(self.columns, self.columns + len(fresh))
            readers = np.bincount(self._column_of[new] - self.columns, minlength=len(fresh))
            node, out = np.divmod(fresh, v)
            sink(self._buf, self.rows[node], out, readers)
            self.columns += len(fresh)
            column = self._column_of[key]
        self.index[:, d] = column


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

    Without ``count`` every column is scored.  With it, once the
    candidates' outputs could fill more than two blocks, a column is
    scored only if it can be among its output's ``count`` best candidates,
    and the others hold ``-inf``.  Each block of residuals gets an upper
    bound per column (``_bound_table``), and its columns are scored in
    descending bound order, ``SELECT_ROWS`` at a time, while their bound is
    at least their output's cut: the ``count``-th best exact score so far,
    counting a column once per candidate that read it in the round that
    met it.  A column left out scores below the final cut, and one that
    ties it is scored, so the ``count`` best candidates, ties to the lower
    index, are all scored.
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
    most = plan.candidates * v
    scores = np.full(most, -np.inf)
    output = np.empty(most, dtype=np.intp)
    # allocated once the first columns come (``score``)
    block = codes = terms = None
    # the first block mostly sets the cut, so bounds pay only from the third
    # block on: on two blocks they cost training time (33 to 45 columns of
    # poly_2x2_3x, scored by 50 graphs) and on one they cannot save a call
    select = count is not None and count > 0 and most > 2 * block_rows
    if select:
        table = _bound_table(variance)
        # a distinct row's term counts once per batch row it stands for
        weights = None if lanes is None else np.bincount(lanes, minlength=X.shape[0]).astype(float)
        shares = np.empty(most, dtype=np.intp)
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

    fill = met = scored = 0

    def score(buf: np.ndarray, rows: np.ndarray, outs: np.ndarray, readers: np.ndarray) -> None:
        nonlocal fill, met, scored, block, codes, terms
        if block is None:
            # rows for the columns that can still come: these, and at most
            # one per candidate and output of every later depth
            later = (plan.candidates - plan.candidates // depth) * v
            block = np.empty((min(block_rows, len(rows) + later), X.shape[0]))
            if select:
                codes = np.empty(block.shape, dtype=np.int64)
                terms = np.empty(block.shape)
        a, b = met, met + len(rows)
        output[a:b] = outs
        if select:
            shares[a:b] = np.minimum(readers, count)
        met = b
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

    plan.run(X, score)
    if fill:
        flush(block[:fill], scored)
    return scores[:met], plan.index


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
    values = []

    def keep(buf: np.ndarray, rows: np.ndarray, outs, readers) -> None:
        values.extend(buf[rows])

    # one node per call: callers get the values themselves, so NaN payloads
    # stay those of evaluating the graph node by node
    plan.run(X, keep, chunk=1)
    return [np.stack([values[c] for c in columns], axis=1) for columns in plan.index]


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

