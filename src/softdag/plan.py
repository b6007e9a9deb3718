"""Running sampled graphs on data.

A :class:`PopulationPlan` value-numbers the nodes of a whole population:
one ``(depth, level)`` round at a time, each distinct ``(basis, child
ids)`` node is computed once per batch, in basis calls on stacked nodes,
and a node whose value repeats an earlier one bit for bit takes that
value's id, so its parents merge too.  A :class:`ValueStore` keeps those
values from one call to the next while the rows evaluated repeat bit for
bit.  ``evaluate`` and ``evaluate_recurrent`` are the one-graph case of
the same plan.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .network import Network
from .sampler import SampledDAG, SampledPopulation, reachable_images

__all__ = ["PopulationPlan", "ValueStore", "evaluate", "evaluate_recurrent"]


# Argument rows per basis call: 8 nodes of a 4-ary basis, 16 of a binary
# one.  Their gathered values on a 1000-row batch are 32 x 8 KB = 256 KB,
# so they stay in cache.
CHUNK_ROWS = 32


# Lanes of a value row that key its hash table: the first ones, whose bits
# lie together.  Every hit is checked on all lanes, so the lanes decide only
# how often a check fails.
HASH_LANES = 32


# The most bytes that a ValueStore keeps from one call to the next, as
# ``_Values.nbytes`` counts them.  A 100-epoch lfsr4 trial's values on its
# 16 distinct rows take about 370 KB; on a 1000-row batch about 130 values
# fit, fewer than one call computes.
STORE_BYTES = 1 << 20


class _Values(NamedTuple):
    """A value store as :meth:`PopulationPlan.run` leaves it: the buffer
    and its rows in use, ``canon`` and ``rows`` per id, the free rows, the
    hash table and its spill lists, the id of each key and the keys."""

    buf: np.ndarray
    buffer_rows: int
    canon: np.ndarray
    rows: np.ndarray
    free: list
    table: dict
    spill: dict
    ids: dict
    nodes: list

    @property
    def nbytes(self) -> int:
        """The buffer's bytes, or one value row per id if that is more: an
        id without a row still holds its key and its place in ``canon``
        and ``rows``."""
        return max(self.buf.nbytes, len(self.canon) * self.buf.itemsize * self.buf.shape[1])


class ValueStore:
    """The values that :meth:`PopulationPlan.run` computed, kept for the
    next call while the rows it evaluates repeat bit for bit.

    A call reuses the store when its batch has the bytes of the last
    call's, its network the same config and constants, and its depth and
    ``chunk`` are the last call's.  Any other call starts fresh.  A call
    keeps its values for the next one only if its own batch repeated the
    one before and they fit in ``STORE_BYTES``; otherwise the next call
    starts fresh.  So a batch that changes every epoch costs one copy and
    one compare of its bytes, and nothing is held between calls but those
    bytes.
    """

    def __init__(self) -> None:
        self._last = None  # the last call's network, depth, chunk and rows
        self._kept = None  # the ``_Values`` that call kept
        self._repeated = False

    def _take(self, kind, X: np.ndarray):
        """The values kept by the last call if ``kind`` and the bytes of the
        rows ``X`` equal that call's, else ``None``; the store holds nothing
        until ``_keep``.  Rows whose own bytes exceed ``STORE_BYTES`` can
        never be kept, so they are not remembered either."""
        last = (kind, X.shape, X.tobytes()) if X.nbytes <= STORE_BYTES else None
        self._repeated = last is not None and last == self._last
        kept = self._kept if self._repeated else None
        self._last, self._kept = last, None
        return kept

    def _keep(self, kept: _Values) -> None:
        """Keep ``kept`` for the next call if this call's rows repeated the
        last call's and it fits in ``STORE_BYTES``."""
        if self._repeated and kept.nbytes <= STORE_BYTES:
            self._kept = kept


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

    The buffer, the hash table, the keys and ids, ``canon`` and ``rows``
    form the value store.  A run given a :class:`ValueStore` that holds
    the store of a run on the same rows starts from it: ids, ``basis``,
    ``kids``, ``canon`` and ``rows`` then cover that run's nodes too.
    ``evaluated``, ``merged``, ``columns`` and ``index`` count and number
    this run's work alone.
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

    def run(self, X, sink, chunk: int = CHUNK_ROWS, store: ValueStore | None = None) -> None:
        """Evaluate every graph and depth on the batch ``X`` of shape
        ``(n, input_count)``, as float64, one round at a time.

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

        With a ``store`` the run starts from the values that the last run
        on the same rows kept there (:class:`ValueStore`), and leaves its
        own there for the next.  Its leaves are then interned already, and
        a round computes only the keys never met before and those whose
        value's row a sweep gave up.  A reused value keeps the NaN payload
        of the call that computed it, which can change which columns merge
        but no column's score: a NaN lane scores 0.
        """
        cfg = self.network.config
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != cfg.input_count:
            raise ValueError(f"expected batch of shape (n, {cfg.input_count}), got {X.shape}")
        u, v = self.network.u, cfg.output_count
        kind = (cfg, self._constants.tobytes(), self.depth, chunk)
        kept = store._take(kind, X) if store is not None else None
        reused = kept is not None
        if not reused:
            # ``_room`` rows; the buffer doubles when a round needs more
            # rows than are free
            buf = np.empty((self._room, X.shape[0]))
            kept = _Values(buf, u, np.arange(u), np.arange(u), [], {}, {}, {}, [])
        # ``_nodes`` holds the keys of the ids from u on, one block per
        # round; ``ids`` numbers every key met
        buf, canon, rows, ids = kept.buf, kept.canon, kept.rows, kept.ids
        self.buffer_rows, self._free, self._nodes = kept.buffer_rows, kept.free, kept.nodes
        self._table, self._spill = kept.table, kept.spill
        count = len(canon) - u
        most = len(canon) + self.interned
        self.canon = canon = np.concatenate([canon, np.arange(len(canon), most)])
        self.rows = np.concatenate([rows, np.full(self.interned, -1)])
        self.index = np.empty((self.candidates // self.depth, self.depth, v), dtype=np.int64)
        self.evaluated = self.merged = self.columns = 0
        self._chunk = chunk
        self._lanes = min(X.shape[0], HASH_LANES)
        self._view(buf)
        self._column_of = np.full(most * v, -1)
        # a reused store of several depths holds values that a sweep freed
        swept = reused and self.depth > 1
        id_of = self._id_of.copy()
        with np.errstate(all="ignore"):
            if not reused:
                leaves = np.arange(u)
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
                    if d or swept:
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
        if store is not None:
            store._keep(_Values(
                self._buf, self.buffer_rows, self.canon, self.rows, self._free, self._table,
                self._spill, ids, [nodes],
            ))
        self._view(None)
        self._table = self._spill = self._free = self._nodes = None

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


def _population_of(network: Network, dags) -> SampledPopulation:
    if len(dags):
        return SampledPopulation.of(dags)
    return SampledPopulation(
        choices=tuple(np.empty((0, network.M), dtype=np.int64) for _ in range(network.levels)),
        output_choices=np.empty((0, network.config.output_count), dtype=np.int64),
    )


def evaluate(network: Network, dag: SampledDAG, X) -> np.ndarray:
    """Run the sampled function on a batch.

    ``X`` has one row per sample and ``input_count`` columns; constants are
    appended internally.  Only the output-reachable subgraph is computed.
    Non-finite intermediates propagate to the affected output entries only.
    """
    return evaluate_recurrent(network, dag, X, 1)[0]


def evaluate_recurrent(network: Network, dag: SampledDAG, X, depth: int) -> list[np.ndarray]:
    """Self-compose the sampled function ``depth`` times.

    Element ``d`` (1-based) of the result is the depth-``d`` output batch.
    Requires the output width to equal the input width so outputs can be
    fed back in; a sentinel at depth ``d`` stays a sentinel at all deeper
    depths for that sample.
    """
    plan = PopulationPlan(network, [dag], depth)
    values = []

    def keep(buf: np.ndarray, rows: np.ndarray, outs, readers) -> None:
        values.extend(buf[rows])

    # one node per call: callers get the values themselves, so NaN payloads
    # stay those of evaluating the graph node by node
    plan.run(X, keep, chunk=1)
    return [np.stack([values[c] for c in columns], axis=1) for columns in plan.index]
