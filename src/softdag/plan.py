"""Running sampled graphs on data.

A :class:`PopulationPlan` value-numbers the nodes of a whole population:
one ``(depth, level)`` round at a time, each distinct ``(basis, child
ids)`` node is computed once per batch, in basis calls on stacked nodes,
and a node whose value repeats an earlier one bit for bit takes that
value's id, so its parents merge too.  The ids, keys and values live in a
:class:`ValueStore`, which keeps them from one run to the next while the
rows evaluated repeat bit for bit.  ``evaluate`` and
``evaluate_recurrent`` are the one-graph case of the same plan.
"""

from __future__ import annotations

import weakref

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
# how often a check fails and two equal values stay apart.
HASH_LANES = 32


# The most bytes that a ValueStore keeps from one run to the next, as
# ``ValueStore.nbytes`` counts them.  A 100-epoch lfsr4 trial's values on
# its 16 distinct rows take about 370 KB; on a 1000-row batch about 130
# values fit, fewer than one run computes.
STORE_BYTES = 1 << 20


class PopulationPlan:
    """Value-numbered evaluation plan of several graphs and recurrent depths.

    :meth:`run` interns and computes the population in rounds, on the ids
    of a :class:`ValueStore`: round 0 is the leaves, and round
    ``1 + d * levels + q`` is level ``q`` of recurrent depth ``d``.  A level
    reads only lower levels and the depth before it, so children have lower
    ids than their parents.  Depth ``d + 1`` takes depth ``d``'s outputs as
    its input leaves.  The graphs' id tables hold canonical ids, so the
    parents of equal values have equal keys, and the next round merges them
    before it computes anything.

    An image whose value is provably one argument's value takes that
    argument's id with no key (``_alias_table``): ``x * 1``, ``1 * x``
    and ``x / 1`` surely, and ``IF_LEQ`` with one condition cell, two
    constant condition cells or one branch cell when no argument's value
    holds a NaN; the others are plain keys.

    The plan keeps only what does not depend on the batch: the
    ``population`` of graphs, their live images (``live``, as
    :func:`~softdag.sampler.reachable_images` gives them from every
    graph's outputs), the cells their keys read and write, and the cells
    whose values the next depth can read.  ``interned`` counts the keys
    that a run can look up, those of every graph and depth but the sure
    aliases.
    After a run, ``index`` holds the column of each candidate and output,
    candidates sample-major then depth, and ``columns`` counts the distinct
    ``(node, output)`` columns.
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
        tables = self._tables = _tables(network)
        population = SampledPopulation.of(dags)
        graphs = len(population)
        self.candidates = graphs * depth
        # per graph, the id of every source code, then a cell holding -1
        # for padding and one cell per basis holding its name's first
        # occurrence; a node's key is a row of these cells
        width = u + levels * N + 1 + N
        id_of = np.empty((graphs, width), dtype=np.int64)
        id_of[:, -N - 1:] = tables.key_cells
        arg = network.source_codes(population.choices)
        # per level and graph, the cell that each slot of ``key_slots``
        # reads: the chosen codes, then the padding and basis cells
        codes = np.empty((levels, graphs, M + 1 + N), dtype=np.int64)
        codes[:, :, :M] = arg
        codes[:, :, M:] = tables.key_cells_at
        out_codes = population.output_choices
        if not network.codes_are_indices:
            out_codes = network.output_codes[out_codes]
        self.population = population
        self.live = reachable_images(network, arg, out_codes)
        # every live image, level-major and then by basis, so that a
        # round's new keys come in runs of one basis: its key cells and its
        # id cell
        by_basis = tables.by_basis
        by_level = self.live.reshape(graphs, levels, N)[:, :, by_basis].transpose(1, 2, 0)
        level, image, graph = by_level.nonzero()
        image = by_basis[image]
        base = graph * width
        # a key reads its level's and graph's row of ``codes`` at its image's
        # ``key_slots``, as cells of the graph's id table
        start = (level * graphs + graph) * codes.shape[2]
        keys = codes.take(start[:, None] + tables.key_slots[image])
        cells = base + u + level * N + image
        # each key's round and kind (``_Tables.aliases``) as ``3 * level +
        # kind``: a level's plain keys, then its sure aliases, then its
        # NaN-checked ones, which end where ``code`` passes ``bounds``
        code, src = level * 3, None
        if tables.rule is not None:
            kind, src = tables.aliases(image, keys)
            src += base
            code += kind
            order = code.argsort(kind="stable")
            code, keys, base, cells, src = code[order], keys[order], base[order], cells[order], src[order]
            # each key's graph, read when a later depth leaves graphs out
            graph = graph[order] if depth > 1 else None
        keys += base[:, None]
        self._keys, self._cells, self._src, self._code, self._graph = keys, cells, src, code, graph
        ends = [0, *code.searchsorted(tables.bounds).tolist()]
        spans = list(zip(ends[:-1:3], ends[3::3]))
        out_cells = np.arange(graphs)[:, None] * width + out_codes
        self._id_of = id_of
        self._all = self._rounds(keys, cells, src, ends)
        # the cells whose values the next depth can read: the outputs, and
        # the cells that no input reaches, whose keys are the same at every
        # depth
        self._kept = out_cells.ravel()
        if depth > 1:
            varies = np.zeros(graphs * width, dtype=bool)
            varies[np.arange(graphs)[:, None] * width + np.arange(cfg.input_count)] = True
            for a, b in spans:
                varies[cells[a:b]] = np.logical_or.reduce(varies[keys[a:b, 1:]], axis=1)
            self._kept = np.concatenate([self._kept, cells[~varies[cells]]])
        # room for the leaves and the values of the widest round: a level
        # has at most one distinct key per live image
        self._room = u + max((b - a for a, b in spans), default=0)
        self._out_cells = out_cells
        # every key but the sure aliases'
        self.interned = (len(cells) - sum(ends[2::3]) + sum(ends[1::3])) * depth

    @staticmethod
    def _rounds(keys, cells, src, ends) -> list:
        """Each level's round, from keys and cells in ``__init__``'s order,
        whose kinds end at ``ends``: its plain keys and their cells, and, if
        it has aliases, their argument cells, their cells, and the four
        argument cells and the keys of the NaN-checked ones, which come
        last, or None if it has none."""
        rounds = []
        for a, p, s, b in zip(ends[:-1:3], ends[1::3], ends[2::3], ends[3::3]):
            aliases = None
            if b > p:
                checked = (keys[s:b, 1:5], keys[s:b]) if b > s else (None, None)
                aliases = (src[p:b], cells[p:b], *checked)
            rounds.append((keys[a:p], cells[a:p], aliases))
        return rounds

    def _rounds_of(self, graphs: np.ndarray) -> list:
        """The rounds of the keys of the graphs that ``graphs`` marks."""
        live = graphs[self._graph]
        keys, cells, code = self._keys[live], self._cells[live], self._code[live]
        src = None if self._src is None else self._src[live]
        return self._rounds(keys, cells, src, [0, *code.searchsorted(self._tables.bounds).tolist()])

    def run(self, X, sink, store: ValueStore | None = None) -> None:
        """Evaluate every graph and depth on the batch ``X`` of shape
        ``(n, input_count)``, as float64, one round at a time, on the ids
        and values of ``store``, or of a fresh :class:`ValueStore` for this
        run alone.

        Once a depth has run, ``sink(buffer, rows, outputs, readers)``
        receives its distinct ``(node, output)`` columns not met before,
        numbered on from the columns before: their values as rows ``rows``
        of ``buffer``, valid during the call, their output indices, and how
        many of the depth's candidates read each.  Then, if another depth
        follows, one sweep frees the rows of the values that it cannot read.

        A round gives each sure alias its argument's id and each
        NaN-checked alias its argument's id if no argument's value holds a
        NaN; it interns the plain keys and the checked keys that fail.  At
        depth ``d >= 1`` a graph whose input ids equal the last depth's
        holds every id of the depth already, and its keys are left out of
        this depth's rounds and of all later ones.

        A round runs each basis's new nodes in calls on stacked rows, as
        many nodes per call as fit in the store's ``chunk`` argument rows.
        Bases are elementwise, so every value has the bits of a call on its
        row alone, except the payload of a NaN that an addition or
        multiplication makes from two NaNs: numpy takes it from either
        operand, by the lane's place in its vector loop.  With ``chunk=1``
        every node is its own call, payloads included, and so is every
        node of a ufunc basis (``ValueStore``).  Values merge only when all
        their bits agree, payloads included.

        A run that starts from the values of the last run on the same rows
        computes only the keys never met before and those whose value's row
        a sweep gave up.  A reused value keeps the NaN payload of the call
        that computed it, which can change which columns merge but no
        column's score: a NaN lane scores 0.
        """
        cfg = self.network.config
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != cfg.input_count:
            raise ValueError(f"expected batch of shape (n, {cfg.input_count}), got {X.shape}")
        store = store or ValueStore()
        u, v, inputs = self.network.u, cfg.output_count, cfg.input_count
        self.index = np.empty((self.candidates // self.depth, self.depth, v), dtype=np.int64)
        self.columns = 0
        id_of = self._id_of.copy()
        rounds, fixed = self._all, 0
        with np.errstate(all="ignore"):
            store._start(self, X)
            column_of = np.full(len(store.canon) * v, -1)
            id_of[:, :u] = store.canon[:u]
            for d in range(self.depth):
                if d:
                    store._sweep(id_of.take(self._kept))
                    fed = id_of.take(self._out_cells)
                    same = np.logical_and.reduce(fed == id_of[:, :inputs], axis=1)
                    id_of[:, :inputs] = fed
                    if np.count_nonzero(same) > fixed:
                        fixed = np.count_nonzero(same)
                        rounds = self._rounds_of(~same)
                for keys, cells, aliases in rounds:
                    if len(keys):
                        # each plain key as bytes
                        found = id_of.take(keys).view(self._tables.key_bytes).ravel().tolist()
                        id_of.put(cells, store._intern(found))
                    if aliases is not None:
                        self._alias(id_of, store, *aliases)
                self._emit(id_of, d, sink, store, column_of)
        store._end()
        self.index = self.index.reshape(self.candidates, v)

    def _alias(self, id_of: np.ndarray, store: ValueStore, src, cells, args, keys) -> None:
        """Give a round's aliases, at ``cells``, the ids of their argument
        cells ``src``, but intern and compute each NaN-checked one, the
        last ``len(keys)``, that has a NaN in a value of its ``args``."""
        if args is not None:
            ids = id_of.take(args).ravel().tolist()
            nan = store._nan_facts(dict.fromkeys(ids))
            if any(map(nan.__getitem__, ids)):
                fail = np.logical_or.reduce(np.array([nan[k] for k in ids]).reshape(-1, 4), axis=1)
                take = np.ones(len(src), dtype=bool)
                take[len(src) - len(keys):] = ~fail
                id_of.put(cells[take], id_of.take(src[take]))
                found = id_of.take(keys[fail]).view(self._tables.key_bytes).ravel().tolist()
                id_of.put(cells[~take], store._intern(found))
                return
        id_of.put(cells, id_of.take(src))

    def _emit(self, id_of: np.ndarray, d: int, sink, store: ValueStore, column_of) -> None:
        """Hand ``sink`` the columns of depth ``d``'s outputs not met before,
        and index every candidate of depth ``d``; ``column_of`` numbers the
        columns met, by node and output."""
        outputs = self._tables.outputs
        v = len(outputs)
        key = id_of.take(self._out_cells) * v + outputs
        column = column_of[key]
        new = key[column < 0]
        if len(new):
            fresh, readers = _distinct(new)
            column_of[fresh] = np.arange(self.columns, self.columns + len(fresh))
            node, out = np.divmod(fresh, v)
            sink(store.buf, store.rows[node], out, readers)
            self.columns += len(fresh)
            column = column_of[key]
        self.index[:, d] = column


class ValueStore:
    """The value-numbered state of :meth:`PopulationPlan.run`: its ids, their
    keys and their values, kept for the next run while the rows it evaluates
    repeat bit for bit.

    Ids ``0..u-1`` are the leaves: the input columns, then the constants.
    Every later id is one distinct key ``(basis, child ids)`` that a run
    met, and row ``k - u`` of ``nodes`` holds id ``k``'s basis and its
    children padded with -1.  Once a round has computed its new nodes, each
    one whose value repeats a live value bit for bit becomes an alias of
    that value's id: ``canon[k]`` is id ``k``'s canonical id.

    Values live in the rows of one buffer, ``buf``, id ``k``'s in row
    ``rows[k]`` (-1 for an alias or a value whose row is gone).  An alias
    gives its row up at once; a canonical value keeps its row until a sweep
    (``_sweep``) frees the rows of the values that the next depth cannot
    read.  A later round that meets the key of a value whose row is gone
    computes the node again under its old id.  When a round needs more rows
    than are free, the buffer doubles.  ``buffer_rows`` counts the rows
    used.  The first ``HASH_LANES`` lanes of each row key a hash table that
    holds at most one live value per key (``_merge``).

    A run starts from what the store holds when its batch has the bytes of
    the last run's and its network the same config and constants; any other
    run starts fresh.  A run leaves its buffer, hash table and ids for the
    next only if its own rows repeated the last run's (``repeated``) and
    they fit in ``STORE_BYTES``; otherwise the store holds the rows' bytes,
    ``canon``, ``rows`` and the keys.  So a batch that changes every epoch
    costs one copy and one compare of its bytes.

    A numpy ufunc basis calls once per node on ``buf``'s rows in place; any
    other basis call takes as many nodes as fit in ``chunk`` argument rows,
    gathered, and scatters their values.
    ``evaluated`` counts the nodes a run computed by a basis call and
    ``merged`` the computed nodes and leaves whose value repeats an earlier
    one.
    """

    def __init__(self, chunk: int = CHUNK_ROWS) -> None:
        self.chunk = chunk
        self._last = None  # the last run's network config, constants and rows
        self.repeated = False
        self.buf = None
        self.evaluated = self.merged = self.buffer_rows = 0

    @property
    def nbytes(self) -> int:
        """The buffer's bytes, or one value row per id if that is more: an
        id without a row still holds its key and its place in ``canon`` and
        ``rows``.  0 when the store holds no buffer."""
        if self.buf is None:
            return 0
        return max(self.buf.nbytes, len(self.canon) * self.buf.itemsize * self.buf.shape[1])

    @property
    def nodes(self) -> np.ndarray:
        """The key of every id from ``u`` on, one row each."""
        if len(self._nodes) > 1:
            self._nodes = [np.concatenate(self._nodes)]
        return self._nodes[0]

    def _start(self, plan: PopulationPlan, X: np.ndarray) -> None:
        """Start a run of ``plan`` on the rows ``X``, from what the store
        holds if the last run had the same network and rows, and make room
        for the run's new ids.  Rows whose own bytes exceed ``STORE_BYTES``
        can never be kept, so they are not remembered."""
        network, tables = plan.network, plan._tables
        cfg, u = network.config, network.u
        last = None
        if X.nbytes <= STORE_BYTES:
            last = (cfg, tables.constant_bytes, X.shape, X.tobytes())
        self.repeated = last is not None and last == self._last
        # remembered when the run ends: a run cut short leaves nothing to reuse
        self._last, self._key = None, last
        self.evaluated = self.merged = 0
        fresh = self.buf is None or not self.repeated
        if fresh:
            self._u, self._bases = u, network.bases
            self._lanes = min(X.shape[0], HASH_LANES)
            # ``_room`` rows; the buffer doubles when a round needs more
            # rows than are free
            self._view(np.empty((plan._room, X.shape[0])))
            self.buffer_rows = u
            self.canon = self.rows = np.arange(u)
            self._free, self._table, self._ids = [], {}, _Ids(u)
            self._nodes = [np.empty((0, plan._keys.shape[1]), dtype=np.int64)]
            self._swept = False  # a sweep gave rows up
            self._nan = {}  # per id, whether its value holds a NaN
        top = len(self.canon)
        self.canon = np.concatenate([self.canon, np.arange(top, top + plan.interned)])
        self.rows = np.concatenate([self.rows, np.full(plan.interned, -1)])
        if fresh:
            leaves = np.arange(u)
            self.buf[:cfg.input_count] = X.T
            self.buf[cfg.input_count:u] = np.array(cfg.constants)[:, None]
            self._merge(leaves, leaves)

    def _end(self) -> None:
        """Drop the room of ids the run did not use, and keep the buffer,
        hash table and ids only if the run's rows repeated the last run's
        and its values fit in ``STORE_BYTES``."""
        top = self._u + len(self._ids)
        self.canon, self.rows = self.canon[:top], self.rows[:top]
        self._last = self._key
        if not (self.repeated and self.nbytes <= STORE_BYTES):
            self.buf = self._samples = self._free = self._table = self._ids = self._nan = None

    def _view(self, buf: np.ndarray) -> None:
        """Take ``buf`` as the value buffer, and view the first
        ``HASH_LANES`` lanes of each row as one byte string: the keys of the
        hash table, which Python hashes."""
        self.buf = buf
        self._samples = None
        if self._lanes:
            sample = np.dtype((np.void, buf.itemsize * self._lanes))
            self._samples = np.ndarray((len(buf),), sample, buf, strides=buf.strides[:1])

    def _intern(self, found: list) -> np.ndarray:
        """The canonical ids of one round's keys ``found``, as bytes.  The
        keys not met before are numbered in order of first occurrence, in
        one pass as it meets them (``_Ids``), and computed, and so are the
        keys met before whose value's row is gone."""
        u, canon, ids = self._u, self.canon, self._ids
        top = u + len(ids)
        ids.fresh = fresh = []
        node = np.fromiter(map(ids.__getitem__, found), np.int64, len(found))
        if self._swept:
            again = node[self.rows[canon[node]] < 0]
            again = again[again < top]
            if len(again):
                again = _distinct(again)[0]
                canon[again] = again
                keys = self.nodes[again - u]
                order = keys[:, 0].argsort(kind="stable")
                again, keys = again[order], keys[order]
                self._merge(again, self._evaluate(keys, again))
        if fresh:
            keys = np.frombuffer(b"".join(fresh), dtype=np.int64).reshape(len(fresh), -1)
            self._nodes.append(keys)
            todo = np.arange(top, top + len(fresh))
            self._merge(todo, self._evaluate(keys, todo))
        return canon[node]

    def _nan_facts(self, ids) -> dict:
        """Whether the value of each id holds a NaN, by id, known for the
        distinct ``ids`` at least: canonical ids with live rows.  Each id's
        fact is read once from its row and kept as long as the id: a value
        computed again has the same NaN lanes."""
        nan = self._nan
        new = [k for k in ids if k not in nan]
        if new:
            # minimum carries a NaN through
            low = np.minimum.reduce(self.buf.take(self.rows.take(new), 0), axis=1)
            nan.update(zip(new, np.isnan(low).tolist()))
        return nan

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
            if self.buffer_rows > len(self.buf):
                grown = np.empty((max(self.buffer_rows, 2 * len(self.buf)), self.buf.shape[1]))
                grown[:top] = self.buf[:top]
                self._view(grown)
        return np.array(rows, dtype=np.int64)

    def _sweep(self, kept: np.ndarray) -> None:
        """Free the row of every value but the leaves and the ids ``kept``,
        the values that the next depth can read, and take each freed value
        that the hash table holds out of it."""
        keep = np.zeros(len(self.rows), dtype=bool)
        keep[:self._u] = True
        keep[kept] = True
        gone = np.flatnonzero((self.rows >= 0) & ~keep)
        rows = self.rows[gone]
        table = self._table
        for k, key in zip(gone.tolist(), self._sample_keys(rows)):
            if table.get(key) == k:
                del table[key]
        self._free += rows.tolist()
        self.rows[gone] = -1
        self._swept = self._swept or len(gone) > 0

    def _sample_keys(self, rows: np.ndarray) -> list:
        """The hash table's key of each value row ``rows``."""
        if self._samples is None:
            return [b""] * len(rows)
        return self._samples[rows].tolist()

    def _evaluate(self, keys: np.ndarray, todo: np.ndarray) -> np.ndarray:
        """Compute the nodes ``todo``, whose ``keys`` come in runs of one
        basis, into free rows, and return the rows."""
        rows = self._rows(len(todo))
        buf, chunk, bases = self.buf, self.chunk, self._bases
        self.rows[todo] = rows
        # children are canonical ids, whose rows are live
        src = self.rows[keys[:, 1:]]
        basis = keys[:, 0].tolist()
        starts = [i for i in range(len(basis)) if not i or basis[i] != basis[i - 1]]
        for lo, hi in zip(starts, [*starts[1:], len(basis)]):
            b = bases[basis[lo]]
            if isinstance(b.fn, np.ufunc):
                # one call per node on the rows where they lie: a node's
                # row was free, so it is no child's
                fn, out = b.fn, rows[lo:hi].tolist()
                if b.arity == 1:
                    for r, x in zip(out, src[lo:hi, 0].tolist()):
                        fn(buf[x], out=buf[r])
                else:
                    for r, (x, y) in zip(out, src[lo:hi, :2].tolist()):
                        fn(buf[x], buf[y], out=buf[r])
                continue
            step = max(1, chunk // b.arity)
            for a in range(lo, hi, step):
                z = min(a + step, hi)
                buf[rows[a:z]] = b.fn(*buf.take(src[a:z, :b.arity].T, 0, mode="clip"))
        self.evaluated += len(todo)
        return rows

    def _merge(self, todo: np.ndarray, rows: np.ndarray) -> None:
        """Make each id of ``todo``, just computed into ``rows``, an alias of
        the live value that repeats its row bit for bit, if any.

        The hash table maps the first lanes of a row to at most one live
        value, and a hit merges only if all of the row's bytes match that
        value's.  A value whose first lanes a different live value holds
        keeps its own id and stays out of the table.
        """
        canon, table, buf, rows_of = self.canon, self._table, self.buf, self.rows
        ids = todo.tolist()
        # the live value of each sample, else the first row of the round
        # that has it
        cand = list(map(table.setdefault, self._sample_keys(rows), ids))
        if cand == ids:
            return
        # a sample of every lane is the whole row
        whole = self._samples is not None and self._lanes == buf.shape[1]
        rows = rows.tolist()
        freed = []
        for i, (c, k) in enumerate(zip(cand, ids)):
            if c == k or not whole and buf[rows[i]].tobytes() != buf[rows_of[c]].tobytes():
                continue
            canon[k] = c
            rows_of[k] = -1
            freed.append(rows[i])
        self._free += freed
        self.merged += len(freed)


class _Ids(dict):
    """A :class:`ValueStore`'s id of every key it met.  Looking up a key not
    held numbers it next, from ``u`` on, and appends it to ``fresh``, so
    one pass over a round's keys numbers the new ones in order of first
    occurrence."""

    __slots__ = ("u", "fresh")

    def __init__(self, u: int) -> None:
        super().__init__()
        self.u, self.fresh = u, []

    def __missing__(self, key) -> int:
        self.fresh.append(key)
        k = self[key] = self.u + len(self)
        return k


# Identity rule codes by basis name, as ``_alias_table`` indexes them.
# Every network holds only builtin bases, so a name is its implementation.
_MUL, _DIV, _IF_LEQ = 1, 2, 3
_RULES = {"MUL": _MUL, "DIV": _DIV, "IF_LEQ": _IF_LEQ}


class _Tables:
    """What a network's plans read of its layout, built on its first plan
    and kept while it lives (``_tables``): each image's ``key_slots``, as
    slots of a level's row of the plan's ``codes`` (its basis, slot
    ``M + 1 + image``, then its argument rows, padded with slot ``M``);
    the ``key_cells`` that end each graph's id table (-1 for padding, then
    each basis's first occurrence of its name) and the cells that hold
    them, ``key_cells_at``; the images ordered ``by_basis`` name; the
    ``bounds`` of a level's plain keys, sure aliases and NaN-checked ones,
    as the codes ``3 * level + kind`` sort; the ``outputs``' indices; and
    ``constant_bytes``, the constants' bytes.

    ``rule`` holds each image's rule code, or None when no rule can fire
    (``x * 1`` and ``x / 1`` need a constant 1.0); then ``table`` is the
    rules' ``_alias_table`` and ``constant`` each cell's constant as
    ``table`` indexes it.
    """

    def __init__(self, network: Network):
        cfg, bases, M, N = network.config, network.bases, network.M, network.N
        width = max(b.arity for b in bases)
        self.key_slots = np.array([
            [M + 1 + i, *network.image_rows(i), *[M] * (width - b.arity)]
            for i, b in enumerate(bases)
        ])
        first: dict[str, int] = {}
        basis_first = [first.setdefault(b.name, i) for i, b in enumerate(bases)]
        self.key_cells = np.array([-1, *basis_first])
        width = network.u + network.levels * N + 1 + N
        self.key_cells_at = np.arange(width - N - 1, width)
        self.by_basis = np.argsort(basis_first, kind="stable")
        self.bounds = np.arange(1, 3 * network.levels + 1)
        self.outputs = np.arange(cfg.output_count)
        self.constant_bytes = np.array(cfg.constants).tobytes()
        # a key, one row of ``key_slots``' cells, as one byte string
        self.key_bytes = np.dtype((np.void, 8 * self.key_slots.shape[1]))
        one = 1.0 in cfg.constants
        rules = [_RULES.get(b.name, 0) if one or b.name == "IF_LEQ" else 0 for b in bases]
        self.rule = None
        if any(rules):
            self.rule = np.array(rules)
            self.table = _alias_table(cfg.constants)
            self.constant = np.zeros(width, dtype=np.int64)
            self.constant[cfg.input_count:network.u] = np.arange(1, len(cfg.constants) + 1)

    def aliases(self, image: np.ndarray, keys: np.ndarray):
        """``(kind, src)`` of each key, as source codes, of an image of
        ``image``: kind 1 when its value is surely one argument's value, bit
        for bit, kind 2 when it is so if no argument holds a NaN, else 0
        (``_alias_table``); and for kinds 1 and 2 the code of that
        argument."""
        const = self.constant.take(keys[:, 1:3])
        ab = (keys[:, 1] == keys[:, 2]).view(np.int8)
        cd = (keys[:, 3] == keys[:, 4]).view(np.int8) if keys.shape[1] > 4 else 0
        took = self.table[self.rule[image], const[:, 0], const[:, 1], ab, cd]
        return took >> 3, keys[np.arange(len(keys)), took & 7]


_TABLES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _tables(network: Network) -> _Tables:
    """The :class:`_Tables` of ``network``, built on first need."""
    return _TABLES.get(network) or _TABLES.setdefault(network, _Tables(network))


def _alias_table(constants) -> np.ndarray:
    """What a node takes by its rule, as ``8 * kind + k``: the value of its
    argument ``k - 1``, surely (kind 1) or if none of its arguments holds a
    NaN (kind 2); 0 when the rule does not fire.

    ``table[rule, i, j, ab, cd]`` is that of a node with the rule code
    ``rule`` whose first two argument cells hold the constants ``i`` and
    ``j``, 1-based indices into ``constants`` or 0 for any other cell, and
    whose first two (``ab``) and last two (``cd``) argument cells are one
    cell (1) or not (0).
    """
    c = np.array([np.nan, *constants], dtype=np.float64)
    one = c == 1.0
    table = np.zeros((4, len(c), len(c), 2, 2), dtype=np.int64)
    # x * 1 and x / 1 are x, and 1 * x is x, NaN payloads included: a
    # call copies a quiet NaN's payload when one operand is NaN
    table[_MUL] = np.where(one[None, :], 8 + 1, np.where(one[:, None], 8 + 2, 0))[..., None, None]
    table[_DIV] = np.where(one[None, :], 8 + 1, 0)[..., None, None]
    # with no NaN argument, two constants pick c or d in every lane, and
    # if_leq(a, a, c, d) and if_leq(a, b, c, c) are c
    pick = np.where(c[:, None] <= c[None, :], 16 + 3, np.where(c[:, None] > c[None, :], 16 + 4, 0))
    table[_IF_LEQ] = pick[..., None, None]
    table[_IF_LEQ, :, :, 1, :] = table[_IF_LEQ, :, :, :, 1] = 16 + 3
    return table


def _distinct(keys: np.ndarray):
    """``(values, counts)``: the distinct values of ``keys`` in ascending
    order, as ``np.unique`` gives them, and how often each occurs.  One
    sort and a compare of neighbours, which costs a fraction of
    ``np.unique`` on a few hundred keys and does not import ``numpy.ma``."""
    keys = keys.copy()
    keys.sort()
    # where each run of equal keys starts, and where the last one ends
    first = np.empty(len(keys) + 1, dtype=bool)
    first[0] = first[-1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:-1])
    starts = first.nonzero()[0]
    return keys[starts[:-1]], starts[1:] - starts[:-1]


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
    plan.run(X, keep, ValueStore(chunk=1))
    return [np.stack([values[c] for c in columns], axis=1) for columns in plan.index]
