"""Scoring graphs against targets and selecting the fittest.

:func:`fitness` is the Gaussian-kernel score of one column.
:func:`population_fitness` runs a :class:`~softdag.plan.PopulationPlan`
and scores each distinct ``(node, output)`` column once: on a batch's
distinct rows when the caller passes them with the batch's ``lanes``, as
a :class:`~softdag.data.Batch` carries them, else on every row.
:func:`population_select` runs a plan that the caller built, as
``train_epoch`` does once per epoch, returns each output's fittest
candidates and scores exactly only the columns that an upper bound cannot
rule out.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .network import ConfigError, Network
from .plan import PopulationPlan

__all__ = ["fitness", "population_fitness", "population_select", "select_top"]


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


def _merge_best(best: np.ndarray, count: int, got, outs, reads) -> None:
    """Merge the exact scores ``got`` of columns of the outputs ``outs``,
    each counted ``reads`` times, into ``best``.

    Row ``j`` of ``best`` holds output ``j``'s ``count`` best scores so
    far, ascending, with -inf where fewer have come, and then room for
    ``count * len(got)`` more.  Scores are never -inf, so the first column
    is each output's ``count``-th best score, its cut, once it has one.
    All outputs merge at once: each new score takes a column of its own,
    on its output's row, and the other rows hold -inf there.
    """
    got = got.repeat(reads)
    pool = best[:, :count + len(got)]
    pool[:, count:] = -np.inf
    pool[outs.repeat(reads), np.arange(count, count + len(got))] = got
    pool.sort(axis=1)
    best[:, :count] = pool[:, len(got):]


def _column_scores(plan: PopulationPlan, X, Y, variance: float, count=None, lanes=None, store=None):
    """``(scores, index)``: the fitness of each distinct ``(node, output)``
    column of ``plan``'s run on ``X``, and per candidate and output the
    column it reads.

    With ``lanes``, ``X`` and ``Y`` are a batch's distinct rows and batch
    row ``i`` is distinct row ``lanes[i]``, as ``data.Batch.distinct``
    holds them: the plan runs on the distinct rows and the kernel sums
    each column over ``lanes``.  Without it every row is scored.
    ``store``, a :class:`~softdag.plan.ValueStore`, goes to the plan's run.
    Without ``count`` every column is scored.  With it, once the
    candidates' outputs could fill more than two blocks of a full batch, a
    column is scored only if it can be among its output's ``count`` best
    candidates, and the others hold ``-inf``.  Each block of residuals gets an upper
    bound per column (``_bound_table``), and its columns are scored in
    descending bound order, ``SELECT_ROWS`` at a time, while their bound is
    at least their output's cut: the ``count``-th best exact score so far,
    counting a column once per candidate that read it in the round that
    met it.  A column left out scores below the final cut, and one that
    ties it is scored, so the ``count`` best candidates, ties to the lower
    index, are all scored.
    """
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    v = plan.network.config.output_count
    if Y.shape != (len(X), v):
        raise ValueError(f"targets of shape {Y.shape} for a batch of shape {X.shape}")
    block_rows = SCORE_BLOCK_ROWS if lanes is None else SCORE_BLOCK_ROWS * len(lanes) // len(X)
    targets = np.ascontiguousarray(Y.T)
    most = plan.candidates * v
    scores = np.full(most, -np.inf)
    output = np.empty(most, dtype=np.intp)
    # allocated once the first columns come (``score``)
    block = codes = terms = None
    # on a full batch the first block mostly sets the cut, so bounds pay
    # only from the third block on: on two blocks they cost training time
    # (33 to 45 columns of poly_2x2_3x, scored by 50 graphs).  A block of
    # distinct rows holds more columns (2000 of lfsr4's 16 rows), so one
    # bound pass can cover a whole call before any column is scored.
    select = count is not None and count > 0 and most > 2 * SCORE_BLOCK_ROWS
    if select:
        table = _bound_table(variance)
        # a distinct row's term counts once per batch row it stands for
        weights = None if lanes is None else np.bincount(lanes, minlength=X.shape[0]).astype(float)
        shares = np.empty(most, dtype=np.intp)
        # each output's best scores so far (``_merge_best``); its first
        # column is the cut
        best = np.full((v, count * (1 + SELECT_ROWS)), -np.inf)
        cut = best[:, 0]

    def flush(part: np.ndarray, a: int) -> None:
        """Score the residual rows ``part``, columns ``a, a + 1, ...``."""
        if not select:
            scores[a:a + len(part)] = _kernel_sums(part, variance, lanes)
            return
        np.right_shift(part.view(np.uint64), _BOUND_SHIFT, out=codes[:len(part)].view(np.uint64))
        lane_bounds = table.take(codes[:len(part)], out=terms[:len(part)], mode="clip")
        bound = lane_bounds.sum(axis=1) if weights is None else lane_bounds @ weights
        bound *= 1.0 + _BOUND_REL
        todo = (-bound).argsort(kind="stable")
        while len(todo := todo[bound[todo] >= cut[output[a + todo]]]):
            rows, todo = todo[:SELECT_ROWS], todo[SELECT_ROWS:]
            at = a + rows
            got = scores[at] = _kernel_sums(part[rows], variance, lanes)
            _merge_best(best, count, got, output[at], shares[at])

    fill = met = scored = 0

    def score(buf: np.ndarray, rows: np.ndarray, outs: np.ndarray, readers: np.ndarray) -> None:
        nonlocal fill, met, scored, block, codes, terms
        if block is None:
            # rows for the columns that can still come: these, and at most
            # one per candidate and output of every later depth
            later = (plan.candidates - plan.candidates // plan.depth) * v
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

    plan.run(X, score, store=store)
    if fill:
        flush(block[:fill], scored)
    return scores[:met], plan.index


def population_fitness(
    network: Network, dags, X, Y, depth: int, variance: float, lanes=None
) -> np.ndarray:
    """Fitness matrix of a population: one row per candidate, one column
    per output.

    Candidate ``r * depth + d - 1`` is graph ``r`` self-composed ``d``
    times.  Each distinct node is evaluated once and each distinct
    ``(node, output)`` column is scored once: its residual
    ``value - Y[:, j]`` goes into the next row of one block as soon as its
    round has run, and each full block is one call of the ``fitness``
    kernel.  With ``lanes``, ``X`` and ``Y`` are a batch's distinct rows,
    as ``data.Batch.distinct`` carries them: the population is evaluated
    and scored on them, and only the kernel's sum runs over every lane;
    without it every row is scored.  Every entry equals ``fitness`` of that
    candidate's ``evaluate``/``evaluate_recurrent`` column bit for bit.
    :func:`population_select` runs the same scorer (``_column_scores``)
    and skips the columns it can rule out; here every column is scored.
    """
    plan = PopulationPlan(network, dags, depth)
    scores, index = _column_scores(plan, X, Y, variance, lanes=lanes)
    return scores[index]


def population_select(
    plan: PopulationPlan, X, Y, variance: float, count: int, lanes=None, store=None
):
    """Per output, the ``count`` fittest candidates of the population of
    ``plan`` as ``(candidate_index, fitness)`` pairs, fittest first, ties
    to the lower index: ``select_top(population_fitness(...), count)`` of
    the plan's network, graphs and depth, bit for bit.

    Candidates are numbered as in :func:`population_fitness`, and
    ``lanes`` is read as there.  With a ``store``
    (:class:`~softdag.plan.ValueStore`) the plan reuses the values of the
    last call on the same rows.  A column is scored exactly only while its
    upper bound reaches its output's ``count``-th best exact fitness so
    far (``_column_scores``); a column it skips scores below the final cut
    and cannot be selected.  Raises ``ConfigError`` when ``count``
    exceeds the candidates, as :func:`select_top` does.
    """
    scores, index = _column_scores(plan, X, Y, variance, count, lanes, store)
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
    # a stable sort keeps tied candidates in index order
    order = (-K).argsort(axis=0, kind="stable")[:count]
    values = K[order, np.arange(K.shape[1])]
    return [list(zip(c, k)) for c, k in zip(order.T.tolist(), values.T.tolist())]
