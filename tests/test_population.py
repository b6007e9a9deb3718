"""Oracle tests for the population-wide draw, evaluation, scoring and
gradient.

Random networks, populations and batches are drawn with hypothesis; the
fast paths must equal the one-graph, one-row references in ``conftest``
bit for bit.
"""

import math
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softdag import (
    AdamState,
    TrainConfig,
    build_network,
    dag_to_expression,
    evaluate,
    evaluate_recurrent,
    fitness,
    log_probability,
    sample,
    sample_many,
    train,
    train_epoch,
)
from softdag import trainer
from softdag.cli import parse_config
from softdag.expression import Choices, evaluate_tree_batch, parse
from softdag import scoring
from softdag.data import ResamplingSource, TargetSpec, as_batch_source
from softdag import plan as plan_module
from softdag.plan import PopulationPlan, ValueStore
from softdag.rng import TRIAL_STREAM, derive_seed
from softdag.sampler import reached_rows
from softdag.scoring import (
    _BOUND_SHIFT,
    _EXP_ZERO,
    _bound_table,
    _kernel_terms,
    population_fitness,
    population_select,
    select_top,
)
from softdag.trainer import TrainRun, population_gradient

from conftest import (
    cyclic_garbage,
    distinct_rows,
    make_dag,
    make_network,
    reference_accumulate_loss_gradient,
    reference_evaluate,
    reference_evaluate_recurrent,
    reference_fitness,
    reference_log_probability,
    reference_sample_many,
    reference_train_epoch,
    same_bits,
)

# DIV gives NaN and +/-inf, SQUARE and MUL overflow, repeats share nodes
_POOL = ("ADD", "SUB", "MUL", "DIV", "SQUARE", "SIN", "NEG", "IF_LEQ", "MAX", "XOR")

_settings = settings(max_examples=60, deadline=None)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _draw_population(draw, recurrent):
    """A random network, a population sampled from it, the generator that
    drew it and a kernel variance."""
    bases = draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=4))
    inputs = draw(st.integers(1, 3))
    outputs = inputs if recurrent else draw(st.integers(1, 3))
    constants = draw(st.lists(st.sampled_from((0.0, 1.0, 2.0, -0.5, 1e200)), max_size=2))
    net = make_network(
        bases,
        input_count=inputs,
        constants=constants,
        output_count=outputs,
        depth=draw(st.integers(1, 3)),
        skip=draw(st.booleans()),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for block in net.blocks():
        block += rng.normal(0.0, 1.5, size=block.shape)
    dags = sample_many(net, rng, draw(st.integers(1, 40)))
    variance = draw(st.sampled_from((0.01, 0.1, 1.0)))
    return net, dags, rng, variance


@st.composite
def populations(draw, recurrent=False):
    """A random network, a sampled population and a batch with targets."""
    net, dags, rng, variance = _draw_population(draw, recurrent)
    n = draw(st.integers(1, 40))
    X = rng.choice([0.0, 1.0, -1.0, 2.5, 1e-13, 1e200, -3.0], size=(n, net.config.input_count))
    X += rng.normal(0.0, 1.0, size=X.shape) * rng.integers(0, 2, size=X.shape)
    Y = rng.normal(0.0, 2.0, size=(n, net.config.output_count))
    return net, dags, X, Y, variance


# a NaN whose payload differs from np.nan's
_OTHER_NAN = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
# 1e200 overflows MUL and SQUARE to inf, and inf - inf or DIV by 0 give NaN
_ROW_VALUES = (0.0, -0.0, 1.0, -1.0, 2.5, 1e-13, 1e200, -1e200, np.inf, np.nan, _OTHER_NAN)


@st.composite
def repeated_rows(draw, recurrent=False):
    """A random network, a sampled population and a batch made of a few
    base rows, each used at least once, with targets.

    The batch has about twice or four times as many rows as there are base
    rows.  Base rows may share their inputs with different
    targets, and two base rows may be equal.
    """
    net, dags, rng, variance = _draw_population(draw, recurrent)
    base = draw(st.integers(1, 12))
    X = rng.choice(_ROW_VALUES, size=(base, net.config.input_count))
    Y = rng.choice([0.0, -0.0, 1.0, 2.5, 1e200, np.nan], size=(base, net.config.output_count))
    Y += rng.normal(0.0, 1.0, size=Y.shape) * rng.integers(0, 2, size=Y.shape)
    for row in draw(st.lists(st.integers(1, base), max_size=3)):
        # the same input with other targets
        X[row % base] = X[0]
    n = max(base, 2 * base + draw(st.sampled_from((-1, 0, 1, 2 * base))))
    lanes = rng.permutation(np.concatenate([np.arange(base), rng.integers(0, base, n - base)]))
    return net, dags, X[lanes], Y[lanes], variance


@_settings
@given(populations())
def test_evaluate_matches_reference(case):
    net, dags, X, _, _ = case
    for dag in dags:
        assert same_bits(evaluate(net, dag, X), reference_evaluate(net, dag, X))


@_settings
@given(populations(recurrent=True))
def test_evaluate_recurrent_matches_reference(case):
    net, dags, X, _, _ = case
    for dag in list(dags)[:5]:
        got = evaluate_recurrent(net, dag, X, 3)
        want = reference_evaluate_recurrent(net, dag, X, 3)
        assert len(got) == 3
        assert all(same_bits(g, w) for g, w in zip(got, want))


def test_evaluate_recurrent_nan_payloads_match_reference():
    # x0 * x0 * (x0 * x1) is inf * 0 at x0 = 1e200, x1 = 0; the graph's
    # outputs are that NaN negated and as is, so depth 2 multiplies two NaNs
    # of opposite sign, whose result's payload depends on the vector lane
    net = make_network(("MUL", "MUL", "NEG"), input_count=2, output_count=2, depth=2)
    dag = make_dag(net, [[0, 0, 0, 1], [2, 3], [0, 0, 0, 0, 5]], [10, 5])
    X = np.tile([1e200, 0.0], (35, 1))
    got = evaluate_recurrent(net, dag, X, 3)
    want = reference_evaluate_recurrent(net, dag, X, 3)
    assert all(same_bits(g, w) for g, w in zip(got, want))


def _reference_matrix(net, dags, X, Y, depth, variance):
    rows = []
    for dag in dags:
        for out in reference_evaluate_recurrent(net, dag, X, depth):
            rows.append([
                reference_fitness(out[:, j], Y[:, j], variance)
                for j in range(out.shape[1])
            ])
    return np.array(rows).reshape(len(dags) * depth, Y.shape[1])


@_settings
@given(populations())
def test_population_fitness_matches_reference(case):
    net, dags, X, Y, variance = case
    got = population_fitness(net, dags, X, Y, 1, variance)
    assert same_bits(got, _reference_matrix(net, dags, X, Y, 1, variance))


@_settings
@given(populations(recurrent=True))
def test_recurrent_population_fitness_matches_reference(case):
    net, dags, X, Y, variance = case
    got = population_fitness(net, dags, X, Y, 3, variance)
    assert same_bits(got, _reference_matrix(net, dags, X, Y, 3, variance))


@_settings
@given(repeated_rows())
def test_population_fitness_on_repeated_rows_matches_reference(case):
    net, dags, X, Y, variance = case
    Xd, Yd, lanes = distinct_rows(X, Y)
    got = population_fitness(net, dags, Xd, Yd, 1, variance, lanes)
    assert same_bits(got, _reference_matrix(net, dags, X, Y, 1, variance))


@_settings
@given(repeated_rows(recurrent=True))
def test_recurrent_population_fitness_on_repeated_rows_matches_reference(case):
    net, dags, X, Y, variance = case
    Xd, Yd, lanes = distinct_rows(X, Y)
    got = population_fitness(net, dags, Xd, Yd, 3, variance, lanes)
    assert same_bits(got, _reference_matrix(net, dags, X, Y, 3, variance))


@st.composite
def selections(draw):
    """A population, a batch, a kernel variance, a depth, a selection
    count and what ``population_select`` scores: the batch's distinct rows
    and lanes, or its rows and ``None``.

    Depth 1 or 3; a batch with distinct rows, scored on every row, or with
    repeated rows, scored on its distinct ones; targets as drawn,
    rounded to small integers so that distinct columns tie, shifted out of
    every candidate's reach so that all score 0.0, or an input plus an
    offset so that fitness is subnormal; graphs repeated in the population
    so that candidates share columns; any count up to the pool size, most
    often a few.  Rounded targets come up twice as often as the others:
    their residuals sit on the bound's bucket edges, where a bound without
    its margins can round below the exact fitness it ties.
    """
    recurrent = draw(st.booleans())
    repeated = draw(st.booleans())
    net, dags, X, Y, variance = draw((repeated_rows if repeated else populations)(recurrent))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dags = [dags[i] for i in rng.integers(0, len(dags), 2 * len(dags))]
    target = draw(st.sampled_from(("drawn", "ties", "ties", "unreachable", "subnormal")))
    if target == "ties":
        X, Y = np.round(np.clip(X, -3.0, 3.0)), np.round(np.clip(Y, -3.0, 3.0))
    elif target == "unreachable":
        Y = Y + 1e6
    elif target == "subnormal":
        # exp(-t) for t in [735, 746) is subnormal or 0
        t = rng.uniform(735.0, 746.0, size=Y.shape[1])
        inputs = np.arange(Y.shape[1]) % X.shape[1]
        Y = X[:, inputs] + np.sqrt(2.0 * variance * t)
    depth = 3 if recurrent else 1
    pool = len(dags) * depth
    count = draw(st.one_of(st.just(pool), st.integers(1, min(pool, 3)), st.integers(1, pool)))
    return net, dags, X, Y, variance, depth, count, distinct_rows(X, Y) if repeated else (X, Y, None)


@settings(max_examples=300, deadline=None)
@given(selections(), st.sampled_from((1, 2, 5, 32)), st.sampled_from((1, 3, 8)))
def test_population_select_matches_select_top(case, block_rows, select_rows):
    # small blocks give even small populations several blocks to bound
    net, dags, X, Y, variance, depth, count, (Xs, Ys, lanes) = case
    want = select_top(population_fitness(net, dags, X, Y, depth, variance), count)
    with mock.patch.multiple(scoring, SCORE_BLOCK_ROWS=block_rows, SELECT_ROWS=select_rows):
        got = population_select(PopulationPlan(net, dags, depth), Xs, Ys, variance, count, lanes)
    assert [[c for c, _ in picks] for picks in got] == [[c for c, _ in picks] for picks in want]
    assert all(
        same_bits([k for _, k in a], [k for _, k in b]) for a, b in zip(got, want)
    )


def test_population_select_ties_on_repeated_rows():
    # integer rows, repeated: every residual sits on a bucket edge of the
    # bound, distinct columns tie, and the bound of distinct rows is a
    # weighted sum in another order than the exact sum over the batch
    net = make_network(("ADD", "SUB", "NEG", "MUL"), input_count=1, constants=(1.0, 2.0), depth=2)
    for seed in range(300):
        rng = np.random.default_rng(seed)
        for block in net.blocks():
            block[...] = rng.normal(0.0, 1.0, size=block.shape)
        dags = sample_many(net, rng, 40)
        base = rng.integers(-3, 4, size=(6, 2)).astype(float)
        rows = base[rng.integers(0, 6, size=int(rng.integers(12, 200)))]
        X, Y = rows[:, :1], rows[:, 1:]
        variance = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
        count = int(rng.integers(1, 4))
        want = select_top(population_fitness(net, dags, X, Y, 1, variance), count)
        with mock.patch.multiple(scoring, SCORE_BLOCK_ROWS=1, SELECT_ROWS=1):
            plan = PopulationPlan(net, dags)
            Xd, Yd, lanes = distinct_rows(X, Y)
            got = population_select(plan, Xd, Yd, variance, count, lanes)
        assert got == want


def test_population_select_on_a_table_with_rows_no_lane_reads():
    # 1 / x0 over {0, 1, 2} x {3, 4}: the source's table holds the rows of
    # x0 = 0, whose target is the division guard's NaN, and no lane reads
    # them, so they weigh 0 in the kernel sums and in the bounds
    spec = TargetSpec(
        kind="explicit", input_count=2, output_count=1,
        input_ranges=(Choices((0.0, 1.0, 2.0)), Choices((3.0, 4.0))),
        fn=lambda X: evaluate_tree_batch(parse("1 / x0"), X)[:, None],
    )
    source = ResamplingSource(spec, 40, 3)
    net = make_network(("ADD", "SUB", "MUL", "DIV"), input_count=2, constants=(1.0,), depth=2)
    for epoch in range(1, 6):
        batch = source.batch(epoch)
        X, Y, lanes = batch.distinct
        assert np.isnan(Y).any() and not np.isnan(Y[lanes]).any()
        rng = np.random.default_rng(epoch)
        for block in net.blocks():
            block[...] = rng.normal(0.0, 1.0, size=block.shape)
        dags = sample_many(net, rng, 100)
        for count in (1, 3):
            want = select_top(population_fitness(net, dags, *batch, 1, 0.1), count)
            for block_rows in (1, scoring.SCORE_BLOCK_ROWS):
                with mock.patch.object(scoring, "SCORE_BLOCK_ROWS", block_rows):
                    got = population_select(PopulationPlan(net, dags), X, Y, 0.1, count, lanes)
                assert [[c for c, _ in p] for p in got] == [[c for c, _ in p] for p in want]
                assert all(same_bits([k for _, k in a], [k for _, k in b]) for a, b in zip(got, want))


def test_population_select_counts_shared_columns():
    # the identity fits exactly and is drawn ``count`` times: its column,
    # scored first, sets the cut alone, and no other column can reach it
    net = make_network(("NEG", "SQUARE", "ADD"), input_count=1)
    count = 3
    dags = [make_dag(net, [], [0])] * count + [make_dag(net, [], [j]) for j in (1, 2, 3)]
    X = np.random.default_rng(0).uniform(3.0, 4.0, size=(50, 1))
    with mock.patch.object(scoring, "SCORE_BLOCK_ROWS", 1):
        scores, index = scoring._column_scores(PopulationPlan(net, dags), X, X, 0.01, count)
    assert np.isfinite(scores).tolist() == [True, False, False, False]
    assert population_select(PopulationPlan(net, dags), X, X, 0.01, count) == [
        [(c, scores[0]) for c in range(count)]
    ]


@pytest.mark.parametrize("variance", [1e-6, 0.01, 0.1, 1.0, 1e3])
def test_bound_table_bounds_every_lane(variance):
    # every bucket's edges and midpoint, random bit patterns, and residuals
    # whose exp lands at the subnormal and underflow edges
    table = _bound_table(variance)
    rng = np.random.default_rng(0)
    edges = np.arange(1 << (64 - _BOUND_SHIFT), dtype=np.uint64) << np.uint64(_BOUND_SHIFT)
    half = np.uint64(1 << (_BOUND_SHIFT - 1))
    bits = np.concatenate([
        edges, edges + np.uint64(1), edges + half, edges + (half * np.uint64(2) - np.uint64(1)),
        rng.integers(0, 2**63, 100_000, dtype=np.uint64),
    ])
    near = np.sqrt(-2.0 * variance * rng.uniform(-750.0, -700.0, 100_000))
    r = np.concatenate([bits.view(np.float64), near, -near, np.nextafter(near, 0.0)])
    terms = _kernel_terms(r.copy(), variance)
    bound = table[(r.view(np.uint64) >> np.uint64(_BOUND_SHIFT)).astype(np.intp)]
    assert np.all(terms <= bound)
    # an entry of 0 holds only residuals whose term is exactly 0
    assert np.all(terms[bound == 0.0] == 0.0)
    assert np.all(table[[0, 1 << (63 - _BOUND_SHIFT)]] > 0.0)  # +-0.0


def _config_training(name, epochs):
    exp = parse_config(CONFIG_DIR / f"{name}.ini")
    training = replace(exp.training, max_epochs=epochs, patience=epochs + 1)
    return exp, training


def test_select_bounds_run_on_the_distinct_rows_of_lfsr4():
    # lfsr4's 1000-row batches hold 16 distinct rows: the selection bounds
    # rule out most columns, and the picks are still select_top's
    exp, training = _config_training("lfsr4", 30)
    rows_scored, columns = [], []
    kernel_sums, column_scores = scoring._kernel_sums, scoring._column_scores

    def counted_sums(k, *args):
        rows_scored.append(len(k))
        return kernel_sums(k, *args)

    def checked_select(plan, X, Y, variance, count, lanes, store):
        assert len(X) == 16 and lanes is not None
        with mock.patch.object(scoring, "_kernel_sums", counted_sums):
            got = population_select(plan, X, Y, variance, count, lanes, store)
        columns.append(len(column_scores(plan, X, Y, variance, None, lanes)[0]))
        net, dags, depth = plan.network, plan.population, plan.depth
        want = select_top(population_fitness(net, dags, X[lanes], Y[lanes], depth, variance), count)
        assert got == want
        return got

    with mock.patch.object(trainer, "population_select", checked_select):
        run = train(build_network(exp.network), exp.target, training)
    assert run.epoch == 30 and len(columns) == 30
    assert sum(rows_scored) < sum(columns) / 4


def test_halfsquare_epochs_compute_fewer_nodes():
    # trial 0 of recurrent_halfsquare, as ``softdag run`` trains it: an
    # epoch computed 420.1 nodes on average over the first 20 before the
    # plan resolved identities and skipped repeated depths, and 327.9 after
    exp = parse_config(CONFIG_DIR / "recurrent_halfsquare.ini")
    seed = derive_seed(exp.training.seed, TRIAL_STREAM, 0)
    training = replace(exp.training, seed=seed, max_epochs=20, patience=21)
    evaluated = []
    train(build_network(exp.network), exp.target, training,
          logger=lambda run, stats: evaluated.append(run.store.evaluated))
    assert len(evaluated) == 20 and np.mean(evaluated) <= 340


def _run(plan, X):
    """Run ``plan`` on ``X`` one node per call, dropping its columns, and
    return its store."""
    store = ValueStore(chunk=1)
    plan.run(X, lambda *column: None, store)
    return store


@_settings
@given(populations())
def test_plan_shares_nodes(case):
    net, dags, X, _, _ = case
    plan = PopulationPlan(net, dags)
    nodes = _run(plan, X).nodes
    keys = [tuple(key) for key in nodes.tolist()]
    assert len(set(keys)) == len(keys)
    # children precede their parents; -1 pads each argument list to the
    # largest arity
    basis, kids = nodes[:, 0], nodes[:, 1:]
    assert np.all(kids < np.arange(net.u, net.u + len(kids))[:, None])
    arity = np.array([net.bases[b].arity for b in basis.tolist()], dtype=int)
    assert np.array_equal(kids >= 0, np.arange(kids.shape[1]) < arity[:, None])
    single = [PopulationPlan(net, [dag]) for dag in dags]
    assert len(nodes) <= sum(len(_run(p, X).nodes) for p in single)
    assert plan.interned == sum(p.interned for p in single)


def _halfsquare_population():
    """A sampled population on recurrent_halfsquare's network."""
    net = make_network(
        ("IF_LEQ", "IF_LEQ", "ADD", "MUL", "MUL", "DIV", "DIV"),
        input_count=1, constants=(1.0, 2.0), depth=2, last_layer_temperature=2.0,
    )
    rng = np.random.default_rng(4)
    for block in net.blocks():
        block += rng.normal(0.0, 1.0, size=block.shape)
    X = rng.uniform(-8.0, 8.0, size=(200, 1))
    return net, sample_many(net, rng, 100), X, np.square(X)


_real_rows, _real_view = ValueStore._rows, ValueStore._view


def test_value_buffer_reuses_rows():
    net, dags, X, Y = _halfsquare_population()
    stores = []

    def poisoned(store, count):
        # a row handed out holds a NaN until its node is computed, so a
        # value whose row went to another while a round still reads it
        # would change the fitness
        got = _real_rows(store, count)
        store.buf[got] = _OTHER_NAN
        stores.append(store)
        return got

    with mock.patch.object(ValueStore, "_rows", poisoned):
        got = population_fitness(net, dags, X, Y, 3, 0.01)
    assert same_bits(got, _reference_matrix(net, dags, X, Y, 3, 0.01))
    store = stores[-1]
    assert store.buffer_rows < store.evaluated - store.merged
    # canonical values gave their rows up at a depth boundary
    canonical = store.canon == np.arange(len(store.canon))
    assert np.any(canonical & (store.rows < 0))


def test_plan_runs_again_alike():
    net, dags, X, _ = _halfsquare_population()
    plan = PopulationPlan(net, dags, 3)
    runs = []
    for _ in range(2):
        values, store = [], ValueStore()
        plan.run(X, lambda buf, rows, outs, readers: values.extend(buf[rows]), store)
        runs.append((np.array(values), plan.index.copy(), store.buffer_rows, store.merged))
    (first, *rest), (second, *again) = runs
    assert same_bits(first, second) and all(np.array_equal(a, b) for a, b in zip(rest, again))


def test_swept_value_met_again_is_computed_again():
    # codes: x0 = 0, x1 = 1, then NEG and MUL at level 0 (2, 3) and level 1
    # (4, 5); the first graph outputs (-(-x0), -x0 * x1), so every depth
    # feeds x0 back and meets the key of -x0 again, whose row the sweep
    # after the depth before gave up since nothing there outputs it
    net = make_network(("NEG", "MUL"), input_count=2, output_count=2, depth=2)
    dags = [
        make_dag(net, [[0], [2, 2, 1]], [4, 5]),
        make_dag(net, [[0, 0, 1]], [3, 0]),
    ]
    rng = np.random.default_rng(5)
    X, Y = rng.normal(size=(40, 2)), rng.normal(size=(40, 2))
    want = _reference_matrix(net, dags, X, Y, 3, 1.0)
    assert same_bits(population_fitness(net, dags, X, Y, 3, 1.0), want)
    assert population_select(PopulationPlan(net, dags, 3), X, Y, 1.0, 2) == select_top(want, 2)
    store = _run(PopulationPlan(net, dags, 3), X)
    ids = _node_ids(store, net.u)
    neg_x0 = ids[(0, 0)]
    assert store.canon[ids[(0, neg_x0)]] == 0
    # -x0 is computed at every depth, each distinct key once otherwise
    assert store.evaluated == len(store.nodes) + 2


def _one_sample(store, buf):
    """``ValueStore._view`` that samples no lanes: every value row has the
    same empty sample, so every hash lookup hits."""
    _real_view(store, buf)
    store._samples = None


@settings(max_examples=200, deadline=None)
@given(selections())
def test_forced_hash_collisions_match_evaluate(case):
    # every value row collides, so every merge rests on the full comparison;
    # NaN, +-inf and +-0 rows must stay apart
    net, dags, X, Y, variance, depth, count, (Xs, Ys, lanes) = case
    columns = [evaluate_recurrent(net, dag, X, depth) for dag in dags]
    want = np.array([
        [fitness(out[:, j], Y[:, j], variance) for j in range(Y.shape[1])]
        for outs in columns for out in outs
    ])
    every_row_collides = mock.patch.object(ValueStore, "_view", _one_sample)
    with every_row_collides:
        assert same_bits(population_fitness(net, dags, Xs, Ys, depth, variance, lanes), want)
        got = population_select(PopulationPlan(net, dags, depth), Xs, Ys, variance, count, lanes)
        assert got == select_top(want, count)
        for dag, outs in list(zip(dags, columns))[:5]:
            assert all(same_bits(g, w) for g, w in zip(evaluate_recurrent(net, dag, X, depth), outs))


def test_values_computed_again_in_one_round_stay_apart_from_their_aliases():
    # every row collides, so the hash table holds one live value and a value
    # merges only with that one; at depth 3 values that a sweep freed are
    # computed again in one round: one may become the alias of another,
    # but never of one that has become an alias itself, or both would lose
    # their rows
    net = make_network(("ADD", "ADD", "SUB", "NEG"), input_count=1, constants=(1.0,), skip=False)
    dags = [
        make_dag(net, [[1, 0, 0, 1, 0, 1, 1], [0, 1, 2, 0, 2, 3, 2]], [2]),
        make_dag(net, [[1, 0, 1, 1, 0, 1, 1], [1, 3, 3, 0, 2, 3, 2]], [3]),
        make_dag(net, [[0, 0, 0, 0, 0, 1, 0], [2, 3, 1, 0, 0, 3, 3]], [3]),
    ]
    X, Y = np.array([[3.0], [2.0], [-0.0]]), np.array([[3.0], [-1.0], [3.0]])
    with mock.patch.object(ValueStore, "_view", _one_sample):
        got = population_fitness(net, dags, X, Y, 3, 0.01)
    assert same_bits(got, _reference_matrix(net, dags, X, Y, 3, 0.01))


def _node_ids(store, u):
    """Each node's id by its key ``(basis, children...)``, padding dropped;
    ids ``0..u-1`` are the leaves."""
    return {
        (b, *(k for k in kids if k >= 0)): u + i
        for i, (b, *kids) in enumerate(store.nodes.tolist())
    }


def _cell_ids(plan, X):
    """Run ``plan`` on ``X`` as ``_run`` does; return its store and, per
    depth, the id that each cell of each graph's id table held: row ``g``,
    column ``c`` is the id of graph ``g``'s source code ``c``."""
    tables, emit = [], PopulationPlan._emit

    def kept(self, id_of, *args):
        tables.append(id_of.copy())
        return emit(self, id_of, *args)

    with mock.patch.object(PopulationPlan, "_emit", kept):
        store = _run(plan, X)
    return store, tables


def test_equal_values_merge_and_their_parents_share_a_node():
    # codes: x = 0, constants 1.0 = 1 and 2.0 = 2, then MUL, DIV, IF_LEQ and
    # NEG at level 0 (3-6) and level 1 (7-10); each graph outputs NEG at
    # level 1 of x * 1, x / 1, x or if_leq(1, 1, x, 2)
    net = make_network(("MUL", "DIV", "IF_LEQ", "NEG"), input_count=1, constants=(1.0, 2.0))
    MUL, DIV, IF_LEQ, NEG = range(4)
    dags = [
        make_dag(net, [[0, 1], [0, 0, 0, 0, 0, 0, 0, 0, 3]], [10]),
        make_dag(net, [[0, 0, 0, 1], [0, 0, 0, 0, 0, 0, 0, 0, 4]], [10]),
        make_dag(net, [[], [0, 0, 0, 0, 0, 0, 0, 0, 0]], [10]),
        make_dag(net, [[0, 0, 0, 0, 1, 1, 0, 2], [0, 0, 0, 0, 0, 0, 0, 0, 5]], [10]),
        # x * 1 and x / 1 themselves, as outputs
        make_dag(net, [[0, 1, 0, 1]], [3]),
        make_dag(net, [[0, 1, 0, 1]], [4]),
    ]
    X = np.random.default_rng(0).normal(size=(40, 1))
    plan = PopulationPlan(net, dags)
    store, (cells,) = _cell_ids(plan, X)
    ids = _node_ids(store, net.u)
    # x * 1, x / 1 and if_leq(1, 1, x, 2) hold x's id
    assert cells[0, 3] == cells[1, 4] == cells[3, 5] == 0
    # every parent reads x, so the four parents are one node
    assert [key for key in ids if key[0] == NEG] == [(NEG, 0)]
    assert store.merged == 0 and store.evaluated == 1
    # one column for the four graphs' outputs, one for x * 1 and x / 1
    assert plan.index[:, 0].tolist() == [1, 1, 1, 1, 0, 0] and plan.columns == 2
    # a row of +0.0 and one of -0.0, and two NaN payloads, stay apart
    for x in (0.0, _OTHER_NAN):
        store, (cells,) = _cell_ids(PopulationPlan(net, dags), np.full((40, 1), x))
        neg_x = store.canon[cells[0, 10]]
        assert neg_x != 0 and store.canon[neg_x] == neg_x
    # if_leq of a NaN is np.nan, whose payload is not x's
    assert store.canon[cells[3, 5]] != 0


# codes: x = 0, constants 1.0 = 1 and 2.0 = 2, then MUL, DIV, IF_LEQ and
# NEG at level 0 (3-6) and level 1 (7-10); level 0's choice rows are MUL's
# two arguments, DIV's two, IF_LEQ's four and NEG's one
_IDENTITIES = (
    ([0, 1], 3, 0),  # x * 1
    ([1, 0], 3, 0),  # 1 * x
    ([0, 0, 0, 1], 4, 0),  # x / 1
    ([0, 0, 0, 0, 0, 0, 2, 1], 5, 2),  # if_leq(x, x, 2, 1): one condition cell
    ([0, 0, 0, 0, 2, 1, 1, 0], 5, 0),  # if_leq(2, 1, 1, x): two constant ones
    ([0, 0, 0, 0, 1, 2, 0, 2], 5, 0),  # if_leq(1, 2, x, 2): two constant ones
    ([0, 0, 0, 0, 0, 1, 0, 0], 5, 0),  # if_leq(x, 1, x, x): one branch cell
)


def _identity_population():
    net = make_network(("MUL", "DIV", "IF_LEQ", "NEG"), input_count=1, constants=(1.0, 2.0))
    return net, [make_dag(net, [row], [out]) for row, out, _ in _IDENTITIES]


def test_identities_take_their_arguments_id_with_no_basis_call():
    net, dags = _identity_population()
    X = np.random.default_rng(1).normal(size=(30, 1))
    X[:3, 0] = [np.inf, -np.inf, -0.0]
    store, (cells,) = _cell_ids(PopulationPlan(net, dags), X)
    outs = [out for _, out, _ in _IDENTITIES]
    assert cells[np.arange(len(dags)), outs].tolist() == [want for _, _, want in _IDENTITIES]
    assert store.evaluated == 0 and len(store.nodes) == 0
    Y = np.random.default_rng(2).normal(size=(30, 1))
    assert same_bits(population_fitness(net, dags, X, Y, 1, 0.1), _reference_matrix(net, dags, X, Y, 1, 0.1))


def test_if_leq_with_a_nan_argument_is_computed():
    # a NaN in x poisons every if_leq that reads x; one that reads only
    # constants still takes its argument's id
    net, dags = _identity_population()
    dags.append(make_dag(net, [[0, 0, 0, 0, 1, 2, 2, 1]], [5]))  # if_leq(1, 2, 2, 1)
    X = np.random.default_rng(1).normal(size=(30, 1))
    # if_leq writes np.nan over a NaN lane, so no result repeats x
    X[7, 0] = _OTHER_NAN
    store, (cells,) = _cell_ids(PopulationPlan(net, dags), X)
    outs = cells[np.arange(len(dags)), 5].tolist()
    assert cells[:3, [3, 3, 4]].diagonal().tolist() == [0, 0, 0]
    assert outs[-1] == 2
    assert all(k >= net.u for k in outs[3:7]) and store.evaluated == 4
    Y = np.random.default_rng(2).normal(size=(30, 1))
    assert same_bits(population_fitness(net, dags, X, Y, 1, 0.1), _reference_matrix(net, dags, X, Y, 1, 0.1))


def test_recurrent_identity_graph_is_computed_at_depth_0_only():
    # -(-x) merges with x, so every depth after the first meets the same
    # keys again; x * 1 computes nothing at all
    net = make_network(("NEG", "MUL"), input_count=1, constants=(1.0,))
    dags = [make_dag(net, [[0], [2]], [4]), make_dag(net, [[0, 0, 1]], [3])]
    X = np.random.default_rng(3).normal(size=(20, 1))
    plan = PopulationPlan(net, dags, 4)
    store, tables = _cell_ids(plan, X)
    assert store.evaluated == 2 and len(tables) == 4
    assert all(np.array_equal(t, tables[0]) for t in tables)
    # both graphs read x's column at every depth
    assert plan.columns == 1 and np.all(plan.index == 0)
    want = reference_evaluate_recurrent(net, dags[0], X, 4)
    assert all(same_bits(g, w) for g, w in zip(evaluate_recurrent(net, dags[0], X, 4), want))


def test_plan_tables_are_built_once_per_network(monkeypatch):
    # what the plan reads of the network's layout depends on it alone, so
    # five epochs of plans build it once, and another network its own
    built = []
    init = plan_module._Tables.__init__

    def counted(tables, network):
        built.append(network)
        init(tables, network)

    monkeypatch.setattr(plan_module._Tables, "__init__", counted)
    exp = parse_config(CONFIG_DIR / "recurrent_halfsquare.ini")
    config = replace(exp.training, sample_count=20, select_count=2, batch_size=50)
    net = build_network(exp.network)
    run = TrainRun(network=net, adam=AdamState.from_blocks([net.params]))
    source = as_batch_source(exp.target, config.batch_size, config.seed)
    for epoch in range(1, 6):
        train_epoch(run, source.batch(epoch), config)
    assert built == [net]
    other = build_network(exp.network)
    PopulationPlan(other, sample_many(other, np.random.default_rng(0), 3))
    assert built == [net, other]
    assert plan_module._tables(other) is not plan_module._tables(net)


def test_mul_and_div_rules_need_a_constant_one():
    bases = ("MUL", "DIV", "IF_LEQ", "NEG")
    one = plan_module._tables(make_network(bases, input_count=1, constants=(1.0, 2.0), depth=2))
    two = plan_module._tables(make_network(bases, input_count=1, constants=(2.0,), depth=2))
    assert one.rule.tolist() == [plan_module._MUL, plan_module._DIV, plan_module._IF_LEQ, 0]
    assert two.rule.tolist() == [0, 0, plan_module._IF_LEQ, 0]
    none = plan_module._tables(make_network(("MUL", "DIV", "NEG"), input_count=1, constants=(2.0,), depth=2))
    assert none.rule is None
    # one sort code, 3 * level + kind, whether or not a rule can fire
    for tables in (one, two, none):
        assert tables.bounds.tolist() == list(range(1, 10))


@st.composite
def identity_populations(draw):
    """A recurrent population on IF_LEQ, MUL, DIV and one other basis with
    the constants 1.0 and 2.0, and a batch whose lanes hold NaN, +-inf and
    +-0 among normal values."""
    bases = ("IF_LEQ", "MUL", "DIV", draw(st.sampled_from(("ADD", "NEG", "IF_LEQ", "MUL"))))
    inputs = draw(st.integers(1, 2))
    net = make_network(
        bases, input_count=inputs, constants=(1.0, 2.0), output_count=inputs,
        depth=draw(st.integers(1, 2)), skip=draw(st.booleans()),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    for block in net.blocks():
        # leaves and equal cells often enough for every rule to fire
        block += rng.normal(0.0, 2.0, size=block.shape)
        block[:, : net.u] += 2.0
    dags = sample_many(net, rng, draw(st.integers(1, 30)))
    n = draw(st.integers(1, 30))
    X = rng.choice([0.0, -0.0, 1.0, 2.0, -1.5, np.inf, -np.inf, np.nan, _OTHER_NAN], size=(n, inputs))
    X += rng.normal(0.0, 1.0, size=X.shape) * rng.integers(0, 2, size=X.shape)
    Y = rng.normal(0.0, 2.0, size=(n, inputs))
    return net, dags, X, Y, draw(st.sampled_from((0.01, 1.0)))


@_settings
@given(identity_populations())
def test_identities_keep_recurrent_fitness(case):
    net, dags, X, Y, variance = case
    got = population_fitness(net, dags, X, Y, 3, variance)
    assert same_bits(got, _reference_matrix(net, dags, X, Y, 3, variance))


def test_population_fitness_leaves_no_cyclic_garbage():
    net, dags, X, Y = _halfsquare_population()
    assert cyclic_garbage(lambda: population_fitness(net, dags, X, Y, 3, 0.01)) == 0


_column_values = st.sampled_from((0.0, 1.0, -1.0, 0.3, 1e-9, 40.0, np.nan, np.inf, -np.inf))


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 6),
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    variance=st.sampled_from((0.01, 0.1, 1.0)),
    special=st.lists(_column_values, max_size=8),
)
def test_block_fitness_equals_row_fitness(rows, n, seed, variance, special):
    rng = np.random.default_rng(seed)
    block = rng.normal(0.0, 0.5, size=(rows, n))
    block.flat[rng.integers(0, block.size, size=len(special))] = special
    sums = fitness(block, 0.0, variance)
    assert sums.shape == (rows,)
    for r in range(rows):
        one = fitness(block[r], np.zeros(n), variance)
        assert isinstance(one, float)
        assert same_bits(sums[r], one)
        assert same_bits(one, reference_fitness(block[r], np.zeros(n), variance))


def test_fitness_exp_underflow_lanes_match_reference():
    # exponents straddling the subnormal edge (-708.4), the last nonzero
    # exp (-745.13) and _EXP_ZERO, plus overflowing and non-finite residuals
    variance = 0.01
    edges = np.array([-708.4, -745.13, -745.1332, _EXP_ZERO])
    exponents = np.concatenate([edges + d for d in (-1.0, -1e-9, 0.0, 1e-9, 1.0)])
    residuals = np.sqrt(-2.0 * variance * exponents)
    residuals = np.concatenate([residuals, -residuals])
    special = np.array([1e300, -1e300, np.inf, -np.inf, np.nan, 0.0, 0.1])
    lanes = np.concatenate([residuals, special])
    # each lane alone too, so no larger term hides a subnormal one
    for column in (lanes, *lanes[:, None]):
        assert same_bits(fitness(column, 0.0, variance), reference_fitness(column, 0.0, variance))
    for block in (lanes[:, None], np.stack([lanes, lanes[::-1]])):
        sums = fitness(block, np.zeros_like(block), variance)
        for row, got in zip(block, sums):
            assert same_bits(got, reference_fitness(row, 0.0, variance))


def test_exp_is_zero_at_and_below_exp_zero():
    below = _EXP_ZERO - np.array([0.0, 1e-9, 0.5, 1.0, 100.0, 1e300, np.inf])
    assert np.all(np.exp(below) == 0.0)
    assert np.exp(_EXP_ZERO) == 0.0


@st.composite
def skewed_networks(draw, recurrent=False):
    """A random network whose rows mix normal weights with +/-1e8, so some
    sources have probability exactly 0 and cumulative sums tie."""
    inputs = draw(st.integers(1, 3))
    net = make_network(
        draw(st.lists(st.sampled_from(_POOL), min_size=1, max_size=4)),
        input_count=inputs,
        constants=draw(st.lists(st.sampled_from((1.0, 2.0)), max_size=2)),
        output_count=inputs if recurrent else draw(st.integers(1, 3)),
        depth=draw(st.integers(1, 3)),
        temperature=draw(st.sampled_from((0.5, 1.0, 2.0))),
        last_layer_temperature=draw(st.sampled_from((0.5, 1.0, 3.0))),
        skip=draw(st.booleans()),
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    share = draw(st.sampled_from((0.0, 0.2, 0.6)))
    for block in net.blocks():
        block += rng.normal(0.0, 1.5, size=block.shape)
        extreme = rng.random(block.shape) < share
        block[extreme] = rng.choice([1e8, -1e8], size=int(extreme.sum()))
    return net, rng


class _TieGenerator:
    """Draws its uniforms from a fixed pool, so they can land exactly on a
    cumulative sum."""

    def __init__(self, pool, seed):
        self.pool = np.asarray(pool)
        self.rng = np.random.default_rng(seed)

    def random(self, shape=None):
        return self.rng.choice(self.pool, size=shape)


@_settings
@given(skewed_networks(), st.integers(1, 60), st.integers(0, 2**32 - 1), st.booleans())
def test_sample_many_matches_reference(case, count, seed, ties):
    net, _ = case
    if ties:
        probs = [net.level_probs(q) for q in range(net.levels)] + [net.output_probs()]
        cums = np.concatenate([np.cumsum(p, axis=1).ravel() for p in probs])
        pool = np.concatenate([[0.0], cums[cums < 1.0]])
        rng, ref_rng = _TieGenerator(pool, seed), _TieGenerator(pool, seed)
    else:
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    population = sample_many(net, rng, count)
    reference = reference_sample_many(net, ref_rng, count)
    for q in range(net.levels):
        assert np.array_equal(population.choices[q], [d.choices[q] for d in reference])
    assert np.array_equal(population.output_choices, [d.output_choices for d in reference])
    assert list(population) == reference
    assert rng.random() == ref_rng.random()


@_settings
@given(
    skewed_networks(),
    st.integers(1, 20),
    st.lists(
        st.tuples(
            st.integers(0, 19),
            st.integers(0, 2),
            st.sampled_from((0.0, 1e-300, 0.25, 1.0, 3.7, 41.5, 1e3)),
            st.integers(1, 4),
        ),
        max_size=12,
    ),
)
def test_population_gradient_matches_reference(case, count, picks):
    net, rng = case
    population = sample_many(net, rng, count)
    v = net.config.output_count
    pairs = [(r % count, j % v, k * d) for r, j, k, d in picks]
    want = [np.zeros_like(b) for b in net.blocks()]
    for r, j, k, d in picks:
        reference_accumulate_loss_gradient(net, population[r % count], k, j % v, want, depth=d)
    got = population_gradient(PopulationPlan(net, population), net.block_probs(), pairs)
    assert all(same_bits(g, w) for g, w in zip(net.blocks(got), want))
    # a list of graphs is stacked into the same population
    plan = PopulationPlan(net, list(population))
    listed = population_gradient(plan, net.block_probs(), pairs)
    assert all(same_bits(g, w) for g, w in zip(net.blocks(listed), want))


def _sorted_cuts(count, outputs, merges):
    """Each output's cut after each merge, as ``_column_scores`` kept it
    with one sort per output that a merge met."""
    best = [np.empty(0)] * outputs
    cut = np.full(outputs, -np.inf)
    cuts = []
    for got, outs, reads in merges:
        for j in set(outs.tolist()):
            mine = outs == j
            kept = np.concatenate([best[j], np.repeat(got[mine], reads[mine])])
            best[j] = np.sort(kept)[::-1][:count]
            if len(best[j]) == count:
                cut[j] = best[j][-1]
        cuts.append(cut.copy())
    return cuts


@pytest.mark.parametrize("name, epochs", [("lfsr4", 30), ("recurrent_halfsquare", 8)])
def test_selection_cuts_equal_a_sort_per_output(name, epochs):
    # every merge of recorded training epochs, replayed one output at a time
    calls = []
    merge = scoring._merge_best

    def record(best, count, got, outs, reads):
        merge(best, count, got, outs, reads)
        if not calls or calls[-1][0] is not best:
            calls.append((best, count, []))
        calls[-1][2].append(((got.copy(), outs.copy(), reads.copy()), best[:, 0].copy()))

    exp = parse_config(CONFIG_DIR / f"{name}.ini")
    training = replace(exp.training, max_epochs=epochs, patience=epochs + 1)
    with mock.patch.object(scoring, "_merge_best", record):
        train(build_network(exp.network), exp.target, training)
    assert sum(len(merges) for *_, merges in calls) >= epochs
    for best, count, merges in calls:
        want = _sorted_cuts(count, len(best), [m for m, _ in merges])
        assert [cut.tobytes() for _, cut in merges] == [cut.tobytes() for cut in want]


def _blockwise_gradient(plan, probs, pairs):
    """``population_gradient``'s sums as one 2-D ``np.add.at`` per block,
    each row of a block taking its pairs' terms in turn."""
    network = plan.network
    cfg = network.config
    grad = np.zeros_like(network.params)
    pairs = [p for p in pairs if p[2] != 0.0]
    if not pairs:
        return grad
    blocks = network.blocks(grad)
    graph, out, scale = (np.array(column) for column in zip(*pairs))
    chosen = plan.population.output_choices[graph, out]
    roots = network.output_codes[chosen][:, None]

    def scatter(block, probs, rows, chosen, coef):
        d = probs[rows]
        d[np.arange(len(rows)), chosen] -= 1.0
        d *= coef[:, None]
        np.add.at(block, rows, d)

    scatter(blocks[-1], probs[-1], out, chosen, scale / cfg.last_layer_temperature)
    coef = scale / cfg.temperature
    for q, (pair, row, chosen) in enumerate(reached_rows(network, plan.population, graph, roots)):
        scatter(blocks[q], probs[q], row, chosen, coef[pair])
    return grad


@_settings
@given(
    skewed_networks(),
    st.integers(1, 6),
    st.lists(
        st.tuples(
            st.integers(0, 5),
            st.integers(0, 2),
            # the smallest subnormals divide to +/-0.0 at a temperature of 2
            # or 3, and the infinities make +/-inf and NaN terms; other
            # scales round differently in another order of addition
            st.one_of(
                st.sampled_from((5e-324, -5e-324, 1e308, np.inf, -np.inf)),
                st.floats(-100.0, 100.0),
            ),
        ),
        max_size=24,
    ),
)
def test_one_scatter_equals_a_scatter_per_block(case, count, picks):
    # few graphs and many pairs, so rows repeat within and across pairs
    net, rng = case
    population = sample_many(net, rng, count)
    pairs = [(r % count, j % net.config.output_count, k) for r, j, k in picks]
    plan = PopulationPlan(net, population)
    with np.errstate(all="ignore"):
        got = population_gradient(plan, population.probs, pairs)
        want = _blockwise_gradient(plan, population.probs, pairs)
    assert got.tobytes() == want.tobytes()


@_settings
@given(skewed_networks(), st.lists(st.integers(0, 2), max_size=3))
def test_log_probability_matches_reference(case, subset):
    net, rng = case
    subset = sorted({j % net.config.output_count for j in subset})
    for dag in sample_many(net, rng, 5):
        for outs in (None, subset):
            got = log_probability(net, dag, outs)
            want = reference_log_probability(net, dag, outs)
            assert got == want or math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


@settings(max_examples=30, deadline=None)
@given(skewed_networks(recurrent=True), st.integers(1, 3), st.sampled_from((0.0, 1.0, 1e6)))
def test_train_epoch_matches_reference(case, depth, target):
    # the recurrent depth scale d + 1 and, with the far target,
    # zero-fitness candidates
    net, rng = case
    if net.config.output_count > 1:
        depth = 1
    config = TrainConfig(
        sample_count=12, select_count=4, variance=0.5, recurrence_depth=depth, seed=5,
    )
    X = rng.normal(0.0, 1.0, size=(16, net.config.input_count))
    Y = target + rng.normal(0.0, 1.0, size=(16, net.config.output_count))
    runs = []
    for epoch in (train_epoch, reference_train_epoch):
        copy = build_network(net.config)
        for dst, src in zip(copy.blocks(), net.blocks()):
            dst[...] = src
        run = TrainRun(copy, AdamState.from_blocks([copy.params]))
        for _ in range(3):
            epoch(run, (X, Y), config)
        runs.append(copy)
    assert all(same_bits(a, b) for a, b in zip(runs[0].blocks(), runs[1].blocks()))


@_settings
@given(skewed_networks(), st.integers(1, 30))
def test_dag_to_expression_matches_reference(case, n):
    # the tree is read from the code tables, as ``evaluate`` is; the
    # reference walks the conftest decoder, so a wrong code table shows here
    net, rng = case
    X = rng.choice([0.0, 1.0, -1.0, 2.5, 1e200, -3.0], size=(n, net.config.input_count))
    X += rng.normal(0.0, 1.0, size=X.shape) * rng.integers(0, 2, size=X.shape)
    for dag in sample_many(net, rng, 5):
        want = reference_evaluate(net, dag, X)
        for j in range(net.config.output_count):
            got = evaluate_tree_batch(dag_to_expression(net, dag, j), X)
            assert np.array_equal(got, want[:, j], equal_nan=True)


def test_sampled_rows_are_read_only():
    net = make_network(("ADD", "SIN"), input_count=2, output_count=2)
    population = sample_many(net, np.random.default_rng(0), 4)
    dag = population[1]
    with pytest.raises(ValueError):
        dag.choices[0][0] = 1
    with pytest.raises(ValueError):
        dag.output_choices[0] = 1
    with pytest.raises(ValueError):
        population.choices[1][2, 0] = 1
    with pytest.raises(ValueError):
        population.probs[0][0, 0] = 1.0
    with pytest.raises(ValueError):
        sample(net, np.random.default_rng(0)).choices[0][0] = 1


def test_population_indexes_single_graphs_only():
    net = make_network(("ADD", "SIN"), input_count=2, output_count=2)
    population = sample_many(net, np.random.default_rng(0), 4)
    assert population[np.int64(2)] == list(population)[2]
    assert population[-1] == list(population)[3]
    with pytest.raises(TypeError):
        population[:2]
    with pytest.raises(TypeError):
        population[np.array([0, 1])]
