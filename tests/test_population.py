"""Oracle tests for the population-wide draw, evaluation, scoring and
gradient.

Random networks, populations and batches are drawn with hypothesis; the
fast paths must equal the one-graph, one-row references in ``conftest``
bit for bit.
"""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softdag import (
    AdamState,
    TrainConfig,
    evaluate,
    evaluate_recurrent,
    fitness,
    log_probability,
    sample,
    sample_many,
    train_epoch,
)
from softdag.sampler import _EXP_ZERO, PopulationPlan, population_fitness
from softdag.trainer import TrainRun, population_gradient

from conftest import (
    cyclic_garbage,
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


@st.composite
def populations(draw, recurrent=False):
    """A random network, a sampled population and a batch with targets."""
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
    n = draw(st.integers(1, 40))
    X = rng.choice([0.0, 1.0, -1.0, 2.5, 1e-13, 1e200, -3.0], size=(n, inputs))
    X += rng.normal(0.0, 1.0, size=X.shape) * rng.integers(0, 2, size=X.shape)
    Y = rng.normal(0.0, 2.0, size=(n, outputs))
    variance = draw(st.sampled_from((0.01, 0.1, 1.0)))
    return net, dags, X, Y, variance


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
@given(populations())
def test_plan_shares_nodes(case):
    net, dags, _, _, _ = case
    plan = PopulationPlan(net, dags)
    keys = [(b, *kids) for b, kids in zip(plan.basis.tolist(), plan.kids.tolist())]
    assert len(set(keys)) == len(keys)
    # children precede their parents; -1 pads each argument list to the
    # largest arity
    ids = np.arange(net.u, net.u + len(plan.kids))[:, None]
    assert np.all(plan.kids < ids)
    arity = np.array([net.bases[b].arity for b in plan.basis.tolist()], dtype=int)
    assert np.array_equal(plan.kids >= 0, np.arange(plan.kids.shape[1]) < arity[:, None])
    single = [PopulationPlan(net, [dag]) for dag in dags]
    assert len(plan.kids) <= sum(len(p.kids) for p in single)


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


def test_value_buffer_reuses_rows():
    net, dags, _, _ = _halfsquare_population()
    plan = PopulationPlan(net, dags, 3)
    ids = len(plan.rows)
    assert plan.buffer_rows < len(plan.kids)
    # ids sharing a row are never alive together: an id lives from its own
    # round to the last round that reads it
    born = np.searchsorted(plan.bounds, np.arange(ids), side="right") - 1
    last = born.copy()
    for k, kids in enumerate(plan.kids.tolist(), start=net.u):
        for c in kids:
            if c >= 0:
                last[c] = max(last[c], born[k])
    for row in range(plan.buffer_rows):
        same = np.flatnonzero(plan.rows == row)
        spans = sorted(zip(born[same].tolist(), last[same].tolist()))
        assert all(end < start for (_, end), (start, _) in zip(spans, spans[1:]))


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
    got = population_gradient(net, population, pairs)
    assert all(same_bits(g, w) for g, w in zip(got, want))
    # a list of graphs is stacked into the same population
    listed = population_gradient(net, list(population), pairs)
    assert all(same_bits(g, w) for g, w in zip(listed, want))


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
@given(
    skewed_networks(recurrent=True),
    st.integers(1, 3),
    st.booleans(),
    st.booleans(),
    st.sampled_from((0.0, 1.0, 1e6)),
)
def test_train_epoch_matches_reference(case, depth, reweight, increasing, target):
    # the recurrent depth scale d + 1, rank reweighting and, with the far
    # target, zero-fitness candidates
    net, rng = case
    if net.config.output_count > 1:
        depth = 1
    config = TrainConfig(
        sample_count=12, select_count=4, variance=0.5, recurrence_depth=depth,
        rank_reweight=reweight, rank_reweight_increasing=increasing, seed=5,
    )
    X = rng.normal(0.0, 1.0, size=(16, net.config.input_count))
    Y = target + rng.normal(0.0, 1.0, size=(16, net.config.output_count))
    runs = []
    for epoch in (train_epoch, reference_train_epoch):
        copy = net.clone()
        run = TrainRun(copy, config, AdamState.from_blocks(copy.blocks()), collections.deque())
        for _ in range(3):
            epoch(run, (X, Y), config)
        runs.append(copy)
    assert all(same_bits(a, b) for a, b in zip(runs[0].blocks(), runs[1].blocks()))


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
