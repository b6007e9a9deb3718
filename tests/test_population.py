"""Oracle tests for hash-consed population evaluation and block scoring.

Random networks, populations and batches are drawn with hypothesis; the
fast paths must equal the reference evaluator in ``conftest`` bit for bit.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from softdag import evaluate, evaluate_recurrent, fitness, sample_many
from softdag.sampler import PopulationPlan, population_fitness

from conftest import (
    make_network,
    reference_evaluate,
    reference_evaluate_recurrent,
    reference_fitness,
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
    for dag in dags[:5]:
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
    keys = [(fn, kids) for fn, kids in zip(plan.fns, plan.kids)]
    assert len(set(keys)) == len(keys)
    # children precede their parents
    assert all(c < k for k, kids in enumerate(plan.kids, start=net.u) for c in kids)
    single = [PopulationPlan(net, [dag]) for dag in dags]
    assert len(plan.kids) <= sum(len(p.kids) for p in single)


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
