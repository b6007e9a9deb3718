import itertools
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy import stats

from softdag import (
    dag_to_expression,
    evaluate,
    evaluate_recurrent,
    evaluate_tree,
    log_probability,
    most_likely_dag,
    sample,
    sample_many,
)
from softdag import sampler
from softdag.cli import parse_config
from softdag.network import build_network
from softdag.sampler import _draw

from conftest import (
    arg_source,
    dag_from_assignment,
    enumerate_classes,
    fig1_network,
    fig1b_dag,
    make_dag,
    make_network,
    output_source,
    random_tiny_network,
)


def test_sampling_deterministic():
    net = fig1_network()
    a = sample(net, np.random.default_rng(7))
    b = sample(net, np.random.default_rng(7))
    assert a == b
    many_a = sample_many(net, np.random.default_rng(9), 5)
    many_b = sample_many(net, np.random.default_rng(9), 5)
    assert all(x == y for x, y in zip(many_a, many_b))


def test_sampling_frequencies_uniform_row():
    # level-0 rows of a four-source network are uniform at init
    net = make_network(("SIN",), input_count=4)
    dags = sample_many(net, np.random.default_rng(0), 100_000)
    picks = np.array([d.choices[0][0] for d in dags])
    freqs = np.bincount(picks, minlength=4) / len(picks)
    assert np.all(np.abs(freqs - 0.25) < 0.01)


def test_sampling_frequencies_weighted_row():
    net = make_network(("SIN",), input_count=2)
    net.weights[0][0] = [2.0, 0.0]
    dags = sample_many(net, np.random.default_rng(1), 100_000)
    picks = np.array([d.choices[0][0] for d in dags])
    freq0 = np.mean(picks == 0)
    assert abs(freq0 - 0.8807970779778823) < 0.01


def test_sampling_chi_square(rng):
    net = make_network(("ADD", "SIN"), input_count=2, constants=(1.0,), depth=1)
    for block in net.blocks():
        block += rng.normal(0, 0.8, size=block.shape)
    n = 100_000
    dags = sample_many(net, np.random.default_rng(3), n)
    for level in range(net.levels):
        probs = net.level_probs(level)
        for row in range(net.M):
            picks = np.array([d.choices[level][row] for d in dags])
            observed = np.bincount(picks, minlength=probs.shape[1])
            _, p = stats.chisquare(observed, probs[row] * n)
            assert p > 0.001


def test_log_probability_hand_enumerated():
    # one unary basis over two inputs, depth 1: row sizes 2, 3 and 4
    net = make_network(("SIN",), input_count=2, depth=1)
    chain = make_dag(net, [[1], [2]], [3])  # out -> sin@1 -> sin@0 -> x1
    assert log_probability(net, chain) == pytest.approx(math.log(1 / 24), abs=1e-12)
    direct = make_dag(net, [[0], [0]], [0])  # out -> x0: only the output row counts
    assert log_probability(net, direct) == pytest.approx(math.log(1 / 4), abs=1e-12)


def test_log_probability_output_subsets():
    net = fig1_network()
    dag = fig1b_dag(net)
    joint = log_probability(net, dag)
    only0 = log_probability(net, dag, output_subset={0})
    only1 = log_probability(net, dag, output_subset=[1])
    # the two output cones are disjoint here, so the joint factorizes
    assert joint == pytest.approx(only0 + only1, abs=1e-12)
    assert joint <= 0.0
    with pytest.raises(ValueError):
        log_probability(net, dag, output_subset={5})


def test_probability_normalization_tiny_networks(rng):
    for _ in range(8):
        net = random_tiny_network(rng, max_classes=30_000)
        classes = enumerate_classes(net)
        total = 0.0
        for oracle_prob, assignment in classes:
            dag = dag_from_assignment(net, assignment)
            impl = math.exp(log_probability(net, dag))
            assert impl == pytest.approx(oracle_prob, rel=1e-9)
            total += impl
        assert total == pytest.approx(1.0, abs=1e-9)


def _reachable_signature(net, dag):
    """Reachable choices only, via an independent walk from the output."""
    parts = [(-1, 0, int(dag.output_choices[0]))]
    seen = set()
    stack = []
    res = output_source(net, int(dag.output_choices[0]))
    if res[0] == "image":
        stack.append((res[1], res[2]))
    while stack:
        q, i = stack.pop()
        if (q, i) in seen:
            continue
        seen.add((q, i))
        for row in net.image_rows(i):
            s = int(dag.choices[q][row])
            parts.append((q, row, s))
            deeper = arg_source(net, q, s)
            if deeper[0] == "image":
                stack.append((deeper[1], deeper[2]))
    return tuple(sorted(parts))


def test_probability_normalization_full_tuple_enumeration():
    # small enough to enumerate every row assignment outright
    net = make_network(("SIN", "NEG"), input_count=2, depth=1)
    net.weights[0] += np.array([[0.3, -0.2], [0.1, 0.4]])
    net.weights[1] += np.array([[0.0, 0.5, -0.5, 0.2], [0.3, 0.0, 0.1, -0.1]])
    net.output_weights += np.array([[0.2, -0.3, 0.4, 0.0, 0.1, -0.2]])
    p0 = net.level_probs(0)
    p1 = net.level_probs(1)
    pout = net.output_probs()
    by_class: dict = {}
    rep_dag: dict = {}
    for lvl0 in itertools.product(range(2), range(2)):
        for lvl1 in itertools.product(range(4), range(4)):
            for out in range(6):
                prob = pout[0][out]
                for row in range(2):
                    prob *= p0[row][lvl0[row]] * p1[row][lvl1[row]]
                dag = make_dag(net, [list(lvl0), list(lvl1)], [out])
                key = _reachable_signature(net, dag)
                by_class[key] = by_class.get(key, 0.0) + prob
                rep_dag[key] = dag
    assert sum(by_class.values()) == pytest.approx(1.0, abs=1e-12)
    for key, total in by_class.items():
        impl = math.exp(log_probability(net, rep_dag[key]))
        assert impl == pytest.approx(total, rel=1e-9)


def test_evaluate_fig1b_values():
    net = fig1_network()
    dag = fig1b_dag(net)
    out = evaluate(net, dag, np.array([[0.0, 0.0]]))
    assert out[0, 0] == pytest.approx(math.sin(1.0) ** 2, abs=1e-12)
    assert out[0, 0] == pytest.approx(0.7080734182735712, abs=1e-9)
    assert out[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_evaluate_sentinel_isolated_per_output():
    net = make_network(("DIV", "ADD"), input_count=2, output_count=2, depth=1)
    # output 0 <- DIV(x0, x1) at level 0; output 1 <- x0 directly
    dag = make_dag(net, [[0, 1, 0, 0]], [2, 0])
    out = evaluate(net, dag, np.array([[1.0, 0.0], [1.0, 2.0]]))
    assert math.isnan(out[0, 0]) and out[0, 1] == 1.0
    assert out[1, 0] == 0.5 and out[1, 1] == 1.0


def test_evaluate_validates_shape():
    net = fig1_network()
    with pytest.raises(ValueError):
        evaluate(net, fig1b_dag(net), np.zeros((3, 5)))


def test_evaluate_matches_tree_interpreter(rng):
    for _ in range(30):
        net = random_tiny_network(rng, max_classes=10**9)
        dag = sample(net, rng)
        X = rng.uniform(-5, 5, (100, net.config.input_count))
        got = evaluate(net, dag, X)
        for j in range(net.config.output_count):
            expr = dag_to_expression(net, dag, j)
            for k in range(0, 100, 7):
                want = evaluate_tree(expr, X[k])
                if math.isnan(want):
                    assert math.isnan(got[k, j])
                else:
                    assert got[k, j] == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_evaluate_recurrent_increment():
    # f(x) = x + 1 through an ADD node at level 0
    net = make_network(("ADD",), input_count=1, constants=(1.0,), depth=1)
    dag = make_dag(net, [[0, 1]], [2])  # out -> ADD(x0, 1)@level0
    outs = evaluate_recurrent(net, dag, np.array([[0.0]]), 3)
    assert [o[0, 0] for o in outs] == [1.0, 2.0, 3.0]


def test_evaluate_recurrent_square():
    net = make_network(("SQUARE",), input_count=1, depth=1)
    dag = make_dag(net, [[0]], [1])  # out -> SQUARE(x0)@level0
    outs = evaluate_recurrent(net, dag, np.array([[2.0]]), 3)
    assert [o[0, 0] for o in outs] == [4.0, 16.0, 256.0]


def test_evaluate_recurrent_conditional_step():
    # g(x) = x + 2 if x < 2 else x - 1, traced twice from x = 0
    net = make_network(("IF_LEQ", "ADD", "SUB"), input_count=1,
                       constants=(1.0, 2.0), depth=1)
    # level 0: ADD(x0, 2) rows 4-5, SUB(x0, 1) rows 6-7
    # level 1: IF_LEQ(2, x0, SUB@0, ADD@0) rows 0-3
    lvl0 = [0, 0, 0, 0, 0, 2, 0, 1]
    lvl1 = [2, 0, 5, 4, 0, 0, 0, 0]
    dag = make_dag(net, [lvl0, lvl1], [6])  # out -> IF_LEQ@1
    outs = evaluate_recurrent(net, dag, np.array([[0.0]]), 2)
    assert [o[0, 0] for o in outs] == [2.0, 1.0]


def test_evaluate_recurrent_composes(rng):
    for _ in range(10):
        u = int(rng.integers(1, 3))
        net = make_network(("ADD", "SIN"), input_count=u, output_count=u, depth=1)
        dag = sample(net, rng)
        X = rng.uniform(-2, 2, (16, u))
        outs = evaluate_recurrent(net, dag, X, 5)
        for d in range(4):
            recomputed = evaluate(net, dag, outs[d])
            same = np.isclose(recomputed, outs[d + 1], rtol=0, atol=0, equal_nan=True)
            assert np.all(same | (np.isnan(recomputed) & np.isnan(outs[d + 1])))


def test_evaluate_recurrent_requires_square_network():
    net = make_network(("SIN",), input_count=2, output_count=1)
    dag = make_dag(net, [[0], [0]], [0])
    with pytest.raises(ValueError):
        evaluate_recurrent(net, dag, np.zeros((1, 2)), 2)
    with pytest.raises(ValueError):
        evaluate_recurrent(net, dag, np.zeros((1, 2)), 0)


def test_most_likely_dag():
    net = fig1_network()
    dag = most_likely_dag(net)
    assert all(np.all(c == 0) for c in dag.choices)
    assert np.all(dag.output_choices == 0)
    net.weights[1][2] = [0, 5, 0, 0, 0, 0, 0, 0]
    assert most_likely_dag(net).choices[1][2] == 1



CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _row_searches(probs, r):
    """The draw as one ``searchsorted`` per selection row."""
    cum = np.cumsum(probs, axis=1)
    idx = np.empty(r.shape, dtype=np.int64)
    for m in range(probs.shape[0]):
        idx[:, m] = np.searchsorted(cum[m], r[:, m], side="right")
    return np.minimum(idx, probs.shape[1] - 1)


def _check_draw(probs, r):
    """Both forms of ``_draw``, and the one its gate picks, equal the
    per-row searches on the uniforms ``r``.  The compare form counts in
    bytes, so it is forced only on rows of at most 256 sources."""
    want = _row_searches(probs, r)
    width = probs.shape[1]
    for gate in (sampler.DRAW_COMPARE_SOURCES, 0, width if width <= 256 else 0):
        with mock.patch.object(sampler, "DRAW_COMPARE_SOURCES", gate):
            got = _draw(probs, r)
        assert got.dtype == np.int64 and np.array_equal(got, want)


def _form(probs, r):
    """The form that ``_draw`` takes on ``probs``: "compare" or "search"."""
    with mock.patch.object(np, "less_equal", wraps=np.less_equal) as compare:
        _draw(probs, r)
    return "compare" if compare.called else "search"


def _ties(probs, rng, count):
    """Uniforms drawn from 0.0 and the rows' own cumulative sums."""
    cum = np.cumsum(probs, axis=1)
    pool = np.concatenate([[0.0], cum[cum < 1.0]])
    r = rng.choice(pool, size=(count, probs.shape[0]))
    # and each row's own sums, exactly
    for m in range(probs.shape[0]):
        r[:, m] = rng.choice(np.concatenate([[0.0], cum[m][cum[m] < 1.0]]), size=count)
    return r


def test_draw_equals_row_searches_on_adversarial_rows():
    rng = np.random.default_rng(3)
    for width in (1, 2, 3, 9, 40):
        for rows in (1, 4, 17):
            weights = rng.normal(0.0, 2.0, size=(rows, width))
            # sources of probability exactly 0, and rows of one source
            weights[rng.random(weights.shape) < 0.4] = -1e8
            if width > 1:
                zero = rng.integers(0, width, rows)
                weights[np.arange(rows), zero] = -1e8
                weights[np.arange(rows), (zero + 1) % width] = 0.0
            probs = np.exp(weights - weights.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            assert width == 1 or np.all(np.any(probs == 0.0, axis=1))
            for count in (1, 2, 50, 150):
                _check_draw(probs, rng.random((count, rows)))
                _check_draw(probs, _ties(probs, rng, count))


def test_draw_gate_sits_between_its_forms():
    # blocks just inside and just past the gate: the row width picks the
    # form, whatever the draw count
    rng = np.random.default_rng(4)
    edge = sampler.DRAW_COMPARE_SOURCES
    assert edge <= 256  # the compare's counts are bytes
    for width in (edge - 1, edge, edge + 1):
        for count in (1, 50, 150):
            probs = rng.dirichlet(np.full(width, 0.3), size=5)
            r = rng.random((count, 5))
            assert _form(probs, r) == ("compare" if width <= edge else "search")
            _check_draw(probs, r)
            _check_draw(probs, _ties(probs, rng, count))


def test_draw_caps_at_the_last_source():
    # sums that end below 1.0: a uniform at or above the last sum draws the
    # last source, in the compare form with no clamp
    probs = np.full((2, 10), 0.1)
    probs[1, 9] = 0.0
    last = probs.cumsum(axis=1)[:, -1]
    assert np.all(last < 1.0)
    r = np.array([last, np.nextafter(last, 1.0), [0.5, 0.5]])
    assert _form(probs, r) == "compare"
    _check_draw(probs, r)
    assert np.array_equal(_draw(probs, r)[:2], [[9, 9], [9, 9]])


def test_draw_searches_image_rows():
    # a block as wide as MNIST's first level, at its configs' 150 draws:
    # there the compare is several times slower, and its byte counts wrap
    rng = np.random.default_rng(8)
    probs = rng.dirichlet(np.full(791, 0.5), size=42)
    r = rng.random((150, 42))
    assert _form(probs, r) == "search"
    _check_draw(probs, r)


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.stem)
def test_draw_equals_row_searches_on_every_config(path):
    # every block of every shipped network, the MNIST ones included; none
    # needs its data to be built
    exp = parse_config(path)
    net = build_network(exp.network)
    rng = np.random.default_rng(5)
    for block in net.blocks():
        block += rng.normal(0.0, 2.0, size=block.shape)
    count = exp.training.sample_count
    for probs in net.block_probs():
        _check_draw(probs, rng.random((count, probs.shape[0])))
        _check_draw(probs, _ties(probs, rng, count))


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.ini")), ids=lambda p: p.stem)
def test_one_uniform_draw_equals_a_draw_per_block(path):
    # sample_many's one call for every block's uniforms consumes the
    # generator as one call per block did, and gives the same choices
    net = build_network(parse_config(path).network)
    rng = np.random.default_rng(6)
    for block in net.blocks():
        block += rng.normal(0.0, 2.0, size=block.shape)
    for count in (1, 50, 100):
        got_rng, want_rng = np.random.default_rng(count), np.random.default_rng(count)
        population = sample_many(net, got_rng, count)
        want = [_row_searches(p, want_rng.random((count, len(p)))) for p in net.block_probs()]
        for got, choices in zip((*population.choices, population.output_choices), want):
            assert got.dtype == np.int64 and np.array_equal(got, choices)
        assert got_rng.random() == want_rng.random()
