import contextlib
import csv
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from softdag import (
    AdamState,
    ConfigError,
    CsvTrainLogger,
    Dataset,
    NetworkConfig,
    TrainConfig,
    adam_step,
    build_network,
    dag_to_expression,
    fitness,
    log_probability,
    loss_gradient,
    most_likely_dag,
    numeric_equivalent,
    parse,
    sample,
    select_top,
    simplify,
    to_string,
    train,
    train_epoch,
)
from softdag import cli, data, plan, sampler, trainer
from softdag.data import ResamplingSource, TargetSpec
from softdag.expression import Interval
from softdag.cli import parse_config, run_trial, summarize
from softdag.rng import EPOCH_STREAM, derive_rng
from softdag.trainer import TrainRun, VERDICT_CONVERGED, VERDICT_ZERO_FITNESS
from softdag.plan import evaluate, evaluate_recurrent
from softdag.sampler import sample_many
from softdag.scoring import population_fitness

from conftest import make_dag, make_network, random_tiny_network, reference_reachable_images


def test_fitness_values():
    assert fitness([1.0, 2.0], [1.0, 2.0], 1.0) == pytest.approx(
        0.7978845608028654, abs=1e-12
    )
    assert fitness([1.0], [2.0], 1.0) == pytest.approx(0.24197072451914337, abs=1e-12)
    assert fitness([np.nan, np.nan], [1.0, 2.0], 1.0) == 0.0
    assert fitness([np.inf], [1.0], 1.0) == 0.0
    with pytest.raises(ValueError):
        fitness([1.0], [1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        fitness([1.0], [1.0], 0.0)


def test_loss_gradient_zero_fitness():
    net = make_network(("SIN",), input_count=2)
    dag = sample(net, np.random.default_rng(0))
    grads = loss_gradient(net, dag, 0.0, 0)
    assert all(np.all(g == 0) for g in grads)


def test_loss_gradient_single_row_value():
    # two-source uniform row: gradient is (p - e_c) * K / T = [-0.5, +0.5]
    net = make_network(("SIN",), input_count=2, depth=1)
    dag = make_dag(net, [[0], [0]], [2])  # out -> sin@0, whose row picks x0
    grads = loss_gradient(net, dag, 1.0, 0)
    assert np.allclose(grads[0][0], [-0.5, 0.5], atol=1e-12)
    assert np.all(grads[1] == 0)  # level 1 unreachable


def test_loss_gradient_unreachable_rows_zero(rng):
    net = random_tiny_network(rng, max_classes=10**9)
    dag = sample(net, rng)
    grads = loss_gradient(net, dag, 2.0, 0)
    reachable = reference_reachable_images(net, dag, (0,))
    for level in range(net.levels):
        for i in range(net.N):
            rows = net.image_rows(i)
            if (level, i) not in reachable:
                assert np.all(grads[level][list(rows)] == 0)


def _finite_difference(net, dag, K, j, h=1e-5):
    grads = []
    for block in net.blocks():
        g = np.zeros_like(block)
        it = np.nditer(block, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            keep = block[idx]
            block[idx] = keep + h
            up = -K * log_probability(net, dag, (j,))
            block[idx] = keep - h
            down = -K * log_probability(net, dag, (j,))
            block[idx] = keep
            g[idx] = (up - down) / (2 * h)
            it.iternext()
        grads.append(g)
    return grads


def test_gradient_matches_finite_differences(rng):
    for _ in range(10):
        net = random_tiny_network(rng, max_classes=10**9)
        dag = sample(net, rng)
        K = float(rng.uniform(0.1, 5.0))
        j = int(rng.integers(net.config.output_count))
        analytic = loss_gradient(net, dag, K, j)
        numeric = _finite_difference(net, dag, K, j)
        for a, n in zip(analytic, numeric):
            scale = max(np.abs(n).max(), 1e-8)
            assert np.abs(a - n).max() / scale < 1e-5


def test_gradient_step_increases_probability(rng):
    # plain gradient-descent step on the loss raises the graph's probability
    for _ in range(10):
        net = random_tiny_network(rng, max_classes=10**9)
        dag = sample(net, rng)
        before = log_probability(net, dag)
        grads = loss_gradient(net, dag, float(rng.uniform(0.5, 3.0)), 0)
        alpha = float(rng.uniform(0.01, 0.1))
        for block, g in zip(net.blocks(), grads):
            block -= alpha * g
        after = log_probability(net, dag)
        assert after > before


def test_select_top():
    K = np.array([[0.1], [0.9], [0.5]])
    picks = select_top(K, 2)
    assert [c for c, _ in picks[0]] == [1, 2]
    two_col = np.array([[0.1, 0.9], [0.9, 0.1], [0.5, 0.5]])
    picks = select_top(two_col, 1)
    assert picks[0][0][0] == 1 and picks[1][0][0] == 0
    ties = np.array([[0.3], [0.3], [0.3]])
    assert [c for c, _ in select_top(ties, 2)[0]] == [0, 1]
    with pytest.raises(ConfigError):
        select_top(K, 4)


def test_select_top_scale_invariance(rng):
    K = rng.uniform(0, 1, size=(20, 2))
    base = select_top(K, 5)
    scaled = select_top(K * 37.5, 5)
    for j in range(2):
        assert [c for c, _ in base[j]] == [c for c, _ in scaled[j]]


def _lexsort_picks(K, count):
    """``select_top`` as one ``lexsort`` per output, ties to the lower
    candidate index."""
    picks = []
    for j in range(K.shape[1]):
        order = np.lexsort((np.arange(len(K)), -K[:, j]))[:count]
        picks.append([(int(c), float(K[c, j])) for c in order])
    return picks


def test_select_top_equals_a_lexsort_per_output(rng):
    # few distinct values, so candidates tie; -inf marks a column that
    # selection skipped, and -0.0 ties with 0.0
    for outputs in (1, 4):
        for _ in range(40):
            n = int(rng.integers(1, 30))
            K = rng.choice([0.0, -0.0, 0.5, 1.0, 2.5, -np.inf], size=(n, outputs))
            for count in sorted({1, min(3, n), n}):
                got, want = select_top(K, count), _lexsort_picks(K, count)
                assert got == want
                bits = [[np.float64(k).tobytes() for _, k in p] for p in (*got, *want)]
                assert bits[:outputs] == bits[outputs:]
                assert all(type(c) is int and type(k) is float for p in got for c, k in p)


def test_adam_zero_gradient_fresh_state():
    blocks = [np.ones((2, 3))]
    state = AdamState.from_blocks(blocks)
    adam_step(blocks, [np.zeros((2, 3))], state, 0.1)
    assert np.all(blocks[0] == 1.0)
    assert state.step == 1


def test_adam_first_step_is_signed_learning_rate():
    blocks = [np.array([[1.0, 1.0]])]
    state = AdamState.from_blocks(blocks)
    g = np.array([[0.3, -2.0]])
    adam_step(blocks, [g], state, 0.05)
    delta = blocks[0] - 1.0
    assert np.allclose(np.abs(delta), 0.05, rtol=1e-6)
    assert np.all(np.sign(delta) == -np.sign(g))


def test_adam_repeated_gradient_monotone_drift():
    blocks = [np.zeros(3)]
    state = AdamState.from_blocks(blocks)
    g = np.array([1.0, -1.0, 0.5])
    prev = blocks[0].copy()
    for _ in range(10):
        adam_step(blocks, [g], state, 0.01)
        step = blocks[0] - prev
        assert np.all(np.sign(step) == -np.sign(g))
        prev = blocks[0].copy()


def _sin_target_spec():
    target = parse("sin(x0)")
    return TargetSpec(
        kind="explicit",
        input_ranges=(Interval(-3.0, 3.0),),
        expression=(target,),
        name="sin",
    )


def test_train_epoch_reduces_to_single_sample_update():
    # R = 1, top-1, single output: one epoch applies exactly one
    # fitness-weighted log-likelihood gradient through Adam
    spec = _sin_target_spec()
    config = TrainConfig(
        sample_count=1, select_count=1, variance=0.1, learning_rate=0.05,
        max_epochs=10, batch_size=64, seed=11,
    )
    net = build_network(NetworkConfig(bases=("SIN", "ADD"), input_count=1, depth=1))
    reference = build_network(net.config)
    for dst, src in zip(reference.blocks(), net.blocks()):
        dst[...] = src

    run = TrainRun(network=net, adam=AdamState.from_blocks([net.params]))
    X, Y = ResamplingSource(spec, config.batch_size, config.seed).batch(1)
    train_epoch(run, (X, Y), config)

    rng = derive_rng(config.seed, EPOCH_STREAM, 1)
    dag = sample_many(reference, rng, 1)[0]
    K = fitness(evaluate(reference, dag, X)[:, 0], Y[:, 0], config.variance)
    grads = loss_gradient(reference, dag, K, 0)
    state = AdamState.from_blocks(reference.blocks())
    adam_step(reference.blocks(), grads, state, config.learning_rate)
    for a, b in zip(net.blocks(), reference.blocks()):
        assert np.array_equal(a, b)


def test_rows_remain_distributions_after_steps():
    spec = _sin_target_spec()
    net = build_network(NetworkConfig(bases=("SIN", "ADD"), input_count=1, depth=1))
    config = TrainConfig(sample_count=10, select_count=2, variance=0.1,
                         learning_rate=0.1, max_epochs=20, batch_size=64, seed=3)
    train(net, spec, config)
    for level in range(net.levels):
        probs = net.level_probs(level)
        assert np.all(probs > 0)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_train_discovers_sine_and_is_deterministic():
    spec = _sin_target_spec()
    config = TrainConfig(sample_count=10, select_count=2, variance=0.1,
                         learning_rate=0.05, max_epochs=400, batch_size=128, seed=5)
    runs, selected = [], []
    for _ in range(2):
        net = build_network(
            NetworkConfig(bases=("SIN", "ADD"), input_count=1, depth=1)
        )
        picks = []
        runs.append(train(net, spec, config, logger=lambda _, s: picks.append(s.selected)))
        selected.append(picks)
    a, b = runs
    assert a.verdict == VERDICT_CONVERGED
    assert a.verdict == b.verdict and a.converged_epoch == b.converged_epoch
    for x, y in zip(a.network.blocks(), b.network.blocks()):
        assert np.array_equal(x, y)
    assert selected[0] == selected[1]
    expr = simplify(dag_to_expression(a.network, most_likely_dag(a.network), 0))
    assert numeric_equivalent(expr, parse("sin(x0)"), (Interval(-3, 3),), tol=1e-9)


def test_train_converges_on_degenerate_data():
    # constant-capable vocabulary against one repeated point saturates at once
    net = build_network(
        NetworkConfig(bases=("ADD", "MUL"), input_count=1, constants=(1.0,), depth=1)
    )
    data = Dataset(np.full((8, 1), 2.0), np.full((8, 1), 1.0))
    config = TrainConfig(sample_count=20, select_count=2, variance=0.1,
                         learning_rate=0.05, max_epochs=200, patience=10,
                         batch_size=8, seed=0)
    run = train(net, data, config)
    assert run.verdict == VERDICT_CONVERGED
    assert run.converged_epoch <= 30


def test_zero_fitness_everywhere_is_not_converged():
    # no ADD/MUL graph over x0 comes near 1e6, so every candidate scores 0.0
    # and the stop criterion's equal-fitness streak fills with zeros
    net = build_network(NetworkConfig(bases=("ADD", "MUL"), input_count=1, depth=1))
    rng = np.random.default_rng(0)
    data = Dataset(rng.uniform(-1.0, 1.0, (64, 1)), np.full((64, 1), 1e6))
    config = TrainConfig(sample_count=20, select_count=2, variance=0.1,
                         learning_rate=0.05, max_epochs=200, patience=10,
                         batch_size=64, seed=0)
    picks = []
    run = train(net, data, config, logger=lambda _, s: picks.append(s.selected))
    assert run.verdict == VERDICT_ZERO_FITNESS
    assert run.converged_epoch is None and run.epoch == 10
    assert all(k == 0.0 for sel in picks for s in sel for k in s)
    row = {"verdict": run.verdict, "epochs": run.epoch, "equivalent": False,
           "accuracy": ""}
    summary = summarize("zero", [row], 1)
    assert summary["eta"] == 0.0 and summary["median_convergence_epochs"] is None


def test_recurrent_candidates_and_depth_scaling():
    net = build_network(
        NetworkConfig(bases=("ADD",), input_count=1, constants=(1.0,), depth=1)
    )
    dag = make_dag(net, [[0, 1]], [2])  # x0 + 1
    double = make_dag(net, [[0, 0]], [2])  # x0 + x0
    X = np.zeros((4, 1))
    Y = np.full((4, 1), 3.0)
    assert evaluate_recurrent(net, dag, X, 3)[2][0, 0] == 3.0
    # candidates run sample-major, then depth: only (0, 3) hits 3.0 exactly
    K = population_fitness(net, [dag, double], X, Y, 3, 0.1)
    assert K.shape == (6, 1)
    assert int(np.argmax(K[:, 0])) == 2
    for r, graph in enumerate((dag, double)):
        outs = evaluate_recurrent(net, graph, X, 3)
        for d in range(3):
            assert K[3 * r + d, 0] == fitness(outs[d][:, 0], Y[:, 0], 0.1)
    shallow = loss_gradient(net, dag, 1.0, 0, depth=1)
    deep = loss_gradient(net, dag, 1.0, 0, depth=3)
    for a, b in zip(shallow, deep):
        assert np.allclose(3.0 * a, b)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(sample_count=5, select_count=6)
    with pytest.raises(ConfigError):
        TrainConfig(variance=-1.0)
    with pytest.raises(ConfigError):
        TrainConfig(recurrence_depth=2).validate_for(NetworkConfig(bases=("SIN",), input_count=2))
    with pytest.raises(ConfigError):
        TrainConfig(recurrence_depth=2).validate_for(
            NetworkConfig(bases=("SIN",), input_count=2, output_count=2))
    TrainConfig(recurrence_depth=2).validate_for(NetworkConfig(bases=("SIN",), input_count=1))


def test_csv_logger_matches_extracting_every_epoch(tmp_path):
    exp = parse_config(Path(__file__).resolve().parent.parent / "configs" / "poly_2x2_3x.ini")
    training = replace(exp.training, max_epochs=80, patience=81)
    net = build_network(exp.network)
    with CsvTrainLogger(tmp_path / "cached.csv", net) as logger:
        train(net, exp.target, training, logger=logger)

    # the same run, logged by extracting the argmax expressions every epoch
    with open(tmp_path / "every.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["epoch", "best_fitness_0", "mean_selected_fitness", "expression"])

        def every_epoch(run, stats):
            dag = most_likely_dag(run.network)
            expr = to_string(simplify(dag_to_expression(run.network, dag, 0)))
            writer.writerow([stats.epoch, repr(float(stats.best[0])), repr(stats.mean_selected), expr])

        train(build_network(exp.network), exp.target, training, logger=every_epoch)
    cached = (tmp_path / "cached.csv").read_bytes()
    assert cached == (tmp_path / "every.csv").read_bytes()
    # the expression both changes and repeats, so both branches ran
    with open(tmp_path / "cached.csv", newline="") as f:
        exprs = [row[-1] for row in list(csv.reader(f))[1:]]
    changes = sum(a != b for a, b in zip(exprs, exprs[1:]))
    assert len(exprs) == 80 and 0 < changes < len(exprs) - 1


def test_closed_csv_logger_releases_its_writer(tmp_path):
    exp = parse_config(Path(__file__).resolve().parent.parent / "configs" / "poly_2x2_3x.ini")
    net = build_network(exp.network)
    epochs = []
    train(net, exp.target, replace(exp.training, max_epochs=5, patience=6),
          logger=lambda run, stats: epochs.append((run, stats)))
    path = tmp_path / "log.csv"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        logger = CsvTrainLogger(path, net)
        for run, stats in epochs:
            logger(run, stats)
        logger.close()
        # the csv writer's record buffer alone is 128 KiB after one row
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 16 * 1024, held
    logger.close()  # a second close does nothing
    assert len(path.read_text().splitlines()) == 1 + len(epochs)
    with pytest.raises(ValueError, match="closed"):
        logger(*epochs[0])


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _counted(owner, name, counts):
    """Patch ``owner.name`` with a wrapper that counts its calls."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return real(*args, **kwargs)

    return mock.patch.object(owner, name, counted)


def _train_config(name, epochs):
    exp = parse_config(CONFIG_DIR / f"{name}.ini")
    network = build_network(exp.network)
    train(network, exp.target, replace(exp.training, max_epochs=epochs, patience=epochs + 1))


@pytest.mark.parametrize("name, passes", [
    ("poly_2x2_3x", 1), ("recurrent_halfsquare", 1), ("lfsr4", 2),
])
def test_reachability_passes_per_epoch(name, passes):
    # the plan's pass serves the gradient when the network has one output;
    # with several it holds only their union, so each pair's rows are found
    # again
    counts = {}
    with _counted(plan, "reachable_images", counts), _counted(sampler, "reachable_images", counts):
        _train_config(name, 3)
    assert counts == {"reachable_images": 3 * passes}


def test_traced_benchmark_targets_run_once_per_epoch():
    # the traced benchmark times the draw, Adam, the epoch and the batch by
    # patching these names; each must still run once per epoch
    counts = {}
    with (
        _counted(trainer, "sample_many", counts),
        _counted(trainer, "adam_step", counts),
        _counted(trainer, "train_epoch", counts),
        _counted(data.ResamplingSource, "batch", counts),
    ):
        _train_config("poly_2x2_3x", 3)
    assert counts == {"sample_many": 3, "adam_step": 3, "train_epoch": 3, "batch": 3}


def test_traced_benchmark_cli_targets_run_through_cli(tmp_path):
    # the traced benchmark times a trial's training, extraction, checks and
    # save by patching these names on softdag.cli; a trial must still call
    # each of them through it
    names = ("train", "dag_to_expression", "simplify", "evaluate_tree_batch",
             "values_equivalent", "save_network")
    exp = parse_config(CONFIG_DIR / "poly_2x2_3x.ini")
    exp = replace(exp, training=replace(exp.training, max_epochs=5))
    counts = {}
    with contextlib.ExitStack() as stack:
        for name in names:
            stack.enter_context(_counted(cli, name, counts))
        run_trial(exp, 0, out_dir=tmp_path)
    assert sorted(counts) == sorted(names) and min(counts.values()) >= 1, counts
