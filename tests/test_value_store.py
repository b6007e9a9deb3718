"""The value store: training that keeps the plan's values from one epoch to
the next equals training that computes them afresh, in every pick and in
the final weights, bit for bit."""

from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

from softdag import DatasetSource, build_network, generate, sample_many, train
from softdag import plan, trainer
from softdag.cli import parse_config
from softdag.plan import PopulationPlan, ValueStore

from conftest import make_network, same_bits

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

_real_take, _real_keep = ValueStore._take, ValueStore._keep


def _config_training(name, epochs, **fields):
    exp = parse_config(CONFIG_DIR / f"{name}.ini")
    training = replace(exp.training, max_epochs=epochs, patience=epochs + 1, **fields)
    return exp, training


def _train(exp, data, training, reuse=True, reused=None):
    """Train a fresh network of ``exp`` on ``data``.  Returns its weights,
    each epoch's picks, per epoch the number of ids of the store it reused
    (``None`` for a fresh start; appended to ``reused`` as the epochs go)
    and the size of each store kept for the next epoch.  Without ``reuse``
    the store keeps nothing, so every epoch starts fresh."""
    picks, sizes = [], []
    reused = [] if reused is None else reused
    real_select = trainer.population_select

    def select(*args):
        got = real_select(*args)
        picks.append(got)
        return got

    def take(store, *args):
        kept = _real_take(store, *args)
        reused.append(None if kept is None else len(kept.canon))
        return kept

    def keep(store, kept):
        if reuse:
            _real_keep(store, kept)
        if store._kept is not None:
            # the buffer, and one value row per id
            sizes.append(max(kept.buf.nbytes, len(kept.canon) * 8 * kept.buf.shape[1]))

    network = build_network(exp.network)
    with (
        mock.patch.object(trainer, "population_select", select),
        mock.patch.object(ValueStore, "_take", take),
        mock.patch.object(ValueStore, "_keep", keep),
    ):
        train(network, data, training)
    return network.blocks(), picks, reused, sizes


def _same_trajectory(got, want):
    (blocks, picks, *_), (fresh_blocks, fresh_picks, fresh, _) = got, want
    assert picks == fresh_picks
    assert all(same_bits(a, b) for a, b in zip(blocks, fresh_blocks))
    assert not any(fresh)


def _same_training(exp, data, training):
    """Train with the store and with it forced to miss; both must agree.
    Returns the first run's reused-store sizes and kept sizes."""
    got = _train(exp, data, training)
    _same_trajectory(got, _train(exp, data, training, reuse=False))
    return got[2:]


def test_lfsr4_reuses_values_with_the_same_trajectory():
    # lfsr4's batches hold the same 16 distinct rows every epoch: from the
    # third epoch on, each call starts from the last call's values
    exp, training = _config_training("lfsr4", 150)
    reused, _ = _same_training(exp, exp.target, training)
    assert reused[:2] == [None, None] and all(reused[2:])


def _stationary(exp, rows):
    """A dataset of ``rows`` rows of ``exp``'s target, served whole every
    epoch."""
    return generate(exp.target, rows, np.random.default_rng(3))


def test_stationary_dataset_reuses_values_at_depth_1():
    exp, training = _config_training("poly_2x2_3x", 60, batch_size=40)
    data = _stationary(exp, 40)
    assert DatasetSource(data, training.batch_size, 0).stationary
    reused, _ = _same_training(exp, data, training)
    assert all(reused[2:])


def test_swept_values_are_computed_again_at_depth_0_of_a_reused_store():
    # depth 4: each depth boundary frees the values the next depth cannot
    # read, so the next epoch meets their keys at depth 0 with no row
    exp, training = _config_training("recurrent_halfsquare", 30, batch_size=8)
    assert training.recurrence_depth == 4
    data = _stationary(exp, 8)
    again, reused = [], []
    real_evaluate = PopulationPlan._evaluate

    def evaluate(plan, keys, todo):
        # no columns yet: depth 0; ids below the kept ones: met before
        if plan.columns == 0 and reused[-1]:
            again.append(int(np.count_nonzero(todo < reused[-1])))
        return real_evaluate(plan, keys, todo)

    with mock.patch.object(PopulationPlan, "_evaluate", evaluate):
        got = _train(exp, data, training, reused=reused)
    _same_trajectory(got, _train(exp, data, training, reuse=False))
    assert all(reused[2:])
    assert sum(again) > 0


def _column_values(network, dags, X, store):
    """Every column the plan hands its sink, in candidate order."""
    values = []
    p = PopulationPlan(network, dags)
    p.run(X, lambda buf, rows, outs, readers: values.extend(buf[rows]), store=store)
    return np.array(values)[p.index]


def test_a_different_network_on_the_same_rows_starts_fresh():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 1))
    bases = ("ADD", "MUL", "DIV", "SUB")
    nets = [
        make_network(bases, input_count=1, constants=(c,), depth=2) for c in (0.0, -0.0, 2.0)
    ]
    nets.append(make_network(bases[::-1], input_count=1, constants=(2.0,), depth=2))
    store = ValueStore()
    takes = []

    def take(store, *args):
        kept = _real_take(store, *args)
        takes.append(kept is not None)
        return kept

    with mock.patch.object(ValueStore, "_take", take):
        for net in nets:
            dags = sample_many(net, rng, 30)
            want = _column_values(net, dags, X, None)
            for _ in range(3):
                got = _column_values(net, dags, X, store)
                assert same_bits(got, want)
    # each network's third call reuses its second's values, and the first
    # call of the next network, with -0.0 for 0.0 too, starts fresh
    assert takes == [False, False, True] * len(nets)


def test_store_restarts_past_its_budget():
    exp, training = _config_training("lfsr4", 120)
    with mock.patch.object(plan, "STORE_BYTES", 64 << 10):
        reused, sizes = _same_training(exp, exp.target, training)
    assert sizes and max(sizes) <= 64 << 10
    # the store filled up, started fresh and was reused again
    restarts = [i for i in range(3, len(reused)) if reused[i] is None]
    assert restarts and any(reused[restarts[0] + 1:])


def test_no_depth_1_call_scores_two_equal_columns_of_an_output():
    exp, training = _config_training("lfsr4", 60)
    calls = []
    real_run = PopulationPlan.run

    def run(p, X, sink, chunk=plan.CHUNK_ROWS, store=None):
        seen = set()

        def checked(buf, rows, outs, readers):
            for row, out in zip(rows.tolist(), outs.tolist()):
                column = (out, buf[row].tobytes())
                assert column not in seen
                seen.add(column)
            sink(buf, rows, outs, readers)

        calls.append(p.depth)
        return real_run(p, X, checked, chunk, store)

    with mock.patch.object(PopulationPlan, "run", run):
        _train(exp, exp.target, training)
    assert calls == [1] * 60


def test_rows_past_the_budget_are_not_remembered():
    net = make_network(("ADD", "MUL"), input_count=1, constants=(1.0,))
    dags = sample_many(net, np.random.default_rng(2), 10)
    X = np.linspace(-1.0, 1.0, 64)[:, None]
    store = ValueStore()
    with mock.patch.object(plan, "STORE_BYTES", X.nbytes - 1):
        for _ in range(3):
            assert same_bits(_column_values(net, dags, X, store), _column_values(net, dags, X, None))
            assert store._last is None and store._kept is None
