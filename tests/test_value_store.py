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
from softdag.plan import PopulationPlan, ValueStore, evaluate_recurrent
from softdag.scoring import population_select

from conftest import cyclic_garbage, make_dag, make_network, same_bits

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _config_training(name, epochs, **fields):
    exp = parse_config(CONFIG_DIR / f"{name}.ini")
    training = replace(exp.training, max_epochs=epochs, patience=epochs + 1, **fields)
    return exp, training


def _held(store):
    """The number of ids whose values ``store`` holds for the next run, else
    ``None``."""
    return None if store.buf is None else len(store.canon)


def _train(exp, data, training, reuse=True):
    """Train a fresh network of ``exp`` on ``data``.  Returns its weights,
    each epoch's picks, per epoch the number of ids of the store it reused
    (``None`` for a fresh start), the size of each store kept for the next
    epoch and, per reused store, how many of its canonical ids without a
    row had one again after the epoch.  Without ``reuse`` no rows fit in
    the store, so every epoch starts fresh."""
    picks, reused, sizes, again = [], [], [], []
    real_select = trainer.population_select

    def select(*args):
        store = args[-1]
        held = _held(store)
        if held is not None:
            swept = (store.canon == np.arange(held)) & (store.rows < 0)
        got = real_select(*args)
        picks.append(got)
        reused.append(held if store.repeated else None)
        if reused[-1] is not None:
            again.append(int(np.count_nonzero(swept & (store.rows[:held] >= 0))))
        if store.buf is not None:
            sizes.append(store.nbytes)
        return got

    network = build_network(exp.network)
    with (
        mock.patch.object(trainer, "population_select", select),
        mock.patch.object(plan, "STORE_BYTES", plan.STORE_BYTES if reuse else -1),
    ):
        train(network, data, training)
    return network.blocks(), picks, reused, sizes, again


def _same_trajectory(got, want):
    (blocks, picks, *_), (fresh_blocks, fresh_picks, fresh, *_) = got, want
    assert picks == fresh_picks
    assert all(same_bits(a, b) for a, b in zip(blocks, fresh_blocks))
    assert not any(fresh)


def _same_training(exp, data, training):
    """Train with the store and with it forced to miss; both must agree.
    Returns the first run's reused-store sizes, kept sizes and ids given
    rows again."""
    got = _train(exp, data, training)
    _same_trajectory(got, _train(exp, data, training, reuse=False))
    return got[2:]


def test_lfsr4_reuses_values_with_the_same_trajectory():
    # lfsr4's batches hold the same 16 distinct rows every epoch: from the
    # third epoch on, each call starts from the last call's values
    exp, training = _config_training("lfsr4", 150)
    reused, *_ = _same_training(exp, exp.target, training)
    assert reused[:2] == [None, None] and all(reused[2:])


def _stationary(exp, rows):
    """A dataset of ``rows`` rows of ``exp``'s target, served whole every
    epoch."""
    return generate(exp.target, rows, np.random.default_rng(3))


def test_stationary_dataset_reuses_values_at_depth_1():
    exp, training = _config_training("poly_2x2_3x", 60, batch_size=40)
    data = _stationary(exp, 40)
    assert DatasetSource(data, training.batch_size, 0).stationary
    reused, *_ = _same_training(exp, data, training)
    assert all(reused[2:])


def test_stationary_dataset_reuses_values_at_depth_4():
    # each depth boundary frees the values the next depth cannot read, so
    # the next epoch meets their keys with no row and computes them again
    exp, training = _config_training("recurrent_halfsquare", 30, batch_size=8)
    assert training.recurrence_depth == 4
    reused, _, again = _same_training(exp, _stationary(exp, 8), training)
    assert all(reused[2:])
    assert sum(again) > 0


def _column_values(network, dags, X, store, depth=1):
    """Every column the plan hands its sink, in candidate order."""
    values = []
    p = PopulationPlan(network, dags, depth)
    p.run(X, lambda buf, rows, outs, readers: values.extend(buf[rows]), store)
    return np.array(values)[p.index]


def _recurrent_population(rows):
    """A network with one input and one output, 30 graphs sampled on it and
    ``rows`` rows of inputs."""
    net = make_network(
        ("IF_LEQ", "ADD", "MUL", "DIV"), input_count=1, constants=(1.0, 2.0), depth=2
    )
    rng = np.random.default_rng(8)
    return net, sample_many(net, rng, 30), rng.uniform(-8.0, 8.0, size=(rows, 1))


def test_swept_values_are_computed_again_at_depth_0_of_a_reused_store():
    # the second depth-3 run keeps its values, of which the depth
    # boundaries swept depth 0's inner ones; a depth-1 run on the same rows
    # computes those again under their old ids
    net, dags, X = _recurrent_population(20)
    store = ValueStore()
    for _ in range(2):
        _column_values(net, dags, X, store, 3)
    held = _held(store)
    swept = (store.canon == np.arange(held)) & (store.rows < 0)
    got = _column_values(net, dags, X, store)
    assert store.repeated and np.any(swept & (store.rows[:held] >= 0))
    fresh = ValueStore()
    assert same_bits(got, _column_values(net, dags, X, fresh))
    assert store.evaluated < fresh.evaluated


def test_a_value_whose_sample_another_live_value_holds_keeps_its_own_id():
    # x0 is 1 on the first HASH_LANES rows and 2 on the last, so x0 + x0 and
    # 1 + 1 share their hash key: x0 + x0, met first, holds the table's
    # place, and 1 + 1 and the output min(x0 + x0, 1 + 1), whose value is
    # 1 + 1's, keep their own ids out of the table.  The depth boundary
    # frees x0 + x0 and its entry.  At depth 1 the output has the depth-0
    # output's value under a new key, but the table holds neither, so the
    # two depths' outputs are two columns of equal bits
    net = make_network(("ADD", "ADD", "MIN"), input_count=1, constants=(1.0,), depth=2)
    dag = make_dag(net, [[0, 0, 1, 1], [0, 0, 0, 0, 2, 3]], [7])
    X = np.ones((plan.HASH_LANES + 1, 1))
    X[-1] = 2.0
    p = PopulationPlan(net, [dag], 2)
    store = ValueStore()
    values = []
    p.run(X, lambda buf, rows, outs, readers: values.extend(buf[rows]), store)
    # x0 + x0, 1 + 1 and the output at depth 0, and again but for 1 + 1
    assert store.evaluated == 5 and store.merged == 0
    assert p.columns == 2 and p.index.tolist() == [[0], [1]]
    got = np.array(values)[p.index]
    want = evaluate_recurrent(net, dag, X, 2)
    assert all(same_bits(got[d, 0], want[d][:, 0]) for d in range(2))
    assert np.all(got == 2.0)


def test_a_different_network_on_the_same_rows_starts_fresh():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(30, 1))
    bases = ("ADD", "MUL", "DIV", "SUB")
    nets = [
        make_network(bases, input_count=1, constants=(c,), depth=2) for c in (0.0, -0.0, 2.0)
    ]
    nets.append(make_network(bases[::-1], input_count=1, constants=(2.0,), depth=2))
    store = ValueStore()
    reused = []
    for net in nets:
        dags = sample_many(net, rng, 30)
        want = _column_values(net, dags, X, None)
        for _ in range(3):
            held = _held(store)
            got = _column_values(net, dags, X, store)
            reused.append(held is not None and store.repeated)
            assert same_bits(got, want)
    # each network's third call reuses its second's values, and the first
    # call of the next network, with -0.0 for 0.0 too, starts fresh
    assert reused == [False, False, True] * len(nets)


def test_store_restarts_past_its_budget():
    exp, training = _config_training("lfsr4", 120)
    with mock.patch.object(plan, "STORE_BYTES", 64 << 10):
        reused, sizes, _ = _same_training(exp, exp.target, training)
    assert sizes and max(sizes) <= 64 << 10
    # the store filled up, started fresh and was reused again
    restarts = [i for i in range(3, len(reused)) if reused[i] is None]
    assert restarts and any(reused[restarts[0] + 1:])


def test_store_holds_values_only_after_a_repeated_run():
    # rows that differ from the last run's leave only their bytes behind;
    # a repeated run within the budget leaves its buffer, table and ids
    net, dags, X = _recurrent_population(40)
    store = ValueStore()
    for rows, repeated in ((X, False), (X + 1.0, False), (X + 1.0, True), (X, False)):
        _column_values(net, dags, rows, store, 3)
        assert store.repeated == repeated
        assert store._last[-1] == rows.tobytes()
        kept = (store.buf, store._table, store._ids)
        if repeated:
            assert store.nbytes <= plan.STORE_BYTES and all(k is not None for k in kept)
            assert len(store._ids) == len(store.canon) - net.u
        else:
            assert kept == (None, None, None) and store.nbytes == 0


def test_no_depth_1_call_scores_two_equal_columns_of_an_output():
    exp, training = _config_training("lfsr4", 60)
    calls = []
    real_run = PopulationPlan.run

    def run(p, X, sink, store=None):
        seen = set()

        def checked(buf, rows, outs, readers):
            for row, out in zip(rows.tolist(), outs.tolist()):
                column = (out, buf[row].tobytes())
                assert column not in seen
                seen.add(column)
            sink(buf, rows, outs, readers)

        calls.append(p.depth)
        return real_run(p, X, checked, store)

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
            assert store._last is None and store.buf is None


def test_selection_through_a_store_leaves_no_cyclic_garbage():
    # a store that referred to its plan, or a plan to its store, would keep
    # the value buffer alive until the collector ran
    net, dags, X = _recurrent_population(40)
    Y = np.square(X)
    for depth in (3, 1):
        store = ValueStore()

        def select():
            for _ in range(3):
                population_select(PopulationPlan(net, dags, depth), X, Y, 0.01, 2, None, store)

        assert cyclic_garbage(select) == 0
        assert store.repeated and store.buf is not None


def test_distinct_keys_equal_np_unique():
    # the plan's distinct keys and their counts, against np.unique itself
    rng = np.random.default_rng(6)
    cases = [
        np.empty(0, dtype=np.int64),
        np.array([7]),
        np.array([3, 3, 3]),
        np.array([5, -2, 5, -9, -2, 0, 5]),
        np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0, -1]),
        rng.integers(-50, 50, 400),
        rng.integers(0, 4000, 1600),
    ]
    for keys in cases:
        values, counts = plan._distinct(keys)
        want, want_counts = np.unique(keys, return_counts=True)
        assert values.tobytes() == want.tobytes() and values.dtype == want.dtype
        assert counts.tobytes() == want_counts.astype(counts.dtype).tobytes()


def _store_at_third_run(p, X):
    """A store that ran ``p`` on ``X`` twice, started on a third run: a
    repeated store, as an epoch on the last epoch's rows finds it."""
    store = ValueStore()
    for _ in range(2):
        p.run(X, lambda *columns: None, store)
    store._start(p, X)
    assert store.repeated
    return store


def _round_shapes_plan():
    net = make_network(("ADD", "MUL", "SUB"), input_count=1, constants=(2.0,), depth=2)
    p = PopulationPlan(net, sample_many(net, np.random.default_rng(3), 20))
    return net, p, np.linspace(-1.0, 1.0, 40)[:, None]


def _check_round_shapes(net, store, known):
    """Intern two rounds on ``store`` whose keys not met before come first,
    repeat within a round and come last among the held keys ``known``, the
    second round's new key numbered on from the first round's.  Check them
    against a reference numbering: a round's keys not held, in order of
    first occurrence, numbered on from ``u + len(ids)``."""
    top = net.u + len(store._ids)
    # keys (basis, child ids) on canonical ids with live rows, never met
    live = [k for k in range(top) if store.canon[k] == k and store.rows[k] >= 0]
    keys = (np.array([b, x, y], dtype=np.int64).tobytes() for b in range(3) for x in live for y in live)
    new = [k for k in keys if k not in store._ids][:4]
    assert len(new) == 4
    rounds = [
        [new[0], known[0], new[1], new[0], known[1], new[2]],
        [known[2], new[1], new[3], known[0], new[3]],
    ]
    want, evaluated = dict(store._ids), store.evaluated
    for found in rounds:
        fresh = [k for k in dict.fromkeys(found) if k not in want]
        first = net.u + len(want)
        want.update(zip(fresh, range(first, first + len(fresh))))
        got = store._intern(found)
        assert got.tolist() == store.canon[[want[k] for k in found]].tolist()
    assert dict(store._ids) == want
    assert [store._ids[k] for k in new] == list(range(top, top + 4))
    # the second round's list holds its own new key alone
    assert store._ids.fresh == [new[3]]
    assert store.evaluated - evaluated == 4
    # each new id is its key's value, in its own row or as an alias whose
    # row is given up
    for k in new:
        b, x, y = np.frombuffer(k, dtype=np.int64).tolist()
        i = store._ids[k]
        c = store.canon[i]
        assert c == i or store.rows[i] < 0
        value = net.bases[b].fn(store.buf[store.rows[x]], store.buf[store.rows[y]])
        assert same_bits(store.buf[store.rows[c]], value)


def test_a_repeated_store_numbers_new_keys_as_a_fresh_store_does():
    # a repeated store numbers a round's keys not met before in one pass, as
    # it meets them
    net, p, X = _round_shapes_plan()
    store = _store_at_third_run(p, X)
    _check_round_shapes(net, store, list(store._ids)[:3])


def test_a_fresh_store_numbers_new_keys_in_order_of_first_occurrence():
    # a fresh store numbers them in the same one pass
    net, p, X = _round_shapes_plan()
    store = ValueStore()
    store._start(p, X)
    assert not store.repeated and not store._ids
    # three keys on the leaves, held before the rounds
    known = [np.array([b, 0, 1], dtype=np.int64).tobytes() for b in range(3)]
    store._intern(known)
    _check_round_shapes(net, store, known)
