import hashlib
import struct
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from softdag import (
    Dataset,
    IdxFormatError,
    classification_accuracy,
    generate,
    load_idx,
    parse,
    split,
)
from softdag import data
from softdag.cli import parse_config
from softdag.data import (
    Batch,
    DatasetSource,
    ResamplingSource,
    TargetSpec,
    _generate,
    _sample_inputs,
    as_batch_source,
    load_idx_images,
    target_lfsr4,
)
from softdag.expression import Choices, Interval, evaluate_tree_batch
from softdag.network import ConfigError
from softdag.rng import DATA_STREAM, derive_rng

from conftest import make_dag, make_network, same_bits

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _spec_from_expression(text, ranges, kind="explicit", **kw):
    expr = parse(text)
    return TargetSpec(
        kind=kind,
        input_count=len(ranges) + (1 if kind == "implicit" else 0),
        output_count=1,
        input_ranges=ranges,
        fn=lambda X: evaluate_tree_batch(expr, X)[:, None],
        **kw,
    )


def test_generate_explicit_exact_targets(rng):
    spec = _spec_from_expression("2 * x0^2 + 3 * x0", (Interval(-10, 10),))
    ds = generate(spec, 3, rng)
    assert len(ds) == 3
    want = 2 * ds.inputs[:, 0] ** 2 + 3 * ds.inputs[:, 0]
    assert np.allclose(ds.targets[:, 0], want, rtol=0, atol=0)


def test_generate_reproducible():
    spec = _spec_from_expression("sin(x0)", (Interval(-1, 1),))
    a = generate(spec, 50, np.random.default_rng(42))
    b = generate(spec, 50, np.random.default_rng(42))
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)


def test_generate_implicit_hyperbola(rng):
    derived = parse("1 / x0")
    spec = TargetSpec(
        kind="implicit",
        input_count=2,
        output_count=1,
        input_ranges=(Interval(0.5, 2.0),),
        derived=lambda F: evaluate_tree_batch(derived, F),
        constant_target=1.0,
    )
    ds = generate(spec, 200, rng)
    assert np.all(np.abs(ds.inputs[:, 0] * ds.inputs[:, 1] - 1.0) < 1e-12)
    assert np.all(ds.targets == 1.0)


def test_generate_resamples_nonfinite_rows(rng):
    # 1/x0 inside the division guard is always a sentinel: generation fails
    spec = _spec_from_expression("1 / x0", (Interval(-1e-13, 1e-13),))
    with pytest.raises(ConfigError):
        generate(spec, 10, rng)
    ok = _spec_from_expression("1 / x0", (Interval(0.5, 1.0),))
    ds = generate(ok, 10, rng)
    assert np.isfinite(ds.targets).all()


def test_generate_recurrent_composes(rng):
    g = parse("if_leq(2, x0, x0 - 1, x0 + 2)")
    spec = TargetSpec(
        kind="recurrent",
        input_count=1,
        output_count=1,
        input_ranges=(Interval(-3, 6),),
        fn=lambda X: evaluate_tree_batch(g, X)[:, None],
        target_depth=2,
    )
    ds = generate(spec, 100, rng)
    once = evaluate_tree_batch(g, ds.inputs)[:, None]
    twice = evaluate_tree_batch(g, once)[:, None]
    assert np.array_equal(ds.targets, twice)


def test_lfsr4_matches_integer_oracle(rng):
    spec = target_lfsr4()
    ds = generate(spec, 64, rng)
    assert set(np.unique(ds.inputs)) <= {0.0, 1.0}
    assert set(np.unique(ds.targets)) <= {0.0, 1.0}
    for x, y in zip(ds.inputs, ds.targets):
        bits = [int(b) for b in x]
        want = bits[1:] + [bits[0] ^ bits[1]]
        assert [int(v) for v in y] == want


def test_split_sizes_and_determinism(rng):
    ds = Dataset(np.arange(100, dtype=float)[:, None], np.zeros((100, 1)))
    train_a, test_a = split(ds, 0.1, np.random.default_rng(0))
    assert len(train_a) == 90 and len(test_a) == 10
    train_b, test_b = split(ds, 0.1, np.random.default_rng(0))
    assert np.array_equal(train_a.inputs, train_b.inputs)
    assert np.array_equal(test_a.inputs, test_b.inputs)
    merged = np.sort(np.concatenate([train_a.inputs, test_a.inputs]).ravel())
    assert np.array_equal(merged, np.arange(100, dtype=float))

    odd = Dataset(np.arange(101, dtype=float)[:, None], np.zeros((101, 1)))
    train_c, test_c = split(odd, 0.1, np.random.default_rng(1))
    assert len(test_c) == 10 and len(train_c) == 91
    with pytest.raises(ValueError):
        split(ds, 1.5, rng)


# ---------------------------------------------------------------------------
# IDX files


def _write_idx_pair(tmp_path, images, labels):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images-idx3-ubyte"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">iiii", 2051, n, rows, cols))
        f.write(images.tobytes())
    lab_path = tmp_path / "labels-idx1-ubyte"
    with open(lab_path, "wb") as f:
        f.write(struct.pack(">ii", 2049, len(labels)))
        f.write(labels.tobytes())
    return img_path, lab_path


def test_load_idx_round_trip(tmp_path, rng):
    images = rng.integers(0, 256, size=(10, 4, 3), dtype=np.uint8)
    labels = np.array([0, 7, 1, 7, 0, 3, 0, 7, 9, 0], dtype=np.uint8)
    img_path, lab_path = _write_idx_pair(tmp_path, images, labels)

    ds = load_idx(img_path, lab_path, {0, 7})
    keep = np.isin(labels, [0, 7])
    assert len(ds) == keep.sum()
    # reference decode: byte-for-byte equality after scaling
    want = images.reshape(10, -1)[keep].astype(np.float64) / 255.0
    assert np.array_equal(ds.inputs, want)
    # one-hot over sorted classes {0, 7}
    assert ds.targets.shape == (keep.sum(), 2)
    assert np.array_equal(ds.targets[:, 0], (labels[keep] == 0).astype(float))
    assert np.array_equal(ds.targets[:, 1], (labels[keep] == 7).astype(float))


def test_load_idx_three_classes(tmp_path, rng):
    images = rng.integers(0, 256, size=(6, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1, 2, 2, 1, 0], dtype=np.uint8)
    img_path, lab_path = _write_idx_pair(tmp_path, images, labels)
    ds = load_idx(img_path, lab_path, {0, 1, 2})
    assert ds.targets.shape == (6, 3)
    assert np.all(ds.targets.sum(axis=1) == 1.0)


def test_load_idx_errors(tmp_path, rng):
    images = rng.integers(0, 256, size=(4, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1, 0, 1], dtype=np.uint8)
    img_path, lab_path = _write_idx_pair(tmp_path, images, labels)

    bad_magic = tmp_path / "bad-images"
    data = img_path.read_bytes()
    bad_magic.write_bytes(struct.pack(">i", 1234) + data[4:])
    with pytest.raises(IdxFormatError, match="bad-images"):
        load_idx_images(bad_magic)

    truncated = tmp_path / "short-images"
    truncated.write_bytes(data[:-3])
    with pytest.raises(IdxFormatError, match="short-images"):
        load_idx_images(truncated)

    odd_labels = tmp_path / "odd-labels"
    odd_labels.write_bytes(struct.pack(">ii", 2049, 3) + bytes([0, 1, 0]))
    with pytest.raises(IdxFormatError, match="3 images vs 4|4 images vs 3"):
        load_idx(img_path, odd_labels, {0, 1})


def test_load_idx_rejects_a_listed_class_with_no_rows(tmp_path, rng):
    # class 9's target column would be all zeros, so no verdict could mean
    # anything
    images = rng.integers(0, 256, size=(4, 2, 2), dtype=np.uint8)
    labels = np.array([0, 1, 0, 1], dtype=np.uint8)
    img_path, lab_path = _write_idx_pair(tmp_path, images, labels)
    with pytest.raises(IdxFormatError, match="no rows of class 9") as info:
        load_idx(img_path, lab_path, {0, 9})
    assert str(img_path) in str(info.value) and str(lab_path) in str(info.value)


def test_classification_accuracy_rules():
    net = make_network(("ID", "NEG"), input_count=2, output_count=2, depth=1)
    dag = make_dag(net, [[0, 0]], [0, 1])  # outputs copy the two inputs
    test = Dataset(
        np.array([[0.9, 0.1], [0.9, 0.8], [0.2, 0.9], [np.nan, 0.1]]),
        np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]),
    )
    # row 0 matches; row 1 has a spurious second activation; row 2 matches;
    # row 3 carries a sentinel
    acc = classification_accuracy(net, dag, test)
    assert acc == pytest.approx(2 / 4)


def test_batch_sources(rng):
    spec = _spec_from_expression("sin(x0)", (Interval(-1, 1),))
    src = ResamplingSource(spec, 32, seed=1)
    xa, ya = src.batch(4)
    xb, yb = src.batch(4)
    assert np.array_equal(xa, xb) and np.array_equal(ya, yb)
    xc, _ = src.batch(5)
    assert not np.array_equal(xa, xc)

    ds = generate(spec, 100, rng)
    small = DatasetSource(ds, 32, seed=1)
    assert not small.stationary
    full = DatasetSource(ds, 1000, seed=1)
    assert full.stationary
    xf, _ = full.batch(1)
    assert np.array_equal(xf, ds.inputs)

    assert as_batch_source(ds, 32, 1).dataset is ds
    assert as_batch_source(spec, 32, 1).spec is spec
    assert as_batch_source(small, 32, 1) is small

    class Fixed:
        def batch(self, epoch):
            return ds.inputs, ds.targets

    fixed = Fixed()
    assert as_batch_source(fixed, 32, 1) is fixed
    with pytest.raises(TypeError):
        as_batch_source(42, 32, 1)


# SHA-256 of X and Y of ResamplingSource(spec, 1000, 5).batch(e), epochs
# 1-20, recorded before the source kept its choice indices
BATCH_DIGESTS = {
    "lfsr4": "a6186103f8d7d6f3d69658b44e1d2d707715090f713c85567a01d2ecf9995ec1",
    "sort3": "549d4702cdf3b610485c6c686d2320a383a02f1e5b8e1e4fdba5809f6887df8d",
    "poly_2x2_3x": "38375104ff6b69190216bca102643a09efeeb151d79acb9dfa2a8ddc9d484a59",
    "recurrent_halfsquare": "bed9185bfe587243b4b02004f7cc0ccda6f196df7158dfc6843f4f24ad4f6b13",
    "hyperbola_implicit": "62c5c6df2f7529f9c30a2b9a376edb42a07d21b33173c87942d0841d79b03bbd",
}


@pytest.mark.parametrize("name", sorted(BATCH_DIGESTS))
def test_resampled_batches_are_unchanged(name):
    source = ResamplingSource(parse_config(CONFIG_DIR / f"{name}.ini").target, 1000, 5)
    h = hashlib.sha256()
    for epoch in range(1, 21):
        X, Y = source.batch(epoch)
        h.update(np.ascontiguousarray(X).tobytes())
        h.update(np.ascontiguousarray(Y).tobytes())
    assert h.hexdigest() == BATCH_DIGESTS[name]


def test_choice_draw_matches_rng_choice():
    values = (0.0, 1.0, -2.5)
    for seed in range(50):
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        X = _sample_inputs((Choices(values), Choices(values[:2])), 1000, ours)
        assert same_bits(X[:, 0], theirs.choice(np.asarray(values), size=1000))
        assert same_bits(X[:, 1], theirs.choice(np.asarray(values[:2]), size=1000))
        assert ours.random() == theirs.random()


def _table_rows(batch):
    """Check that a coded batch's ``distinct`` is a read-only table whose
    rows ``lanes`` are the batch, and return it."""
    X, Y, lanes = batch.distinct
    assert not X.flags.writeable and not Y.flags.writeable
    assert same_bits(X[lanes], batch.inputs) and same_bits(Y[lanes], batch.targets)
    return X, Y, lanes


def test_batch_rows_follow_the_draw():
    lfsr4 = target_lfsr4()
    batch = ResamplingSource(lfsr4, 1000, 3).batch(7)
    X, Y, lanes = _table_rows(batch)
    # the table is every combination in code order, and the lanes are the
    # batch's codes
    bits = np.indices((2, 2, 2, 2)).reshape(4, 16).T.astype(float)
    assert same_bits(X, bits) and same_bits(Y, lfsr4.fn(bits))
    assert np.array_equal(lanes, batch.inputs @ [8.0, 4.0, 2.0, 1.0])

    # 1 / 0 is the division guard's sentinel: the table holds those rows,
    # and no lane reads them; an implicit target's table is its free columns'
    inverse = _spec_from_expression("1 / x0", (Choices((0.0, 1.0, 2.0)), Choices((3.0, 4.0))))
    implicit = TargetSpec(
        kind="implicit", input_count=2, output_count=1, input_ranges=(Choices((0.0, 2.0, 4.0)),),
        derived=lambda F: evaluate_tree_batch(parse("1 / x0"), F),
    )
    for spec, rows in ((inverse, 6), (implicit, 3)):
        batch = ResamplingSource(spec, 40, 1).batch(2)
        X, Y, lanes = _table_rows(batch)
        assert len(X) == rows and not (np.isfinite(X).all() and np.isfinite(Y).all())
        assert np.isfinite(batch.inputs).all() and np.isfinite(batch.targets).all()

    # an interval column, more than 4 combinations per batch row, or more
    # than half as many as batch rows score every row
    for ranges, n in (((Choices((0.0, 1.0)), Interval(0.0, 1.0)), 100),
                      ((Choices((0.0, 1.0)),) * 64, 100), ((Choices((0.0, 1.0)),) * 3, 1),
                      ((Choices((0.0, 1.0)),) * 3, 15)):
        spec = _spec_from_expression("x0", ranges)
        assert ResamplingSource(spec, n, 1).batch(1).distinct is None
    assert ResamplingSource(spec, 16, 1).batch(1).distinct is not None


def test_coded_batches_equal_the_general_path():
    # a coded source draws and redraws codes with the numbers of the
    # general path, and takes its rows from its table without calling it
    specs = [
        (target_lfsr4(), 1000),
        # choice columns of different sizes
        (_spec_from_expression("x0 * x1 - x2", (Choices((0.0, 1.0, 2.0)), Choices((3.0, -0.5)),
                                                 Choices((1.0, 2.0, 3.0, 4.0, 5.0)))), 200),
        # 1 / 0 is the division guard's NaN, so some batches redraw rows
        (_spec_from_expression("1 / x0", (Choices((0.0, 1.0, 2.0)), Choices((3.0, 4.0)))), 40),
        (TargetSpec(kind="implicit", input_count=2, output_count=1,
                    input_ranges=(Choices((0.0, 2.0, 4.0)),),
                    derived=lambda F: evaluate_tree_batch(parse("1 / x0"), F)), 40),
        # more distinct rows than half the batch
        (_spec_from_expression("x0", (Choices(tuple(np.arange(40.0))),)), 10),
    ]

    picks, draws = data._picks, []

    def counted(*args):
        draws.append(args[1])
        return picks(*args)

    def general_path(*args):
        raise AssertionError("a coded batch called _generate")

    for (spec, n), redraws in zip(specs, (False, False, True, True, False)):
        draws.clear()
        for seed in (0, 1, 7, 12345):
            source = ResamplingSource(spec, n, seed)
            for epoch in range(1, 9):
                with mock.patch.object(data, "_generate", general_path), \
                        mock.patch.object(data, "_picks", counted):
                    batch = source.batch(epoch)
                X, Y = _generate(spec, n, derive_rng(seed, DATA_STREAM, epoch))
                assert same_bits(batch.inputs, X) and same_bits(batch.targets, Y)
                assert (batch.distinct is None) == (n == 10)
                if batch.distinct is not None:
                    _table_rows(batch)
        # a redraw draws fewer codes than a batch
        assert any(count < n for count in draws) == redraws


def test_a_coded_source_computes_its_target_once():
    # the table of every combination is built with the source; batches
    # take their rows from it
    calls = []
    lfsr4 = target_lfsr4()

    def counted(X):
        calls.append(len(X))
        return lfsr4.fn(X)

    source = ResamplingSource(replace(lfsr4, fn=counted), 1000, 3)
    assert calls == [16]
    for epoch in range(1, 11):
        X, Y = source.batch(epoch)
        assert same_bits(Y, lfsr4.fn(X))
    assert calls == [16]


def test_a_classification_target_is_not_generated():
    source = ResamplingSource(TargetSpec(kind="classification", input_count=4, output_count=2), 10, 1)
    with pytest.raises(ConfigError, match="loaded, not generated"):
        source.batch(1)


def test_dataset_batches_rows_follow_the_dataset():
    # a dataset's batches are scored on every row, even when rows repeat
    rng = np.random.default_rng(0)
    base = rng.choice([0.0, -0.0, 1.0, np.nan], size=(5, 3))[rng.integers(0, 5, 60)]
    ds = Dataset(base[:, :2], base[:, 2:])
    small, full = DatasetSource(ds, 24, seed=1), DatasetSource(ds, 100, seed=1)
    for epoch in (1, 2):
        for batch in (small.batch(epoch), full.batch(epoch)):
            assert isinstance(batch, Batch)
            assert batch.distinct is None
    X, Y = full.batch(1)
    assert X is ds.inputs and Y is ds.targets


@pytest.mark.parametrize("batch_size", [100, 5000])
def test_dataset_source_copies_nothing(batch_size):
    # an image-shaped dataset: a source on it allocates no copy of its rows
    rng = np.random.default_rng(0)
    ds = Dataset(rng.random((2000, 784)), np.eye(2)[rng.integers(0, 2, 2000)])
    tracemalloc.start()
    try:
        DatasetSource(ds, batch_size, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ds.inputs.nbytes / 4


def _mnist_dir():
    import os
    from pathlib import Path

    candidates = [
        Path(os.environ.get("SOFTDAG_MNIST_DIR", "")),
        Path(__file__).resolve().parent.parent / "data" / "mnist",
    ]
    for d in candidates:
        if d and (d / "train-images-idx3-ubyte").exists():
            return d
    return None


@pytest.mark.skipif(_mnist_dir() is None, reason="MNIST IDX files not available")
def test_mnist_binary_row_count():
    d = _mnist_dir()
    ds = load_idx(
        d / "train-images-idx3-ubyte", d / "train-labels-idx1-ubyte", {0, 7}
    )
    # digits 0 and 7 in the canonical 60k training set
    assert len(ds) == 11770
    assert ds.inputs.shape[1] == 784
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
