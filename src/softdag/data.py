"""Benchmark dataset generation and IDX image ingestion."""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .expression import Choices, Interval
from .network import ConfigError, Network
from .plan import evaluate
from .rng import DATA_STREAM, derive_rng
from .sampler import SampledDAG

__all__ = [
    "Batch",
    "Dataset",
    "TargetSpec",
    "IdxFormatError",
    "generate",
    "split",
    "load_idx",
    "load_idx_images",
    "load_idx_labels",
    "classification_accuracy",
    "complete_rows",
    "ResamplingSource",
    "DatasetSource",
    "as_batch_source",
]

IDX_IMAGE_MAGIC = 2051
IDX_LABEL_MAGIC = 2049

_MAX_RESAMPLE_ROUNDS = 100


class IdxFormatError(ValueError):
    """An IDX file is malformed or inconsistent with its pair."""


@dataclass(frozen=True)
class Dataset:
    """Immutable rows of inputs and targets."""

    inputs: np.ndarray  # (n, input_count)
    targets: np.ndarray  # (n, output_count)

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.targets):
            raise ValueError("inputs and targets differ in length")

    def __len__(self) -> int:
        return len(self.inputs)


@dataclass(frozen=True)
class TargetSpec:
    """What to generate data from.

    ``fn`` maps an input batch ``(n, input_count)`` to targets
    ``(n, output_count)`` row by row: a row's targets depend on that row
    alone, and equal rows get equal bits wherever they sit in the batch.
    The redraw of non-finite rows and the distinct rows of a batch rely
    on it.  For ``implicit`` targets, ``derived`` computes
    the last input coordinate from the free ones and the target column is
    the constant ``constant_target``.  For ``recurrent`` targets the data
    generator self-composes ``fn`` ``target_depth`` times.
    """

    kind: str  # explicit | implicit | recurrent | classification
    input_count: int
    output_count: int
    input_ranges: tuple = ()
    fn: Callable[[np.ndarray], np.ndarray] | None = None
    derived: Callable[[np.ndarray], np.ndarray] | None = None
    constant_target: float = 1.0
    target_depth: int = 1
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("explicit", "implicit", "recurrent", "classification"):
            raise ConfigError(f"unknown target kind {self.kind!r}")
        if self.kind == "recurrent" and self.output_count != self.input_count:
            raise ConfigError("recurrent targets need output_count == input_count")
        if self.kind == "implicit" and self.derived is None:
            raise ConfigError("implicit targets need a derived-coordinate rule")
        if not math.isfinite(self.constant_target):
            raise ConfigError(f"constant_target must be finite, not {self.constant_target}")


def _sample_inputs(ranges, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` rows drawn from ``ranges``."""
    out = np.empty((n, len(ranges)), dtype=np.float64)
    for k, dim in enumerate(ranges):
        if isinstance(dim, Interval):
            out[:, k] = rng.uniform(dim.lo, dim.hi, size=n)
        elif isinstance(dim, Choices):
            # the numbers and generator state of rng.choice(dim.values, n)
            out[:, k] = np.asarray(dim.values)[rng.integers(0, len(dim.values), n, dtype=np.int64)]
        else:
            raise ConfigError(f"bad range spec {dim!r}")
    return out


def _compose(fn, X: np.ndarray, depth: int) -> np.ndarray:
    cur = X
    for _ in range(depth):
        cur = fn(cur)
    return cur


def generate(spec: TargetSpec, n: int, rng: np.random.Generator) -> Dataset:
    """Draw ``n`` rows for the target; rows with non-finite entries are redrawn."""
    return Dataset(*_generate(spec, n, rng))


def complete_rows(spec: TargetSpec, free: np.ndarray):
    """``(X, Y)`` of the rows whose free input columns are ``free``."""
    with np.errstate(all="ignore"):
        if spec.kind == "implicit":
            last = np.asarray(spec.derived(free), dtype=np.float64)
            return np.column_stack([free, last]), np.full((len(free), spec.output_count), spec.constant_target)
        depth = spec.target_depth if spec.kind == "recurrent" else 1
        Y = np.asarray(_compose(spec.fn, free, depth), dtype=np.float64)
    if Y.ndim == 1:
        Y = Y[:, None]
    return free, Y


def _generate(spec: TargetSpec, n: int, rng: np.random.Generator):
    """``generate``'s rows as ``(X, Y)``."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.kind == "classification":
        raise ConfigError("classification datasets are loaded, not generated")
    X, Y = complete_rows(spec, _sample_inputs(spec.input_ranges, n, rng))
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        # one pass over each array settles a batch with nothing to redraw;
        # a per-row reduction along the short axis costs many times more
        if np.isfinite(X).all() and np.isfinite(Y).all():
            return X, Y
        bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(Y).all(axis=1))
        X[bad], Y[bad] = complete_rows(spec, _sample_inputs(spec.input_ranges, int(bad.sum()), rng))
    raise ConfigError(f"target {spec.name!r} keeps producing non-finite rows")


def split(dataset: Dataset, test_fraction: float, rng: np.random.Generator):
    """Disjoint, exhaustive, seeded split; test size is floor(n * fraction)."""
    if not (0.0 < test_fraction < 1.0):
        raise ValueError("test_fraction must be in (0, 1)")
    n = len(dataset)
    n_test = int(n * test_fraction)
    perm = rng.permutation(n)
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    train = Dataset(dataset.inputs[train_idx], dataset.targets[train_idx])
    test = Dataset(dataset.inputs[test_idx], dataset.targets[test_idx])
    return train, test


# ---------------------------------------------------------------------------
# IDX files (big-endian; published magic numbers)


def _read_be32(f, path) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise IdxFormatError(f"{path}: truncated header")
    return struct.unpack(">i", raw)[0]


def load_idx_images(path) -> np.ndarray:
    """Pixels of an IDX image file, flattened per row and scaled to [0, 1]."""
    with open(path, "rb") as f:
        magic = _read_be32(f, path)
        if magic != IDX_IMAGE_MAGIC:
            raise IdxFormatError(f"{path}: bad image magic {magic}")
        count = _read_be32(f, path)
        rows = _read_be32(f, path)
        cols = _read_be32(f, path)
        payload = f.read()
    expected = count * rows * cols
    if len(payload) != expected:
        raise IdxFormatError(
            f"{path}: expected {expected} pixel bytes, found {len(payload)}"
        )
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(count, rows * cols)
    return pixels.astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = _read_be32(f, path)
        if magic != IDX_LABEL_MAGIC:
            raise IdxFormatError(f"{path}: bad label magic {magic}")
        count = _read_be32(f, path)
        payload = f.read()
    if len(payload) != count:
        raise IdxFormatError(f"{path}: expected {count} labels, found {len(payload)}")
    return np.frombuffer(payload, dtype=np.uint8).copy()


def load_idx(images_path, labels_path, class_filter) -> Dataset:
    """Rows restricted to ``class_filter``; targets one-hot over its classes."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(images) != len(labels):
        raise IdxFormatError(
            f"{images_path} / {labels_path}: {len(images)} images vs"
            f" {len(labels)} labels"
        )
    classes = sorted(int(c) for c in class_filter)
    # a class with no rows would have a target column of zeros
    missing = [c for c in classes if not np.any(labels == c)]
    if missing:
        raise IdxFormatError(f"{images_path} / {labels_path}: no rows of class {', '.join(map(str, missing))}")
    mask = np.isin(labels, classes)
    kept = labels[mask]
    onehot = np.zeros((len(kept), len(classes)), dtype=np.float64)
    for col, cls in enumerate(classes):
        onehot[kept == cls, col] = 1.0
    return Dataset(images[mask], onehot)


def classification_accuracy(network: Network, dag: SampledDAG, test: Dataset) -> float:
    """Fraction of rows whose outputs, thresholded at 0.5, equal the one-hot
    label exactly."""
    preds = evaluate(network, dag, test.inputs)
    finite = np.isfinite(preds).all(axis=1)
    hot = preds > 0.5
    want = test.targets > 0.5
    correct = finite & (hot == want).all(axis=1)
    return float(correct.mean())


# ---------------------------------------------------------------------------
# batch sources for training


@dataclass(frozen=True)
class Batch:
    """One epoch's rows, as a batch source serves them; unpacks as ``X, Y``.

    ``distinct`` is ``(table_X, table_Y, codes)`` when the source drew the
    rows by code from a table of at most half as many rows as the batch:
    the table is the distinct rows and the codes are the lanes, so batch
    row ``i`` equals table row ``codes[i]``.  A table row that no code
    names weighs nothing.  Otherwise it is ``None``, and the rows are
    scored as they are.
    """

    inputs: np.ndarray
    targets: np.ndarray
    distinct: tuple | None = None

    def __iter__(self):
        return iter((self.inputs, self.targets))


class ResamplingSource:
    """Fresh batch drawn from the target distribution every epoch.

    When every input range is a choice with few combinations in all, the
    source computes the inputs, the target and their finiteness once, on
    every combination in code order; a batch draws the codes, redraws
    those of non-finite combinations, and takes its rows from that table.
    A table with no non-finite row has nothing to redraw, and its batches
    skip the scan, which draws no number when it finds nothing.  The rows,
    and the generator's numbers, are those of ``_generate``.
    """

    def __init__(self, spec: TargetSpec, batch_size: int, seed: int):
        self.spec = spec
        self.batch_size = batch_size
        self.seed = seed
        # The row codes tell rows apart when every free column is a choice.
        # An interval's rows do not repeat, and with more combinations than
        # 4 * batch_size, uniform draws leave over 0.88 of a batch's rows
        # distinct on average, too many for the table to pay.
        per_row = [len(d.values) if isinstance(d, Choices) else math.inf for d in spec.input_ranges]
        self._coded = spec.kind != "classification" and math.prod(per_row) <= 4 * batch_size
        if self._coded:
            self._values = [np.asarray(d.values) for d in spec.input_ranges]
            # row c of the table is the combination with code c: its picks
            # are the mixed-radix digits of c, the first column's leading
            sizes = [len(column) for column in self._values]
            self._radix = np.array([math.prod(sizes[k + 1:]) for k in range(len(sizes))], dtype=np.int64)
            picks = np.indices(sizes).reshape(len(sizes), math.prod(sizes))
            X, Y = complete_rows(spec, _choose(self._values, picks))
            X.flags.writeable = Y.flags.writeable = False
            self._table = X, Y
            finite = np.isfinite(X).all(axis=1) & np.isfinite(Y).all(axis=1)
            self._finite = None if finite.all() else finite
            # a table of more than half a batch's rows costs more to score
            # than the batch
            self._distinct = len(X) <= batch_size // 2

    def batch(self, epoch: int) -> Batch:
        rng = derive_rng(self.seed, DATA_STREAM, epoch)
        if not self._coded:
            return Batch(*_generate(self.spec, self.batch_size, rng))
        codes = self._radix @ _picks(self._values, self.batch_size, rng)
        if self._finite is not None:
            for _ in range(_MAX_RESAMPLE_ROUNDS):
                bad = ~self._finite[codes]
                redraw = np.count_nonzero(bad)
                if not redraw:
                    break
                codes[bad] = self._radix @ _picks(self._values, redraw, rng)
            else:
                raise ConfigError(f"target {self.spec.name!r} keeps producing non-finite rows")
        X, Y = self._table
        return Batch(X.take(codes, 0), Y.take(codes, 0), (X, Y, codes) if self._distinct else None)


def _picks(values, n: int, rng: np.random.Generator) -> np.ndarray:
    """The indices of ``n`` rows into each choice column's ``values``, one
    row per column, with the numbers and generator state of
    ``_sample_inputs``: one ``rng.integers`` call per column."""
    if len({len(column) for column in values}) > 1:
        return np.stack([rng.integers(0, len(column), n, dtype=np.int64) for column in values])
    # the generator spends one 32-bit draw per pick, in order, so columns of
    # one size take one call
    size = len(values[0]) if values else 1
    return rng.integers(0, size, (len(values), n), dtype=np.int64)


def _choose(values, picks: np.ndarray) -> np.ndarray:
    """The rows of the choice columns' ``values`` that ``picks`` name."""
    out = np.empty((picks.shape[1], len(values)), dtype=np.float64)
    for k, column in enumerate(values):
        out[:, k] = column[picks[k]]
    return out


class DatasetSource:
    """Batches drawn from a fixed dataset.

    When the batch size covers the whole dataset the same batch is served
    every epoch (a stationary source); otherwise a seeded random subset is
    drawn per epoch.  Nothing says which rows of a dataset repeat, so its
    batches are scored on every row: ``distinct`` is ``None``.
    """

    def __init__(self, dataset: Dataset, batch_size: int, seed: int):
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self.seed = seed
        self.stationary = self.batch_size >= len(dataset)

    def batch(self, epoch: int) -> Batch:
        data = self.dataset
        if self.stationary:
            return Batch(data.inputs, data.targets)
        rng = derive_rng(self.seed, DATA_STREAM, epoch)
        idx = rng.choice(len(data), size=self.batch_size, replace=False)
        return Batch(data.inputs[idx], data.targets[idx])


def as_batch_source(data, batch_size: int, seed: int):
    """Coerce a Dataset / TargetSpec / source object into a batch source."""
    if isinstance(data, Dataset):
        return DatasetSource(data, batch_size, seed)
    if isinstance(data, TargetSpec):
        return ResamplingSource(data, batch_size, seed)
    if hasattr(data, "batch"):
        return data
    raise TypeError(f"cannot build a batch source from {type(data).__name__}")

