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
    "ResamplingSource",
    "DatasetSource",
    "as_batch_source",
    "target_lfsr4",
    "target_sort3",
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


def _sample_inputs(ranges, n: int, rng: np.random.Generator):
    """``(inputs, codes)``: ``n`` rows drawn from ``ranges``, and per row
    the mixed-radix number of its ``Choices`` indices.  When every column
    is a ``Choices`` with fewer than ``2**63`` combinations in all, rows
    with equal codes are equal.
    """
    out = np.empty((n, len(ranges)), dtype=np.float64)
    codes = np.zeros(n, dtype=np.int64)
    for k, dim in enumerate(ranges):
        if isinstance(dim, Interval):
            out[:, k] = rng.uniform(dim.lo, dim.hi, size=n)
        elif isinstance(dim, Choices):
            values = np.asarray(dim.values)
            # the numbers and generator state of rng.choice(values, n)
            picks = rng.integers(0, len(values), n, dtype=np.int64)
            out[:, k] = values[picks]
            codes *= len(values)
            codes += picks
        else:
            raise ConfigError(f"bad range spec {dim!r}")
    return out, codes


def _compose(fn, X: np.ndarray, depth: int) -> np.ndarray:
    cur = X
    for _ in range(depth):
        cur = fn(cur)
    return cur


def generate(spec: TargetSpec, n: int, rng: np.random.Generator) -> Dataset:
    """Draw ``n`` rows for the target; rows with non-finite entries are redrawn."""
    X, Y, _ = _generate(spec, n, rng)
    return Dataset(X, Y)


def _complete(spec: TargetSpec, free: np.ndarray):
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


def _generate(spec: TargetSpec, n: int, rng: np.random.Generator, first=None):
    """``generate``'s rows as ``(X, Y, codes)``, with the row codes of
    ``_sample_inputs``: an implicit target's free columns decide its rows,
    and a redrawn row carries its new code.  ``first``, if given, is the
    ``(free, codes)`` of the first ``n`` rows, drawn from ``rng`` before."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.kind == "classification":
        raise ConfigError("classification datasets are loaded, not generated")

    def draw(count: int):
        free, codes = _sample_inputs(spec.input_ranges, count, rng)
        return (*_complete(spec, free), codes)

    X, Y, codes = draw(n) if first is None else (*_complete(spec, first[0]), first[1])
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        # one pass over each array settles a batch with nothing to redraw;
        # a per-row reduction along the short axis costs many times more
        if np.isfinite(X).all() and np.isfinite(Y).all():
            break
        bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(Y).all(axis=1))
        X2, Y2, codes2 = draw(int(bad.sum()))
        X[bad] = X2
        Y[bad] = Y2
        codes[bad] = codes2
    else:
        raise ConfigError(f"target {spec.name!r} keeps producing non-finite rows")
    return X, Y, codes


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

    ``rows`` is ``(first, lanes)`` when the source drew the rows from
    codes and at most half of them are distinct: ``inputs[first]``,
    ``targets[first]`` are the distinct rows, in the order of their codes,
    and row ``i`` equals distinct row ``lanes[i]``.  The source knows this
    from its draw, with no scan of the batch's values.  Otherwise it is
    ``(None, None)``, and the rows are scored as they are.
    """

    inputs: np.ndarray
    targets: np.ndarray
    rows: tuple

    def __iter__(self):
        return iter((self.inputs, self.targets))


def _repeats(codes: np.ndarray):
    """``(first, lanes)`` of a batch whose row ``i`` has the code
    ``codes[i]``, rows with equal codes being equal, when at most half of
    the codes differ; else ``(None, None)``.  Row ``first[j]`` is the
    first with the ``j``-th smallest code, and ``lanes[i]`` the rank of row
    ``i``'s code.  Codes are small nonnegative integers: they index a table
    of ``codes.max() + 1`` entries."""
    n = len(codes)
    if not n:
        return None, None
    present = np.bincount(codes) > 0
    rank = np.cumsum(present) - 1
    if rank[-1] >= n // 2:
        return None, None
    first = np.full(len(present), n)
    np.minimum.at(first, codes, np.arange(n))
    return first[present], rank[codes]


class ResamplingSource:
    """Fresh batch drawn from the target distribution every epoch.

    When every input range is a choice with few combinations in all, the
    source draws the picks first, and computes the inputs, the target and
    their finiteness on the batch's distinct rows only; a batch with too
    many distinct rows or a non-finite one takes the general path from the
    same draw.  The rows, and the generator's numbers, are the same either
    way.
    """

    def __init__(self, spec: TargetSpec, batch_size: int, seed: int):
        self.spec = spec
        self.batch_size = batch_size
        self.seed = seed
        # The row codes tell rows apart when every free column is a choice.
        # An interval's rows do not repeat, and with more combinations than
        # 4 * batch_size, uniform draws leave over 0.88 of a batch's rows
        # distinct on average, too many for distinct rows to pay.
        per_row = [len(d.values) if isinstance(d, Choices) else math.inf for d in spec.input_ranges]
        self._coded = math.prod(per_row) <= 4 * batch_size
        self._values = [np.asarray(d.values) for d in spec.input_ranges] if self._coded else None

    def batch(self, epoch: int) -> Batch:
        rng = derive_rng(self.seed, DATA_STREAM, epoch)
        if not self._coded:
            X, Y, _ = _generate(self.spec, self.batch_size, rng)
            return Batch(X, Y, (None, None))
        values = self._values
        picks = _picks(values, self.batch_size, rng)
        codes = np.zeros(self.batch_size, dtype=np.int64)
        for column, pick in zip(values, picks):
            codes *= len(column)
            codes += pick
        first, lanes = _repeats(codes)
        if first is not None:
            X, Y = _complete(self.spec, _choose(values, picks[:, first]))
            if np.isfinite(X).all() and np.isfinite(Y).all():
                return Batch(X.take(lanes, 0), Y.take(lanes, 0), (first, lanes))
        X, Y, codes = _generate(self.spec, self.batch_size, rng, (_choose(values, picks), codes))
        return Batch(X, Y, _repeats(codes))


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
    batches are scored on every row: ``rows`` is ``(None, None)``.
    """

    def __init__(self, dataset: Dataset, batch_size: int, seed: int):
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self.seed = seed
        self.stationary = self.batch_size >= len(dataset)

    def batch(self, epoch: int) -> Batch:
        data = self.dataset
        if self.stationary:
            return Batch(data.inputs, data.targets, (None, None))
        rng = derive_rng(self.seed, DATA_STREAM, epoch)
        idx = rng.choice(len(data), size=self.batch_size, replace=False)
        return Batch(data.inputs[idx], data.targets[idx], (None, None))


def as_batch_source(data, batch_size: int, seed: int):
    """Coerce a Dataset / TargetSpec / source object into a batch source."""
    if isinstance(data, Dataset):
        return DatasetSource(data, batch_size, seed)
    if isinstance(data, TargetSpec):
        return ResamplingSource(data, batch_size, seed)
    if hasattr(data, "batch"):
        return data
    raise TypeError(f"cannot build a batch source from {type(data).__name__}")


# ---------------------------------------------------------------------------
# built-in program targets


def _lfsr4_step(X: np.ndarray) -> np.ndarray:
    """Next state of a 4-bit linear feedback shift register.

    State (b0, b1, b2, b3) shifts left and refills the last bit with
    b0 XOR b1.  XOR is |a - b|, exact on {0, 1}.
    """
    b0, b1, b2, b3 = X[:, 0], X[:, 1], X[:, 2], X[:, 3]
    feedback = np.abs(b0 - b1)
    return np.stack([b1, b2, b3, feedback], axis=1)


def target_lfsr4() -> TargetSpec:
    bit = Choices((0.0, 1.0))
    return TargetSpec(
        kind="explicit",
        input_count=4,
        output_count=4,
        input_ranges=(bit, bit, bit, bit),
        fn=_lfsr4_step,
        name="lfsr4",
    )


def target_sort3(lo: float = -50.0, hi: float = 50.0) -> TargetSpec:
    box = Interval(lo, hi)
    return TargetSpec(
        kind="explicit",
        input_count=3,
        output_count=3,
        input_ranges=(box, box, box),
        fn=lambda X: np.sort(X, axis=1),
        name="sort3",
    )


BUILTIN_TARGETS = {
    "lfsr4": target_lfsr4,
    "sort3": target_sort3,
}
