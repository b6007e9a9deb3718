"""Benchmark dataset generation and IDX image ingestion."""

from __future__ import annotations

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
    ``(n, output_count)``.  For ``implicit`` targets, ``derived`` computes
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


def _sample_inputs(ranges, n: int, rng: np.random.Generator) -> np.ndarray:
    out = np.empty((n, len(ranges)), dtype=np.float64)
    for k, dim in enumerate(ranges):
        if isinstance(dim, Interval):
            out[:, k] = rng.uniform(dim.lo, dim.hi, size=n)
        elif isinstance(dim, Choices):
            out[:, k] = rng.choice(np.asarray(dim.values), size=n)
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
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.kind == "classification":
        raise ConfigError("classification datasets are loaded, not generated")

    def draw(count: int) -> tuple[np.ndarray, np.ndarray]:
        if spec.kind == "implicit":
            free = _sample_inputs(spec.input_ranges, count, rng)
            with np.errstate(all="ignore"):
                last = np.asarray(spec.derived(free), dtype=np.float64)
            X = np.column_stack([free, last])
            Y = np.full((count, spec.output_count), spec.constant_target)
            return X, Y
        X = _sample_inputs(spec.input_ranges, count, rng)
        with np.errstate(all="ignore"):
            depth = spec.target_depth if spec.kind == "recurrent" else 1
            Y = np.asarray(_compose(spec.fn, X, depth), dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        return X, Y

    X, Y = draw(n)
    for _ in range(_MAX_RESAMPLE_ROUNDS):
        bad = ~(np.isfinite(X).all(axis=1) & np.isfinite(Y).all(axis=1))
        if not bad.any():
            break
        X2, Y2 = draw(int(bad.sum()))
        X[bad] = X2
        Y[bad] = Y2
    else:
        raise ConfigError(f"target {spec.name!r} keeps producing non-finite rows")
    return Dataset(X, Y)


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


class ResamplingSource:
    """Fresh batch drawn from the target distribution every epoch."""

    stationary = False

    def __init__(self, spec: TargetSpec, batch_size: int, seed: int):
        self.spec = spec
        self.batch_size = batch_size
        self.seed = seed

    def batch(self, epoch: int):
        rng = derive_rng(self.seed, DATA_STREAM, epoch)
        ds = generate(self.spec, self.batch_size, rng)
        return ds.inputs, ds.targets


class DatasetSource:
    """Batches drawn from a fixed dataset.

    When the batch size covers the whole dataset the same batch is served
    every epoch (a stationary source); otherwise a seeded random subset is
    drawn per epoch.
    """

    def __init__(self, dataset: Dataset, batch_size: int, seed: int):
        self.dataset = dataset
        self.batch_size = min(batch_size, len(dataset))
        self.seed = seed
        self.stationary = self.batch_size >= len(dataset)

    def batch(self, epoch: int):
        if self.stationary:
            return self.dataset.inputs, self.dataset.targets
        rng = derive_rng(self.seed, DATA_STREAM, epoch)
        idx = rng.choice(len(self.dataset), size=self.batch_size, replace=False)
        return self.dataset.inputs[idx], self.dataset.targets[idx]


def as_batch_source(data, batch_size: int, seed: int):
    """Coerce a Dataset / TargetSpec / source object into a batch source."""
    if isinstance(data, Dataset):
        return DatasetSource(data, batch_size, seed)
    if isinstance(data, TargetSpec):
        return ResamplingSource(data, batch_size, seed)
    if hasattr(data, "batch") and hasattr(data, "stationary"):
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
