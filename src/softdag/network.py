"""Layered selection network: fixed wiring plus trainable softmax rows.

A network of depth ``L`` stacks ``L + 1`` levels of basis applications.
Each level has an arguments sublayer (one selection row per argument slot)
and an images sublayer (one node per basis occurrence, consuming a fixed
contiguous run of argument slots).  Every selection row holds one raw
weight per visible source and induces a categorical distribution through
a temperature-controlled softmax; the output rows use their own, usually
higher, temperature.

With skip connections the sources visible to level ``p`` are the inputs
and constants followed by the images of all earlier levels; the output
rows see everything.  Without skip connections each level sees only the
previous level's images (level 0 sees the inputs and constants) and the
outputs see only the last images.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .bases import BasisFunction, resolve_bases

__all__ = [
    "ConfigError",
    "WeightsFormatError",
    "NetworkConfig",
    "Network",
    "build_network",
    "parameter_count",
    "softmax_rows",
    "save_network",
    "load_network",
]

_WEIGHTS_MAGIC = "softdag-weights"
_WEIGHTS_VERSION = 1


class ConfigError(ValueError):
    """Invalid network or experiment configuration."""


class WeightsFormatError(ValueError):
    """A serialized weights file is malformed or incompatible."""


@dataclass(frozen=True)
class NetworkConfig:
    """Architecture description.

    ``bases`` lists basis occurrences by name; the same list is reused at
    every level, and names may repeat.  ``constants`` are appended to the
    inputs as extra leaf sources.
    """

    bases: tuple[str, ...]
    input_count: int
    constants: tuple[float, ...] = ()
    output_count: int = 1
    depth: int = 1
    temperature: float = 1.0
    last_layer_temperature: float = 1.0
    skip_connections: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "bases", tuple(str(b).upper() for b in self.bases))
        object.__setattr__(self, "constants", tuple(float(c) for c in self.constants))
        if not self.bases:
            raise ConfigError("bases list is empty")
        if self.input_count < 0:
            raise ConfigError("input_count must be >= 0")
        if self.input_count + len(self.constants) < 1:
            raise ConfigError("need at least one input or constant")
        if self.output_count < 1:
            raise ConfigError("output_count must be >= 1")
        if self.depth < 1:
            raise ConfigError("depth must be >= 1")
        if not (self.temperature > 0 and self.last_layer_temperature > 0):
            raise ConfigError("temperatures must be positive")

    def to_json_dict(self) -> dict:
        return {
            "bases": list(self.bases),
            "input_count": self.input_count,
            "constants": list(self.constants),
            "output_count": self.output_count,
            "depth": self.depth,
            "temperature": self.temperature,
            "last_layer_temperature": self.last_layer_temperature,
            "skip_connections": self.skip_connections,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "NetworkConfig":
        return cls(
            bases=tuple(d["bases"]),
            input_count=int(d["input_count"]),
            constants=tuple(d["constants"]),
            output_count=int(d["output_count"]),
            depth=int(d["depth"]),
            temperature=float(d["temperature"]),
            last_layer_temperature=float(d["last_layer_temperature"]),
            skip_connections=bool(d["skip_connections"]),
        )


def softmax_rows(matrix: np.ndarray, temperature: float) -> np.ndarray:
    """Row-wise temperature softmax of a weight matrix; stable under max
    subtraction."""
    # the first division makes the copy; the rest works in it
    z = np.asarray(matrix, dtype=np.float64) / float(temperature)
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z


class Network:
    """Weight store plus the fixed argument-to-image wiring.

    Weights are stored row-major per selection row, so a sampled edge is
    addressed as ``(level, row, source_index)``.  ``weights[p]`` has shape
    ``(M, len(arg_codes[p]))`` for levels ``p = 0..depth``;
    ``output_weights`` has shape ``(output_count, len(output_codes))``.
    Every block is a view of one vector, ``params``, in ``blocks()`` order;
    write a block in place, never rebind it.  All weights initialize to
    1.0, which makes every row exactly uniform.
    """

    def __init__(
        self,
        config: NetworkConfig,
        registry: Mapping[str, BasisFunction] | None = None,
    ):
        self.config = config
        self.bases = resolve_bases(config.bases, registry)
        offsets = [0]
        for b in self.bases:
            offsets.append(offsets[-1] + b.arity)
        self.slot_offset = tuple(offsets)
        # the image each argument row feeds
        self.row_image = np.repeat(np.arange(len(self.bases)), [b.arity for b in self.bases])
        self.M = offsets[-1]
        # each image's key in the population plan (``plan.PopulationPlan``)
        # as slots of a level's row there: its basis, slot M + 1 + image,
        # then its argument rows, padded with slot M to the largest arity
        width = max(b.arity for b in self.bases)
        self.key_slots = np.array([
            [self.M + 1 + i, *self.image_rows(i), *[self.M] * (width - b.arity)]
            for i, b in enumerate(self.bases)
        ])
        # for each basis occurrence, the first occurrence of its name
        first: dict[str, int] = {}
        self.basis_first = np.array(
            [first.setdefault(b.name, i) for i, b in enumerate(self.bases)]
        )
        # the images ordered by basis name, and each name's arity, for the
        # population plan's keys (``plan.PopulationPlan``)
        self.by_basis = np.argsort(self.basis_first, kind="stable")
        self.name_arities = [self.bases[i].arity for i in first.values()]
        self.N = len(self.bases)
        self.u = config.input_count + len(config.constants)
        self.levels = config.depth + 1
        # the cells that end each graph's id table in the plan: -1 for
        # padding, then each basis's first occurrence
        self.key_cells = np.array([-1, *self.basis_first])
        # every source index decoded once into its global code: inputs,
        # then constants, then the images of each level in turn, so image
        # (q, i) is code u + q * N + i whatever the wiring; with skip
        # connections level p sees every code below u + p * N
        skip = config.skip_connections
        self.arg_codes = tuple(
            np.arange(self.u + p * self.N)
            if skip or p == 0
            else self.u + (p - 1) * self.N + np.arange(self.N)
            for p in range(self.levels)
        )
        self.output_codes = (
            np.arange(self.u + self.levels * self.N)
            if skip
            else self.u + (self.levels - 1) * self.N + np.arange(self.N)
        )
        # one vector holds every block, so one Adam pass updates them all
        shapes = [(self.M, len(codes)) for codes in self.arg_codes]
        shapes.append((config.output_count, len(self.output_codes)))
        ends = np.cumsum([0, *(rows * cols for rows, cols in shapes)]).tolist()
        # each block's ``(start, end, shape)`` in ``params``
        self.layout = list(zip(ends[:-1], ends[1:], shapes))
        self.params = np.ones(ends[-1])
        *self.weights, self.output_weights = self.blocks(self.params)

    # -- layout ------------------------------------------------------------

    def image_rows(self, image_index: int) -> range:
        """Argument-row indices feeding image ``image_index`` (any level)."""
        return range(self.slot_offset[image_index], self.slot_offset[image_index + 1])

    # -- probabilities -----------------------------------------------------

    def level_probs(self, level: int) -> np.ndarray:
        return softmax_rows(self.weights[level], self.config.temperature)

    def output_probs(self) -> np.ndarray:
        return softmax_rows(self.output_weights, self.config.last_layer_temperature)

    def block_probs(self) -> list[np.ndarray]:
        """The softmax rows of every block, in ``blocks()`` order."""
        return [*map(self.level_probs, range(self.levels)), self.output_probs()]

    # -- parameters ----------------------------------------------------------

    def blocks(self, params: np.ndarray | None = None) -> list[np.ndarray]:
        """All trainable weight arrays, in a fixed order; with ``params``, a
        vector laid out like ``self.params``, the same views of it."""
        if params is None:
            return [*self.weights, self.output_weights]
        return [params[a:b].reshape(shape) for a, b, shape in self.layout]

    def weight_count(self) -> int:
        return self.params.size


def build_network(
    config: NetworkConfig, registry: Mapping[str, BasisFunction] | None = None
) -> Network:
    """Construct a network with uniform (all-ones) initial weights."""
    return Network(config, registry)


def parameter_count(
    config: NetworkConfig, registry: Mapping[str, BasisFunction] | None = None
) -> int:
    """Closed-form trainable weight count; equals an actual build's total."""
    bases = resolve_bases(config.bases, registry)
    N = len(bases)
    M = sum(b.arity for b in bases)
    u = config.input_count + len(config.constants)
    L = config.depth
    v = config.output_count
    if config.skip_connections:
        return M * sum(u + p * N for p in range(L + 1)) + v * (u + (L + 1) * N)
    return M * (u + N * L) + v * N


# ---------------------------------------------------------------------------
# serialization


def save_network(network: Network, path: str | os.PathLike) -> None:
    """Write a versioned text file: header, config echo, one row per line."""
    lines = [f"{_WEIGHTS_MAGIC} {_WEIGHTS_VERSION}"]
    lines.append(json.dumps(network.config.to_json_dict(), sort_keys=True))
    for block in network.blocks():
        for row in block:
            lines.append(" ".join(repr(float(x)) for x in row))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def load_network(
    path: str | os.PathLike, registry: Mapping[str, BasisFunction] | None = None
) -> Network:
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [ln for ln in f.read().splitlines() if ln.strip()]
    except (IsADirectoryError, UnicodeDecodeError) as exc:
        raise WeightsFormatError(f"{path}: unreadable weights file: {exc}") from exc
    if not lines:
        raise WeightsFormatError(f"{path}: empty weights file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != _WEIGHTS_MAGIC:
        raise WeightsFormatError(f"{path}: bad magic {lines[0]!r}")
    try:
        version = int(head[1])
    except ValueError as exc:
        raise WeightsFormatError(f"{path}: bad version {head[1]!r}") from exc
    if version != _WEIGHTS_VERSION:
        raise WeightsFormatError(f"{path}: unsupported version {head[1]}")
    if len(lines) < 2:
        raise WeightsFormatError(f"{path}: missing config header")
    try:
        network = Network(NetworkConfig.from_json_dict(json.loads(lines[1])), registry)
    except (KeyError, ValueError, TypeError) as exc:
        raise WeightsFormatError(f"{path}: bad config header: {exc}") from exc
    rows = lines[2:]
    expected = sum(b.shape[0] for b in network.blocks())
    if len(rows) != expected:
        raise WeightsFormatError(
            f"{path}: expected {expected} weight rows, found {len(rows)}"
        )
    cursor = 0
    for block in network.blocks():
        for r in range(block.shape[0]):
            values = rows[cursor].split()
            cursor += 1
            if len(values) != block.shape[1]:
                raise WeightsFormatError(
                    f"{path}: row {cursor} has {len(values)} entries,"
                    f" expected {block.shape[1]}"
                )
            try:
                block[r] = [float(x) for x in values]
            except ValueError as exc:
                raise WeightsFormatError(f"{path}: row {cursor}: {exc}") from exc
    return network
