"""Evolutionary training of the selection weights.

Each epoch samples a population of function graphs, measures every
candidate's fitness against the current mini-batch with a normalized
Gaussian kernel, keeps the best few per output, and nudges the weights so
the kept graphs become more likely.  The gradient is the analytic
log-softmax score of each reachable row scaled by the candidate's fitness;
an Adam step applies the accumulated update.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .data import Batch, as_batch_source
from .expression import dag_to_expression, simplify, to_string
from .network import ConfigError, Network
from .plan import PopulationPlan, ValueStore
from .rng import EPOCH_STREAM, derive_rng
from .sampler import SampledDAG, most_likely_dag, reached_rows, sample_many
from .scoring import population_select

__all__ = [
    "TrainConfig",
    "TrainRun",
    "EpochStats",
    "AdamState",
    "loss_gradient",
    "population_gradient",
    "adam_step",
    "train_epoch",
    "train",
    "CsvTrainLogger",
]

VERDICT_CONVERGED = "converged"
VERDICT_EXHAUSTED = "max-epochs-exhausted"
# the stop criterion held while an output's best candidate scored 0.0: the
# population is stuck on graphs that fit nothing, not collapsed on a fit
VERDICT_ZERO_FITNESS = "zero-fitness"

# relative tolerance for the cross-epoch fitness-multiset check
_HISTORY_RTOL = 1e-12

# Adam's moment decay rates and the denominator's guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    sample_count: int = 50  # graphs sampled per epoch
    select_count: int = 5  # candidates reinforced per output
    variance: float = 0.01  # fitness kernel variance
    learning_rate: float = 0.05
    max_epochs: int = 1000
    patience: int = 30
    recurrence_depth: int = 1
    batch_size: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_count < 1 or self.select_count < 1:
            raise ConfigError("sample_count and select_count must be >= 1")
        if self.select_count > self.sample_count * self.recurrence_depth:
            raise ConfigError("select_count exceeds the candidate pool")
        # written so that NaN fails them too
        if not 0 < self.variance < math.inf:
            raise ConfigError(f"variance must be positive and finite, not {self.variance}")
        if not 0 < self.learning_rate < math.inf:
            raise ConfigError(f"learning_rate must be positive and finite, not {self.learning_rate}")
        if self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("max_epochs and patience must be >= 1")
        if self.recurrence_depth < 1:
            raise ConfigError("recurrence_depth must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")

    def validate_for(self, network: Network) -> None:
        if self.recurrence_depth > 1:
            cfg = network.config
            if cfg.output_count != cfg.input_count:
                raise ConfigError("recurrent training needs output_count == input_count")
            if cfg.output_count > 1:
                raise ConfigError("multi-output recurrent training is unsupported")


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def from_blocks(cls, blocks) -> "AdamState":
        return cls(
            m=[np.zeros_like(b) for b in blocks],
            v=[np.zeros_like(b) for b in blocks],
        )


@dataclass
class EpochStats:
    epoch: int
    best: np.ndarray  # best candidate fitness per output
    mean_selected: float
    selected: tuple  # per output: selected fitness values, descending
    selected_equal: bool


@dataclass
class TrainRun:
    """One trial's training state.

    ``store`` keeps the population plan's computed values from one epoch
    to the next while the rows it evaluates repeat bit for bit
    (:class:`~softdag.plan.ValueStore`); the picks and weights are those
    of computing every epoch afresh.
    """

    network: Network
    adam: AdamState
    epoch: int = 0
    verdict: str = VERDICT_EXHAUSTED
    converged_epoch: int | None = None
    store: ValueStore = field(default_factory=ValueStore, repr=False, compare=False)


def population_gradient(plan: PopulationPlan, probs, pairs) -> np.ndarray:
    """Gradient of ``-sum(scale * log q_output(graph))`` over ``pairs``,
    one vector laid out like the network's ``params``.

    ``plan`` is a :class:`~softdag.plan.PopulationPlan` of the graphs and
    ``probs`` the network's softmax rows, as ``Network.block_probs``
    returns them.  ``pairs`` lists ``(graph, output, scale)``: a graph of
    the plan's population, one of its outputs and the weight of its
    log-probability, fitness times the depth scale.  For a row with chosen
    index ``c`` and softmax probabilities ``p`` a pair contributes
    ``scale * (p - e_c) / T`` on each row reachable from its output, and
    nothing elsewhere.  Each weight receives the pairs' contributions in
    the order given.  With one output a graph's reachable rows are the
    plan's ``live`` images; with several the plan holds only their union,
    so each pair's are found again.
    """
    network = plan.network
    cfg = network.config
    size = network.params.size
    pairs = [p for p in pairs if p[2] != 0.0]
    if not pairs:
        return np.zeros(size)
    graph, out, scale = (np.array(column) for column in zip(*pairs))
    population = plan.population
    chosen = population.output_choices[graph, out]
    roots = network.output_codes[chosen][:, None]
    live = plan.live[graph] if cfg.output_count == 1 else None
    # every block's reached rows, the output rows last; pair-major within a
    # block, so each row receives its pairs in order
    levels = [*reached_rows(network, population, graph, roots, live)]
    levels.append((np.arange(len(pairs)), out, chosen))
    block = np.arange(len(levels)).repeat([len(row) for _, row, _ in levels])
    pair, row, chosen = (np.concatenate(column) for column in zip(*levels))
    # a reached row's weights are a run of ``width`` cells of ``params``,
    # and its terms start at ``offset``
    width = network.block_width[block]
    offset = width.cumsum() - width
    start = network.block_start[block] + row * width - offset
    cells = start.repeat(width) + np.arange(offset[-1] + width[-1])
    # scale * (p - e_c) / T per cell, in one scatter for all blocks
    d = np.concatenate([p.ravel() for p in probs])[cells]
    d[offset + chosen] -= 1.0
    d *= (scale[pair] / network.block_temperature[block]).repeat(width)
    # bincount adds each cell's terms in order, as ``np.add.at`` would
    return np.bincount(cells, d, minlength=size)


def loss_gradient(
    network: Network,
    dag: SampledDAG,
    fitness_value: float,
    output_index: int,
    depth: int = 1,
) -> list[np.ndarray]:
    """Gradient of the fitness-weighted negative log-likelihood, per block.

    The contribution of one graph: ``population_gradient`` of the single
    pair ``(dag, output_index, fitness_value * depth)``, as views of that
    vector.
    """
    pair = (0, int(output_index), float(fitness_value) * float(depth))
    grad = population_gradient(PopulationPlan(network, [dag]), network.block_probs(), [pair])
    return network.blocks(grad)


def adam_step(blocks, gradients, state: AdamState, learning_rate: float) -> None:
    """In-place bias-corrected Adam update of every block."""
    state.step += 1
    t = state.step
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for w, g, m, v in zip(blocks, gradients, state.m, state.v):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        w -= learning_rate * (m / c1) / (np.sqrt(v / c2) + ADAM_EPSILON)


def train_epoch(run: TrainRun, batch, config: TrainConfig) -> EpochStats:
    """One population step: sample, score, select, accumulate, Adam.

    ``batch`` is a :class:`~softdag.data.Batch`, scored on its distinct
    rows when its source names them, or an ``(X, Y)`` pair, scored on
    every row.
    One :class:`~softdag.plan.PopulationPlan` of the draw serves scoring
    and the gradient.  The population is evaluated through ``run.store``,
    so an epoch whose evaluated rows repeat the last epoch's bit for bit
    reuses its values.  ``run.adam`` holds the state of one Adam pass over
    ``params``.
    """
    net = run.network
    distinct = batch.distinct if isinstance(batch, Batch) else None
    X, Y, lanes = distinct or (*batch, None)
    rng = derive_rng(config.seed, EPOCH_STREAM, run.epoch + 1)
    dags = sample_many(net, rng, config.sample_count)
    depth = config.recurrence_depth
    plan = PopulationPlan(net, dags, depth)
    picks = population_select(plan, X, Y, config.variance, config.select_count, lanes, run.store)
    pairs = []
    selected_raw = []
    for j, sel in enumerate(picks):
        selected_raw.append(tuple(k for _, k in sel))
        # fixed accumulation order: output-major, then by candidate index;
        # a graph composed d + 1 times scales its log-probability by d + 1
        for ci, kv in sorted(sel):
            r, d = divmod(ci, depth)
            pairs.append((r, j, float(kv) * float(d + 1)))
    # the weights are unchanged since the draw, so its softmax rows serve
    grad = population_gradient(plan, dags.probs, pairs)
    adam_step([net.params], [grad], run.adam, config.learning_rate)
    run.epoch += 1
    selected = tuple(selected_raw)
    equal = all(s[0] == s[-1] for s in selected)
    values = [k for s in selected for k in s]
    return EpochStats(
        epoch=run.epoch,
        best=np.array([s[0] for s in selected]),
        # np.mean's sum and division, without its Python layers
        mean_selected=float(np.add.reduce(np.array(values)) / len(values)),
        selected=selected,
        selected_equal=equal,
    )


def _multisets_close(a, b) -> bool:
    for sa, sb in zip(a, b):
        if len(sa) != len(sb):
            return False
        for x, y in zip(sa, sb):
            if not math.isclose(x, y, rel_tol=_HISTORY_RTOL, abs_tol=0.0):
                return False
    return True


def train(
    network: Network,
    data,
    config: TrainConfig,
    logger=None,
) -> TrainRun:
    """Run epochs until the stop criterion fires or the budget runs out.

    A run stops once, for ``patience`` consecutive epochs, every
    output's selected candidates share exactly equal fitness within the
    epoch and the selected fitness multiset repeats from epoch to epoch
    (within 1e-12 relative).  Mini-batches are redrawn every epoch, so the
    cross-epoch condition holds exactly when the surviving candidates fit
    the data exactly and their fitness no longer depends on the batch.
    The run has converged if every output's selected fitness is positive;
    if some output's is 0.0, nothing fits that output and the verdict is
    ``zero-fitness``.
    Identical (config, seed, data) always reproduce the same trajectory
    bit for bit.
    """
    config.validate_for(network)
    source = as_batch_source(data, config.batch_size, config.seed)
    run = TrainRun(network=network, adam=AdamState.from_blocks([network.params]))
    streak = 0
    previous = None
    for epoch in range(1, config.max_epochs + 1):
        batch = source.batch(epoch)
        stats = train_epoch(run, batch, config)
        if logger is not None:
            logger(run, stats)
        if stats.selected_equal:
            if streak == 0 or _multisets_close(stats.selected, previous):
                streak += 1
            else:
                streak = 1
        else:
            streak = 0
        previous = stats.selected
        if streak >= config.patience:
            if any(sel[0] == 0.0 for sel in stats.selected):
                run.verdict = VERDICT_ZERO_FITNESS
            else:
                run.verdict = VERDICT_CONVERGED
                run.converged_epoch = run.epoch
            break
    return run


class CsvTrainLogger:
    """Per-epoch CSV log: fitness summary plus the current best expression.

    ``close()`` closes the file and releases the writer, whose record
    buffer (128 KiB once a row is written) would otherwise live as long as
    the logger; a second ``close()`` does nothing, and a row logged after
    it raises ``ValueError``.
    """

    def __init__(self, path, network: Network):
        v = network.config.output_count
        self._file = open(path, "w", newline="", encoding="utf-8")
        self._writer = csv.writer(self._file)
        self._writer.writerow(
            ["epoch"]
            + [f"best_fitness_{j}" for j in range(v)]
            + ["mean_selected_fitness", "expression"]
        )
        self._choices = self._expressions = None

    def __call__(self, run: TrainRun, stats: EpochStats) -> None:
        if self._writer is None:
            raise ValueError("epoch logged after the CSV log was closed")
        net = run.network
        dag = most_likely_dag(net)
        # the expressions follow from the argmax choices alone, and those
        # change on a minority of epochs
        choices = b"".join(c.tobytes() for c in (*dag.choices, dag.output_choices))
        if choices != self._choices:
            self._choices = choices
            self._expressions = " | ".join(
                to_string(simplify(dag_to_expression(net, dag, j)))
                for j in range(net.config.output_count)
            )
        self._writer.writerow(
            [stats.epoch]
            + [repr(float(b)) for b in stats.best]
            + [repr(stats.mean_selected), self._expressions]
        )

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = self._writer = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
