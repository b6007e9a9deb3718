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
from collections import deque
from dataclasses import dataclass

import numpy as np

from .data import as_batch_source
from .expression import dag_to_expression, simplify, to_string
from .network import ConfigError, Network
from .rng import EPOCH_STREAM, derive_rng
from .sampler import (
    SampledDAG,
    SampledPopulation,
    most_likely_dag,
    population_fitness,
    reachable_images,
    sample_many,
)

__all__ = [
    "TrainConfig",
    "TrainRun",
    "EpochStats",
    "AdamState",
    "loss_gradient",
    "population_gradient",
    "select_top",
    "rank_reweight",
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

# relative tolerance for the cross-epoch fitness-multiset check used with
# stationary batches
_HISTORY_RTOL = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    sample_count: int = 50  # graphs sampled per epoch
    select_count: int = 5  # candidates reinforced per output
    variance: float = 0.01  # fitness kernel variance
    learning_rate: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_epochs: int = 1000
    patience: int = 30
    recurrence_depth: int = 1
    rank_reweight: bool = False
    rank_reweight_increasing: bool = False
    depth_scales_logprob: bool = True
    batch_size: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sample_count < 1 or self.select_count < 1:
            raise ConfigError("sample_count and select_count must be >= 1")
        if self.select_count > self.sample_count * self.recurrence_depth:
            raise ConfigError("select_count exceeds the candidate pool")
        if self.variance <= 0:
            raise ConfigError("variance must be positive")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ConfigError("adam betas must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
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
    network: Network
    config: TrainConfig
    adam: AdamState
    history: deque  # trailing per-epoch `selected` tuples
    epoch: int = 0
    verdict: str = VERDICT_EXHAUSTED
    converged_epoch: int | None = None


def population_gradient(network: Network, population, pairs) -> list[np.ndarray]:
    """Gradient of ``-sum(scale * log q_output(graph))`` over ``pairs``, per block.

    ``pairs`` lists ``(graph, output, scale)``: a graph of ``population``
    (a :class:`SampledPopulation` or a sequence of graphs), one of its
    outputs and the weight of its log-probability, fitness times the depth
    scale.  For a row with chosen index ``c`` and softmax probabilities
    ``p`` a pair contributes ``scale * (p - e_c) / T`` on each row reachable
    from its output, and nothing elsewhere.  Each weight receives the pairs'
    contributions in the order given.
    """
    return _population_gradient(network, network.block_probs(), population, pairs)


def _population_gradient(network: Network, probs, population, pairs) -> list[np.ndarray]:
    """``population_gradient`` with the softmax rows ``probs`` of
    ``Network.block_probs``."""
    grads = [np.zeros_like(b) for b in network.blocks()]
    pairs = [p for p in pairs if p[2] != 0.0]
    if not pairs:
        return grads
    graph, out, scale = (np.array(column) for column in zip(*pairs))
    population = SampledPopulation.of(population)
    chosen = population.output_choices[graph, out]
    live = reachable_images(
        network, population.arg_codes(network, graph), network.output_codes[chosen][:, None]
    )
    coef = scale / network.last_layer_temperature
    _scatter(grads[-1], probs[-1], out, chosen, coef)
    coef = scale / network.temperature
    for q in range(network.levels):
        # pair-major, so each row receives its pairs in order
        pair, row = np.nonzero(live[:, q * network.N + network.row_image])
        chosen = population.choices[q][graph[pair], row]
        _scatter(grads[q], probs[q], row, chosen, coef[pair])
    return grads


def _scatter(grad: np.ndarray, probs: np.ndarray, rows, chosen, coef) -> None:
    """Add ``coef[k] * (probs[rows[k]] - e_chosen[k])`` to ``grad[rows[k]]``
    for each ``k`` in turn; ``np.add.at`` adds repeated rows one after
    another."""
    d = probs[rows]
    d[np.arange(len(rows)), chosen] -= 1.0
    d *= coef[:, None]
    np.add.at(grad, rows, d)


def loss_gradient(
    network: Network,
    dag: SampledDAG,
    fitness_value: float,
    output_index: int,
    depth: int = 1,
) -> list[np.ndarray]:
    """Gradient of the fitness-weighted negative log-likelihood, per block.

    The contribution of one graph: ``population_gradient`` of the single
    pair ``(dag, output_index, fitness_value * depth)``.
    """
    scale = float(fitness_value) * float(depth)
    return population_gradient(network, [dag], [(0, int(output_index), scale)])


def select_top(fitness_matrix: np.ndarray, count: int):
    """Per output, the ``count`` highest-fitness candidates.

    Returns one list of ``(candidate_index, fitness)`` pairs per output;
    ties resolve toward the lower candidate index.
    """
    K = np.asarray(fitness_matrix, dtype=np.float64)
    if K.ndim != 2:
        raise ValueError("fitness matrix must be 2-D (candidates x outputs)")
    n_cand = K.shape[0]
    if count > n_cand:
        raise ConfigError(f"cannot select {count} of {n_cand} candidates")
    picks = []
    order_tiebreak = np.arange(n_cand)
    for j in range(K.shape[1]):
        order = np.lexsort((order_tiebreak, -K[:, j]))[:count]
        picks.append([(int(c), float(K[c, j])) for c in order])
    return picks


def rank_reweight(values, increasing: bool = False) -> np.ndarray:
    """Divide each fitness by its rank (rank 1 = best under the default order)."""
    v = np.asarray(values, dtype=np.float64)
    if v.size == 0:
        raise ValueError("empty selection")
    keys = v if increasing else -v
    order = np.lexsort((np.arange(v.size), keys))
    out = np.empty_like(v)
    out[order] = v[order] / (np.arange(v.size) + 1.0)
    return out


def adam_step(
    blocks,
    gradients,
    state: AdamState,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> None:
    """In-place bias-corrected Adam update of every block."""
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for w, g, m, v in zip(blocks, gradients, state.m, state.v):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        w -= learning_rate * (m / c1) / (np.sqrt(v / c2) + epsilon)


def train_epoch(run: TrainRun, batch, config: TrainConfig) -> EpochStats:
    """One population step: sample, score, select, accumulate, Adam."""
    net = run.network
    X, Y = batch
    rng = derive_rng(config.seed, EPOCH_STREAM, run.epoch + 1)
    dags = sample_many(net, rng, config.sample_count)
    depth = config.recurrence_depth
    K = population_fitness(net, dags, X, Y, depth, config.variance)
    picks = select_top(K, config.select_count)
    pairs = []
    selected_raw = []
    for j, sel in enumerate(picks):
        raw = tuple(k for _, k in sel)
        selected_raw.append(raw)
        vals = np.asarray(raw)
        if config.rank_reweight:
            vals = rank_reweight(vals, config.rank_reweight_increasing)
        # fixed accumulation order: output-major, then by candidate index
        for ci, kv in sorted(zip((c for c, _ in sel), vals)):
            r, d = divmod(ci, depth)
            dscale = d + 1 if config.depth_scales_logprob else 1
            pairs.append((r, j, float(kv) * float(dscale)))
    # the weights are unchanged since the draw, so its softmax rows serve
    grads = _population_gradient(net, dags.probs, dags, pairs)
    adam_step(
        net.blocks(),
        grads,
        run.adam,
        config.learning_rate,
        config.beta1,
        config.beta2,
        config.epsilon,
    )
    run.epoch += 1
    selected = tuple(selected_raw)
    equal = all(s[0] == s[-1] for s in selected)
    run.history.append(selected)
    return EpochStats(
        epoch=run.epoch,
        best=K.max(axis=0),
        mean_selected=float(np.mean([k for s in selected for k in s])),
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
    temperature_schedule=None,
) -> TrainRun:
    """Run epochs until the stop criterion fires or the budget runs out.

    ``temperature_schedule``, when given, maps the 1-based epoch to a
    ``(temperature, last_layer_temperature)`` pair applied before sampling;
    the default keeps both constant.

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
    run = TrainRun(
        network=network,
        config=config,
        adam=AdamState.from_blocks(network.blocks()),
        history=deque(maxlen=config.patience),
    )
    streak = 0
    previous = None
    for epoch in range(1, config.max_epochs + 1):
        if temperature_schedule is not None:
            network.temperature, network.last_layer_temperature = (
                temperature_schedule(epoch)
            )
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
    """Per-epoch CSV log: fitness summary plus the current best expression."""

    def __init__(self, path, network: Network):
        v = network.config.output_count
        self._file = open(path, "w", newline="", encoding="utf-8")
        self._writer = csv.writer(self._file)
        self._writer.writerow(
            ["epoch"]
            + [f"best_fitness_{j}" for j in range(v)]
            + ["mean_selected_fitness", "expression"]
        )

    def __call__(self, run: TrainRun, stats: EpochStats) -> None:
        net = run.network
        dag = most_likely_dag(net)
        exprs = " | ".join(
            to_string(simplify(dag_to_expression(net, dag, j)))
            for j in range(net.config.output_count)
        )
        self._writer.writerow(
            [stats.epoch]
            + [repr(float(b)) for b in stats.best]
            + [repr(stats.mean_selected), exprs]
        )

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
