"""Shared helpers: tiny-network builders and independent enumeration oracles."""

from __future__ import annotations

import gc
import math

import numpy as np
import pytest

from softdag import NetworkConfig, SampledDAG, build_network


def make_network(bases, input_count, constants=(), output_count=1, depth=1,
                 temperature=1.0, last_layer_temperature=1.0, skip=True):
    return build_network(
        NetworkConfig(
            bases=tuple(bases),
            input_count=input_count,
            constants=tuple(constants),
            output_count=output_count,
            depth=depth,
            temperature=temperature,
            last_layer_temperature=last_layer_temperature,
            skip_connections=skip,
        )
    )


def make_dag(network, level_choices, output_choices):
    """Build a SampledDAG from plain lists; unspecified rows default to 0."""
    choices = []
    for level in range(network.levels):
        arr = np.zeros(network.M, dtype=np.int64)
        if level < len(level_choices) and level_choices[level] is not None:
            given = level_choices[level]
            arr[: len(given)] = given
        choices.append(arr)
    return SampledDAG(
        choices=tuple(choices),
        output_choices=np.asarray(output_choices, dtype=np.int64),
    )


def fig1_network():
    """Two-input network with constants (1, pi) over ADD, SIN, SQUARE, MUL."""
    return make_network(
        ("ADD", "SIN", "SQUARE", "MUL"),
        input_count=2,
        constants=(1.0, math.pi),
        output_count=2,
        depth=2,
    )


def fig1b_dag(network):
    """The sampled graph computing (sin(x0 + 1))^2 and sin(pi^2 sin(x1)).

    Slot layout per level: ADD -> rows 0-1, SIN -> 2, SQUARE -> 3,
    MUL -> rows 4-5.  Source indices: x0=0, x1=1, const 1=2, pi=3, then
    images level-major (4 per level).
    """
    lvl0 = [0, 2, 1, 3, 0, 0]  # ADD(x0, 1), SIN(x1), SQUARE(pi)
    lvl1 = [0, 0, 4, 0, 6, 5]  # SIN(ADD@0), MUL(SQUARE@0, SIN@0)
    lvl2 = [0, 0, 11, 9, 0, 0]  # SIN(MUL@1), SQUARE(SIN@1)
    return make_dag(network, [lvl0, lvl1, lvl2], [14, 13])


# ---------------------------------------------------------------------------
# independent probability oracle: exhaustive enumeration over reachable rows


def _softmax(w, t):
    z = np.asarray(w, dtype=np.float64) / t
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


# ---------------------------------------------------------------------------
# source decoding, re-derived from the documented layout rather than read
# from ``Network.arg_codes``, so the oracles do not check the code tables
# against themselves.  Sources are the inputs, then the constants, then the
# images of each level in turn; without skip connections level p > 0 sees
# only the images of level p - 1 and the outputs only the last level's.


def _global_source(network, s):
    cfg = network.config
    u = cfg.input_count + len(cfg.constants)
    if s < cfg.input_count:
        return ("input", s)
    if s < u:
        return ("const", s - cfg.input_count)
    q, i = divmod(s - u, len(cfg.bases))
    return ("image", q, i)


def arg_source(network, level, s):
    """Source ``s`` of a level-``level`` argument row as a tuple."""
    if network.config.skip_connections or level == 0:
        return _global_source(network, s)
    return ("image", level - 1, s)


def output_source(network, s):
    """Source ``s`` of an output row as a tuple."""
    if network.config.skip_connections:
        return _global_source(network, s)
    return ("image", network.config.depth, s)


def class_count_bound(network) -> int:
    """Upper bound on distinct reachable-row assignments."""
    memo: dict[tuple[int, int], int] = {}

    def image_classes(q, i):
        if (q, i) in memo:
            return memo[(q, i)]
        total = 1
        for _row in network.image_rows(i):
            per_source = 0
            for s in range(network.weights[q].shape[1]):
                res = arg_source(network, q, s)
                per_source += image_classes(res[1], res[2]) if res[0] == "image" else 1
            total *= per_source
        memo[(q, i)] = total
        return total

    bound = 1
    for _j in range(network.config.output_count):
        per_source = 0
        for s in range(network.output_weights.shape[1]):
            res = output_source(network, s)
            per_source += image_classes(res[1], res[2]) if res[0] == "image" else 1
        bound *= per_source
    return bound


def enumerate_classes(network):
    """All distinct reachable-choice assignments with oracle probabilities.

    Recursively branches over choices of rows as they become reachable;
    rows never reached are marginalized out.  Returns a list of
    (probability, assignment) where assignment maps ('out', j) and
    ('arg', level, row) to the chosen source index.
    """
    cfg = network.config
    out_probs = [
        _softmax(network.output_weights[j], cfg.last_layer_temperature)
        for j in range(cfg.output_count)
    ]
    results = []

    def rec(pending, assignment, visited, prob):
        if not pending:
            results.append((prob, dict(assignment)))
            return
        key = pending[0]
        rest = pending[1:]
        if key[0] == "out":
            probs = out_probs[key[1]]
            resolve = lambda s: output_source(network, s)  # noqa: E731
        else:
            _, level, row = key
            probs = _softmax(network.weights[level][row], cfg.temperature)
            resolve = lambda s: arg_source(network, level, s)  # noqa: E731
        for s, p in enumerate(probs):
            res = resolve(s)
            new_pending = rest
            new_visited = visited
            if res[0] == "image":
                q, i = res[1], res[2]
                if (q, i) not in visited:
                    new_visited = visited | {(q, i)}
                    new_pending = rest + [("arg", q, r) for r in network.image_rows(i)]
            assignment[key] = s
            rec(new_pending, assignment, new_visited, prob * p)
            del assignment[key]

    rec([("out", j) for j in range(cfg.output_count)], {}, frozenset(), 1.0)
    return results


def dag_from_assignment(network, assignment) -> SampledDAG:
    choices = [np.zeros(network.M, dtype=np.int64) for _ in range(network.levels)]
    out = np.zeros(network.config.output_count, dtype=np.int64)
    for key, s in assignment.items():
        if key[0] == "out":
            out[key[1]] = s
        else:
            choices[key[1]][key[2]] = s
    return SampledDAG(choices=tuple(choices), output_choices=out)


_TINY_POOL = ["SIN", "NEG", "SQUARE", "ID", "TANH", "ADD", "MUL"]


def random_tiny_network(rng, max_classes=200_000, skip=None):
    """A random small network whose class enumeration stays tractable."""
    for _ in range(200):
        n_bases = int(rng.integers(1, 4))
        bases = tuple(str(rng.choice(_TINY_POOL)) for _ in range(n_bases))
        net = make_network(
            bases,
            input_count=int(rng.integers(1, 4)),
            constants=tuple(float(c) for c in rng.uniform(0.5, 2.0, int(rng.integers(0, 2)))),
            output_count=int(rng.integers(1, 3)),
            depth=int(rng.integers(1, 3)),
            temperature=float(rng.uniform(0.5, 2.0)),
            last_layer_temperature=float(rng.uniform(0.5, 2.0)),
            skip=bool(rng.integers(0, 2)) if skip is None else skip,
        )
        for block in net.blocks():
            block += rng.normal(0.0, 0.7, size=block.shape)
        if class_count_bound(net) <= max_classes:
            return net
    raise AssertionError("could not draw a tractable tiny network")


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


# ---------------------------------------------------------------------------
# reference evaluator: walks the sampled graph one node at a time through the
# tuple-returning source decoder above, with no sharing between nodes or graphs


def reference_reachable_images(network, dag, output_indices=None):
    """Images ``(level, index)`` reachable backward from the given outputs
    (all outputs by default)."""
    if output_indices is None:
        output_indices = range(network.config.output_count)
    images = set()
    stack = []
    for j in output_indices:
        src = output_source(network, int(dag.output_choices[j]))
        if src[0] == "image":
            stack.append((src[1], src[2]))
    while stack:
        q, i = stack.pop()
        if (q, i) in images:
            continue
        images.add((q, i))
        for row in network.image_rows(i):
            src = arg_source(network, q, int(dag.choices[q][row]))
            if src[0] == "image":
                stack.append((src[1], src[2]))
    return images


def reference_evaluate(network, dag, X):
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    cfg = network.config
    values = {}

    def source_value(res):
        if res[0] == "input":
            # a contiguous copy, as the evaluator reads its inputs: numpy
            # picks the payload of a NaN made from two NaNs by the lane's
            # place in its vector loop, and a strided column loops otherwise
            return np.ascontiguousarray(X[:, res[1]])
        if res[0] == "const":
            return np.full(n, cfg.constants[res[1]])
        return values[(res[1], res[2])]

    for q, i in sorted(reference_reachable_images(network, dag)):
        args = [
            source_value(arg_source(network, q, int(dag.choices[q][row])))
            for row in network.image_rows(i)
        ]
        with np.errstate(all="ignore"):
            values[(q, i)] = np.asarray(network.bases[i].fn(*args), dtype=np.float64)
    out = np.empty((n, cfg.output_count), dtype=np.float64)
    for j in range(cfg.output_count):
        out[:, j] = source_value(output_source(network, int(dag.output_choices[j])))
    return out


def reference_evaluate_recurrent(network, dag, X, depth):
    outs = []
    cur = np.asarray(X, dtype=np.float64)
    for _ in range(depth):
        cur = reference_evaluate(network, dag, cur)
        outs.append(cur)
    return outs


def reference_fitness(predictions, targets, variance):
    """The Gaussian kernel of one column, summed with ``np.nansum``."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    with np.errstate(all="ignore"):
        k = np.exp(-((p - t) ** 2) / (2.0 * variance)) / math.sqrt(
            2.0 * math.pi * variance
        )
    return float(np.nansum(k))


def distinct_rows(X, Y):
    """``(X, Y, lanes)`` of a batch's distinct rows, as
    ``data.Batch.distinct`` holds them: its distinct ``(x, y)`` rows told
    apart by their bytes, so ``-0.0`` and ``0.0`` differ and so do NaN
    payloads; and per batch row, the rank of its distinct row."""
    rows = np.ascontiguousarray(np.hstack([X, Y]))
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, lanes = np.unique(keys, return_index=True, return_inverse=True)
    return X[first], Y[first], lanes.ravel()


def cyclic_garbage(call) -> int:
    """Objects that only the cycle collector frees after ``call()``."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bit patterns, NaN payloads included."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# ---------------------------------------------------------------------------
# reference sampler, log-probability and gradient: one graph and one
# selection row at a time, with a softmax per row


def reference_sample_many(network, rng, count):
    """Draw graphs with one ``searchsorted`` per selection row."""

    def draw(probs):
        cum = np.cumsum(probs, axis=1)
        r = rng.random((count, probs.shape[0]))
        idx = np.empty(r.shape, dtype=np.int64)
        for m in range(probs.shape[0]):
            idx[:, m] = np.searchsorted(cum[m], r[:, m], side="right")
        return np.clip(idx, 0, probs.shape[1] - 1)

    levels = [draw(network.level_probs(q)) for q in range(network.levels)]
    out = draw(network.output_probs())
    return [
        SampledDAG(choices=tuple(c[i].copy() for c in levels), output_choices=out[i].copy())
        for i in range(count)
    ]


def reference_log_probability(network, dag, output_subset=None):
    outs = range(network.config.output_count) if output_subset is None else sorted(set(output_subset))
    total = 0.0
    with np.errstate(divide="ignore"):
        for j in outs:
            p = _softmax(network.output_weights[j], network.config.last_layer_temperature)
            total += float(np.log(p[int(dag.output_choices[j])]))
        for q, i in sorted(reference_reachable_images(network, dag, outs)):
            for row in network.image_rows(i):
                p = _softmax(network.weights[q][row], network.config.temperature)
                total += float(np.log(p[int(dag.choices[q][row])]))
    return total


def reference_accumulate_loss_gradient(network, dag, fitness_value, output_index, grads, depth=1):
    """Add the gradient of ``-K * depth * log q_output(dag)`` into ``grads``,
    row by row."""
    if fitness_value == 0.0:
        return
    scale = float(fitness_value) * float(depth)
    j = int(output_index)
    row_grad = _softmax(network.output_weights[j], network.config.last_layer_temperature)
    row_grad[int(dag.output_choices[j])] -= 1.0
    grads[-1][j] += (scale / network.config.last_layer_temperature) * row_grad
    for q, i in sorted(reference_reachable_images(network, dag, (j,))):
        for row in network.image_rows(i):
            rg = _softmax(network.weights[q][row], network.config.temperature)
            rg[int(dag.choices[q][row])] -= 1.0
            grads[q][row] += (scale / network.config.temperature) * rg


def reference_train_epoch(run, batch, config):
    """One epoch drawn, scored and reinforced one graph and one row at a time."""
    from softdag.rng import EPOCH_STREAM, derive_rng
    from softdag.scoring import population_fitness, select_top
    from softdag.trainer import adam_step

    net = run.network
    X, Y = batch
    dags = reference_sample_many(net, derive_rng(config.seed, EPOCH_STREAM, run.epoch + 1),
                                 config.sample_count)
    depth = config.recurrence_depth
    K = population_fitness(net, dags, X, Y, depth, config.variance)
    grads = [np.zeros_like(b) for b in net.blocks()]
    for j, sel in enumerate(select_top(K, config.select_count)):
        for ci, kv in sorted(sel):
            r, d = divmod(ci, depth)
            reference_accumulate_loss_gradient(net, dags[r], kv, j, grads, depth=d + 1)
    # Adam works lane by lane, so one pass over the blocks laid end to end
    # is the same as one pass per block
    flat = np.concatenate([g.ravel() for g in grads])
    adam_step([net.params], [flat], run.adam, config.learning_rate)
    run.epoch += 1
