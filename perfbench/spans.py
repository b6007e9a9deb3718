"""In-memory span tracer and the per-layer split derived from its spans.

The traced run replaces the names each calling module of ``softdag``
looks up from outside (module globals such as ``softdag.trainer.fitness``
and methods such as ``Network.arg_source``) with wrappers that record one
span per call: name, start, end, parent span and run id.  Spans live in
flat arrays while the run goes and are written out when it ends.

A span's self time is its duration minus the time its child spans cover.
A few spans own everything below them (see ``INCLUSIVE``): their layer is
the caller's view of the work, so the calls they make are not split out.

``SharingCounter`` counts, outside the program, how much work the sampled
graphs of each epoch share: structural node keys ``(basis, child keys)``
with recurrent depths keyed through the previous depth's output keys.
"""

from __future__ import annotations

import inspect
import time
from array import array
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (dotted owner, attribute, span name).  The owner is the module or class
# whose attribute the calling code looks up at call time.
PATCHES = (
    ("softdag.trainer", "sample_many", "trainer.sample_many"),
    ("softdag.trainer", "evaluate", "trainer.evaluate"),
    ("softdag.trainer", "evaluate_recurrent", "trainer.evaluate_recurrent"),
    ("softdag.trainer", "fitness", "trainer.fitness"),
    ("softdag.trainer", "select_top", "trainer.select_top"),
    ("softdag.trainer", "accumulate_loss_gradient", "trainer.accumulate_loss_gradient"),
    ("softdag.trainer", "adam_step", "trainer.adam_step"),
    ("softdag.trainer", "train_epoch", "trainer.train_epoch"),
    ("softdag.sampler", "evaluate", "sampler.evaluate"),
    ("softdag.data.ResamplingSource", "batch", "data.ResamplingSource.batch"),
    ("softdag.network.Network", "arg_row_probs", "network.arg_row_probs"),
    ("softdag.network.Network", "output_row_probs", "network.output_row_probs"),
    ("softdag.network.Network", "arg_source", "network.arg_source"),
    ("softdag.network.Network", "output_source", "network.output_source"),
    ("softdag.cli", "train", "cli.train"),
    ("softdag.cli", "dag_to_expression", "cli.dag_to_expression"),
    ("softdag.cli", "simplify", "cli.simplify"),
    ("softdag.cli", "evaluate_tree_batch", "cli.evaluate_tree_batch"),
    ("softdag.cli", "values_equivalent", "cli.values_equivalent"),
    ("softdag.cli", "save_network", "cli.save_network"),
)

# Spans recorded by the benchmark itself around its calls into softdag.
FIXED_TRAIN_SPAN = "bench.train"
TRAIN_SPANS = ("cli.train", FIXED_TRAIN_SPAN)
TRIAL_SPAN = "bench.run_trial"
EXPERIMENT_SPAN = "bench.run_experiment"
LOGGER_SPAN = "bench.logger"
EPOCH_SPAN = "trainer.train_epoch"
COUNT_SPAN = "trace.count"

# Batch generation evaluates the target through cli.evaluate_tree_batch,
# the CSV logger and extraction resolve sources through Network methods:
# that time belongs to the caller's layer.
INCLUSIVE = ("data.ResamplingSource.batch", LOGGER_SPAN, "cli.dag_to_expression")

# layer metric -> span names whose self time it sums, per epoch
EPOCH_LAYERS = {
    "sampler.sample_ms": ("trainer.sample_many",),
    "sampler.evaluate_ms": ("trainer.evaluate", "trainer.evaluate_recurrent", "sampler.evaluate"),
    "trainer.fitness_ms": ("trainer.fitness",),
    "trainer.select_ms": ("trainer.select_top",),
    "trainer.gradient_ms": ("trainer.accumulate_loss_gradient",),
    "network.row_softmax_ms": ("network.arg_row_probs", "network.output_row_probs"),
    "network.source_ms": ("network.arg_source", "network.output_source"),
    "trainer.adam_ms": ("trainer.adam_step",),
    "trainer.epoch_self_ms": (EPOCH_SPAN,),
    "data.batch_ms": ("data.ResamplingSource.batch",),
    "expression.logger_ms": (LOGGER_SPAN,),
    "trainer.loop_self_ms": TRAIN_SPANS,
}

# layer metric -> span names whose self time it sums, per trial, outside training
TRIAL_LAYERS = {
    "expression.extract_ms": ("cli.dag_to_expression", "cli.simplify"),
    "expression.verify_ms": ("cli.evaluate_tree_batch", "cli.values_equivalent", "sampler.evaluate"),
    "network.save_ms": ("cli.save_network",),
    "cli.report_ms": (EXPERIMENT_SPAN,),
}

# count metric -> span names counted per epoch
EPOCH_CALL_COUNTS = {
    "trainer.fitness_calls": ("trainer.fitness",),
    "network.row_softmax_calls": ("network.arg_row_probs", "network.output_row_probs"),
    "network.source_resolves": ("network.arg_source", "network.output_source"),
}


def _resolve(dotted: str):
    import importlib

    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


class Tracer:
    """Records one span per wrapped call into parallel flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.run = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.run_id = 0
        self.missing: set[str] = set()  # patched names softdag no longer has
        self._patches: list[tuple] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.end)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.run.append(self.run_id)
        self.end.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(self.name_id(name))
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording a span per call; ``after(bound_args, result)``
        runs under a ``trace.count`` span so its cost stays out of every
        layer."""
        nid = self.name_id(name)
        count_id = self.name_id(COUNT_SPAN)
        signature = inspect.signature(fn) if after is not None else None
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                cidx = open_(count_id)
                try:
                    after(signature.bind(*args, **kwargs).arguments, result)
                finally:
                    close(cidx)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(name)
            return
        setattr(owner, attr, self.wrap(name, original, after))
        self._patches.append((owner, attr, original))

    def install(self, hooks=None) -> None:
        hooks = hooks or {}
        for dotted, attr, name in PATCHES:
            try:
                owner = _resolve(dotted)
            except (ModuleNotFoundError, AttributeError):
                self.missing.add(name)
                continue
            self.patch(owner, attr, name, hooks.get(name))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def _nearest(parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
    """Per span, the nearest ancestor-or-self that is marked, else -1."""
    n = len(parent)
    # pointer jumping; index n stands for "no such ancestor"
    up = np.where(marked, np.arange(n), np.where(parent < 0, n, parent))
    up = np.append(up, n)
    fixed = np.append(marked, True)
    while True:
        nxt = np.where(fixed[up], up, up[up])
        if np.array_equal(nxt, up):
            break
        up = nxt
    out = up[:n]
    return np.where(out == n, -1, out)


def split(tracer: Tracer) -> dict:
    """Self time and call count per span name, by scope.

    Returns ``{"epochs", "trials", "epoch": {name: (ms, calls)},
    "trial": {...}, "train_ms", "train_self_ms", "count_ms"}``.
    ``epoch`` covers spans inside a training call, ``trial`` the spans of
    a trial outside training.
    """
    a = tracer.arrays()
    names = tracer.names
    n = len(a["name"])
    out = {"epochs": 0, "trials": 0, "epoch": {}, "trial": {}, "spans": n}
    if n == 0:
        return out
    ids = {name: i for i, name in enumerate(names)}
    code = a["name"]
    parent = a["parent"]
    dur = (a["end_ns"] - a["start_ns"]).astype(np.float64)
    covered = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    own = dur - covered

    def mark(span_names):
        wanted = [ids[s] for s in span_names if s in ids]
        return np.isin(code, wanted)

    # time under an inclusive span belongs to it
    incl = _nearest(parent, mark(INCLUSIVE))
    layer_code = np.where(incl >= 0, code[np.maximum(incl, 0)], code)
    in_train = _nearest(parent, mark(TRAIN_SPANS)) >= 0
    in_trial = _nearest(parent, mark((TRIAL_SPAN,))) >= 0
    scopes = {"epoch": in_train, "trial": in_trial & ~in_train}
    for scope, mask in scopes.items():
        ms = np.bincount(layer_code[mask], weights=own[mask], minlength=len(names)) / 1e6
        calls = np.bincount(code[mask], minlength=len(names))
        out[scope] = {
            name: (float(ms[i]), int(calls[i]))
            for i, name in enumerate(names)
            if calls[i] or ms[i]
        }
    # run_experiment's own time is report writing and bookkeeping, per trial
    exp_mask = code == ids.get(EXPERIMENT_SPAN, -1)
    if exp_mask.any():
        out["trial"][EXPERIMENT_SPAN] = (float(own[exp_mask].sum() / 1e6), int(exp_mask.sum()))
    train_mask = mark(TRAIN_SPANS)
    count_mask = code == ids.get(COUNT_SPAN, -1)
    out["epochs"] = int((code == ids.get(EPOCH_SPAN, -1)).sum())
    out["trials"] = int(train_mask.sum())
    out["train_ms"] = float(dur[train_mask].sum() / 1e6)
    out["train_self_ms"] = float(own[train_mask].sum() / 1e6)
    out["count_ms"] = float(dur[count_mask & in_train].sum() / 1e6)
    return out


def layer_metrics(sp: dict, totals: Counter) -> dict:
    """Per-layer metrics from a ``split`` and a ``SharingCounter``'s totals."""
    epochs, trials = max(sp["epochs"], 1), max(sp["trials"], 1)

    def total(scope, names, slot):
        return sum(sp[scope].get(n, (0.0, 0))[slot] for n in names)

    m = {name: total("epoch", names, 0) / epochs for name, names in EPOCH_LAYERS.items()}
    m.update({name: total("trial", names, 0) / trials for name, names in TRIAL_LAYERS.items()})
    m.update({name: total("epoch", names, 1) / epochs for name, names in EPOCH_CALL_COUNTS.items()})
    m["sampler.nodes_evaluated"] = totals["nodes_evaluated"] / max(totals["epochs"], 1)
    m["sampler.nodes_distinct_share"] = totals["nodes_distinct"] / max(totals["nodes_evaluated"], 1)
    m["sampler.nonfinite_share"] = totals["nonfinite_entries"] / max(totals["prediction_entries"], 1)
    m["trainer.fitness_distinct_share"] = totals["columns_distinct"] / max(totals["columns_scored"], 1)
    m["trainer.gradient_rows"] = totals["gradient_rows"] / epochs
    # share of traced training time that a named layer accounts for; the
    # rest is the self time of the training loop itself
    train_ms = sp.get("train_ms", 0.0) - sp.get("count_ms", 0.0)
    m["trace.epoch_accounted_frac"] = (
        1.0 - sp.get("train_self_ms", 0.0) / train_ms if train_ms > 0 else 0.0
    )
    return m


# Metrics that count work; they must repeat exactly between runs at one seed.
COUNT_METRICS = (
    "sampler.nodes_evaluated",
    "sampler.nodes_distinct_share",
    "sampler.nonfinite_share",
    "trainer.fitness_calls",
    "trainer.fitness_distinct_share",
    "trainer.gradient_rows",
    "network.row_softmax_calls",
    "network.source_resolves",
)


# ---------------------------------------------------------------------------
# work sharing, counted from the sampled graphs


class _Layout:
    """Source decoding of a network, re-derived from its documented layout:
    inputs, then constants, then the images of each level in turn."""

    def __init__(self, network) -> None:
        cfg = network.config
        self.inputs = cfg.input_count
        self.u = network.u
        self.N = network.N
        self.levels = network.levels
        self.skip = cfg.skip_connections
        self.outputs = cfg.output_count
        self.names = tuple(b.name for b in network.bases)
        self.rows = tuple(tuple(network.image_rows(i)) for i in range(self.N))

    def arg(self, level: int, s: int):
        if self.skip or level == 0:
            return self._global(s)
        return ("image", level - 1, s)

    def out(self, s: int):
        if self.skip:
            return self._global(s)
        return ("image", self.levels - 1, s)

    def _global(self, s: int):
        if s < self.inputs:
            return ("input", s)
        if s < self.u:
            return ("const", s - self.inputs)
        q, i = divmod(s - self.u, self.N)
        return ("image", q, i)


def _intern_dag(lay: _Layout, dag, input_ids, table: dict):
    """Intern every output-reachable node of ``dag``; returns the output
    keys and the number of nodes evaluated."""
    memo: dict[tuple[int, int], int] = {}

    def key(src):
        if src[0] == "input":
            return input_ids[src[1]]
        if src[0] == "const":
            return -1 - lay.inputs - src[1]
        return image(src[1], src[2])

    def image(q: int, i: int) -> int:
        got = memo.get((q, i))
        if got is None:
            kids = tuple(key(lay.arg(q, int(dag.choices[q][r]))) for r in lay.rows[i])
            got = table.setdefault((lay.names[i], kids), len(table))
            memo[(q, i)] = got
        return got

    outs = [key(lay.out(int(dag.output_choices[j]))) for j in range(lay.outputs)]
    return outs, len(memo)


def _gradient_rows(lay: _Layout, dag, j: int) -> int:
    """Selection rows the gradient of output ``j`` touches: its output row
    and every argument row of an image reachable from it."""
    seen = set()
    stack = [lay.out(int(dag.output_choices[j]))]
    rows = 1
    while stack:
        src = stack.pop()
        if src[0] != "image" or (src[1], src[2]) in seen:
            continue
        q, i = src[1], src[2]
        seen.add((q, i))
        rows += len(lay.rows[i])
        stack.extend(lay.arg(q, int(dag.choices[q][r])) for r in lay.rows[i])
    return rows


class SharingCounter:
    """Per-epoch work counts hooked onto the traced trainer calls."""

    def __init__(self) -> None:
        self.totals = Counter()
        self._dags = None
        self._layouts: dict = {}

    def _layout(self, network) -> _Layout:
        lay = self._layouts.get(network.config)
        if lay is None:
            lay = self._layouts[network.config] = _Layout(network)
        return lay

    def hooks(self) -> dict:
        return {
            "trainer.sample_many": self._on_sample,
            "trainer.evaluate": self._on_predictions,
            "trainer.evaluate_recurrent": self._on_predictions,
            "trainer.accumulate_loss_gradient": self._on_gradient,
            "trainer.train_epoch": self._on_epoch,
        }

    def _on_sample(self, args, dags) -> None:
        self._dags = dags

    def _on_predictions(self, args, result) -> None:
        for out in result if isinstance(result, list) else (result,):
            self.totals["prediction_entries"] += out.size
            self.totals["nonfinite_entries"] += int(out.size - np.count_nonzero(np.isfinite(out)))

    def _on_gradient(self, args, result) -> None:
        if float(args["fitness_value"]) != 0.0:
            lay = self._layout(args["network"])
            self.totals["gradient_rows"] += _gradient_rows(lay, args["dag"], int(args["output_index"]))

    def _on_epoch(self, args, result) -> None:
        dags, self._dags = self._dags, None
        if dags is None:
            return
        network = args["run"].network
        depth = int(args["config"].recurrence_depth)
        lay = self._layout(network)
        table: dict = {}
        scored = set()
        leaves = [-1 - k for k in range(lay.inputs)]
        for dag in dags:
            input_ids = leaves
            for _ in range(depth):
                outs, evaluated = _intern_dag(lay, dag, input_ids, table)
                self.totals["nodes_evaluated"] += evaluated
                scored.update((o, j) for j, o in enumerate(outs))
                self.totals["columns_scored"] += len(outs)
                input_ids = outs
        self.totals["nodes_distinct"] += len(table)
        self.totals["columns_distinct"] += len(scored)
        self.totals["epochs"] += 1
