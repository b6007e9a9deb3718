"""Experiment runner and command line interface.

Benchmark experiments live in flat INI files with four sections
(network / training / target / experiment); one file per benchmark ships
under ``configs/``.  Verbs:

    softdag run <config>        seeded multi-trial run of one benchmark
    softdag bench <config-dir>  run every config, emit a summary table
    softdag extract <weights>   print the most likely expression per output
    softdag gen-data <config>   write a generated dataset as CSV

Exit codes: 0 success, 1 configuration/validation error, 2 runtime failure
or a trial that raised (its report row reads ``error``).
A low convergence rate is reported, never asserted.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import os
import platform
import sys
import traceback
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bases import resolve_bases
from .data import (
    IdxFormatError,
    TargetSpec,
    classification_accuracy,
    complete_rows,
    generate,
    load_idx,
    split,
)
from .expression import (
    EQ_POINTS,
    Choices,
    Expr,
    Interval,
    ParseError,
    compile_trees,
    evaluate_tree_batch,
    input_indices,
    parse as parse_expression,
    sample_domain,
    simplify,
    to_string,
    values_equivalent,
    dag_to_expression,
)
from .network import (
    ConfigError,
    NetworkConfig,
    WeightsFormatError,
    build_network,
    load_network,
    save_network,
)
from .plan import evaluate_recurrent
from .rng import DATA_STREAM, SPLIT_STREAM, TRIAL_STREAM, derive_rng, derive_seed
from .sampler import most_likely_dag
from .trainer import CsvTrainLogger, TrainConfig, VERDICT_CONVERGED, train

VERDICT_ERROR = "error"  # the trial raised; the row's ``error`` column says why
REPORT_COLUMNS = ("trial", "seed", "verdict", "epochs", "equivalent", "depth",
                  "accuracy", "trapped", "expression", "error")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    network: NetworkConfig
    training: TrainConfig
    target: TargetSpec
    equivalence: str = "numeric"  # numeric | exact | none
    tolerance: float = 1e-6
    trials: int = 10
    extended: bool = False
    reference_expression: Expr | None = None
    reference_ranges: tuple = ()
    idx_images: str = ""
    idx_labels: str = ""
    classes: tuple[int, ...] = ()
    test_fraction: float = 0.1

    def __post_init__(self) -> None:
        # NaN or a negative tolerance would fail every numeric check
        if not 0 <= self.tolerance < math.inf:
            raise ConfigError(f"tolerance must be finite and >= 0, not {self.tolerance}")


# ---------------------------------------------------------------------------
# config file parsing


def _split_list(raw: str) -> list[str]:
    return [tok for tok in raw.replace(",", " ").split() if tok]


_NAMED_CONSTANTS = {"pi": math.pi, "e": math.e}


def _parse_constants(raw: str) -> tuple[float, ...]:
    return tuple(_NAMED_CONSTANTS[tok.lower()] if tok.lower() in _NAMED_CONSTANTS else float(tok)
                 for tok in _split_list(raw))


def _parse_ranges(raw: str) -> tuple:
    """Per-dimension ranges: ``lo..hi`` intervals or ``{a,b,c}`` sets, ';'-separated."""
    dims = []
    for part in raw.split(";"):
        part = part.strip()
        if not part:
            continue
        if part.startswith("{") and part.endswith("}"):
            values = tuple(float(tok) for tok in _split_list(part[1:-1]))
            dims.append(Choices(values))
        elif ".." in part:
            lo, hi = part.split("..")
            dims.append(Interval(float(lo), float(hi)))
        else:
            raise ConfigError(f"bad range {part!r} (use lo..hi or {{a,b}})")
    if not dims:
        raise ConfigError("empty ranges")
    return tuple(dims)


def _parse_classes(raw: str) -> tuple[int, ...]:
    classes = tuple(int(tok) for tok in _split_list(raw))
    for k, c in enumerate(classes):
        # a repeated class would train two outputs on one target column
        if c in classes[:k]:
            raise ValueError(f"class {c} is listed more than once")
    return classes


def _parse_bool(raw: str) -> bool:
    # 1/yes/true/on or 0/no/false/off, any case; a typo must not read as false
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError("not a boolean") from None


def _parse_bases(raw: str) -> tuple[str, ...]:
    names = tuple(_split_list(raw))
    resolve_bases(names)
    return names


def _parse_targets(raw: str) -> tuple[Expr, ...]:
    return tuple(parse_expression(part.strip()) for part in raw.split("|"))


def _one_of(*choices: str):
    def cast(raw: str) -> str:
        if raw not in choices:
            raise ValueError(f"use {' | '.join(choices)}")
        return raw

    return cast


def _at_least_one(path, name: str, value) -> None:
    """Reject a count below 1, naming the file it applies to."""
    if value is not None and value < 1:
        raise ConfigError(f"{path}: {name} must be >= 1, not {value}")


# target kinds, and the sets of them that read a key
_KINDS = ("explicit", "implicit", "recurrent", "classification")
_SAMPLED = ("explicit", "implicit", "recurrent")  # inputs drawn from [target] ranges
_PROGRAM = ("explicit", "recurrent")  # given by '|'-separated expressions
_IMPLICIT = ("implicit",)
_CLASSIFY = ("classification",)

# ``[section] key``: (field it sets, cast, kinds that read it, kinds that
# require it).  parse_config passes each value to NetworkConfig,
# TrainConfig, TargetSpec or ExperimentConfig by its field name, once it
# has worked out the target function and the counts: the '|'-separated
# expressions, the classes or the implicit kind give the output count,
# and inputs, or pixels on a classification target, the input count.  A
# key the file leaves out sets nothing, so the field's dataclass default
# applies.  Only explicit targets read equivalence, and classification
# reads neither it nor tolerance, but both are accepted on every kind.
SCHEMA = {
    ("network", "bases"): ("bases", _parse_bases, _KINDS, _KINDS),
    ("network", "constants"): ("constants", _parse_constants, _KINDS, ()),
    ("network", "depth"): ("depth", int, _KINDS, _KINDS),
    ("network", "temperature"): ("temperature", float, _KINDS, ()),
    ("network", "last_layer_temperature"): ("last_layer_temperature", float, _KINDS, ()),
    ("network", "skip_connections"): ("skip_connections", _parse_bool, _KINDS, ()),
    ("training", "samples"): ("sample_count", int, _KINDS, _KINDS),
    ("training", "select"): ("select_count", int, _KINDS, _KINDS),
    ("training", "variance"): ("variance", float, _KINDS, _KINDS),
    ("training", "learning_rate"): ("learning_rate", float, _KINDS, _KINDS),
    ("training", "max_epochs"): ("max_epochs", int, _KINDS, ()),
    ("training", "patience"): ("patience", int, _KINDS, ()),
    ("training", "recurrence_depth"): ("recurrence_depth", int, _KINDS, ()),
    ("training", "batch_size"): ("batch_size", int, _KINDS, ()),
    ("training", "seed"): ("seed", int, _KINDS, ()),
    ("target", "kind"): ("kind", _one_of(*_KINDS), _KINDS, ()),
    ("target", "inputs"): ("input_count", int, _SAMPLED, _SAMPLED),
    ("target", "ranges"): ("input_ranges", _parse_ranges, _SAMPLED, ()),
    ("target", "expression"): ("expression", _parse_targets, _PROGRAM, _PROGRAM),
    ("target", "derived"): ("derived", parse_expression, _IMPLICIT, _IMPLICIT),
    ("target", "constant"): ("constant_target", float, _IMPLICIT, ()),
    ("target", "target_depth"): ("target_depth", int, ("recurrent",), ()),
    ("target", "images"): ("idx_images", str, _CLASSIFY, _CLASSIFY),
    ("target", "labels"): ("idx_labels", str, _CLASSIFY, _CLASSIFY),
    ("target", "classes"): ("classes", _parse_classes, _CLASSIFY, _CLASSIFY),
    ("target", "test_fraction"): ("test_fraction", float, _CLASSIFY, ()),
    ("target", "pixels"): ("pixels", int, _CLASSIFY, ()),
    ("experiment", "name"): ("name", str, _KINDS, ()),
    ("experiment", "trials"): ("trials", int, _KINDS, ()),
    ("experiment", "equivalence"): ("equivalence", _one_of("numeric", "exact", "none"), _KINDS, ()),
    ("experiment", "tolerance"): ("tolerance", float, _KINDS, ()),
    ("experiment", "extended"): ("extended", _parse_bool, _KINDS, ()),
    ("experiment", "reference"): ("reference_expression", parse_expression, _IMPLICIT, ()),
    ("experiment", "reference_ranges"): ("reference_ranges", _parse_ranges, _IMPLICIT, ()),
}
_SECTIONS = tuple(dict.fromkeys(section for section, _ in SCHEMA))


def _unknown(path, section: str, key: str = "") -> ConfigError:
    """The error for a ``[section] key``, or a section with no keys, that
    :data:`SCHEMA` does not list; it names the key's own section if the key
    is misplaced, else the nearest listed name."""
    import difflib  # loaded only when a config is wrong

    name = f"[{section}] {key}".rstrip()
    names = [f"[{s}] {k}" for s, k in SCHEMA] if key else [f"[{s}]" for s in _SECTIONS]
    near = [n for n in names if key and n.endswith(f"] {key}")]
    near = near or difflib.get_close_matches(name, names, n=1, cutoff=0.8)
    return ConfigError(f"{path}: unknown {name}" + (f"; did you mean {near[0]}?" if near else ""))


def _build(path, cls, values: dict, **pinned):
    """``cls`` of the ``values`` named after its fields, with ``pinned`` in
    their place; a field the class rejects names the file."""
    kwargs = {f.name: values[f.name] for f in fields(cls) if f.name in values}
    kwargs.update(pinned)
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _expression_fn(exprs: tuple[Expr, ...]):
    # compiled once: a batch runs the trees' basis calls with no tree walk
    program = compile_trees(exprs)

    def fn(X: np.ndarray) -> np.ndarray:
        return np.stack(program(X), axis=1)

    return fn


def parse_config(path, overrides: dict | None = None) -> ExperimentConfig:
    """The experiment that the INI file at ``path`` describes, read through
    :data:`SCHEMA`.  The values of ``overrides`` (``seed``, ``max_epochs``,
    ``trials``) that are not None replace the file's."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    # no default section: a [DEFAULT] header is one more unknown section,
    # not keys copied into every other section; no interpolation: a value
    # is read as written, ``%`` and all
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"), default_section="",
                                   interpolation=None)
    try:
        cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: malformed config: {exc}") from exc
    given = {}
    for section in cp.sections():
        items = cp.items(section)
        if not items and section not in _SECTIONS:
            raise _unknown(path, section)
        for key, raw in items:
            if (section, key) not in SCHEMA:
                raise _unknown(path, section, key)
            field, cast = SCHEMA[section, key][:2]
            try:
                given[field] = cast(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}: bad [{section}] {key} = {raw!r}: {exc}") from exc
    for section in _SECTIONS:
        if section not in cp:
            raise ConfigError(f"{path}: missing [{section}] section")
    kind = given.get("kind", "explicit")
    for (section, key), (field, _, reads, needs) in SCHEMA.items():
        if field in given and kind not in reads:
            raise ConfigError(f"{path}: [{section}] {key} is not read by {kind} targets")
        if field not in given and kind in needs:
            raise ConfigError(f"{path}: missing [{section}] {key}")
    _at_least_one(path, "[experiment] trials", given.get("trials"))  # an API override may ask for 0
    given.update((name, value) for name, value in (overrides or {}).items() if value is not None)

    inputs, outputs = given.get("input_count"), 1
    ranges = given.get("input_ranges", ())
    fn = derived = None
    if kind in _PROGRAM:
        exprs = given["expression"]
        outputs = len(exprs)
        for e in exprs:
            used = input_indices(e)
            if used and max(used) >= inputs:
                raise ConfigError(f"{path}: expression uses x{max(used)} but inputs = {inputs}")
        fn = _expression_fn(exprs)

    input_count = inputs
    if kind == "implicit":
        derived_program = compile_trees((given["derived"],))
        derived = lambda free: derived_program(free)[0]  # noqa: E731
        if len(ranges) != inputs - 1:
            raise ConfigError(f"{path}: implicit targets need ranges for the {inputs - 1} free dimensions")
    elif kind == "classification":
        input_count = given.get("pixels", 784)
        outputs = len(given["classes"])
        inputs = 0  # the target is loaded from the IDX pair, never generated
    elif len(ranges) != inputs:
        raise ConfigError(f"{path}: expected {inputs} ranges, found {len(ranges)}")

    given.setdefault("name", path.stem)
    target = _build(path, TargetSpec, given, kind=kind, input_count=inputs, output_count=outputs,
                    input_ranges=ranges, fn=fn, derived=derived)
    network = _build(path, NetworkConfig, given, input_count=input_count, output_count=outputs)
    training = _build(path, TrainConfig, given)
    return _build(path, ExperimentConfig, given, network=network, training=training, target=target)


# ---------------------------------------------------------------------------
# correctness checks


def _check_explicit(exp: ExperimentConfig, exprs) -> bool:
    pts = sample_domain(exp.target.input_ranges, EQ_POINTS, seed=0)
    _, want = complete_rows(exp.target, pts)
    exact = exp.equivalence == "exact"
    for j, expr in enumerate(exprs):
        got = evaluate_tree_batch(expr, pts)
        if exact:
            if not (np.isfinite(got).all() and np.array_equal(got, want[:, j])):
                return False
        elif not values_equivalent(got, want[:, j], exp.tolerance):
            return False
    return True


def _check_recurrent(exp: ExperimentConfig, network, dag):
    """Returns (correct, identified_depth) of ``network``'s graph ``dag``."""
    pts = sample_domain(exp.target.input_ranges, EQ_POINTS, seed=0)
    _, target_vals = complete_rows(exp.target, pts)
    depth_outputs = evaluate_recurrent(
        network, dag, pts, exp.training.recurrence_depth
    )
    for d, got in enumerate(depth_outputs, start=1):
        if all(
            values_equivalent(got[:, j], target_vals[:, j], exp.tolerance)
            for j in range(got.shape[1])
        ):
            return True, d
    return False, None


def _check_implicit(exp: ExperimentConfig, exprs):
    """Returns (correct, trapped): trap = expression uses no inputs."""
    trapped = all(not input_indices(e) for e in exprs)
    correct = False
    if exp.reference_expression is not None and exp.reference_ranges:
        pts = sample_domain(exp.reference_ranges, EQ_POINTS, seed=0)
        want = evaluate_tree_batch(exp.reference_expression, pts)
        correct = all(
            values_equivalent(evaluate_tree_batch(e, pts), want, exp.tolerance)
            for e in exprs
        )
    return correct, trapped


# ---------------------------------------------------------------------------
# trials


def _load_classification(exp: ExperimentConfig):
    dataset = load_idx(exp.idx_images, exp.idx_labels, exp.classes)
    if dataset.inputs.shape[1] != exp.network.input_count:
        raise ConfigError(f"{exp.name}: [target] pixels = {exp.network.input_count}, but"
                          f" {exp.idx_images} holds images of {dataset.inputs.shape[1]} pixels")
    rng = derive_rng(exp.training.seed, SPLIT_STREAM)
    train, test = split(dataset, exp.test_fraction, rng)
    if not len(test):
        raise ConfigError(f"{exp.name}: [target] test_fraction = {exp.test_fraction} leaves no test rows"
                          f" of the {len(dataset)} rows of {exp.idx_images}")
    return train, test


def run_trial(exp: ExperimentConfig, trial: int, out_dir: Path | None = None,
              write_logs: bool = False, class_split=None) -> dict:
    """One seeded training run (on ``class_split``, a classification target's
    ``(train, test)`` pair); returns the report row."""
    trial_seed = derive_seed(exp.training.seed, TRIAL_STREAM, trial)
    training = replace(exp.training, seed=trial_seed)
    network = build_network(exp.network)

    if exp.target.kind == "classification":
        data, test_set = class_split
    else:
        data = exp.target

    logger = None
    if write_logs and out_dir is not None:
        logger = CsvTrainLogger(out_dir / f"trial_{trial}_log.csv", network)
    try:
        run = train(network, data, training, logger=logger)
    finally:
        if logger is not None:
            logger.close()

    dag = most_likely_dag(network)
    exprs = [
        simplify(dag_to_expression(network, dag, j))
        for j in range(exp.network.output_count)
    ]
    row = dict.fromkeys(REPORT_COLUMNS, "")
    row.update(trial=trial, seed=trial_seed, verdict=run.verdict,
               epochs=run.converged_epoch if run.converged_epoch else run.epoch,
               expression=" | ".join(to_string(e) for e in exprs))
    kind = exp.target.kind
    if kind == "classification":
        row["accuracy"] = classification_accuracy(network, dag, test_set)
    elif kind == "recurrent":
        ok, depth = _check_recurrent(exp, network, dag)
        row["equivalent"] = ok
        row["depth"] = depth if depth is not None else ""
    elif kind == "implicit":
        ok, trapped = _check_implicit(exp, exprs)
        row["equivalent"] = ok
        row["trapped"] = trapped
    elif exp.equivalence != "none":
        row["equivalent"] = _check_explicit(exp, exprs)
    if out_dir is not None:
        save_network(network, out_dir / f"trial_{trial}_weights.txt")
    return row


@dataclass(frozen=True)
class _Run:
    """What every trial of the running experiment shares in one process."""

    exp: ExperimentConfig
    out_dir: Path | None
    write_logs: bool
    class_split: tuple | None  # a classification target's (train, test) pair


_run: _Run | None = None  # the experiment this process runs trials of


def _start_run(run: _Run | None) -> None:
    global _run
    _run = run


def _start_worker(config_path, overrides, out_dir, write_logs, class_split) -> None:
    """A pool's initializer: each worker parses the config once, because
    its target closures cannot be sent to a worker process."""
    exp = parse_config(config_path, overrides)
    _start_run(_Run(exp, out_dir, write_logs, class_split))


def _trial_row(trial: int) -> dict:
    """Run one trial of the running experiment; a trial that raises
    becomes an ``error`` row."""
    run = _run
    try:
        return run_trial(run.exp, trial, out_dir=run.out_dir, write_logs=run.write_logs,
                         class_split=run.class_split)
    except Exception as exc:  # noqa: BLE001 - one failing trial must not lose the others
        traceback.print_exc()
        return _error_row(run.exp, trial, exc)


def _error_row(exp: ExperimentConfig, trial: int, exc: BaseException) -> dict:
    """The report row of a trial that did not finish, naming why."""
    row = dict.fromkeys(REPORT_COLUMNS, "")
    row.update(trial=trial, seed=derive_seed(exp.training.seed, TRIAL_STREAM, trial),
               verdict=VERDICT_ERROR, error=f"{type(exc).__name__}: {exc}")
    return row


def _trial_line(row: dict) -> str:
    if row["verdict"] == VERDICT_ERROR:
        return f"  trial {row['trial']}: error: {row['error']}"
    return (
        f"  trial {row['trial']}: {row['verdict']} after {row['epochs']} epochs"
        + (f", equivalent={row['equivalent']}" if row["equivalent"] != "" else "")
        + (f", accuracy={row['accuracy']:.4f}" if row["accuracy"] != "" else "")
    )


def summarize(name: str, rows: list[dict], trials: int) -> dict:
    converged = [r for r in rows if r["verdict"] == VERDICT_CONVERGED]
    correct = [r for r in converged if r["equivalent"] is True]
    eta = len(correct) / trials if trials else 0.0
    median_tc = (
        _median(r["epochs"] for r in converged) if converged else None
    )
    summary = {
        "name": name,
        "trials": trials,
        "eta": eta,
        "median_convergence_epochs": median_tc,
    }
    accuracies = [r["accuracy"] for r in rows if r["accuracy"] != ""]
    if accuracies:
        summary["median_accuracy"] = _median(accuracies)
    return summary


def _median(values):
    """``statistics.median`` of a non-empty iterable; importing
    ``statistics`` loads ``fractions`` and ``decimal``, about 1.5 ms."""
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def run_experiment(
    config_path,
    out_dir=None,
    overrides: dict | None = None,
    workers: int = 1,
    write_logs: bool = False,
    echo=lambda *_: None,
) -> dict:
    """Run every trial of one benchmark through :func:`_trial_row`, in this
    process or in a pool of ``workers``, and return the report dict.  The
    config is parsed once per process, so every trial runs the config the
    run started with.  Each row is echoed as its trial finishes, in a pool
    maybe before an earlier trial's, and the reports, rewritten after each
    row, list the rows finished so far in trial order.  A worker that dies
    breaks the pool: then every trial without a row gets an ``error`` row
    that names the cause, and the run returns."""
    exp = parse_config(config_path, overrides)
    out = Path(out_dir) if out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    # loaded before any trial runs, so that a bad file fails the run at once
    class_split = _load_classification(exp) if exp.target.kind == "classification" else None

    rows = []

    def record(row: dict) -> None:
        rows.append(row)
        rows.sort(key=lambda r: r["trial"])
        echo(_trial_line(row))
        _write_report(out, exp, rows)

    _write_report(out, exp, rows)
    _start_run(_Run(exp, out, write_logs, class_split))  # a pool starts each worker's
    try:
        if workers > 1:
            _run_pooled(exp, workers, (str(config_path), overrides, out, write_logs, class_split),
                        record)
        else:
            for row in map(_trial_row, range(exp.trials)):
                record(row)
    finally:
        _start_run(None)

    report = summarize(exp.name, rows, exp.trials)
    report["trial_rows"] = rows
    return report


def _run_pooled(exp: ExperimentConfig, workers: int, worker_args: tuple, record) -> None:
    """Run ``exp``'s trials in a pool of ``workers`` processes, each started
    by :func:`_start_worker` on ``worker_args``, and ``record`` each trial's
    row as it finishes.  A worker that dies breaks the pool: then every
    trial without a row gets an ``error`` row that names the cause."""
    # imported here: the pool pulls in ``multiprocessing``, which a run in
    # one process never loads
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    finished = set()
    try:
        with ProcessPoolExecutor(workers, initializer=_start_worker, initargs=worker_args) as pool:
            trials = [pool.submit(_trial_row, t) for t in range(exp.trials)]
            for future in as_completed(trials):
                row = future.result()
                finished.add(row["trial"])
                record(row)
    except BrokenProcessPool as exc:
        for t in range(exp.trials):
            if t not in finished:
                record(_error_row(exp, t, exc))


def _write_report(out: Path | None, exp: ExperimentConfig, rows: list[dict]) -> None:
    if out is None:
        return
    with open(out / "report.csv", "w", newline="", encoding="utf-8") as f:
        writer = csv.DictWriter(f, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row[k] for k in REPORT_COLUMNS})
    payload = summarize(exp.name, rows, exp.trials)
    payload["trials_detail"] = rows
    payload["generated_at"] = datetime.now(timezone.utc).isoformat()
    payload["environment"] = _environment()
    # one line: ``json.dump`` and any ``indent`` run the pure-Python
    # encoder, whose closures leave a reference cycle on every call
    with open(out / "summary.json", "w", encoding="utf-8") as f:
        f.write(json.dumps(payload, sort_keys=True) + "\n")


def _environment() -> dict:
    """What a run's numbers depend on besides the config and the seed."""
    # scipy's own module is light; its submodules load where they are used
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


# ---------------------------------------------------------------------------
# verbs


def _overrides(args, path) -> dict:
    _at_least_one(path, "--trials", args.trials)
    _at_least_one(path, "--parallel-trials", args.parallel_trials)
    return {"seed": args.seed, "trials": args.trials, "max_epochs": args.max_epochs}


def _exit_code(reports: list[dict]) -> int:
    """2 when a trial of any report raised, else 0."""
    return 2 if any(r["verdict"] == VERDICT_ERROR for rep in reports for r in rep["trial_rows"]) else 0


def cmd_run(args) -> int:
    print(f"running {args.config}")
    report = run_experiment(
        args.config,
        out_dir=args.out,
        overrides=_overrides(args, args.config),
        workers=args.parallel_trials or 1,
        write_logs=not args.no_logs,
        echo=print,
    )
    eta = report["eta"]
    tc = report["median_convergence_epochs"]
    print(f"name={report['name']} eta={eta:.2f} median_Tc={tc}")
    if "median_accuracy" in report:
        print(f"median_accuracy={report['median_accuracy']:.4f}")
    return _exit_code([report])


def cmd_bench(args) -> int:
    config_dir = Path(args.config_dir)
    paths = sorted(config_dir.glob("*.ini"))
    if not paths:
        raise ConfigError(f"no .ini configs under {config_dir}")
    overrides = _overrides(args, config_dir)
    exps = [parse_config(path, overrides) for path in paths]  # all checked before any trial runs
    summaries = []
    for path, exp in zip(paths, exps):
        if exp.extended and not args.extended:
            print(f"skipping {exp.name} (extended; rerun with --extended)")
            continue
        print(f"running {exp.name} ({exp.trials} trials)")
        out = Path(args.out) / exp.name if args.out else None
        report = run_experiment(
            path, out_dir=out, overrides=overrides,
            workers=args.parallel_trials or 1, echo=print,
        )
        summaries.append(report)
    print(f"{'benchmark':<28} {'eta':>6} {'median_Tc':>10} {'accuracy':>9}")
    for s in summaries:
        acc = f"{s['median_accuracy']:.3f}" if "median_accuracy" in s else "-"
        tc = s["median_convergence_epochs"]
        print(f"{s['name']:<28} {s['eta']:>6.2f} {str(tc):>10} {acc:>9}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "benchmarks.csv", "w", newline="", encoding="utf-8") as f:
            writer = csv.writer(f)
            writer.writerow(["name", "trials", "eta", "median_Tc", "median_accuracy"])
            for s in summaries:
                writer.writerow([
                    s["name"], s["trials"], s["eta"],
                    s["median_convergence_epochs"], s.get("median_accuracy", ""),
                ])
    return _exit_code(summaries)


def cmd_extract(args) -> int:
    network = load_network(args.weights)
    dag = most_likely_dag(network)
    for j in range(network.config.output_count):
        expr = simplify(dag_to_expression(network, dag, j))
        print(f"y{j} = {to_string(expr)}")
    return 0


def cmd_gen_data(args) -> int:
    _at_least_one(args.config, "--count", args.count)
    exp = parse_config(args.config, {"seed": args.seed})
    if exp.target.kind == "classification":
        raise ConfigError("gen-data does not apply to classification targets")
    rng = derive_rng(exp.training.seed, DATA_STREAM, 0)
    ds = generate(exp.target, args.count, rng)
    out = Path(args.out) if args.out else Path(f"{exp.name}_data.csv")
    with open(out, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        u = ds.inputs.shape[1]
        v = ds.targets.shape[1]
        writer.writerow([f"x{i}" for i in range(u)] + [f"y{j}" for j in range(v)])
        for xi, yi in zip(ds.inputs, ds.targets):
            writer.writerow([repr(float(x)) for x in xi] + [repr(float(y)) for y in yi])
    print(f"wrote {len(ds)} rows to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="softdag",
        description="Symbolic regression by sampling function graphs from a "
        "layered softmax network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None, help="base seed override")
        p.add_argument("--trials", type=int, default=None, help="trial count override")
        p.add_argument("--max-epochs", type=int, default=None, dest="max_epochs")
        p.add_argument("--out", type=str, default=None, help="output directory")
        p.add_argument(
            "--parallel-trials", type=int, default=None,
            dest="parallel_trials", help="run trials in parallel worker processes",
        )

    p_run = sub.add_parser("run", help="run one benchmark config")
    p_run.add_argument("config")
    p_run.add_argument("--no-logs", action="store_true", help="skip per-epoch CSV logs")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_bench = sub.add_parser("bench", help="run every config in a directory")
    p_bench.add_argument("config_dir")
    p_bench.add_argument("--extended", action="store_true",
                         help="include long-running experiments")
    common(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_extract = sub.add_parser("extract", help="print expressions from saved weights")
    p_extract.add_argument("weights")
    p_extract.set_defaults(func=cmd_extract)

    p_gen = sub.add_parser("gen-data", help="write a generated dataset as CSV")
    p_gen.add_argument("config")
    p_gen.add_argument("--count", type=int, default=1000)
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", type=str, default=None)
    p_gen.set_defaults(func=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, WeightsFormatError, IdxFormatError, ParseError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:  # noqa: BLE001 - report and signal runtime failure
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
