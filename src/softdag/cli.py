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
import statistics
import sys
import traceback
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bases import resolve_bases
from .data import (
    BUILTIN_TARGETS,
    IdxFormatError,
    TargetSpec,
    classification_accuracy,
    generate,
    load_idx,
    split,
)
from .expression import (
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

EQ_POINTS = 512  # samples for numeric equivalence checks
VERDICT_ERROR = "error"  # the trial raised; the row's ``error`` column says why
REPORT_COLUMNS = ("trial", "seed", "verdict", "epochs", "equivalent", "depth",
                  "accuracy", "trapped", "expression", "error")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    network: NetworkConfig
    training: TrainConfig
    target: TargetSpec
    equivalence: str  # numeric | exact | none
    tolerance: float
    trials: int
    extended: bool
    reference_expression: Expr | None = None
    reference_ranges: tuple = ()
    idx_images: str = ""
    idx_labels: str = ""
    classes: tuple[int, ...] = ()
    test_fraction: float = 0.1


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


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in _split_list(raw))


def _at_least_one(path, name: str, value) -> None:
    """Reject a count below 1, naming the file it applies to."""
    if value is not None and value < 1:
        raise ConfigError(f"{path}: {name} must be >= 1, not {value}")


# Options that once changed how training weighted the selected graphs;
# ignoring one would silently train differently from what the file asks.
_REMOVED_TRAINING_KEYS = ("rank_reweight", "rank_reweight_increasing", "depth_scales_logprob")


def _get(cp, path, section, key, cast, default=None, required=False):
    if not cp.has_option(section, key):
        if required:
            raise ConfigError(f"{path}: missing [{section}] {key}")
        return default
    raw = cp.get(section, key).strip()
    try:
        if cast is bool:
            # 1/yes/true/on or 0/no/false/off, any case; a typo must not
            # read as false
            return cp.getboolean(section, key)
        return cast(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{path}: bad [{section}] {key} = {raw!r}: {exc}") from exc


def _build(path, cls, **fields):
    """``cls(**fields)``; a field the class rejects names the file."""
    try:
        return cls(**fields)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _expression_fn(exprs: tuple[Expr, ...]):
    # compiled once: a batch runs the trees' basis calls with no tree walk
    program = compile_trees(exprs)

    def fn(X: np.ndarray) -> np.ndarray:
        return np.stack(program(X), axis=1)

    return fn


def parse_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: malformed config: {exc}") from exc
    for section in ("network", "training", "target", "experiment"):
        if not cp.has_section(section):
            raise ConfigError(f"{path}: missing [{section}] section")

    kind = _get(cp, path, "target", "kind", str, default="explicit")
    inputs = _get(cp, path, "target", "inputs", int, required=kind != "classification")
    outputs = _get(cp, path, "target", "outputs", int, default=1)
    ranges = _get(cp, path, "target", "ranges", _parse_ranges, default=())

    fn = None
    derived = None
    builtin_name = _get(cp, path, "target", "builtin", str, default="")
    if builtin_name:
        if builtin_name not in BUILTIN_TARGETS:
            raise ConfigError(f"{path}: unknown builtin target {builtin_name!r}")
        builtin = BUILTIN_TARGETS[builtin_name]()
        fn = builtin.fn
        inputs = builtin.input_count
        outputs = builtin.output_count
        if not ranges:
            ranges = builtin.input_ranges
    elif cp.has_option("target", "expression"):
        raw = cp.get("target", "expression")
        try:
            target_exprs = tuple(parse_expression(p.strip()) for p in raw.split("|"))
        except ParseError as exc:
            raise ConfigError(f"{path}: bad target expression: {exc}") from exc
        outputs = len(target_exprs)
        for e in target_exprs:
            used = input_indices(e)
            if used and max(used) >= inputs:
                raise ConfigError(
                    f"{path}: expression uses x{max(used)} but inputs = {inputs}"
                )
        fn = _expression_fn(target_exprs)
    elif kind not in ("classification", "implicit"):
        raise ConfigError(f"{path}: [target] needs an expression or builtin")

    if kind == "implicit":
        derived_raw = _get(cp, path, "target", "derived", str, required=True)
        try:
            derived_expr = parse_expression(derived_raw)
        except ParseError as exc:
            raise ConfigError(f"{path}: bad derived expression: {exc}") from exc
        derived_program = compile_trees((derived_expr,))
        derived = lambda free: derived_program(free)[0]  # noqa: E731
        if len(ranges) != inputs - 1:
            raise ConfigError(
                f"{path}: implicit targets need ranges for the {inputs - 1} free"
                " dimensions"
            )
    elif kind != "classification" and len(ranges) != inputs:
        raise ConfigError(f"{path}: expected {inputs} ranges, found {len(ranges)}")

    name = _get(cp, path, "experiment", "name", str, default=path.stem)
    target = _build(
        path,
        TargetSpec,
        kind=kind,
        input_count=inputs if kind != "classification" else 0,
        output_count=outputs,
        input_ranges=ranges,
        fn=fn,
        derived=derived,
        constant_target=_get(cp, path, "target", "constant", float, default=1.0),
        target_depth=_get(cp, path, "target", "target_depth", int, default=1),
        name=name,
    )

    classes = ()
    idx_images = idx_labels = ""
    test_fraction = 0.1
    if kind == "classification":
        idx_images = _get(cp, path, "target", "images", str, required=True)
        idx_labels = _get(cp, path, "target", "labels", str, required=True)
        classes = _get(cp, path, "target", "classes", _parse_ints, required=True)
        test_fraction = _get(cp, path, "target", "test_fraction", float, default=0.1)
        input_count = _get(cp, path, "target", "pixels", int, default=784)
        outputs = len(classes)
    else:
        input_count = inputs

    basis_names = tuple(_split_list(_get(cp, path, "network", "bases", str, required=True)))
    try:
        resolve_bases(basis_names)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    network = _build(
        path,
        NetworkConfig,
        bases=basis_names,
        input_count=input_count,
        constants=_get(cp, path, "network", "constants", _parse_constants, default=()),
        output_count=outputs,
        depth=_get(cp, path, "network", "depth", int, required=True),
        temperature=_get(cp, path, "network", "temperature", float, default=1.0),
        last_layer_temperature=_get(
            cp, path, "network", "last_layer_temperature", float, default=1.0
        ),
        skip_connections=_get(cp, path, "network", "skip_connections", bool, default=True),
    )

    for key in _REMOVED_TRAINING_KEYS:
        if cp.has_option("training", key):
            raise ConfigError(f"{path}: [training] {key} is no longer supported")
    training = _build(
        path,
        TrainConfig,
        sample_count=_get(cp, path, "training", "samples", int, required=True),
        select_count=_get(cp, path, "training", "select", int, required=True),
        variance=_get(cp, path, "training", "variance", float, required=True),
        learning_rate=_get(cp, path, "training", "learning_rate", float, required=True),
        max_epochs=_get(cp, path, "training", "max_epochs", int, default=1000),
        patience=_get(cp, path, "training", "patience", int, default=30),
        recurrence_depth=_get(cp, path, "training", "recurrence_depth", int, default=1),
        batch_size=_get(cp, path, "training", "batch_size", int, default=1000),
        seed=_get(cp, path, "training", "seed", int, default=0),
    )

    reference_expr = None
    if cp.has_option("experiment", "reference"):
        try:
            reference_expr = parse_expression(cp.get("experiment", "reference"))
        except ParseError as exc:
            raise ConfigError(f"{path}: bad reference expression: {exc}") from exc
    reference_ranges = _get(cp, path, "experiment", "reference_ranges", _parse_ranges, default=())

    trials = _get(cp, path, "experiment", "trials", int, default=10)
    _at_least_one(path, "[experiment] trials", trials)
    equivalence = _get(cp, path, "experiment", "equivalence", str, default="numeric")
    if equivalence not in ("numeric", "exact", "none"):
        raise ConfigError(
            f"{path}: [experiment] equivalence must be numeric, exact or none,"
            f" not {equivalence!r}"
        )
    return ExperimentConfig(
        name=name,
        network=network,
        training=training,
        target=target,
        equivalence=equivalence,
        tolerance=_get(cp, path, "experiment", "tolerance", float, default=1e-6),
        trials=trials,
        extended=_get(cp, path, "experiment", "extended", bool, default=False),
        reference_expression=reference_expr,
        reference_ranges=reference_ranges,
        idx_images=idx_images,
        idx_labels=idx_labels,
        classes=classes,
        test_fraction=test_fraction,
    )


# ---------------------------------------------------------------------------
# correctness checks


def _check_explicit(exp: ExperimentConfig, exprs) -> bool:
    pts = sample_domain(exp.target.input_ranges, EQ_POINTS, seed=0)
    want = exp.target.fn(pts)
    exact = exp.equivalence == "exact"
    for j, expr in enumerate(exprs):
        got = evaluate_tree_batch(expr, pts)
        if exact:
            if not (np.isfinite(got).all() and np.array_equal(got, want[:, j])):
                return False
        elif not values_equivalent(got, want[:, j], exp.tolerance):
            return False
    return True


def _check_recurrent(exp: ExperimentConfig, network):
    """Returns (correct, identified_depth)."""
    pts = sample_domain(exp.target.input_ranges, EQ_POINTS, seed=0)
    target_vals = pts
    for _ in range(exp.target.target_depth):
        target_vals = exp.target.fn(target_vals)
    dag = most_likely_dag(network)
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
    rng = derive_rng(exp.training.seed, SPLIT_STREAM)
    return split(dataset, exp.test_fraction, rng)


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
        ok, depth = _check_recurrent(exp, network)
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


_class_split = None  # the running experiment's classification split, if any


def _set_class_split(class_split) -> None:
    """A pool runs this in each worker, so the split is sent once per worker."""
    global _class_split
    _class_split = class_split


def _trial_row(job) -> dict:
    """Run one trial job of :func:`run_experiment`; a trial that raises
    becomes an ``error`` row.  The config is parsed here, not passed in,
    because its target closures cannot be sent to a worker process."""
    config_path, overrides, trial, out_dir, write_logs = job
    exp = _apply_overrides(parse_config(config_path), overrides)
    try:
        return run_trial(exp, trial, out_dir=out_dir, write_logs=write_logs,
                         class_split=_class_split)
    except Exception as exc:  # noqa: BLE001 - one failing trial must not lose the others
        traceback.print_exc()
        return _error_row(exp, trial, exc)


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


def _apply_overrides(exp: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    if not overrides:
        return exp
    training = exp.training
    if overrides.get("seed") is not None:
        training = replace(training, seed=overrides["seed"])
    if overrides.get("max_epochs") is not None:
        training = replace(training, max_epochs=overrides["max_epochs"])
    exp = replace(exp, training=training)
    if overrides.get("trials") is not None:
        exp = replace(exp, trials=overrides["trials"])
    return exp


def summarize(name: str, rows: list[dict], trials: int) -> dict:
    converged = [r for r in rows if r["verdict"] == VERDICT_CONVERGED]
    correct = [r for r in converged if r["equivalent"] is True]
    eta = len(correct) / trials if trials else 0.0
    median_tc = (
        statistics.median(r["epochs"] for r in converged) if converged else None
    )
    summary = {
        "name": name,
        "trials": trials,
        "eta": eta,
        "median_convergence_epochs": median_tc,
    }
    accuracies = [r["accuracy"] for r in rows if r["accuracy"] != ""]
    if accuracies:
        summary["median_accuracy"] = statistics.median(accuracies)
    return summary


def run_experiment(
    config_path,
    out_dir=None,
    overrides: dict | None = None,
    workers: int = 1,
    write_logs: bool = False,
    echo=lambda *_: None,
) -> dict:
    """Run every trial of one benchmark through :func:`_trial_row`, in this
    process or in a pool of ``workers``, and return the report dict.  Each
    row is echoed as its trial finishes, in a pool maybe before an earlier
    trial's, and the reports, rewritten after each row, list the rows
    finished so far in trial order.  A worker that dies breaks the pool:
    then every trial without a row gets an ``error`` row that names the
    cause, and the run returns."""
    exp = _apply_overrides(parse_config(config_path), overrides)
    out = Path(out_dir) if out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    # loaded before any trial runs, so that a bad file fails the run at once
    class_split = _load_classification(exp) if exp.target.kind == "classification" else None
    jobs = [(str(config_path), overrides, t, out, write_logs) for t in range(exp.trials)]

    rows = []

    def record(row: dict) -> None:
        rows.append(row)
        rows.sort(key=lambda r: r["trial"])
        echo(_trial_line(row))
        _write_report(out, exp, rows)

    _write_report(out, exp, rows)
    _set_class_split(class_split)  # for the in-process map; a pool sets each worker's
    try:
        if workers > 1:
            _run_pooled(exp, jobs, workers, class_split, record)
        else:
            for row in map(_trial_row, jobs):
                record(row)
    finally:
        _set_class_split(None)

    report = summarize(exp.name, rows, exp.trials)
    report["trial_rows"] = rows
    return report


def _run_pooled(exp: ExperimentConfig, jobs: list, workers: int, class_split, record) -> None:
    """Run ``jobs`` in a pool of ``workers`` processes and ``record`` each
    trial's row as it finishes.  A worker that dies breaks the pool: then
    every trial without a row gets an ``error`` row that names the cause."""
    # imported here: the pool pulls in ``multiprocessing``, which a run in
    # one process never loads
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    finished = set()
    try:
        with ProcessPoolExecutor(
            workers, initializer=_set_class_split, initargs=(class_split,)
        ) as pool:
            for future in as_completed([pool.submit(_trial_row, job) for job in jobs]):
                row = future.result()
                finished.add(row["trial"])
                record(row)
    except BrokenProcessPool as exc:
        for job in jobs:
            if job[2] not in finished:
                record(_error_row(exp, job[2], exc))


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
    with open(out / "summary.json", "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


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
    exps = [parse_config(path) for path in paths]  # all checked before any trial runs
    overrides = _overrides(args, config_dir)
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
    exp = parse_config(args.config)
    if exp.target.kind == "classification":
        raise ConfigError("gen-data does not apply to classification targets")
    base_seed = args.seed if args.seed is not None else exp.training.seed
    rng = derive_rng(base_seed, DATA_STREAM, 0)
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
