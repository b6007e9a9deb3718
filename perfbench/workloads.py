"""The benchmark's workloads, their timed units and the checks on their outputs.

Every workload repeats a fixed unit of work, each unit on inputs made from
the run's seed, so two commits measured with the same seed and run length
do the same work.  ``softdag`` is driven only through its public
functions.  After each unit, outside the timed part, the outputs are
checked; a unit or trial that raised, left non-finite weights, failed an
oracle or mismatched a pinned fingerprint counts as failed.

Each unit records where its wall time went, and after every epoch the
host's speed (``hostspeed``), so that its times can be scaled to the
reference speed (``UnitTimes.scaled``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import tempfile
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from hostspeed import around, piece_s, scale
from spans import EXPERIMENT_SPAN, FIXED_TRAIN_SPAN, LOGGER_SPAN, TRIAL_SPAN

# Epochs of the golden trajectory: trial 0 of the config's own seed, as
# `softdag run` would train it, stopped after this many epochs.
FINGERPRINT_EPOCHS = 50


@dataclass(frozen=True)
class Workload:
    name: str
    config: str  # relative to the repository root
    unit_s: float  # nominal seconds of one unit; fixes the unit count per run
    epochs: int = 0  # > 0: fixed-epoch trials with the stop criterion off
    fingerprint: str = ""  # SHA-256 of the golden trajectory's final weights
    trials: int | None = None  # trial-count override for run_experiment
    max_epochs: int | None = None  # epoch cap per trial for run_experiment
    reference: Callable | None = None  # target as numpy, for the solve check


def _poly(X: np.ndarray) -> np.ndarray:
    return 2.0 * X[:, 0] ** 2 + 3.0 * X[:, 0]


# why each workload was chosen: BENCHMARK.json and README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="multiout-lfsr4",
            config="configs/lfsr4.ini",
            unit_s=2.3,
            epochs=100,
            fingerprint="eacc11a7478c8f6ce477d30b4c01cdd7b59654d523e49fe7e7a2a91fac25710a",
        ),
        Workload(
            name="recurrent-halfsquare",
            config="configs/recurrent_halfsquare.ini",
            unit_s=2.25,
            epochs=50,
            fingerprint="fadc08a07ab8dc8627b36a442ce7d5e6da293826fca8078e28ca494871e6917b",
        ),
        Workload(
            name="solve-poly",
            config="configs/poly_2x2_3x.ini",
            unit_s=7.2,
            # 98% of trials converge within 186 epochs; the cap bounds the
            # few that never do, which would otherwise run 2000 epochs
            max_epochs=200,
            reference=_poly,
        ),
    )
}


def _guarded(check, *args) -> str | None:
    """A check's verdict; a check that raises has found a problem."""
    try:
        return check(*args)
    except Exception as exc:  # noqa: BLE001 - e.g. a missing or unreadable output file
        return f"check raised {exc!r}"


def unit_seeds(workload: Workload, seed: int, count: int) -> list[int]:
    """Seeds of a run's units, made from the run's seed alone."""
    seq = np.random.SeedSequence([int(seed), zlib.crc32(workload.name.encode())])
    return [int(s) for s in seq.generate_state(count, np.uint32)]


def weights_digest(network) -> str:
    h = hashlib.sha256()
    for block in network.blocks():
        h.update(repr(block.shape).encode())
        h.update(np.ascontiguousarray(block, dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass
class UnitTimes:
    """Where one unit's wall time went, in seconds, and the host's speed
    meanwhile: the reference piece's time after each epoch."""

    epochs: list  # per trial, an array of its epoch times
    pieces: list  # per trial, an array of the piece's time after each epoch
    trial_rest: list  # per trial, its time outside its epochs and pieces
    rest: float  # the unit's time outside its trials

    def scaled(self) -> "UnitTimes":
        """These times at the reference speed: each epoch by the pieces
        around it, the rest of a trial and of the unit by their mean piece."""
        return UnitTimes(
            epochs=[scale(e, around(p)) for e, p in zip(self.epochs, self.pieces)],
            pieces=self.pieces,
            trial_rest=[scale(r, np.mean(p)) for r, p in zip(self.trial_rest, self.pieces)],
            rest=scale(self.rest, np.mean(np.concatenate(self.pieces))),
        )

    @property
    def trial_s(self) -> list:
        return [float(e.sum()) + r for e, r in zip(self.epochs, self.trial_rest)]

    @property
    def wall(self) -> float:
        return sum(self.trial_s) + self.rest


@dataclass
class Outcome:
    """Samples and verdicts gathered over a run."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    units: list = field(default_factory=list)  # UnitTimes of every unit that did not raise
    trials: int = 0
    solved: int = 0
    fingerprint: str = ""

    def check(self, what: str, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(f"{what}: {problem}")


class Runner:
    """Runs units of one workload and checks what each produced.

    ``faults`` injects the failures the self-test expects the checks to
    catch: ``"raise"`` (a trial raises), ``"oracle"`` (a graph evaluation
    is perturbed) and ``"fingerprint"`` (the pinned digest is forged).
    ``speed=False`` leaves out the reference piece after each epoch, as
    the traced run does, whose spans would count it.
    """

    def __init__(self, root: Path, workload: Workload, work_dir: Path, faults=frozenset(), speed=True):
        import softdag.cli as cli

        self.cli = cli
        self.speed = speed
        self.workload = workload
        self.work_dir = work_dir
        self.faults = frozenset(faults)
        self.config_path = root / workload.config
        self.exp = cli.parse_config(self.config_path)
        self.outcome = Outcome()

    # -- timed units -------------------------------------------------------

    def unit(self, seed: int, tracer=None, counter=None) -> float | None:
        """One timed unit; returns its wall time, or None if it raised."""
        if tracer is not None:
            tracer.install(counter.hooks() if counter is not None else None)
        try:
            if self.workload.epochs:
                result = self._fixed_unit(seed, self.workload.epochs, tracer)
            else:
                result = self._solve_unit(seed, tracer)
        except Exception as exc:  # noqa: BLE001 - a raising unit is a failed operation
            ops = 1 if self.workload.epochs else self._trial_count() + 1
            for _ in range(ops):
                self.outcome.check(f"unit seed {seed}", f"raised {exc!r}")
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        if self.workload.epochs:
            return self._check_fixed(seed, *result)
        return self._check_solve(seed, *result)

    def _clock(self, ends: list, starts: list, pieces: list):
        """The per-epoch logger callback: the epoch's end, the reference
        piece, then the next epoch's start."""
        fault = "raise" in self.faults

        def clock(run, stats):
            ends.append(perf_counter())
            if fault and len(ends) == 2:
                raise RuntimeError("injected trial failure")
            if self.speed:
                pieces.append(piece_s())
            starts.append(perf_counter())

        return clock

    def _fixed_unit(self, seed: int, epochs: int, tracer):
        from softdag import build_network, train

        training = replace(
            self.exp.training, seed=seed, max_epochs=epochs, patience=epochs + 1
        )
        ends, starts, pieces = [], [], []
        span = nullcontext()
        if tracer is not None:
            tracer.run_id += 1
            span = tracer.span(FIXED_TRAIN_SPAN)
        t0 = perf_counter()
        network = build_network(self.exp.network)
        with span:
            starts.append(perf_counter())
            run = train(network, self.exp.target, training, logger=self._clock(ends, starts, pieces))
        wall = perf_counter() - t0
        epochs = np.subtract(ends, starts[: len(ends)])
        pieces = np.array(pieces)
        times = UnitTimes(
            epochs=[epochs],
            pieces=[pieces],
            trial_rest=[wall - float(epochs.sum() + pieces.sum())],
            rest=0.0,
        )
        return network, run, training, times

    def _trial_count(self) -> int:
        return self.workload.trials or self.exp.trials

    def _solve_unit(self, seed: int, tracer):
        cli = self.cli
        out_dir = Path(tempfile.mkdtemp(prefix="solve-", dir=self.work_dir))
        loggers = []
        trial_walls: list[float] = []
        span = tracer.span if tracer is not None else (lambda _name: nullcontext())
        base_logger, base_run_trial = cli.CsvTrainLogger, cli.run_trial
        clock_factory = self._clock

        class ClockedLogger(base_logger):
            """The CSV logger with the epoch clock chained on."""

            def __init__(self, path, network):
                super().__init__(path, network)
                self.ends, self.starts, self.pieces = [], [perf_counter()], []
                self.clock = clock_factory(self.ends, self.starts, self.pieces)
                loggers.append(self)

            def __call__(self, run, stats):
                with span(LOGGER_SPAN):
                    super().__call__(run, stats)
                self.clock(run, stats)

        def timed_run_trial(*args, **kwargs):
            if tracer is not None:
                tracer.run_id += 1
            t = perf_counter()
            try:
                with span(TRIAL_SPAN):
                    return base_run_trial(*args, **kwargs)
            finally:
                trial_walls.append(perf_counter() - t)

        overrides = {
            "seed": seed,
            "trials": self.workload.trials,
            "max_epochs": self.workload.max_epochs,
        }
        cli.CsvTrainLogger, cli.run_trial = ClockedLogger, timed_run_trial
        try:
            t0 = perf_counter()
            with span(EXPERIMENT_SPAN):
                report = cli.run_experiment(
                    self.config_path, out_dir=out_dir, overrides=overrides, write_logs=True
                )
            wall = perf_counter() - t0
        except BaseException:
            shutil.rmtree(out_dir, ignore_errors=True)
            raise
        finally:
            cli.CsvTrainLogger, cli.run_trial = base_logger, base_run_trial
        # the first epoch starts at the logger's construction
        epochs = [np.subtract(log.ends, log.starts[: len(log.ends)]) for log in loggers]
        pieces = [np.array(log.pieces) for log in loggers]
        times = UnitTimes(
            epochs=epochs,
            pieces=pieces,
            trial_rest=[w - float(e.sum() + p.sum()) for w, e, p in zip(trial_walls, epochs, pieces)],
            rest=wall - sum(trial_walls),
        )
        return report, out_dir, times

    # -- checks ------------------------------------------------------------

    def _oracle(self, network, X, depth: int) -> str | None:
        """The argmax graph evaluated directly must equal its expression
        tree evaluated on the same batch, bit for bit, at every depth."""
        from softdag import (
            dag_to_expression,
            evaluate,
            evaluate_recurrent,
            evaluate_tree_batch,
            most_likely_dag,
        )

        if not all(np.isfinite(b).all() for b in network.blocks()):
            return "non-finite weights"
        dag = most_likely_dag(network)
        got = [evaluate(network, dag, X)] if depth == 1 else evaluate_recurrent(network, dag, X, depth)
        if "oracle" in self.faults:
            got[0] = got[0].copy()
            got[0].flat[0] = 0.0 if np.isnan(got[0].flat[0]) else np.nan
        trees = [dag_to_expression(network, dag, j) for j in range(network.config.output_count)]
        cur = X
        for d, values in enumerate(got, start=1):
            want = np.column_stack([evaluate_tree_batch(t, cur) for t in trees])
            if not np.array_equal(values, want, equal_nan=True):
                return f"depth {d}: graph evaluation differs from its expression tree"
            cur = want
        return None

    def _last_batch(self, seed: int, epoch: int):
        from softdag import ResamplingSource

        return ResamplingSource(self.exp.target, self.exp.training.batch_size, seed).batch(epoch)

    def _check_fixed(self, seed, network, run, training, times) -> float:
        problem = None
        if run.epoch != training.max_epochs:
            problem = f"ran {run.epoch} epochs, expected {training.max_epochs}"
        else:
            X, _ = self._last_batch(seed, run.epoch)
            problem = _guarded(self._oracle, network, X, training.recurrence_depth)
        self.outcome.check(f"unit seed {seed}", problem)
        self.outcome.units.append(times)
        self.outcome.trials += 1
        return times.wall

    def _check_trial(self, out_dir: Path, row: dict) -> str | None:
        from softdag import evaluate_tree_batch, load_network, parse

        network = load_network(out_dir / f"trial_{row['trial']}_weights.txt")
        X, _ = self._last_batch(row["seed"], row["epochs"])
        problem = self._oracle(network, X, self.exp.training.recurrence_depth)
        if problem is not None:
            return problem
        with open(out_dir / f"trial_{row['trial']}_log.csv", encoding="utf-8") as f:
            logged = sum(1 for _ in f) - 1
        if logged != row["epochs"]:
            return f"log has {logged} epochs, row says {row['epochs']}"
        got = evaluate_tree_batch(parse(row["expression"]), X)
        want = self.workload.reference(X)
        agrees = bool(np.all(np.abs(got - want) <= 1e-6 * np.maximum(1.0, np.abs(want))))
        if agrees != (row["equivalent"] is True):
            return f"claims equivalent={row['equivalent']} for {row['expression']!r}"
        return None

    def _check_report(self, out_dir: Path, report: dict) -> str | None:
        rows = report["trial_rows"]
        if len(rows) != self._trial_count():
            return f"{len(rows)} rows for {self._trial_count()} trials"
        with open(out_dir / "report.csv", newline="", encoding="utf-8") as f:
            written = list(csv.DictReader(f))
        if len(written) != len(rows) or any(
            {k: str(row[k]) for k in w} != w for w, row in zip(written, rows)
        ):
            return "report.csv disagrees with the returned rows"
        with open(out_dir / "summary.json", encoding="utf-8") as f:
            summary = json.load(f)
        if summary["trials_detail"] != json.loads(json.dumps(rows)) or any(
            summary[k] != report[k] for k in ("eta", "median_convergence_epochs", "trials")
        ):
            return "summary.json disagrees with the returned report"
        return None

    def _check_solve(self, seed, report, out_dir, times) -> float:
        from softdag.trainer import VERDICT_CONVERGED

        try:
            for row in report["trial_rows"]:
                problem = _guarded(self._check_trial, out_dir, row)
                self.outcome.check(f"unit seed {seed} trial {row['trial']}", problem)
                self.outcome.trials += 1
                self.outcome.solved += row["verdict"] == VERDICT_CONVERGED and row["equivalent"] is True
            problem = _guarded(self._check_report, out_dir, report)
            self.outcome.check(f"unit seed {seed} report", problem)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.outcome.units.append(times)
        return times.wall

    def check_fingerprint(self) -> None:
        """Train the golden trajectory and compare its weights' digest."""
        if not self.workload.epochs:
            return
        from softdag.rng import TRIAL_STREAM, derive_seed

        pinned = self.workload.fingerprint
        if "fingerprint" in self.faults:
            pinned = pinned[::-1]
        seed = derive_seed(self.exp.training.seed, TRIAL_STREAM, 0)
        try:
            network = self._fixed_unit(seed, FINGERPRINT_EPOCHS, None)[0]
        except Exception as exc:  # noqa: BLE001 - a raising run is a failed operation
            self.outcome.check("fingerprint", f"raised {exc!r}")
            return
        self.outcome.fingerprint = weights_digest(network)
        problem = None
        if self.outcome.fingerprint != pinned:
            problem = f"weights digest {self.outcome.fingerprint} != pinned {pinned}"
        self.outcome.check("fingerprint", problem)
