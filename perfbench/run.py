"""softdag benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, each in its own interpreter
    python3 perfbench/run.py --self-test         # the checks reject bad runs

``--trace 0`` measures the end-to-end metrics with tracing off; every
time is scaled to the reference host speed (see ``hostspeed``).
``--trace 1`` runs units untraced and traced in pairs on the same seeds,
and reports the per-layer split and the tracing overhead; its spans are
written to ``perfbench/out/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every check passed, 1 when one failed,
2 when the benchmark cannot run here (for example, no ``src/softdag``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Runner, unit_seeds  # noqa: E402

SETUP_PROBES = 5  # fresh interpreters timed per run; setup_s is their median

END_TO_END = {
    "setup_s": "s",
    "epoch_ms_p50": "ms",
    "run_s": "s",
    "trial_s_p50": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.import_ms": "ms",
    "cli.parse_config_ms": "ms",
    "network.build_ms": "ms",
    "sampler.sample_ms": "ms/epoch",
    "sampler.evaluate_ms": "ms/epoch",
    "sampler.nodes_evaluated": "count/epoch",
    "sampler.nodes_distinct_share": "ratio",
    "sampler.nonfinite_share": "ratio",
    "trainer.fitness_ms": "ms/epoch",
    "trainer.fitness_calls": "count/epoch",
    "trainer.fitness_distinct_share": "ratio",
    "trainer.select_ms": "ms/epoch",
    "trainer.gradient_ms": "ms/epoch",
    "trainer.gradient_rows": "count/epoch",
    "trainer.adam_ms": "ms/epoch",
    "trainer.epoch_self_ms": "ms/epoch",
    "trainer.loop_self_ms": "ms/epoch",
    "network.row_softmax_ms": "ms/epoch",
    "network.row_softmax_calls": "count/epoch",
    "network.source_ms": "ms/epoch",
    "network.source_resolves": "count/epoch",
    "data.batch_ms": "ms/epoch",
    "expression.logger_ms": "ms/epoch",
    "expression.extract_ms": "ms/trial",
    "expression.verify_ms": "ms/trial",
    "network.save_ms": "ms/trial",
    "cli.report_ms": "ms/trial",
    "trace.overhead_frac": "ratio",
    "trace.epoch_accounted_frac": "ratio",
}


class CannotRun(Exception):
    """The benchmark cannot run in this directory."""


def environment(loadavg) -> dict:
    import scipy

    env = {
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(loadavg),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_commit": "unknown (not a git checkout)",
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        def git(*cmd):
            done = subprocess.run(
                ["git", "-C", str(ROOT), *cmd], capture_output=True, text=True, timeout=30
            )
            return done.stdout.strip() if done.returncode == 0 else None

        env["git_commit"] = git("rev-parse", "HEAD") or "unknown"
        status = git("status", "--porcelain", "--untracked-files=no")
        env["git_dirty"] = None if status is None else bool(status)
    return env


def setup_probes(config: Path) -> list[dict]:
    """Time import, parse_config and build_network in fresh interpreters."""
    probes = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(config)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            raise CannotRun(f"set-up probe failed:\n{done.stderr.strip()}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        if not Path(probe["module"]).resolve().is_relative_to(ROOT / "src"):
            raise CannotRun(f"softdag imported from {probe['module']}, not {ROOT / 'src'}")
        probes.append(probe)
    return probes


def require_sources(config: Path) -> None:
    if not (ROOT / "src" / "softdag" / "__init__.py").is_file():
        raise CannotRun(f"no softdag sources under {ROOT / 'src'}")
    if not config.is_file():
        raise CannotRun(f"no workload config {config}")


def import_softdag() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import softdag

    if not Path(softdag.__file__).resolve().is_relative_to(ROOT / "src"):
        raise CannotRun(f"softdag imported from {softdag.__file__}")


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _p95(values) -> float:
    return float(np.percentile(values, 95)) if values else 0.0


def training_metrics(units: list) -> dict:
    epoch_ms = [ms for u in units for e in u.epochs for ms in e * 1e3]
    return {
        "epoch_ms_p50": _median(epoch_ms),
        "epoch_ms_p95": _p95(epoch_ms),
        "run_s": float(sum(u.wall for u in units)),
        "trial_s_p50": _median([t for u in units for t in u.trial_s]),
    }


def timed(runner: Runner, seed: int, seconds: int, probes: list[dict]):
    """The end-to-end metrics at the reference speed, and the same times
    as measured."""
    wl = runner.workload
    for s in unit_seeds(wl, seed, max(1, round(seconds / wl.unit_s))):
        runner.unit(s)
    runner.check_fingerprint()
    units = runner.outcome.units
    m = {
        "setup_s": _median([p["setup_scaled_s"] for p in probes]),
        **training_metrics([u.scaled() for u in units]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    pieces = np.concatenate([p for u in units for p in u.pieces] or [[np.nan]])
    measured = {
        "setup_s": _median([p["setup_s"] for p in probes]),
        **training_metrics(units),
        "piece_us_mean": float(np.mean(pieces) * 1e6),
    }
    # reported, not gated: scaling steadies the median epoch but not the
    # tail, whose spread across runs reached a fifth of its median
    return m, {"epoch_ms_p95": m.pop("epoch_ms_p95"), "measured": measured}


def traced(runner: Runner, seed: int, seconds: int, probes: list[dict], spans_path: Path):
    """Per-layer metrics, and the detail behind them."""
    from spans import SharingCounter, Tracer, layer_metrics, split

    wl = runner.workload
    tracer, counter = Tracer(), SharingCounter()
    plain, traced_s = [], []
    # untraced then traced on the same seed: identical work, so the ratio
    # of their wall times is the tracing overhead.  A pair costs about 2.5
    # units, so a traced run lasts about half as long as an untraced one.
    for s in unit_seeds(wl, seed, max(1, round(seconds / (6 * wl.unit_s)))):
        w0 = runner.unit(s)
        w1 = runner.unit(s, tracer, counter)
        if w0 is not None and w1 is not None:
            plain.append(w0)
            traced_s.append(w1)
    runner.check_fingerprint()
    tracer.save(spans_path)
    sp = split(tracer)
    m = {
        "setup.import_ms": _median([p["import_ms"] for p in probes]),
        "cli.parse_config_ms": _median([p["parse_config_ms"] for p in probes]),
        "network.build_ms": _median([p["build_ms"] for p in probes]),
        **layer_metrics(sp, counter.totals),
        "trace.overhead_frac": sum(traced_s) / sum(plain) - 1.0 if plain else 0.0,
    }
    epochs = max(sp["epochs"], 1)
    detail = {
        "spans": sp["spans"],
        "epochs_traced": sp["epochs"],
        "trials_traced": sp["trials"],
        "untraced_s": plain,
        "traced_s": traced_s,
        "patched_names_missing": sorted(tracer.missing),
        "self_ms_per_epoch": {k: v[0] / epochs for k, v in sorted(sp["epoch"].items())},
        "calls_per_epoch": {k: v[1] / epochs for k, v in sorted(sp["epoch"].items())},
        "sharing_totals": dict(counter.totals),
    }
    return m, detail


def run_one(args) -> int:
    loadavg = os.getloadavg()
    wl = WORKLOADS[args.workload]
    require_sources(ROOT / wl.config)
    probes = setup_probes(ROOT / wl.config)
    import_softdag()
    env = environment(loadavg)
    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(ROOT, wl, OUT, speed=not args.trace)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, mode_detail = traced(runner, args.seed, args.seconds, probes, OUT / f"{tag}-spans.npz")
        units = PER_LAYER
    else:
        metrics, mode_detail = timed(runner, args.seed, args.seconds, probes)
        units = END_TO_END
    o = runner.outcome
    correct = o.failed == 0 and o.attempted > 0
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": {
            "setup_probes": len(probes),
            "units": len(o.units),
            "trials": sum(len(u.epochs) for u in o.units),
            "epochs": sum(len(e) for u in o.units for e in u.epochs),
        },
        "solved_frac": o.solved / o.trials if wl.reference and o.trials else None,
        "failed_frac": o.failed / o.attempted if o.attempted else None,
        "fingerprint": o.fingerprint or None,
        "problems": o.problems,
        "environment": env,
        **mode_detail,
    }
    print(f"perfbench {wl.name}: seed {args.seed}, {args.seconds} s, trace {args.trace}")
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>14.6f} {unit}")
    s = detail["samples"]
    print(f"  samples: {s['setup_probes']} set-ups, {s['units']} units, "
          f"{s['trials']} trials, {s['epochs']} epochs")
    if "measured" in detail:
        print(f"  epoch_ms_p95 {detail['epoch_ms_p95']:.6f} ms (at the reference speed, not gated)")
        print("  as measured, before scaling to the reference speed: "
              + ", ".join(f"{k} {v:.6g}" for k, v in detail["measured"].items()))
    solved = "n/a" if detail["solved_frac"] is None else f"{o.solved}/{o.trials}"
    print(f"  solved {solved}, failed {o.failed}/{o.attempted}")
    for problem in o.problems:
        print(f"  FAILED {problem}")
    print("  environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": o.attempted,
        "failed": o.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    with open(OUT / f"{tag}.json", "w", encoding="utf-8") as f:
        json.dump({**result, "detail": detail}, f, indent=2, sort_keys=True)
        f.write("\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own fresh interpreter; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = max(status, done.returncode)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            import selftest

            for wl in WORKLOADS.values():
                require_sources(ROOT / wl.config)
            import_softdag()
            return selftest.main()
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except CannotRun as exc:
        print(f"perfbench: cannot run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
