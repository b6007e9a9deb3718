"""Self-test of the benchmark: its checks reject bad runs, its counts repeat.

    python3 perfbench/run.py --self-test

1. ``BENCHMARK.json`` names exactly the workloads and metrics run.py reports.
2. A clean run fails nothing; a forged fingerprint, a perturbed oracle
   value and a raising trial each raise ``failed_frac``.
3. Two traced runs at one seed, each in a fresh interpreter, give exactly
   the same count metrics on every workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# small units, so the whole self-test takes well under a minute
SMALL = {
    "multiout-lfsr4": {"epochs": 10},
    "recurrent-halfsquare": {"epochs": 5},
    "solve-poly": {"trials": 2},
}


def _small(name: str):
    from workloads import WORKLOADS

    return replace(WORKLOADS[name], **SMALL[name])


def _failed_frac(name: str, faults=(), fingerprint=False) -> float:
    from workloads import Runner

    runner = Runner(ROOT, _small(name), OUT, faults)
    if fingerprint:
        runner.check_fingerprint()
    else:
        runner.unit(7)
    o = runner.outcome
    return o.failed / o.attempted


def _counts(seed: int) -> dict:
    """Count metrics of one small traced unit per workload."""
    from spans import COUNT_METRICS, SharingCounter, Tracer, layer_metrics, split
    from workloads import Runner

    counts = {}
    for name in SMALL:
        tracer, counter = Tracer(), SharingCounter()
        runner = Runner(ROOT, _small(name), OUT)
        runner.unit(seed, tracer, counter)
        m = layer_metrics(split(tracer), counter.totals)
        counts[name] = {k: m[k] for k in COUNT_METRICS}
        counts[name]["failed"] = runner.outcome.failed
    return counts


def main() -> int:
    from run import END_TO_END, PER_LAYER
    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    results = []

    def expect(what: str, ok: bool, detail="") -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {what}" + (f": {detail}" if detail else ""), flush=True)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect(
        "BENCHMARK.json lists the workloads and metrics run.py reports",
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
        and {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
        and {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER,
    )

    clean = _failed_frac("multiout-lfsr4") + _failed_frac("solve-poly")
    expect("clean units fail nothing", clean == 0.0, f"failed_frac sum {clean}")
    frac = _failed_frac("multiout-lfsr4", fingerprint=True)
    expect("the pinned fingerprint reproduces", frac == 0.0, f"failed_frac {frac}")
    frac = _failed_frac("multiout-lfsr4", {"fingerprint"}, fingerprint=True)
    expect("a forged fingerprint fails", frac > 0.0, f"failed_frac {frac}")
    for name in ("multiout-lfsr4", "solve-poly"):
        frac = _failed_frac(name, {"oracle"})
        expect(f"{name}: a perturbed oracle value fails", frac > 0.0, f"failed_frac {frac}")
        frac = _failed_frac(name, {"raise"})
        expect(f"{name}: a raising trial fails", frac > 0.0, f"failed_frac {frac}")

    runs = []
    for _ in range(2):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--counts", "11"],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
        runs.append(json.loads(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None)
    ok = runs[0] is not None and runs[0] == runs[1]
    expect("count metrics repeat exactly in fresh interpreters", ok, json.dumps(runs[0]))
    if ok:
        failed = sum(c["failed"] for c in runs[0].values())
        expect("the traced units pass their checks", failed == 0, f"failed {failed}")

    print(f"self-test: {sum(results)}/{len(results)} passed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:2] == ["--counts"]:
        print(json.dumps(_counts(int(sys.argv[2]))))
        sys.exit(0)
    sys.exit(main())
