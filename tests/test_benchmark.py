"""The benchmark harness against this tree: ``perfbench/run.py --self-test``
patches ``cli.run_trial`` and ``cli.CsvTrainLogger`` and checks its
fingerprints, so a change that breaks either fails here."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_self_test_passes():
    # run.py imports softdag from this tree's src/ on its own
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--self-test"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stdout + done.stderr
