"""Time softdag's set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <config.ini>

Imports ``softdag`` from the repository's ``src/``, parses the config and
builds its network, and prints one JSON line with the time of each step.
The host's speed, timed in this interpreter right after, gives the set-up
time at the reference speed too (see ``hostspeed``).
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WARM_PIECES = 50  # untimed reference pieces first: a fresh interpreter runs them slow
PIECES = 100  # then the timed ones; their mean is the host's speed


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import softdag
    import softdag.cli

    t1 = time.perf_counter()
    exp = softdag.cli.parse_config(sys.argv[1])
    t2 = time.perf_counter()
    softdag.build_network(exp.network)
    t3 = time.perf_counter()
    import hostspeed

    for _ in range(WARM_PIECES):
        hostspeed.piece_s()
    piece = sum(hostspeed.piece_s() for _ in range(PIECES)) / PIECES
    print(json.dumps({
        "module": softdag.__file__,
        "setup_s": t3 - t0,
        "setup_scaled_s": hostspeed.scale(t3 - t0, piece),
        "import_ms": (t1 - t0) * 1e3,
        "parse_config_ms": (t2 - t1) * 1e3,
        "build_ms": (t3 - t2) * 1e3,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
