"""One timed set-up of a workload in a fresh process.

Usage: ``python3 e2ebench/setup_probe.py WORKLOAD``.  Prints one
JSON line, ``{"seconds": ..., "factor": ...}``: the raw set-up seconds and
the calibration factor around them.  ``run.py`` uses it for every set-up
but the last of a run, so no set-up inherits a warm process.
"""

from __future__ import annotations

import json
import pathlib
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from harness import time_setup  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv) -> int:
    system, oracle, seconds, factor = time_setup(WORKLOADS[argv[0]])
    system.close()
    if oracle.violations:
        sys.stderr.write("preload answers failed the oracle: "
                         f"{oracle.violations}\n")
        return 1
    print(json.dumps({"seconds": seconds, "factor": factor}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
