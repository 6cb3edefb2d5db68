"""Repeat the benchmark over several seeds and summarise each metric's spread.

Usage, from the checkout root::

    python3 e2ebench/steadiness.py --workloads served-chord-1k,churn-can-200 \\
        --seeds 1-10 --output e2ebench/steadiness/set-a.json

Runs are sequential (one benchmark at a time).  For every workload and
end-to-end metric it records the median, quartiles (``statistics.quantiles``
with ``n=4``), min, max and the spread ``(q3 - q1) / median``, and for the
set-up time the raw and the calibration-normalised medians and the
normalised reading of the last set-up alone.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _seeds(text: str) -> List[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def summarise(values: List[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and relative inter-quartile spread."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / median if median else 0.0}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    started = time.monotonic()
    completed = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                               text=True, timeout=900)
    wall = time.monotonic() - started
    if completed.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n"
                           f"{completed.stderr[-2000:]}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    detail_path = (ROOT / ".e2ebench-out"
                   / f"{workload}-seed{seed}-trace{trace}.json")
    detail = json.loads(detail_path.read_text(encoding="utf-8"))
    return {"wall_s": wall, "result": result, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", required=True)
    arguments = parser.parse_args(argv)
    report: Dict[str, Any] = {"seeds": _seeds(arguments.seeds),
                              "seconds": arguments.seconds,
                              "trace": arguments.trace, "workloads": {}}
    for workload in arguments.workloads.split(","):
        runs = []
        for seed in report["seeds"]:
            runs.append(run_once(workload, seed, arguments.seconds, arguments.trace))
            sys.stderr.write(f"{workload} seed {seed}: {runs[-1]['wall_s']:.1f}s\n")
        names = list(runs[0]["result"]["metrics"])
        summary = {name: summarise([run["result"]["metrics"][name]["value"]
                                    for run in runs]) for name in names}
        if arguments.trace == 0:
            for reading in ("raw_median_s", "normalised_median_s"):
                summary[f"setup_s[{reading}]"] = summarise(
                    [run["detail"]["setup"][reading] for run in runs])
            # One set-up alone (the run's last), against the median of three.
            summary["setup_s[last_normalised_s]"] = summarise(
                [run["detail"]["setup"]["raw_s"][-1]
                 / run["detail"]["setup"]["factors"][-1] for run in runs])
        summary["wall_s"] = summarise([run["wall_s"] for run in runs])
        report["workloads"][workload] = {
            "summary": summary,
            "values": {name: [run["result"]["metrics"][name]["value"]
                              for run in runs] for name in names},
            "factors": [run["detail"]["windows"][-1]["factor"] for run in runs]}
        for name, entry in summary.items():
            sys.stderr.write(f"  {name:<34} median {entry['median']:<12.6g} "
                             f"spread {entry['spread']:.3%}\n")
    output = pathlib.Path(arguments.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
