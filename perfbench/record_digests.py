"""Store the report and verdict digests of the current code in digests.json.

    python3 perfbench/record_digests.py --seeds 0-19

Runs each workload once per seed, with the per-repetition size that
``run.py`` uses at the ``run_seconds`` of BENCHMARK.json, and adds every
digest not stored yet.  A digest that differs from the stored one is never
replaced: it means the program's output changed, and the script exits with
code 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import run

DIGESTS = run.HERE / "digests.json"
SECONDS = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-19")
    args = parser.parse_args(argv)
    first, last = map(int, args.seeds.split("-"))
    tasks = [(w, s) for s in range(first, last + 1) for w in run.WORKLOADS]
    with ThreadPoolExecutor(2) as pool:
        deadline = time.monotonic() + run.BUDGET_S * len(tasks)
        results = list(pool.map(lambda task: run.child(*task, SECONDS, deadline), tasks))
    stored = json.loads(DIGESTS.read_text())
    status = 0
    for (workload, seed), result in zip(tasks, results):
        problems = [f for f in result["failures"] if f[1] != "digest differs from the stored one"]
        if problems:
            print(f"{workload} seed {seed}: failing instances, nothing stored: {problems}")
            status = 1
            continue
        for label, value in result["digests"].items():
            if stored.setdefault(label, value) != value:
                print(f"{label}: digest differs from the stored one; kept the stored one")
                status = 1
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
