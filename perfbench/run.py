"""clutterkit benchmark: one run of one workload.

    python3 perfbench/run.py --workload graphs6 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Every measurement happens in a fresh
interpreter started from here (``worker.py``), so the homology cache and the
``lru_cache``s start cold as they do in a user's sweep.

The timed part of a workload runs REPEATS[workload] times, each time in a
fresh interpreter on the same inputs; its size grows with ``--seconds``
(``worker.instance_count``).  Each instance (and each real suite call)
counts with its fastest repetition: on a shared machine other tenants only
ever add time, and a repetition of each instance that misses their load is
enough.  Slow phases last up to tens of seconds, so the more repetitions a
run spreads over its time the steadier it is.

``--trace 0`` reports the end-to-end metrics; ``setup_s`` is the median of
the set-ups.  ``--trace 1`` adds one traced repetition, prints its stage
table, and reports the per-layer metrics.  The last line printed is the
JSON result.  A full result, with the machine and the git commit, is also
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Repetitions per workload.  A clutters63 repetition takes longest (see
# worker.instance_count), so it repeats least.
REPEATS = {"graphs6": 9, "clutters63": 5, "chordal7": 8, "cli": 8}
BUDGET_S = 170  # a run ends, with or without a result, within this many seconds
WORKLOADS = ("graphs6", "clutters63", "chordal7", "cli")


def child(workload: str, seed: int, seconds: int, deadline: float, *extra: str) -> dict:
    """Start worker.py in a new interpreter for one repetition and return its JSON line."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        *extra,
        "--spawn-time", repr(time.time()),
    ]
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, cwd=ROOT, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker stopped: the run exceeded {BUDGET_S} s") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_sha() -> str:
    """HEAD of the checkout, or "unknown" when the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def fastest(runs: list[dict]) -> dict:
    """Combine repetitions of one timed part, each instance at its fastest.

    ``run_s`` is the sum of the per-instance and per-suite minima.
    """
    latencies = [min(times) for times in zip(*(r["latencies"] for r in runs))]
    suites = [min(times) for times in zip(*(r["suite_s"].values() for r in runs))]
    return {"run_s": sum(latencies) + sum(suites), "latencies": latencies}


def end_to_end(runs: list[dict], setups: list[float]) -> dict:
    combined = fastest(runs)
    return {
        "run_s": (combined["run_s"], "s"),
        "instances_per_s": (len(combined["latencies"]) / combined["run_s"], "1/s"),
        "instance_p50_ms": (statistics.median(combined["latencies"]) * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in runs), "MB"),
    }


def per_layer(untraced: list[dict], traced: dict) -> dict:
    units = {"calls": "count", "states": "count", "rows": "count", "busy_s": "s", "self_s": "s",
             "found_ratio": "ratio", "p50_ms": "ms", "import_ms": "ms", "interpreter_ms": "ms"}
    metrics = {name: (value, units[name.rsplit(".", 1)[1]]) for name, value in traced["layers"].items()}
    metrics["homology.cache_entries"] = (traced["homology_cache_entries"], "count")
    metrics["instance_tail_ms"] = (measure.tail_latency(fastest(untraced)["latencies"])[1] * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (traced["run_s"] / statistics.median(r["run_s"] for r in untraced), "ratio")
    return metrics


def stage_table(traced: dict) -> list[str]:
    """Busy time, self time and share of run_s per traced layer in the timed part."""
    run_s = traced["run_s"]
    lines = [f"{'layer':<44} {'calls':>8} {'busy_s':>9} {'self_s':>9} {'self %':>7}"]
    rows = sorted(traced["stages"].items(), key=lambda item: -item[1][2])
    for name, (calls, busy_ns, self_ns) in rows:
        lines.append(
            f"{name:<44} {calls:>8} {busy_ns / 1e9:>9.3f} {self_ns / 1e9:>9.3f} {100 * self_ns / 1e9 / run_s:>6.1f}%"
        )
    covered = sum(self_ns for _, _, self_ns in traced["stages"].values()) / 1e9
    lines.append(f"{'(outside traced calls)':<44} {'':>8} {'':>9} {run_s - covered:>9.3f} "
                 f"{100 * (run_s - covered) / run_s:>6.1f}%")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "clutterkit" / "__init__.py").is_file():
        print(f"no clutterkit sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    # The build: byte-compile once, so that no timed interpreter compiles sources.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)], check=True)

    deadline = time.monotonic() + BUDGET_S
    untraced = [child(args.workload, args.seed, args.seconds, deadline) for _ in range(REPEATS[args.workload])]
    runs = list(untraced)
    if args.trace:
        runs.append(child(args.workload, args.seed, args.seconds, deadline, "--trace"))
        metrics = per_layer(untraced, runs[-1])
        print(f"stage breakdown of the traced {args.workload} run (run_s = {runs[-1]['run_s']:.3f} s):")
        print("\n".join(stage_table(runs[-1])))
    else:
        metrics = end_to_end(untraced, [r["setup_s"] for r in untraced])

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    environment = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    instances = len(untraced[0]["latencies"])
    tail_pct, tail_s = measure.tail_latency(fastest(untraced)["latencies"])
    print(f"environment: {json.dumps(environment)}")
    print(f"{instances} instances x {len(untraced)} repetitions; instance tail = {tail_s * 1e3:.3f} ms "
          f"(p{tail_pct:.2f} of {instances}); failed_ratio = {failed}/{attempted}")
    print("timed part per repetition, wall s / CPU s: "
          + ", ".join(f"{r['timed_wall_s']:.3f}/{r['timed_cpu_s']:.3f}" for r in runs))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for failure in (f for r in runs for f in r["failures"]):
        print(f"FAILED: {failure}")
    if untraced[0]["digests_unchecked"]:
        print(f"no stored digest for: {', '.join(untraced[0]['digests_unchecked'])}")
    OUT.mkdir(exist_ok=True)
    full = {"environment": environment, "metrics": metrics, "runs": runs}
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(full, indent=1))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
