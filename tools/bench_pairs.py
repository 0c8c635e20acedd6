"""Alternating benchmark pairs: a parent checkout against a change checkout.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json
        --run chat:2001:10 [--run train-inmem:3001:5 ...] [--seconds 30]
        [--bench TEXT] [--parent-commit SHA]

Each `--run WORKLOAD:FIRST_SEED:PAIRS` runs that many pairs on the seeds
FIRST_SEED, FIRST_SEED+1, .... A pair runs each checkout's own
`perfbench/run.py` once on the same seed, back to back; the parent runs
first in even-numbered pairs (counting from 0) and second in odd ones, so
neither side always meets the machine first. Every run is a fresh process
in its checkout's directory.

The output has BENCH_10.json's layout: machine facts, the method, and per
workload the seeds, whether every run was correct, failed and attempted
request counts per side, and per end-to-end metric each side's median and
quartiles, its runs in pair order, the number of pairs the change won, the
ties, and the change of the median in percent. Metric names, units and
directions come from the change checkout's BENCHMARK.json. The file is
written again after each workload, so a cut campaign keeps the workloads
it finished.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def machine() -> dict:
    import numpy

    with open("/proc/cpuinfo") as f:
        model = next((line.split(":", 1)[1].strip() for line in f
                      if line.startswith("model name")), "")
    return {
        "cpu_model": model,
        "vcpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "note": "shared host whose speed drifts by itself; compare only within a pair",
    }


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run; its result object (the last line of its output)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: {workload} seed {seed} gave no result "
                         f"(exit {done.returncode}):\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def workload_entry(runs: dict[str, list[dict]], seeds: list[int], metrics: dict) -> dict:
    entry = {
        "pairs": len(seeds),
        "seeds": seeds,
        "every_run_correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed_requests": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted_requests": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "metrics": {},
    }
    for name, spec in metrics.items():
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in SIDES}
        sign = 1 if spec["better"] == "lower" else -1
        pairs = list(zip(values["parent"], values["change"]))
        parent, change = summary(values["parent"]), summary(values["change"])
        entry["metrics"][name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "change_wins": sum(sign * (c - p) < 0 for p, c in pairs),
            "ties": sum(c == p for p, c in pairs),
            "median_change_pct": round(100 * (change["median"] / parent["median"] - 1), 1)
            if parent["median"] else None,
            "parent_runs": [round(v, 4) for v in values["parent"]],
            "change_runs": [round(v, 4) for v in values["change"]],
        }
    return entry


def parse_run(text: str) -> tuple[str, int, int]:
    workload, first, pairs = text.split(":")
    return workload, int(first), int(pairs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--run", type=parse_run, action="append", required=True,
                        metavar="WORKLOAD:FIRST_SEED:PAIRS")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--bench", default="")
    parser.add_argument("--parent-commit", default="")
    args = parser.parse_args()

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    doc = {
        "bench": args.bench,
        "parent": args.parent_commit,
        "machine": machine(),
        "method": {
            "command": f"python3 perfbench/run.py --workload <w> --seed <s> "
                       f"--seconds {args.seconds:g} --trace 0",
            "pairing": "parent and change run back to back on the same seed; the parent "
                       "runs first in even-numbered pairs and second in odd ones",
            "quartiles": "statistics.quantiles(n=4, method='inclusive') over the runs of "
                         "one side",
        },
        "workloads": {},
    }
    for workload, first, pairs in args.run:
        seeds = list(range(first, first + pairs))
        runs: dict[str, list[dict]] = {side: [] for side in SIDES}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for side in order:
                checkout = args.parent if side == "parent" else args.change
                runs[side].append(run_once(checkout, workload, seed, args.seconds))
            line = "  ".join(
                f"{name} {runs['parent'][-1]['metrics'][name]['value']:.4g}"
                f"->{runs['change'][-1]['metrics'][name]['value']:.4g}" for name in metrics)
            print(f"{workload} pair {i} seed {seed}: {line}", file=sys.stderr, flush=True)
        doc["workloads"][workload] = workload_entry(runs, seeds, metrics)
        args.out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
