"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 perfbench/steady.py [--first-seed 1]

Each of the two sets runs every workload of BENCHMARK.json ten times for
its run_seconds, each run with its own seed and in its own process, exactly
as BENCHMARK.json's command does. Before each run it times a fixed
calibration loop that runs only benchmark code, so the machine's own drift
shows next to the metrics. It then prints, per workload and end-to-end
metric, each set's median and quartiles, the spread (distance between
quartiles over the median) and the move of set 2's median against set 1's,
signed so that a positive move is a change for the worse. The sets agree on
a metric when both spreads and the size of the move are within its bound.
The full record is written to .perfbench_out/steady-<time>.json.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import independent as ind

RUNS = 10
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

_CAL_RNG = random.Random(0)
CAL_RECORDS = [_CAL_RNG.randbytes(_CAL_RNG.randint(20, 200)) for _ in range(3000)]


def calibrate() -> float:
    """Median of five timings of a fixed hashing-and-counting loop, in ms."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        ind.msh(CAL_RECORDS)
        ind.bigram_counts((r.hex().encode()[:40] + b" x y" for r in CAL_RECORDS), {})
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    record: dict = {"runs": RUNS, "seconds": seconds, "sets": []}
    for s in range(2):
        runs: dict[str, list] = {w: [] for w in workloads}
        for w in workloads:
            for i in range(RUNS):
                seed = args.first_seed + s * RUNS + i
                cal = calibrate()
                result = run_once(w, seed, seconds)
                result["seed"], result["calibration_ms"] = seed, cal
                runs[w].append(result)
                shown = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                print(f"set {s + 1} {w:15s} seed {seed:3d} calibration {cal:7.2f} ms  "
                      f"attempted {result['attempted']:4d} failed {result['failed']}  {shown}",
                      flush=True)
        record["sets"].append(runs)

    print()
    heads = [f"set {s + 1} median [q1, q3] spread" for s in range(2)]
    print(f"{'workload':15s} {'metric':20s} {'bound':>6s} "
          + " ".join(f"{h:>40s}" for h in heads) + f" {'move':>7s}  verdict")
    ok = True
    summary = []
    for w in workloads:
        cals = [r["calibration_ms"] for runs in record["sets"] for r in runs[w]]
        shares = {
            s: sum(r["failed"] for r in runs[w]) / sum(r["attempted"] for r in runs[w])
            for s, runs in enumerate(record["sets"])
        }
        for name, spec in metrics.items():
            cols, medians, spreads = [], [], []
            for runs in record["sets"]:
                q1, q2, q3 = quartiles([r["metrics"][name]["value"] for r in runs[w]])
                medians.append(q2)
                spreads.append((q3 - q1) / q2)
                cols.append(f"{q2:12.4f} [{q1:10.4f}, {q3:10.4f}] {spreads[-1]:6.1%}")
            sign = 1 if spec["better"] == "lower" else -1
            # Signed for reading (negative when set 2 reads better), judged by size:
            # two sets of the same code should not differ in either direction.
            move = sign * (medians[1] - medians[0]) / medians[0]
            bound = spec["bound"]
            agree = abs(move) <= bound and max(spreads) <= bound
            steady = max(spreads) < bound / 3
            ok &= agree
            verdict = "agree" if agree else "DISAGREE"
            if not steady:
                verdict += ", spread over bound/3"
            print(f"{w:15s} {name:20s} {bound:6.2f} " + " ".join(f"{c:>40s}" for c in cols)
                  + f" {move:+7.1%}  {verdict}")
            summary.append({"workload": w, "metric": name, "medians": medians,
                            "spreads": spreads, "move": move, "agree": agree})
        same_share = len(set(shares.values())) == 1
        ok &= same_share
        cq1, cq2, cq3 = quartiles(cals) if len(cals) > 1 else (cals[0],) * 3
        print(f"{w:15s} failed share per set {list(shares.values())} "
              f"{'equal' if same_share else 'DIFFERENT'}; calibration median {cq2:.2f} ms, "
              f"spread {(cq3 - cq1) / cq2:.1%}")
    record["summary"] = summary
    OUT.mkdir(exist_ok=True)
    path = OUT / f"steady-{int(time.time())}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"\n{'all sets agree within the bounds' if ok else 'SETS DISAGREE'}; record in {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
