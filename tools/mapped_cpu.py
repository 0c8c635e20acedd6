"""Where the CPU of a pooled confidential Preprocessing goes: server or workers.

    python3 tools/mapped_cpu.py [--requests 8] [--records 80000] [--seed 1]

Writes a seeded corpus of short text records to a temporary directory, then
runs that many confidential mapped Preprocessing requests in this process
through `palm.transport.prover_handle`, with an `MshPool` hashing the epoch.
For each request it prints the wall time, the CPU this process spent
(`time.process_time`), and the CPU the pool's workers spent, read from
`/proc/<pid>/stat` (user plus system time) for every pid in `pool.pids()`.
The first request starts the workers, so its worker CPU includes their
start; it is printed but left out of the medians on the last line. After
the first request it also prints how many processes run under this one
(children, their children and so on, from `/proc/<pid>/task/*/children`)
and their summed VmRSS from `/proc/<pid>/status`, next to this process's
own. Linux only.
"""

from __future__ import annotations

import argparse
import glob
import os
import random
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from palm import Challenge, build_request, write_dataset  # noqa: E402
from palm.encoding import sha3_256  # noqa: E402
from palm.msh import MshPool  # noqa: E402
from palm.protocol import TdContext  # noqa: E402
from palm.transport import prover_handle  # noqa: E402

TICK_S = 1 / os.sysconf("SC_CLK_TCK")


def corpus(seed: int, n: int) -> list[bytes]:
    """n records of 20 to 200 bytes: mixed-case words and runs of whitespace."""
    rng = random.Random(seed)
    words = ["".join(rng.choices("abcdefghijklmnopqrstuvwxyz", k=rng.randint(3, 9))).encode()
             for _ in range(4000)]
    words += [w.upper() for w in words[:1000]] + [w.capitalize() for w in words[1000:2000]]
    separators = (b" ", b"  ", b"\t", b" \t ", b"\n")
    records = []
    for _ in range(n):
        target = rng.randint(20, 200)
        parts, size = [], 0
        while size < target:
            parts += (rng.choice(words), rng.choice(separators))
            size += len(parts[-2]) + len(parts[-1])
        records.append(b"".join(parts)[:target])
    return records


def worker_cpu_s(pids: list[int]) -> float:
    """User plus system CPU seconds of the given live processes."""
    total = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        total += int(fields[11]) + int(fields[12])  # utime, stime: fields 14 and 15
    return total * TICK_S


def descendants(pid: int) -> list[int]:
    """Every process under pid, whichever of its threads started it."""
    found = []
    for children in glob.glob(f"/proc/{pid}/task/*/children"):
        with open(children) as f:
            for child in map(int, f.read().split()):
                found += [child, *descendants(child)]
    return found


def vm_rss_mb(pid: int) -> float:
    """Resident set size of a live process (a zombie has none)."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024
    return 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--requests", type=int, default=8)
    parser.add_argument("--records", type=int, default=80_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as staging, MshPool() as pool:
        write_dataset(os.path.join(staging, "corpus.palmds"), corpus(args.seed, args.records))
        ctx = TdContext.create(b"palm-td-image/cpu-probe", b"cpu-probe", staging)
        ctx.msh_pool = pool
        rows = []
        print("request  wall_ms  server_cpu_ms  worker_cpu_ms")
        for i in range(args.requests):
            request = build_request(
                "Preprocessing", {"dataset": "corpus.palmds"},
                Challenge.from_nonce(sha3_256(b"cpu-probe-%d" % i)),
                mode="mapped", want_gpu=True, confidential=True,
            )
            before = (time.perf_counter(), time.process_time(), worker_cpu_s(pool.pids()))
            prover_handle(request, ctx)
            after = (time.perf_counter(), time.process_time(), worker_cpu_s(pool.pids()))
            row = [1000 * (b - a) for a, b in zip(before, after)]
            print(f"{i:7d}  {row[0]:7.0f}  {row[1]:13.0f}  {row[2]:13.0f}", flush=True)
            if i:
                rows.append(row)
            else:
                under = descendants(os.getpid())
                print(f"after request 0: {len(under)} processes under this one, "
                      f"VmRSS {sum(map(vm_rss_mb, under)):.1f} MB summed "
                      f"(this process {vm_rss_mb(os.getpid()):.1f} MB)", flush=True)
        if rows:
            medians = [statistics.median(column) for column in zip(*rows)]
            print("median   {:7.0f}  {:13.0f}  {:13.0f}".format(*medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
