"""The palm benchmark: one workload, one prover process, one closed-loop client.

    python3 perfbench/run.py --workload {mapped-preproc,train-inmem,chat}
                             --seed N --seconds S --trace {0,1}

The prover is a palm AttestationServer in its own process on loopback
(prover.py). This process is the only client: no extra threads, at most one
request outstanding, every request a fresh nonce challenge asking for GPU
evidence. Every response is checked by palm's Verifier against references
computed apart from palm (independent.py), and every output is compared
with the independent result.

A run sets up the serving prover, sends untimed warm-up rounds, then times
whole rounds for S seconds. The timed phase is cut into equal slices, and
between two slices the run sets up once more, untimed, with a prover of its
own that it then stops; `setup_s` is the median of all set-ups, so that it
samples the machine across the run as the requests do. After the timed
phase it sends one negative control: a response with one byte tampered,
which the verifier must reject at the workload's check, with that check's
reason. A request that raises or is rejected makes the run incorrect.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 the same run is traced (tracer.py) and
the object holds the per-layer metrics instead. A human-readable summary
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(SRC))

from palm import Challenge, PalmError, Verifier, build_request  # noqa: E402
from palm.refstore import ReferenceStore  # noqa: E402
from palm.transport import request_over_tcp  # noqa: E402

import independent as ind  # noqa: E402
import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5  # one before the timed phase, one between each two of its slices
IMAGE = "palm-bench-image/manifest-v1\nrole=prover\n"
PROVER_START_TIMEOUT = 60

END_TO_END = {
    "attest_ms": "ms",
    "attested_per_s": "1/s",
    "verify_ms": "ms",
    "prover_peak_rss_mb": "MB",
    "setup_s": "s",
}


class Prover:
    """A prover process; stopped by closing its standard input."""

    def __init__(self, staging: Path, td_seed: str, trace_file: Path | None):
        cmd = [sys.executable, str(HERE / "prover.py"), "--staging", str(staging),
               "--image", IMAGE, "--td-seed", td_seed]
        if trace_file is not None:
            cmd += ["--trace", str(trace_file)]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=PROVER_START_TIMEOUT)
            raise RuntimeError(f"prover exited with code {self.proc.returncode} before serving")
        self.ready = json.loads(line)
        self.endpoint = ("127.0.0.1", self.ready["port"])

    def stop(self) -> dict:
        """Close stdin, wait for the process to end and return its last report."""
        out, _ = self.proc.communicate(timeout=120)
        if self.proc.returncode != 0:
            raise RuntimeError(f"prover exited with code {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def provision_store(ready: dict):
    """Trust anchors: the platform's keys, and the image and module measurements
    the authority expects, computed from the manifests with hashlib."""
    store = ReferenceStore()
    store.add_qe_key(ready["qe_key_id"], bytes.fromhex(ready["qe_key"]))
    store.add_gpu_key(ready["gpu_key_id"], bytes.fromhex(ready["gpu_key"]))
    store.accept_td(ind.sha3(IMAGE.encode()))
    store.accept_module(ind.sha3(ind.MODULE_MANIFEST))
    return store


def frame_kib(kind: str, body: dict) -> float:
    """Size of the transport frame carrying `body`, as palm.transport encodes it."""
    text = json.dumps({"type": kind, "body": body}, sort_keys=True, separators=(",", ":"))
    return (4 + len(text.encode())) / 1024


def median_ms(values_ns: list[int]) -> float:
    return statistics.median(values_ns) / 1e6


class Run:
    def __init__(self, args):
        self.args = args
        self.nonces = random.Random(f"nonce:{args.seed}")
        self.workload = workloads.WORKLOADS[args.workload](args.seed)
        self.workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.trace_file = OUT / f"trace-{args.workload}-prover.npz" if args.trace else None
        self.tracer = None
        self.send = request_over_tcp
        if args.trace:
            self.tracer = tracing.Tracer()
            self.send = tracing.install_client(self.tracer)
        self.prover: Prover | None = None
        self.extra: Prover | None = None
        self.setup_times: dict[str, list[float]] = {
            "setup_s": [], "setup.dataset_write_ms": [], "setup.server_start_ms": [],
            "setup.binding_ms": [],
        }

    def challenge(self):
        return Challenge.from_nonce(self.nonces.randbytes(32))

    def set_up(self, number: int) -> tuple[Prover, ReferenceStore, Verifier]:
        """Stage, start a prover and provision a store for it, each set-up in a
        staging directory of its own so that no served file is rewritten."""
        staging = self.workdir / f"staging-{number}"
        staging.mkdir(parents=True)
        w = self.workload
        t0 = time.perf_counter()
        w.stage(str(staging))
        t1 = time.perf_counter()
        prover = Prover(staging, f"bench-td-{self.args.seed}", self.trace_file)
        try:
            t2 = time.perf_counter()
            store = provision_store(prover.ready)
            verifier = Verifier(store)
            t3 = time.perf_counter()
            w.provision(store, verifier, prover.endpoint, self.challenge)
            t4 = time.perf_counter()
        except BaseException:
            prover.kill()
            raise
        self.setup_times["setup_s"].append(t4 - t0)
        if w.dataset_name is not None:
            self.setup_times["setup.dataset_write_ms"].append((t1 - t0) * 1e3)
        self.setup_times["setup.server_start_ms"].append((t2 - t1) * 1e3)
        if w.mode == "mapped":
            self.setup_times["setup.binding_ms"].append((t4 - t3) * 1e3)
        return prover, store, verifier

    def extra_set_up(self, number: int) -> None:
        """One more set-up, timed as set-up only; its prover is stopped at once."""
        self.extra, _, _ = self.set_up(number)
        self.extra.stop()
        self.extra = None

    def exchange(self, inputs: dict):
        """Build and send one request; return it, its response and the build time."""
        w = self.workload
        chal = self.challenge()
        if self.tracer is not None:
            self.tracer.set_request(chal.nonce.hex())
        t0 = time.perf_counter_ns()
        request = build_request(w.op, inputs, chal, mode=w.mode, want_gpu=True,
                                confidential=w.confidential)
        return request, self.send(self.prover.endpoint, request), t0

    def run(self) -> dict:
        w = self.workload
        self.prover, self.store, self.verifier = self.set_up(0)

        for _ in range(w.warmup_rounds * w.round_size):
            request, response, _ = self.exchange(w.next_inputs(self.store))
            verdict = self.verifier.verify(response, request)
            if not verdict.accepted:
                raise workloads.CheckFailed(f"warm-up request rejected: {verdict.reason}")
            w.check(response, verdict)
        w.check_once(response)

        attest_ns, verify_ns, timed = [], [], []
        sizes: dict[str, list[float]] = {"transport.request_kb": [], "transport.response_kb": []}
        attempted = failed = 0
        correct = True
        elapsed = 0.0
        for number in range(SETUP_REPEATS):
            if number:
                self.extra_set_up(number)
            start = time.perf_counter()
            deadline = start + self.args.seconds / SETUP_REPEATS
            while time.perf_counter() < deadline:
                for _ in range(w.round_size):
                    inputs = w.next_inputs(self.store)
                    attempted += 1
                    try:
                        request, response, t0 = self.exchange(inputs)
                    except (PalmError, OSError) as exc:
                        failed += 1
                        correct = False
                        print(f"request failed: {type(exc).__name__}: {exc}", file=sys.stderr)
                        continue
                    t1 = time.perf_counter_ns()
                    verdict = self.verifier.verify(response, request)
                    t2 = time.perf_counter_ns()
                    if not verdict.accepted:
                        failed += 1
                        correct = False
                        print(f"request rejected: {verdict.reason}", file=sys.stderr)
                        continue
                    attest_ns.append(t2 - t0)
                    verify_ns.append(t2 - t1)
                    timed.append(request.chal.nonce.hex())
                    try:
                        w.check(response, verdict)
                    except workloads.CheckFailed as exc:
                        correct = False
                        print(f"check failed: {exc}", file=sys.stderr)
                    if self.tracer is not None:
                        sizes["transport.request_kb"].append(frame_kib("REQUEST", request.to_json()))
                        sizes["transport.response_kb"].append(
                            frame_kib("RESPONSE", response.to_json()))
            elapsed += time.perf_counter() - start

        # Negative control: the untampered response is never presented, so the
        # verdict can only come from the tampered byte.
        request, response, _ = self.exchange(w.next_inputs(self.store))
        control = self.verifier.verify(w.tamper(response), request)
        failed_check = (control.checks[-1].name, control.reason)
        if control.accepted or failed_check != w.tamper_verdict:
            correct = False
            print(f"negative control: {control.result} {failed_check}, expected Reject "
                  f"{w.tamper_verdict}", file=sys.stderr)

        report = self.prover.stop()
        self.prover = None
        if not attest_ns:
            raise RuntimeError("no request was accepted in the timed phase")
        e2e = {
            "attest_ms": median_ms(attest_ns),
            "attested_per_s": len(attest_ns) / elapsed,
            "verify_ms": median_ms(verify_ns),
            "prover_peak_rss_mb": report["peak_rss_kb"] / 1024,
            "setup_s": statistics.median(self.setup_times["setup_s"]),
        }
        p95 = statistics.quantiles(attest_ns, n=20)[-1] / 1e6 if len(attest_ns) >= 20 else None
        extra = {"samples": len(attest_ns), "attest_p95_ms": p95, "control": failed_check}
        if self.tracer is None:
            metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in e2e.items()}
        else:
            metrics = layers.per_layer_metrics(report["spans"], self.tracer.totals(), timed,
                                               sizes, self.setup_times)
            self.tracer.dump(OUT / f"trace-{self.args.workload}-client.npz")
            extra["traced_attest_ms"] = e2e["attest_ms"]
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics, "extra": extra}

    def close(self) -> None:
        for prover in (self.prover, self.extra):
            if prover is not None:
                prover.kill()
        shutil.rmtree(self.workdir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mapped-preproc", "train-inmem", "chat"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    run = Run(args)
    try:
        result = run.run()
    finally:
        run.close()
    extra = result.pop("extra")
    for name, metric in result["metrics"].items():
        print(f"{args.workload:15s} {name:32s} {metric['value']:14.4f} {metric['unit']}",
              file=sys.stderr)
    print(f"{args.workload:15s} attempted {result['attempted']} failed {result['failed']} "
          f"correct {result['correct']} {json.dumps(extra)}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
