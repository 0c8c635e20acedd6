"""The benchmark's prover process: one palm AttestationServer on loopback.

Started by run.py. It prints one JSON line once it accepts connections,
with its port and the platform keys a verifier must register, then serves
until its standard input closes. It then prints one JSON line with its
peak RSS and, when traced, its per-request span totals.

    python3 perfbench/prover.py --staging DIR --image TEXT --td-seed TEXT [--trace FILE]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from palm.protocol import TdContext  # noqa: E402
from palm.transport import serve_background  # noqa: E402

import tracer as tracing  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--staging", required=True)
    parser.add_argument("--image", required=True)
    parser.add_argument("--td-seed", required=True)
    parser.add_argument("--trace", help="write raw spans to this .npz file")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_prover(tracer)
    ctx = TdContext.create(args.image.encode(), args.td_seed.encode(), args.staging)
    server = serve_background(("127.0.0.1", 0), ctx)
    print(
        json.dumps(
            {
                "port": server.endpoint[1],
                "qe_key_id": ctx.qe_key_id,
                "qe_key": ctx.qe_key.public_key().public_bytes_raw().hex(),
                "gpu_key_id": ctx.gpu_key_id(),
                "gpu_key": ctx.gpu_key.public_key().public_bytes_raw().hex(),
            }
        ),
        flush=True,
    )
    sys.stdin.read()
    server.shutdown()
    server.server_close()
    report = {"peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        report["spans"] = tracer.totals()
        tracer.dump(args.trace)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
