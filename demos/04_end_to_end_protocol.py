#!/usr/bin/env python3
"""The full protocol: prover over TCP, verifier with a reference store.

One process plays all four roles. The trusted authority provisions keys
and publishes reference values; the prover serves attestation requests
over a socket; the initiator asks for a measured training run; the
verifier walks the evidence checks and renders a verdict. A replayed
quote then demonstrates the freshness gate.
"""

import os
import tempfile

from palm import Challenge, ToyTokenizer, TrainConfig, Verifier, write_dataset
from palm.attestation import H_MODULE
from palm.encoding import sha3_256
from palm.protocol import TdContext, build_request
from palm.refstore import ReferenceStore
from palm.transport import request_over_tcp, serve_background


def main() -> None:
    workdir = tempfile.mkdtemp(prefix="palm-demo-")

    records = [b"the quick brown fox", b"jumps over the lazy dog", b"the quick dog runs"]
    write_dataset(os.path.join(workdir, "train.palmds"), records)
    tokenizer = ToyTokenizer.build(records)
    config = TrainConfig(seed=3, epochs=1, sampling="shuffled")

    # Trusted authority side: derive the platform, publish its public keys
    # and accepted measurements.
    ctx = TdContext.create(b"demo-image-manifest", b"demo-seed", staging_dir=workdir)
    store = ReferenceStore()
    store.add_qe_key(ctx.qe_key_id, ctx.qe_key.public_key().public_bytes_raw())
    store.add_gpu_key(ctx.gpu_key_id(), ctx.gpu_key.public_key().public_bytes_raw())
    store.accept_td(ctx.h_td)
    store.accept_module(H_MODULE)
    print(f"authority published keys for {ctx.qe_key_id}, image {ctx.h_td.hex()[:16]}...")

    # Prover side: a TCP endpoint in front of the trust domain.
    server = serve_background(("127.0.0.1", 0), ctx)
    host, port = server.endpoint
    print(f"prover serving on {host}:{port}")

    try:
        # Initiator side: ask for a memory-mapped, GPU-backed training run.
        request = build_request(
            "Training",
            {
                "arch": "bigram",
                "dataset": "train.palmds",
                "train_config": config.to_json(),
                "tokenizer": tokenizer.to_json(),
            },
            Challenge.from_nonce(sha3_256(b"demo-nonce-1")),
            mode="mapped",
            want_gpu=True,
        )
        response = request_over_tcp(server.endpoint, request)
        print(f"response: {len(response.quote)}-byte quote, "
              f"{len(response.mset.h_i)} input / {len(response.mset.h_o)} output measurements")

        # Verifier side: walk the checks.
        verifier = Verifier(store)
        verdict = verifier.verify(response, request)
        print(f"\nverdict: {verdict.result}")
        for check in verdict.checks:
            mark = "ok " if check.passed else "FAIL"
            print(f"  [{mark}] {check.name}: {check.detail}")

        # Replaying the same evidence fails freshness: the nonce is spent.
        replay = verifier.verify(response, request)
        print(f"\nreplay of the same quote: {replay.result} ({replay.reason})")
    finally:
        server.shutdown()


if __name__ == "__main__":
    main()
