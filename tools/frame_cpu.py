"""What a request and its response cost to put on the wire and read back.

    python3 tools/frame_cpu.py [--repeats 30] [--seed 5]

Builds the `chat` and `train-inmem` messages of perfbench's workloads for
the seed, proves each once in this process, then times the transport's own
code paths against an in-memory socket stand-in, so no kernel or second
process is measured:

- client encode: `request_over_tcp` from its call to its first read, on a
  hit (the client's memo holds the text of each cached input,
  `protocol.input_text`) and on a miss (the memo cleared first);
- server decode: `recv_frame`, `AttestationRequest.from_json` and the
  decode of the model, adapter and tokenizer inputs through the context's
  decode cache, on a hit (the cache holds the document) and on a miss (a
  fresh cache);
- prove on a hit: `prover_handle` on the request as the server decodes
  it, with the context's decode cache holding its inputs, each already
  proved over once;
- response encode: the server's `_respond`, with the prover stubbed to
  return the response proved before, and `send_frame`;
- response decode: `request_over_tcp` from its first read to its return.

The stand-in hands reads out in chunks of at most 256 KiB and copies every
write once, as a socket would. Prints each median in ms and the bytes each
message takes on the wire. Run it in two checkouts to compare them.
"""

from __future__ import annotations

import argparse
import socket
import statistics
import sys
import tempfile
import time
from contextlib import ExitStack
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from palm import Challenge, build_request, protocol, transport  # noqa: E402
from palm.encoding import sha3_256  # noqa: E402
from palm.errors import PalmError  # noqa: E402
from palm.protocol import AttestationRequest, DecodeCache, TdContext, _Run  # noqa: E402
from palm.refstore import ReferenceStore  # noqa: E402

CHUNK = 256 * 1024


class Wire:
    """A socket stand-in: keeps what is written, serves reads from `data`."""

    def __init__(self, data: bytes = b""):
        self.data = memoryview(data)
        self.sent: list[bytes] = []
        self.first_read_ns = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def sendall(self, data) -> None:
        self.sent.append(bytes(data))

    def sendmsg(self, buffers) -> int:
        parts = [bytes(b) for b in buffers]
        self.sent += parts
        return sum(map(len, parts))

    def _take(self, n: int) -> memoryview:
        if self.first_read_ns is None:
            self.first_read_ns = time.perf_counter_ns()
        out, self.data = self.data[:min(n, CHUNK)], self.data[min(n, CHUNK):]
        return out

    def recv(self, n: int) -> bytes:
        return bytes(self._take(n))

    def recv_into(self, buf) -> int:
        out = self._take(len(buf))
        buf[:len(out)] = out
        return len(out)

    def written(self) -> bytes:
        return b"".join(self.sent)


def shapes(seed: int, staging: str):
    """(name, request, context) for each workload's message."""
    store = ReferenceStore()
    chat = workloads.Chat(seed)
    train = workloads.TrainInmem(seed)
    train.stage(staging)
    for w in (chat, train):
        chal = Challenge.from_nonce(sha3_256(b"frame-cpu:" + w.name.encode()))
        request = build_request(w.op, w.next_inputs(store), chal, mode=w.mode, want_gpu=True,
                                confidential=w.confidential)
        yield w.name, request, TdContext.create(b"palm-td-image/frame-cpu", b"frame-cpu", staging)


def server_decode(wire_bytes: bytes, ctx: TdContext) -> dict:
    message = transport.recv_frame(Wire(wire_bytes))
    request = AttestationRequest.from_json(message["body"])
    with ExitStack() as handles:
        run = _Run(request, ctx, None, handles)
        for name in protocol.CACHED_INPUTS:
            run[name]
    return message


def measure(request: AttestationRequest, ctx: TdContext, repeats: int) -> dict:
    response = transport.prover_handle(request, ctx)
    handler = SimpleNamespace(server=SimpleNamespace(td_context=ctx))
    real_prove, real_connect = transport.prover_handle, socket.create_connection
    transport.prover_handle = lambda request, ctx: response
    times: dict[str, list[float]] = {}
    sizes = {}

    def timed(key: str, ns: int) -> None:
        times.setdefault(key, []).append(ns / 1e6)

    try:
        # One pass to learn both messages' wire bytes, then the timed passes.
        wire = Wire()
        socket.create_connection = lambda endpoint, timeout=None: wire
        try:
            transport.request_over_tcp(("frame-cpu", 0), request)
        except PalmError:
            pass  # the stand-in has no response to read yet
        request_bytes = wire.written()
        message = server_decode(request_bytes, ctx)
        served = AttestationRequest.from_json(message["body"])
        reply = Wire()
        transport.send_frame(reply, transport._Handler._respond(handler, message))
        response_bytes = reply.written()
        sizes = {"request_kib": len(request_bytes) / 1024,
                 "response_kib": len(response_bytes) / 1024}
        for _ in range(repeats):
            for outcome in ("miss", "hit"):
                if outcome == "miss":
                    protocol._sent_texts.clear()
                wire = Wire(response_bytes)
                socket.create_connection = lambda endpoint, timeout=None: wire
                t0 = time.perf_counter_ns()
                got = transport.request_over_tcp(("frame-cpu", 0), request)
                t1 = time.perf_counter_ns()
                assert got == response
                timed(f"client_encode_{outcome}_ms", wire.first_read_ns - t0)
            timed("response_decode_ms", t1 - wire.first_read_ns)

            t0 = time.perf_counter_ns()
            server_decode(request_bytes, ctx)
            timed("server_decode_hit_ms", time.perf_counter_ns() - t0)
            ctx.decode_cache = DecodeCache()
            t0 = time.perf_counter_ns()
            message = server_decode(request_bytes, ctx)
            timed("server_decode_miss_ms", time.perf_counter_ns() - t0)

            t0 = time.perf_counter_ns()
            transport.send_frame(Wire(), transport._Handler._respond(handler, message))
            timed("response_encode_ms", time.perf_counter_ns() - t0)
        # The cache holds the objects decoded last. The first prove over them
        # takes their digests, which a session pays once, so it is not timed.
        real_prove(served, ctx)
        for _ in range(repeats):
            t0 = time.perf_counter_ns()
            real_prove(served, ctx)
            timed("prove_hit_ms", time.perf_counter_ns() - t0)
    finally:
        transport.prover_handle, socket.create_connection = real_prove, real_connect
    return {**{key: statistics.median(values) for key, values in times.items()}, **sizes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()
    columns = ("client_encode_hit_ms", "client_encode_miss_ms", "server_decode_hit_ms",
               "server_decode_miss_ms", "prove_hit_ms", "response_encode_ms",
               "response_decode_ms", "request_kib", "response_kib")
    print("workload     " + "  ".join(columns))
    with tempfile.TemporaryDirectory() as staging:
        for name, request, ctx in shapes(args.seed, staging):
            row = measure(request, ctx, args.repeats)
            print(f"{name:11s}  " + "  ".join(f"{row[c]:{len(c)}.2f}" for c in columns),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
