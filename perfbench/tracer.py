"""Spans around palm's public functions, recorded from outside the program.

`Tracer.wrap` returns a function that records one span per call: name,
start, end, parent span and request id. Spans stay in per-thread columnar
arrays until the run ends; `Tracer.totals` then derives each request's
call count, total time and self time (duration minus the time its direct
child spans cover) per span name, and `Tracer.dump` writes the raw spans.

`install_prover` and `install_client` replace each traced function where
its caller looks it up (a module global or a class attribute), so palm's
source stays untouched.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from typing import Callable, Optional

import numpy as np

NO_REQUEST = -1


class _Buffer:
    __slots__ = ("name", "req", "parent", "start", "end", "stack", "current", "counts")

    def __init__(self):
        self.name = array("i")
        self.req = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.current = NO_REQUEST
        self.counts: dict[tuple[int, str], int] = {}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.requests: list[str] = []
        self._request_ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _request_id(self, key: str) -> int:
        with self._lock:
            rid = self._request_ids.get(key)
            if rid is None:
                rid = self._request_ids[key] = len(self.requests)
                self.requests.append(key)
            return rid

    def set_request(self, key: str) -> None:
        """Attribute this thread's following spans to the request `key`."""
        self._buffer().current = self._request_id(key)

    def clear_request(self) -> None:
        self._buffer().current = NO_REQUEST

    def count(self, counter: str, value: int) -> None:
        buf = self._buffer()
        slot = (buf.current, counter)
        buf.counts[slot] = buf.counts.get(slot, 0) + value

    def wrap(
        self, fn: Callable, name: str, on_result: Optional[Callable[[object], None]] = None
    ) -> Callable:
        with self._lock:
            nid = self._name_ids.setdefault(name, len(self.names))
            if nid == len(self.names):
                self.names.append(name)
        clock = time.perf_counter_ns
        buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buf = buffer()
            idx = len(buf.start)
            buf.name.append(nid)
            buf.req.append(buf.current)
            buf.parent.append(buf.stack[-1] if buf.stack else -1)
            buf.end.append(0)
            buf.stack.append(idx)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[idx] = clock()
                buf.stack.pop()
            if on_result is not None:
                on_result(result)
                buf.req[idx] = buf.current
            return result

        return traced

    def wrap_attr(self, owner, attr: str, name: str, on_result=None) -> None:
        """Replace owner.attr (a function, method or classmethod) by its traced form."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, on_result)))
        else:
            setattr(owner, attr, self.wrap(raw, name, on_result))

    def totals(self) -> dict[str, dict[str, list]]:
        """request key -> {span name: [calls, total ns, self ns]}.

        A counter appears as a row whose call count holds the counted total."""
        n_names = len(self.names)
        out: dict[str, dict[str, list]] = {}
        for buf in list(self._buffers):
            n = len(buf.end)
            if n:
                req = np.frombuffer(buf.req, dtype=np.int32)[:n].astype(np.int64)
                name = np.frombuffer(buf.name, dtype=np.int32)[:n].astype(np.int64)
                parent = np.frombuffer(buf.parent, dtype=np.int32)[:n]
                dur = (np.frombuffer(buf.end, dtype=np.int64)[:n]
                       - np.frombuffer(buf.start, dtype=np.int64)[:n]).astype(np.float64)
                nested = parent >= 0
                covered = np.bincount(parent[nested], weights=dur[nested], minlength=n)
                own = dur - covered
                keep = req != NO_REQUEST
                key = req[keep] * n_names + name[keep]
                size = (int(req.max()) + 1) * n_names if keep.any() else 0
                calls = np.bincount(key, minlength=size)
                total = np.bincount(key, weights=dur[keep], minlength=size)
                self_t = np.bincount(key, weights=own[keep], minlength=size)
                for k in np.flatnonzero(calls):
                    rid, nid = divmod(int(k), n_names)
                    row = out.setdefault(self.requests[rid], {}).setdefault(
                        self.names[nid], [0, 0.0, 0.0]
                    )
                    row[0] += int(calls[k])
                    row[1] += float(total[k])
                    row[2] += float(self_t[k])
            for (rid, counter), value in buf.counts.items():
                if rid != NO_REQUEST:
                    row = out.setdefault(self.requests[rid], {}).setdefault(counter, [0, 0.0, 0.0])
                    row[0] += value
        return out

    def dump(self, path: str) -> None:
        """Write every span as columns; parent indices point into the same file."""
        cols = {k: [] for k in ("name", "req", "parent", "start", "end")}
        offset = 0
        for buf in list(self._buffers):
            n = len(buf.end)
            parent = np.frombuffer(buf.parent, dtype=np.int32)[:n].astype(np.int64)
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            for k, dtype in (("name", np.int32), ("req", np.int32), ("start", np.int64),
                             ("end", np.int64)):
                cols[k].append(np.frombuffer(getattr(buf, k), dtype=dtype)[:n])
            offset += n
        np.savez(
            path,
            names=np.array(self.names),
            requests=np.array(self.requests),
            **{k: np.concatenate(v) if v else np.zeros(0) for k, v in cols.items()},
        )


def install_prover(tracer: Tracer) -> None:
    """Trace the prover-side layers of palm in this process."""
    from palm import dataset, measurers, msh, protocol, toyops, transport

    def records_finalized(digest) -> None:
        tracer.count("msh.records", digest.count)

    def record_bytes(record) -> None:
        tracer.count("dataset.bytes_read", len(record))

    def loaded_bytes(ds) -> None:
        tracer.count("dataset.bytes_read", sum(len(r) for r in ds.records))

    def frame_received(message) -> None:
        # Spans of one request share the hex of its challenge nonce (the
        # encoded challenge minus its tag byte). The wait for the client to
        # close its connection belongs to no request.
        chal = None
        if isinstance(message, dict) and isinstance(message.get("body"), dict):
            chal = message["body"].get("chal")
        if isinstance(chal, str):
            tracer.set_request(chal[2:])
        else:
            tracer.clear_request()

    tracer.wrap_attr(msh.MshAccumulator, "insert", "msh.insert")
    tracer.wrap_attr(msh.MshAccumulator, "finalize", "msh.finalize", records_finalized)
    tracer.wrap_attr(measurers, "msh_of_records", "msh.of_records")
    tracer.wrap_attr(dataset.MappedDataset, "__init__", "dataset.open")
    tracer.wrap_attr(dataset.MappedDataset, "sample_record", "dataset.sample", record_bytes)
    tracer.wrap_attr(measurers, "finish_epoch", "dataset.finish_epoch")
    tracer.wrap_attr(protocol, "load_in_memory", "dataset.load", loaded_bytes)
    tracer.wrap_attr(measurers, "preproc", "toyops.preproc")
    tracer.wrap_attr(measurers, "train", "toyops.train")
    tracer.wrap_attr(measurers, "infer_session", "toyops.infer")
    tracer.wrap_attr(toyops.ToyModel, "from_json", "toyops.model_decode")
    tracer.wrap_attr(toyops.ToyTokenizer, "from_json", "toyops.tokenizer_decode")
    tracer.wrap_attr(toyops.ToyModel, "serialized_bytes", "toyops.model_serialize")
    tracer.wrap_attr(toyops.ToyTokenizer, "serialized_bytes", "toyops.tokenizer_serialize")
    for attr in dir(protocol):
        if attr.startswith("measure_"):
            tracer.wrap_attr(protocol, attr, "measurers.measure")
    for attr in ("gpu_attest", "build_report_data", "create_td_report", "qe_sign_quote"):
        tracer.wrap_attr(protocol, attr, "attestation.quote")
    tracer.wrap_attr(transport, "prover_handle", "protocol.prove")
    tracer.wrap_attr(protocol.AttestationResponse, "to_json", "protocol.response_encode")
    tracer.wrap_attr(transport, "recv_frame", "transport.recv", frame_received)
    tracer.wrap_attr(transport, "send_frame", "transport.send")


def install_client(tracer: Tracer) -> Callable:
    """Trace response decoding in this process; return a traced request_over_tcp."""
    from palm import protocol, transport

    tracer.wrap_attr(protocol.AttestationResponse, "from_json", "protocol.response_decode")
    return tracer.wrap(transport.request_over_tcp, "transport.request_over_tcp")
