"""Incremental multiset hash with mergeable accumulators.

A record is mapped by an extendable-output hash to a vector of L limbs in
Z_n (n = 2^64), and a multiset of records hashes to the componentwise
sum of those vectors mod n. Insertion order is irrelevant, multiplicities
matter, and accumulators built over disjoint partitions of a multiset can
be merged into the accumulator of the union.

An accumulator folds records in batches. A batch is one buffer plus the
(offset, length) span of each record in it: records inserted one by one
are joined into a buffer once FLUSH_RECORDS of them are pending, while
insert_spans folds a buffer the caller already holds as it is, such as a
run of records read from a dataset file. One function, _hash_spans, turns
a batch into its L summed limbs: each record's XOF output over exactly
its bytes, joined into one (records x L) limb matrix and reduced with a
single numpy sum in the limb dtype, whose native wraparound is exactly
the mod-2^64 reduction the construction needs. Addition mod 2^64
is associative and commutative, so the batched sum equals the
record-by-record one bit for bit, and so the batches can be hashed
anywhere: an accumulator without a pool calls _hash_spans in process, and
one built with an MshPool ships each batch to a worker, a fresh
interpreter that reads u32-framed batches on its stdin and answers each
with _hash_spans on its stdout. Where it runs is the only difference. The
caller still decides which bytes are measured and when, and the digest is
byte-identical either way. Anything that reads the state (finalize,
merge, limbs) folds the pending batch and waits for every shipped one.

An accumulator can also give a companion: the multiset hash of
toyops.preproc_record over every record the accumulator takes from then
on, which is MSH(Dpre) for a Preprocessing pass over a mapped D. Each
batch the accumulator folds from then on is fused: _hash_spans also
hashes the records' preprocessed forms and answers 2*L limbs, the second
L of which go to the companion. The companion is fed the records the
operation consumed, but only counts them; reading it fails closed unless
they are exactly as many as its source took.
"""

from __future__ import annotations

import hashlib
import os
import select
import signal
import struct
import sys
import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .encoding import u64
from .errors import MshWorkerError, ParamsMismatch
from .toyops import preproc_record

# Domain-separation prefix absorbed by the XOF before every record.
HASH_DOMAIN = b"PALM-MSH-v1\x00"

# The one parameter set, mu4096: an element of m = 4096 bits is L = 64
# limbs of 64 bits, summed mod 2^64, and a record's limb vector is the
# first DIGEST_BYTES of its XOF output read as little-endian u64s.
PARAM_ID = "mu4096"
L = 64
DTYPE = np.dtype("<u8")
DIGEST_BYTES = L * DTYPE.itemsize

# Records inserted one by one that make up a batch; their XOF outputs are
# 128 KiB.
FLUSH_RECORDS = 256

# Batches a pool lets wait on each worker, so memory stays bounded by the
# pool, not by the dataset, while no worker idles between two batches.
IN_FLIGHT_PER_WORKER = 2

# A worker that does not exit this long after being asked to is killed.
STOP_TIMEOUT_S = 10.0

# A sender that found every worker at the cap looks again after this long:
# another thread may have read the replies it was waiting for.
READY_TIMEOUT_S = 0.05

# A request, framed like its reply by a u32 length: u32 record count, u32
# fused (0 or 1), one u32 offset and one u32 length per record, then the
# buffer those spans point into. The reply is the records' L summed limbs,
# then, when fused, the L summed limbs of their preproc_record outputs.
_BATCH_HEAD = struct.Struct("<II")
_FRAME = struct.Struct("<I")


def _xof(record: bytes) -> bytes:
    """XOF the domain-separated record into its DIGEST_BYTES of limbs."""
    return hashlib.shake_256(HASH_DOMAIN + record).digest(DIGEST_BYTES)


def _hash_spans(buffer: bytes, spans: np.ndarray, fused: bool) -> bytes:
    """The one batch hash: the L summed limbs of the records `buffer` holds
    at `spans`, one (offset, length) row per record, then, for a fused
    batch, the L summed limbs of their preproc_record outputs. The XOF
    outputs of each stream are joined into one (records x L) limb matrix
    and reduced with one numpy sum in the limb dtype, whose wraparound is
    the mod-2^64 reduction."""
    starts = spans[:, 0]
    ends = starts + spans[:, 1]
    records = [buffer[start:end] for start, end in zip(starts.tolist(), ends.tolist())]
    streams = (records, map(preproc_record, records)) if fused else (records,)
    return b"".join(
        np.frombuffer(b"".join([_xof(record) for record in stream]), DTYPE)
        .reshape(-1, L).sum(axis=0, dtype=DTYPE).tobytes()
        for stream in streams
    )


def hash_record(record: bytes) -> tuple[int, ...]:
    """Map one record to its limb vector (little-endian limbs, each < 2^64)."""
    return tuple(int(x) for x in np.frombuffer(_xof(record), dtype=DTYPE))


@dataclass(frozen=True)
class MshDigest:
    """Finalized multiset hash: limb vector plus the total record count."""

    limbs: tuple[int, ...]
    count: int

    def encode(self) -> bytes:
        """Canonical encoding: PARAM_ID, NUL, u64 count, then LE u64 limbs."""
        return b"".join([PARAM_ID.encode("ascii"), b"\0", u64(self.count), *map(u64, self.limbs)])

    def hex(self) -> str:
        return self.encode().hex()


class MshAccumulator:
    """Running multiset hash; single-writer, mergeable with other accumulators.

    Records are folded in batches, and _hash_spans hashes every batch: in
    this process without a pool, in a pool's worker with one. Reading the
    state (finalize, merge, limbs) folds the pending batch and, pooled,
    waits for every batch shipped."""

    __slots__ = ("_limbs", "_pending", "_pool", "_shipped", "_companion", "count")

    def __init__(self, pool: Optional["MshPool"] = None):
        self._limbs = np.zeros(L, dtype=DTYPE)
        self._pending: list[bytes] = []  # records inserted since the last batch
        self._pool = pool
        self._shipped: deque[_Batch] = deque()
        self._companion: Optional[_Preprocessed] = None  # fed by fused batches
        self.count = 0

    def insert(self, record: bytes) -> "MshAccumulator":
        """Fold one record in; componentwise add of its limb vector mod 2^64.

        An immutable copy of the record joins the pending batch, which is
        folded once it holds FLUSH_RECORDS records."""
        self._pending.append(bytes(record))
        self.count += 1
        if len(self._pending) >= FLUSH_RECORDS:
            self._ship()
        return self

    def insert_spans(self, buffer: bytes, spans: np.ndarray) -> "MshAccumulator":
        """Fold in the records `buffer` holds at `spans`, one (offset, length)
        row per record, as one batch, after whatever insert left pending.
        Pooled, the buffer itself is shipped; the caller must not change it."""
        self._ship()
        self._fold(buffer, spans)
        self.count += len(spans)
        return self

    def _ship(self) -> None:
        """Fold the pending records as one batch: joined into one buffer,
        with the span of each."""
        if not self._pending:
            return
        lengths = np.fromiter(map(len, self._pending), np.int64, len(self._pending))
        spans = np.column_stack((np.cumsum(lengths) - lengths, lengths))
        self._fold(b"".join(self._pending), spans)
        self._pending.clear()

    def _fold(self, buffer: bytes, spans: np.ndarray) -> None:
        """Add a batch's sums here, or ship it to the pool and add the sums
        of every shipped batch already answered, in order."""
        fused = self._companion is not None
        if self._pool is None:
            self._add(_hash_spans(buffer, spans, fused))
            return
        self._shipped.append(self._pool.submit(buffer, spans, fused))
        while self._shipped and self._shipped[0].done():
            self._take()

    def _take(self) -> None:
        """Add the sums of the oldest shipped batch. If it was lost, every
        other shipped batch is settled before the error is raised, so no
        worker keeps a batch nobody will read: a worker that died with the
        lost one is retired here, where its reply reads end of file, and is
        never handed a later request's batch while it is still exiting."""
        try:
            self._add(self._pool.result(self._shipped.popleft()))
        except MshWorkerError:
            while self._shipped:
                self._pool.settle(self._shipped.popleft())
            raise

    def _add(self, sums: bytes) -> None:
        sums = np.frombuffer(sums, dtype=DTYPE)
        self._limbs += sums[:L]
        if len(sums) > L:  # a fused batch
            self._companion._limbs += sums[L:]

    def _flush(self) -> None:
        """Bring the state up to date with every record inserted so far."""
        self._ship()
        while self._shipped:
            self._take()

    def insert_many(self, records: Iterable[bytes]) -> "MshAccumulator":
        for record in records:
            self.insert(record)
        return self

    def merge(self, other: "MshAccumulator") -> "MshAccumulator":
        """Combine two accumulators over disjoint sub-multisets into their union."""
        self._flush()
        other._flush()
        merged = MshAccumulator()
        np.add(self._limbs, other._limbs, out=merged._limbs)
        merged.count = self.count + other.count
        return merged

    def finalize(self) -> MshDigest:
        """Snapshot the current state; the accumulator stays usable."""
        self._flush()
        return MshDigest(limbs=tuple(int(x) for x in self._limbs), count=self.count)

    @property
    def limbs(self) -> tuple[int, ...]:
        self._flush()
        return tuple(int(x) for x in self._limbs)

    def companion(self) -> "MshAccumulator":
        """An accumulator over preproc_record(r) for each record r this one
        takes from now on; insert each such r into it once.

        The batches this accumulator folds from now on are fused, so the
        companion's arithmetic rides on them and its insert only counts;
        records inserted before now are folded unfused first."""
        if self._companion is not None:
            raise ValueError("an accumulator has at most one companion")
        self._ship()
        self._companion = _Preprocessed(self)
        return self._companion


class _Preprocessed(MshAccumulator):
    """The companion an accumulator gives: MSH over preproc_record of the
    records its source takes after it was made.

    The source's fused batches carry the sums, so insert and insert_many
    only count the records consumed. Reading the state flushes the source,
    then raises ParamsMismatch unless the companion was given exactly as
    many records as its source took."""

    __slots__ = ("_source", "_base")

    def __init__(self, source: MshAccumulator):
        super().__init__()
        self._source = source
        self._base = source.count

    def insert(self, record: bytes) -> "MshAccumulator":
        self.count += 1
        return self

    def insert_many(self, records: Iterable[bytes]) -> "MshAccumulator":
        self.count += sum(1 for _ in records)
        return self

    def _flush(self) -> None:
        self._source._flush()
        taken = self._source.count - self._base
        if self.count != taken:
            raise ParamsMismatch(f"{self.count} records preprocessed of the {taken} taken")


def msh_of_records(records: Iterable[bytes], into: Optional[MshAccumulator] = None) -> MshDigest:
    """Digest a whole record stream in one pass (fold of insert), into a new
    in-process accumulator or, given `into`, into that one with its pool."""
    return (into or MshAccumulator()).insert_many(records).finalize()


# --------------------------------------------------------------------------
# Worker pool


def _hash_batch(request: bytes) -> bytes:
    """Worker side: _hash_spans of one request, once its spans are checked
    to lie within it."""
    count, fused = _BATCH_HEAD.unpack_from(request)
    base = _BATCH_HEAD.size + 8 * count  # where the buffer starts
    spans = np.frombuffer(request, "<u4", 2 * count, _BATCH_HEAD.size).reshape(-1, 2) + (base, 0)
    ends = spans.sum(axis=1)
    if count and ends.max() > len(request):
        raise ValueError(f"batch of {len(request)} bytes declares a span to {ends.max()}")
    return _hash_spans(request, spans, fused)


def _recv(stream) -> bytes:
    """One u32-framed message from an unbuffered stream; EOFError if it ends."""
    return _read(stream, _FRAME.unpack(_read(stream, _FRAME.size))[0])


def _read(stream, size: int) -> bytes:
    """Exactly size bytes from an unbuffered stream, through short reads."""
    data = bytearray()
    while len(data) < size:
        chunk = stream.read(size - len(data))
        if not chunk:
            raise EOFError
        data += chunk
    return bytes(data)


def _send(stream, payload: bytes) -> None:
    """All of payload to an unbuffered stream, through short writes."""
    view = memoryview(payload)
    while view:
        view = view[stream.write(view):]


def _serve() -> None:
    """Worker main loop: answer each framed request on stdin with a framed
    reply on stdout until stdin ends."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the pool's owner decides when to stop
    requests, replies = open(0, "rb", 0, closefd=False), open(1, "wb", 0, closefd=False)
    while True:
        try:
            reply = _hash_batch(_recv(requests))
        except EOFError:
            return
        _send(replies, _FRAME.pack(len(reply)) + reply)


class _Batch:
    """One shipped batch, settled by its worker's reply or by the worker's loss."""

    __slots__ = ("worker", "size", "reply", "error")

    def __init__(self, worker: "_Worker", size: int):
        self.worker = worker
        self.size = size  # reply bytes expected: L limbs, or 2*L for a fused batch
        self.reply: Optional[bytes] = None
        self.error: Optional[MshWorkerError] = None

    def done(self) -> bool:
        return self.reply is not None or self.error is not None


class _Worker:
    """A worker process, its unbuffered stdin and stdout, and the batches it
    has not answered yet, in the order they were sent: a worker answers in
    order. Only the worker holds the write end of its stdout, so that reads
    end of file the moment the worker exits, reaped or not."""

    def __init__(self, index: int):
        # subprocess is imported on first use, so that a process that never
        # hashes in a pool (a client, a verifier) does not pay for it.
        import subprocess

        # The worker imports the palm this process imported, wherever it is.
        palm_parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.name = f"palm-msh-{index}"
        self.process = subprocess.Popen(
            [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); "
             "from palm.msh import _serve; _serve()", palm_parent],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0,
        )
        self.unanswered: deque[_Batch] = deque()  # appended under the pool lock
        self.recv_lock = threading.Lock()  # one reader at a time; only readers pop


class MshPool:
    """Worker processes that hash record batches for pooled accumulators.

    One worker per usable core, started on first use as a fresh interpreter
    that runs _serve; subprocess forks and execs at once, which is safe from
    a server's handler threads. A worker reads u32-framed batches on its
    stdin and answers on its stdout, which reads end of file once it is
    gone. Each batch goes to the worker holding the fewest, so a worker that
    shares its core with the sender and runs slower is given less, not
    waited for. At most IN_FLIGHT_PER_WORKER batches wait on a worker; a
    thread that finds every worker at that cap waits for any of them to
    answer and reads the oldest reply of each that did. Replies are read by
    the threads that need them, a batch's owner or a blocked sender, so no
    extra thread competes for the interpreter. A worker that dies or answers
    out of protocol is noticed where a send to it or a read from it fails:
    every batch it held fails with MshWorkerError, and the next submit
    replaces it and any other worker that has exited meanwhile. Safe to
    share between threads; close() ends each worker's stdin, and a later
    submit starts new ones.
    """

    def __init__(self):
        self.size = len(os.sched_getaffinity(0))
        self._lock = threading.Lock()  # guards _workers and every send
        self._workers: list[_Worker] = []
        self._started = 0

    def pids(self) -> list[int]:
        with self._lock:
            return [w.process.pid for w in self._workers]

    def submit(self, buffer: bytes, spans: np.ndarray, fused: bool) -> _Batch:
        """Ship one batch: the records `buffer` holds at `spans`, one (offset,
        length) row per record. result() gives its _hash_spans reply."""
        body = [_BATCH_HEAD.pack(len(spans), fused), spans.astype("<u4").tobytes(), buffer]
        payload = b"".join([_FRAME.pack(sum(map(len, body))), *body])
        while True:
            with self._lock:
                ended = self._top_up() if len(self._workers) < self.size else []
                worker = min(self._workers, key=lambda w: len(w.unanswered))
                batch = waits = None
                if len(worker.unanswered) < IN_FLIGHT_PER_WORKER:
                    batch = _Batch(worker, DIGEST_BYTES * (1 + fused))
                    worker.unanswered.append(batch)
                    try:
                        _send(worker.process.stdin, payload)
                    except OSError:
                        # The worker is gone: fail what it held (this batch
                        # too) and send the batch again, to a new worker.
                        self._workers.remove(worker)
                        ended.append(worker)
                        batch = None
                else:
                    # Every worker is at the cap. A worker's files stay
                    # open while the pool holds it.
                    waits = {w: w.process.stdout.fileno() for w in self._workers}
            self._retire(ended)
            if batch is not None:
                return batch
            if waits is not None:
                self._read_ready(waits)

    def settle(self, batch: _Batch) -> None:
        """Wait until the batch is answered or its worker is lost."""
        while not batch.done():
            self._read_one(batch.worker, batch)

    def result(self, batch: _Batch) -> bytes:
        """The batch's summed limbs, as bytes; raises MshWorkerError if lost."""
        self.settle(batch)
        if batch.error is not None:
            raise batch.error
        return batch.reply

    def _top_up(self) -> list[_Worker]:
        """Drop the workers that have exited, start new ones until there are
        `size` of them, and return the dropped ones (holding the lock). Only
        called short of `size`: a send or read that fails drops a worker."""
        ended = [w for w in self._workers if w.process.poll() is not None]
        self._workers = [w for w in self._workers if w not in ended]
        while len(self._workers) < self.size:
            self._workers.append(_Worker(self._started))
            self._started += 1
        return ended

    def _retire(self, workers: list[_Worker]) -> None:
        """Reap dropped workers and fail what they held (not holding the lock)."""
        for worker in workers:
            with worker.recv_lock:
                if not worker.process.stdout.closed:
                    self._lose(worker, None)

    def _read_ready(self, waits: dict[_Worker, int]) -> None:
        """Wait until some worker has answered or exited, then settle the
        oldest batch of each that has. The wait ends after READY_TIMEOUT_S
        in any case, since a batch's owner may read the replies first and
        leave nothing to wait for. A worker another thread retires
        meanwhile reads as ready, and _read_one finds nothing to settle.
        poll, unlike select, takes fds above FD_SETSIZE."""
        poller = select.poll()
        for fd in waits.values():
            poller.register(fd, select.POLLIN)
        ready = {fd for fd, _ in poller.poll(1000 * READY_TIMEOUT_S)}
        for worker, fd in waits.items():
            if fd in ready:
                self._read_one(worker)

    def _read_one(self, worker: _Worker, until: Optional[_Batch] = None) -> None:
        """Settle the worker's oldest unanswered batch, unless there is none
        or `until` got settled while this thread waited for its turn."""
        with worker.recv_lock:
            if not worker.unanswered or (until is not None and until.done()):
                return
            try:
                reply = _recv(worker.process.stdout)
            except (EOFError, OSError):
                self._lose(worker, None)
                return
            batch = worker.unanswered[0]
            if len(reply) != batch.size:
                self._lose(worker, f"answered {len(reply)} bytes, not {batch.size}")
                return
            worker.unanswered.popleft()
            batch.reply = reply

    def _lose(self, worker: _Worker, fault: Optional[str]) -> None:
        """Retire a worker (holding its recv_lock) and fail what it held."""
        with self._lock:
            if worker in self._workers:
                self._workers.remove(worker)
        worker.process.kill()  # a no-op once it has exited
        code = worker.process.wait()
        fault = fault or f"exited with code {code}"
        error = MshWorkerError(f"{worker.name} {fault} holding {len(worker.unanswered)} batch(es)")
        while worker.unanswered:
            worker.unanswered.popleft().error = error
        worker.process.stdin.close()
        worker.process.stdout.close()

    def close(self) -> None:
        """Stop every worker. A batch still unread fails with MshWorkerError."""
        with self._lock:
            workers, self._workers = self._workers, []
            for worker in workers:
                worker.process.stdin.close()  # the worker reads end of file and returns
        if workers:
            import subprocess  # loaded already: it started the workers

            for worker in workers:
                try:
                    worker.process.wait(STOP_TIMEOUT_S)
                except subprocess.TimeoutExpired:
                    pass  # _retire kills it
        self._retire(workers)

    def __enter__(self) -> "MshPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
