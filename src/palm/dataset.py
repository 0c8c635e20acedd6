"""Record-oriented dataset files and the two measurement paths over them.

File layout (all integers little-endian):

    magic   8 bytes  b"PALMDS1\\x00"
    count   u64      number of records
    record  u32 length + raw bytes, repeated count times

A dataset is measured either as a whole (plain SHA3-256 over the file
bytes, for data that is loaded into protected memory up front) or as a
multiset hash folded at the moment records are sampled from the file (for
data that stays outside and is pulled in lazily, "mapped" mode). A mapped
handle owns its epoch: it folds every record it serves into its own
accumulator, hashed by the MshPool it was opened with (if any). Records
are sampled in runs of consecutive indices: one os.pread on the file
descriptor the handle holds reads a run's bytes, length prefixes included,
into one buffer; the accumulator folds the records that buffer holds at
the spans of the index, and the caller is served records sliced from that
same buffer. So the bytes served are the bytes measured, and nothing reads
storage a second time between the check and the use. A file that shrinks
underneath the handle gives a short read and a FormatError, never a fault
in the process. The mapped path enforces an exactly-once epoch: every
record index must be sampled precisely one time before finish_epoch gives
the digest, so a swapped or re-served record after measurement cannot go
unnoticed and a withheld record blocks finalization.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
from typing import Callable, Optional, Sequence

import numpy as np

from .encoding import u32, u64
from .errors import (
    DuplicateAccess,
    FormatError,
    IncompleteEpoch,
    IndexOutOfRange,
    ParamsMismatch,
)
from .msh import MshAccumulator, MshDigest, MshPool

MAGIC = b"PALMDS1\x00"
HEADER_LEN = len(MAGIC) + 8
_U32 = struct.Struct("<I")

# Bytes one read takes while a mapped handle indexes the length prefixes
# (at least HEADER_LEN).
SCAN_CHUNK = 64 * 1024


def pack_records(records: Sequence[bytes]) -> bytes:
    """Serialize records into the container format."""
    out = bytearray(MAGIC)
    out += u64(len(records))
    for record in records:
        out += u32(len(record))
        out += record
    return bytes(out)


def write_dataset(path: str | os.PathLike, records: Sequence[bytes]) -> None:
    with open(path, "wb") as f:
        f.write(pack_records(records))


def unpack_records(data: bytes) -> tuple[bytes, ...]:
    """Parse container bytes back into records, validating the full layout."""
    view = memoryview(data)
    spans = record_spans(lambda offset: view[offset:], len(data))
    return tuple(data[start:end] for start, end in zip(spans[:, 0].tolist(), spans.sum(1).tolist()))


def record_spans(read_at: Callable[[int], bytes], size: int) -> np.ndarray:
    """The (offset, length) of each record in a container of `size` bytes,
    as an (n, 2) int64 array.

    read_at(offset) returns the container's bytes from offset on: all of
    them, or at least the first HEADER_LEN. Only the header and the length
    prefixes are looked at; the scan asks for more bytes when a length
    prefix runs past what it holds. A layout fault, trailing bytes
    included, raises FormatError.
    """
    chunk = read_at(0) if size else b""
    if size < HEADER_LEN or len(chunk) < HEADER_LEN or chunk[: len(MAGIC)] != MAGIC:
        raise FormatError("bad magic")
    count = int.from_bytes(chunk[len(MAGIC) : HEADER_LEN], "little")
    base, pos = 0, HEADER_LEN  # chunk holds the bytes from offset base on
    spans: list[int] = []  # offset, length, offset, ...
    for _ in range(count):
        if pos + 4 > size:
            raise FormatError("truncated record length")
        if pos + 4 > base + len(chunk):
            base, chunk = pos, read_at(pos)
            if len(chunk) < 4:  # the file shrank during the scan
                raise FormatError("truncated record length")
        (length,) = _U32.unpack_from(chunk, pos - base)
        pos += 4
        if pos + length > size:
            raise FormatError("truncated record bytes")
        spans += (pos, length)
        pos += length
    if pos != size:
        raise FormatError(f"{size - pos} trailing bytes after last record")
    return np.array(spans, np.int64).reshape(-1, 2)


class InMemoryDataset:
    """Dataset loaded whole; measured by one plain hash over the file bytes."""

    def __init__(self, records: tuple[bytes, ...], file_bytes: bytes):
        self.records = records
        self.file_bytes_hash = hashlib.sha3_256(file_bytes).digest()

    def __len__(self) -> int:
        return len(self.records)


def load_in_memory(path: str | os.PathLike) -> InMemoryDataset:
    with open(path, "rb") as f:
        data = f.read()
    return InMemoryDataset(unpack_records(data), data)


class MappedDataset:
    """Dataset left on disk behind an open file, measured at sample time.

    Opening scans only the length prefixes, in SCAN_CHUNK reads, to build an
    offset index; record bytes are first read (and first measured) when
    sample_run pulls a run of them with one os.pread and folds them into the
    handle's accumulator, hashed by `pool`'s workers when one is given. The
    access map, one byte per record, admits each index exactly once per
    epoch. The handle owns its file: close it, or use it as a context
    manager.
    """

    def __init__(self, path: str | os.PathLike, pool: Optional[MshPool] = None):
        self.path = os.fspath(path)
        self._file = open(self.path, "rb", buffering=0)
        self._fd = self._file.fileno()
        try:
            self._spans = record_spans(lambda offset: os.pread(self._fd, SCAN_CHUNK, offset),
                                       os.fstat(self._fd).st_size)
        except Exception:
            self._file.close()
            raise
        self._seen = bytearray(len(self._spans))
        self._lock = threading.Lock()
        self.accumulator = MshAccumulator(pool=pool)

    def __len__(self) -> int:
        return len(self._spans)

    def _claim(self, start: int, stop: int) -> None:
        with self._lock:
            taken = self._seen.find(1, start, stop)
            if taken >= 0:
                raise DuplicateAccess(f"record {taken} already sampled this epoch")
            self._seen[start:stop] = b"\x01" * (stop - start)

    def sample_run(self, start: int, stop: int) -> list[bytes]:
        """Read records start..stop-1 from the file and fold them into the
        accumulator, as one batch.

        The run is claimed whole, then read with one pread, length prefixes
        included. The accumulator folds the records that buffer holds at the
        index's spans, and the caller gets the same records sliced from the
        same buffer; whatever the pipeline consumes is what got measured. A
        record the file no longer holds in full is a FormatError.
        """
        if not 0 <= start <= stop <= len(self._spans):
            bad = start if not 0 <= start < len(self._spans) else len(self._spans)
            raise IndexOutOfRange(f"index {bad} not in [0, {len(self._spans)})")
        if start == stop:
            return []
        self._claim(start, stop)
        base = int(self._spans[start, 0]) - 4  # where the first length prefix starts
        spans = self._spans[start:stop] - (base, 0)
        ends = spans.sum(axis=1)
        buffer = os.pread(self._fd, int(ends[-1]), base)
        if len(buffer) < ends[-1]:
            short = int(np.argmax(ends > len(buffer)))
            offset, length = spans[short].tolist()
            raise FormatError(
                f"record {start + short} truncated on disk: "
                f"read {max(0, len(buffer) - offset)} of {length} bytes"
            )
        self.accumulator.insert_spans(buffer, spans)
        return [buffer[offset:end] for offset, end in zip(spans[:, 0].tolist(), ends.tolist())]

    def sample_record(self, index: int) -> bytes:
        """sample_run of the one record at index."""
        return self.sample_run(index, index + 1)[0]

    def missing_indices(self) -> list[int]:
        if self._seen.find(0) < 0:
            return []  # the usual case, decided without a per-index scan
        return [index for index, seen in enumerate(self._seen) if not seen]

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "MappedDataset":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def finish_epoch(ds: MappedDataset) -> MshDigest:
    """The multiset digest of a finished mapped epoch.

    Raises IncompleteEpoch unless every record index was sampled exactly once
    (duplicates were already rejected at sample time).
    """
    missing = ds.missing_indices()
    if missing:
        raise IncompleteEpoch(missing)
    count = ds.accumulator.count
    if count != len(ds):
        # Bitmap says complete but the fold count disagrees: the accumulator
        # was fed records from elsewhere.
        raise ParamsMismatch(f"accumulated {count} records for a {len(ds)}-record epoch")
    return ds.accumulator.finalize()


def tamper_record(path: str | os.PathLike, index: int, new_bytes: bytes) -> None:
    """Rewrite one record in place on disk (test harness for tamper scenarios).

    The file is modified through the existing inode so already-open handles
    observe the change, which is the situation mid-epoch tampering needs.
    """
    with open(path, "r+b") as f:
        data = f.read()
        records = list(unpack_records(data))
        if not 0 <= index < len(records):
            raise IndexOutOfRange(f"index {index} not in [0, {len(records)})")
        records[index] = new_bytes
        f.seek(0)
        f.write(pack_records(records))
        f.truncate()
