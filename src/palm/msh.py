"""Incremental multiset hash with mergeable accumulators.

A record is mapped by an extendable-output hash to a vector of l limbs in
Z_n (n = 2^n_log2), and a multiset of records hashes to the componentwise
sum of those vectors mod n. Insertion order is irrelevant, multiplicities
matter, and accumulators built over disjoint partitions of a multiset can
be merged into the accumulator of the union.

An accumulator computes each record's XOF output when the record is
inserted, over exactly the bytes it was given, but adds the outputs up in
batches: FLUSH_RECORDS outputs are joined into one (records x l) limb
matrix and reduced with a single numpy sum in the limb dtype, whose native
wraparound is exactly the mod-2^n_log2 reduction the construction needs.
Addition mod 2^n_log2 is associative and commutative, so the batched sum
equals the record-by-record one bit for bit. Anything that reads the state
(finalize, merge, limbs) flushes the pending batch first.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .encoding import u64
from .errors import ParamsMismatch

# Domain-separation prefix absorbed by the XOF before every record.
HASH_DOMAIN = b"PALM-MSH-v1\x00"

_DTYPES = {8: "<u1", 16: "<u2", 32: "<u4", 64: "<u8"}

# XOF outputs held back before one batched reduction: 128 KiB at m = 4096.
FLUSH_RECORDS = 256


@dataclass(frozen=True)
class MshParams:
    """Parameter set: element bit-length m with l = n_log2 = sqrt(m)."""

    m: int = 4096
    l: int = 64
    n_log2: int = 64
    param_id: str = "mu4096"

    def __post_init__(self):
        root = math.isqrt(self.m)
        if root * root != self.m:
            raise ValueError(f"m={self.m} is not a perfect square")
        if self.l != root or self.n_log2 != root:
            raise ValueError(
                f"require l = n_log2 = sqrt(m); got l={self.l}, n_log2={self.n_log2}, sqrt(m)={root}"
            )
        if self.n_log2 not in _DTYPES:
            raise ValueError(f"unsupported limb width {self.n_log2} (need one of {sorted(_DTYPES)})")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(_DTYPES[self.n_log2])

    @property
    def limb_bytes(self) -> int:
        return self.n_log2 // 8

    @property
    def digest_bytes(self) -> int:
        return self.l * self.limb_bytes


DEFAULT_PARAMS = MshParams()


def _xof(record: bytes, n_bytes: int) -> bytes:
    """XOF the domain-separated record into n_bytes of little-endian limbs."""
    return hashlib.shake_256(HASH_DOMAIN + record).digest(n_bytes)


def hash_record(record: bytes, params: MshParams = DEFAULT_PARAMS) -> tuple[int, ...]:
    """Map one record to its limb vector (little-endian limbs, each < 2^n_log2)."""
    return tuple(int(x) for x in np.frombuffer(_xof(record, params.digest_bytes), dtype=params.dtype))


@dataclass(frozen=True)
class MshDigest:
    """Finalized multiset hash: limb vector plus the total record count."""

    params_id: str
    limbs: tuple[int, ...]
    count: int
    limb_bytes: int = 8

    def encode(self) -> bytes:
        """Canonical encoding: params_id, NUL, u64 count, then LE limbs."""
        out = bytearray(self.params_id.encode("ascii"))
        out.append(0)
        out += u64(self.count)
        for limb in self.limbs:
            out += int(limb).to_bytes(self.limb_bytes, "little")
        return bytes(out)

    def hex(self) -> str:
        return self.encode().hex()


class MshAccumulator:
    """Running multiset hash; single-writer, mergeable with other accumulators."""

    __slots__ = ("params", "_limbs", "_pending", "_xof_bytes", "count")

    def __init__(self, params: MshParams = DEFAULT_PARAMS):
        self.params = params
        self._limbs = np.zeros(params.l, dtype=params.dtype)
        self._pending: list[bytes] = []
        self._xof_bytes = params.digest_bytes
        self.count = 0

    def insert(self, record: bytes) -> "MshAccumulator":
        """Fold one record in; componentwise add of its limb vector mod 2^n_log2.

        The record is hashed now; the addition joins the pending batch."""
        self._pending.append(_xof(record, self._xof_bytes))
        self.count += 1
        if len(self._pending) >= FLUSH_RECORDS:
            self._flush()
        return self

    def _flush(self) -> None:
        """Add the pending limb vectors into the state with one reduction."""
        if self._pending:
            batch = np.frombuffer(b"".join(self._pending), dtype=self.params.dtype)
            self._limbs += batch.reshape(-1, self.params.l).sum(axis=0, dtype=self.params.dtype)
            self._pending.clear()

    def insert_many(self, records: Iterable[bytes]) -> "MshAccumulator":
        for record in records:
            self.insert(record)
        return self

    def merge(self, other: "MshAccumulator") -> "MshAccumulator":
        """Combine two accumulators over disjoint sub-multisets into their union."""
        if self.params != other.params:
            raise ParamsMismatch(f"{self.params.param_id} != {other.params.param_id}")
        self._flush()
        other._flush()
        merged = MshAccumulator(self.params)
        np.add(self._limbs, other._limbs, out=merged._limbs)
        merged.count = self.count + other.count
        return merged

    def finalize(self) -> MshDigest:
        """Snapshot the current state; the accumulator stays usable."""
        self._flush()
        return MshDigest(
            params_id=self.params.param_id,
            limbs=tuple(int(x) for x in self._limbs),
            count=self.count,
            limb_bytes=self.params.limb_bytes,
        )

    @property
    def limbs(self) -> tuple[int, ...]:
        self._flush()
        return tuple(int(x) for x in self._limbs)


def msh_of_records(
    records: Iterable[bytes], params: MshParams = DEFAULT_PARAMS
) -> MshDigest:
    """Digest a whole record stream in one pass (fold of insert)."""
    return MshAccumulator(params).insert_many(records).finalize()
