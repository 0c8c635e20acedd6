"""Reference computations made apart from palm, from its documented formats.

Nothing here imports palm. Each function re-derives, from the byte layouts
and rules that palm's docstrings state, a value the program must reproduce,
so an output check compares palm against a second implementation rather
than against itself or a stored copy of an earlier output.
"""

from __future__ import annotations

import hashlib
import re
import struct
from collections import Counter
from typing import Iterable, Sequence

import numpy as np

DATASET_MAGIC = b"PALMDS1\x00"
MSH_DOMAIN = b"PALM-MSH-v1\x00"
MSH_PARAM_ID = b"mu4096"
MSH_LIMBS = 64  # 64 limbs of 64 bits: m = 4096
PREPROC_CAP = 256
UNK = "<unk>"
RESPONSE_LEN = 8
MODULE_MANIFEST = b"palm-td-module/1"
BIGRAM_KIND = 2

_WHITESPACE_RUN = re.compile(rb"[ \t\n\r\x0b\x0c]+")


def sha3(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


def u32(value: int) -> bytes:
    return struct.pack("<I", value)


def lp(data: bytes) -> bytes:
    return struct.pack("<I", len(data)) + data


def pack_dataset(records: Sequence[bytes]) -> bytes:
    """Dataset file: magic, u64 record count, then u32-length-prefixed records."""
    parts = [DATASET_MAGIC, struct.pack("<Q", len(records))]
    for record in records:
        parts.append(lp(record))
    return b"".join(parts)


def preprocess(record: bytes) -> bytes:
    """Lowercase ASCII, collapse whitespace runs to one space, cap at 256 bytes."""
    return _WHITESPACE_RUN.sub(b" ", record).strip(b" ").lower()[:PREPROC_CAP]


def msh(records: Iterable[bytes], chunk: int = 8192) -> bytes:
    """Multiset hash encoding: SHAKE-256(domain || record) read as 64
    little-endian u64 limbs, summed mod 2^64; encoded as param id, NUL,
    u64 record count, then the limbs little-endian."""
    total = np.zeros(MSH_LIMBS, dtype=np.uint64)
    count = 0
    batch: list[bytes] = []

    def fold() -> None:
        buf = b"".join(hashlib.shake_256(MSH_DOMAIN + r).digest(MSH_LIMBS * 8) for r in batch)
        limbs = np.frombuffer(buf, dtype="<u8").reshape(-1, MSH_LIMBS)
        np.add(total, limbs.sum(axis=0, dtype=np.uint64), out=total)

    for record in records:
        batch.append(record)
        count += 1
        if len(batch) == chunk:
            fold()
            batch.clear()
    if batch:
        fold()
    return MSH_PARAM_ID + b"\x00" + struct.pack("<Q", count) + total.astype("<u8").tobytes()


def build_vocab(records: Iterable[bytes]) -> dict[str, int]:
    """Id 0 is the unknown token; the other tokens are numbered from 1 in byte order."""
    tokens = {tok for record in records for tok in record.split()}
    vocab = {UNK: 0}
    for i, tok in enumerate(sorted(tokens - {UNK.encode()}), start=1):
        vocab[tok.decode("ascii")] = i
    return vocab


def tokenizer_bytes(vocab: dict[str, int]) -> bytes:
    """u32 entry count, then (length-prefixed token, u32 id) sorted by token bytes."""
    out = [u32(len(vocab))]
    for tok in sorted(vocab, key=lambda t: t.encode("ascii")):
        out.append(lp(tok.encode("ascii")) + u32(vocab[tok]))
    return b"".join(out)


def bigram_counts(records: Iterable[bytes], vocab: dict[str, int]) -> Counter:
    """(previous id, id) pair counts; each record starts from context 0."""
    pairs: Counter = Counter()
    for record in records:
        prev = 0
        for tok in record.split():
            tid = vocab.get(tok.decode("ascii"), 0)
            pairs[(prev, tid)] += 1
            prev = tid
    return pairs


def model_bytes(pairs: Counter) -> bytes:
    """Kind byte, u32 context count, then per context in id order: u32 id,
    u32 entry count and (u32 token id, u64 count) entries in id order."""
    table: dict[int, list[tuple[int, int]]] = {}
    for (ctx, tid), n in pairs.items():
        table.setdefault(ctx, []).append((tid, n))
    out = [bytes([BIGRAM_KIND]), u32(len(table))]
    for ctx in sorted(table):
        entries = sorted(table[ctx])
        out.append(u32(ctx) + u32(len(entries)))
        out.append(b"".join(struct.pack("<IQ", tid, n) for tid, n in entries))
    return b"".join(out)


def decode_model(payload: bytes) -> Counter:
    """Inverse of model_bytes: the (context, token) counts a payload holds."""
    if payload[0] != BIGRAM_KIND:
        raise ValueError(f"model kind byte {payload[0]} is not bigram")
    (contexts,) = struct.unpack_from("<I", payload, 1)
    pos = 5
    pairs: Counter = Counter()
    for _ in range(contexts):
        ctx, entries = struct.unpack_from("<II", payload, pos)
        pos += 8
        for tid, n in struct.iter_unpack("<IQ", payload[pos : pos + 12 * entries]):
            pairs[(ctx, tid)] = n
        pos += 12 * entries
    if pos != len(payload):
        raise ValueError(f"{len(payload) - pos} trailing bytes in model payload")
    return pairs


def model_json(pairs: Counter) -> dict:
    counts: dict[str, dict[str, int]] = {}
    for (ctx, tid), n in sorted(pairs.items()):
        counts.setdefault(str(ctx), {})[str(tid)] = n
    return {"kind": "bigram", "counts": counts}


def empty_bigram_bytes() -> bytes:
    return bytes([BIGRAM_KIND]) + u32(0)


def train_config_bytes(seed: int, epochs: int, shuffled: bool) -> bytes:
    return struct.pack("<QI", seed, epochs) + bytes([1 if shuffled else 0])


def history_bytes(history: Sequence[tuple[bytes, bytes]]) -> bytes:
    out = [u32(len(history))]
    for query, response in history:
        out.append(lp(query) + lp(response))
    return b"".join(out)


class Greedy:
    """Greedy bigram continuation: the most frequent next token, ties to the
    lowest id, an unseen context yields the unknown token (id 0)."""

    def __init__(self, pairs: Counter, vocab: dict[str, int]):
        best: dict[int, tuple[int, int]] = {}
        for (ctx, tid), n in pairs.items():
            if ctx not in best or (n, -tid) > (best[ctx][1], -best[ctx][0]):
                best[ctx] = (tid, n)
        self._next = {ctx: tid for ctx, (tid, _) in best.items()}
        self._vocab = vocab
        self._names = {tid: tok for tok, tid in vocab.items()}

    def continue_after(self, query: bytes) -> bytes:
        tokens = query.split()
        prev = self._vocab.get(tokens[-1].decode("ascii"), 0) if tokens else 0
        out = []
        for _ in range(RESPONSE_LEN):
            prev = self._next.get(prev, 0)
            out.append(self._names[prev])
        return " ".join(out).encode("ascii")
