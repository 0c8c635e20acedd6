"""Pure-Python reference implementation of the multiset hash.

Deliberately avoids numpy (and everything else in the package) so tests
can compare the production limb arithmetic against an independent route:
plain ints reduced mod 2^64.
"""

import hashlib

PREFIX = b"PALM-MSH-v1\x00"
LIMBS = 64
LIMB_BYTES = 8
MOD = 2**64


def oracle_limbs(record: bytes) -> list[int]:
    raw = hashlib.shake_256(PREFIX + record).digest(LIMBS * LIMB_BYTES)
    return [
        int.from_bytes(raw[i * LIMB_BYTES : (i + 1) * LIMB_BYTES], "little")
        for i in range(LIMBS)
    ]


def oracle_msh(records) -> tuple[list[int], int]:
    acc = [0] * LIMBS
    count = 0
    for record in records:
        for i, v in enumerate(oracle_limbs(record)):
            acc[i] = (acc[i] + v) % MOD
        count += 1
    return acc, count


def oracle_encode(limbs: list[int], count: int) -> bytes:
    out = bytearray(b"mu4096\x00")
    out += count.to_bytes(8, "little")
    for limb in limbs:
        out += limb.to_bytes(LIMB_BYTES, "little")
    return bytes(out)


# The bytes bytes.split() splits on: ASCII space, \t, \n, \r, \v and \f.
WHITESPACE = b" \t\n\r\x0b\x0c"


def oracle_preproc(record: bytes) -> bytes:
    """Preprocessing byte by byte: A-Z lowered, each whitespace run between
    two other bytes written as one space, leading and trailing runs dropped,
    the result cut at 256 bytes."""
    out = bytearray()
    gap = False
    for byte in record:
        if byte in WHITESPACE:
            gap = bool(out)
            continue
        if gap:
            out.append(0x20)
            gap = False
        out.append(byte + 32 if 65 <= byte <= 90 else byte)
    return bytes(out[:256])


# --------------------------------------------------------------------------
# Dict-based toy model: the count-table operations as first written, one
# nested dict update per token and one struct.pack per field. The columnar
# implementation in palm.toyops must produce the same counts and bytes.

import random
import struct

UNK_ID = 0
_KIND_BYTE = {"unigram": 1, "bigram": 2}


def oracle_train(kind, records, vocab, seed, epochs, sampling):
    """(context -> token -> count) over `records`, `epochs` times."""
    counts = {}
    for epoch in range(epochs):
        order = list(range(len(records)))
        if sampling == "shuffled":
            random.Random(seed + epoch).shuffle(order)
        for idx in order:
            ids = [vocab.get(tok.decode("latin-1"), UNK_ID) for tok in records[idx].split()]
            if kind == "unigram":
                table = counts.setdefault(0, {})
                for tid in ids:
                    table[tid] = table.get(tid, 0) + 1
            else:
                prev = 0
                for tid in ids:
                    table = counts.setdefault(prev, {})
                    table[tid] = table.get(tid, 0) + 1
                    prev = tid
    return counts


def oracle_model_bytes(kind, counts) -> bytes:
    out = bytearray([_KIND_BYTE[kind]])
    out += struct.pack("<I", len(counts))
    for ctx in sorted(counts):
        entries = counts[ctx]
        out += struct.pack("<I", ctx)
        out += struct.pack("<I", len(entries))
        for tid in sorted(entries):
            out += struct.pack("<I", tid)
            out += struct.pack("<Q", entries[tid])
    return bytes(out)


def oracle_tokenizer_bytes(vocab) -> bytes:
    """u32 entry count, then (u32-length-prefixed latin-1 token, u32 id) by token bytes."""
    entries = sorted((tok.encode("latin-1"), tid) for tok, tid in vocab.items())
    out = bytearray(struct.pack("<I", len(entries)))
    for tok, tid in entries:
        out += struct.pack("<I", len(tok)) + tok + struct.pack("<I", tid)
    return bytes(out)


def oracle_predict(kind, counts, context) -> int:
    table = counts.get(0 if kind == "unigram" else context)
    if not table:
        return UNK_ID
    return max(table, key=lambda tid: (table[tid], -tid))


def _add_counts(into, frm):
    for ctx, entries in frm.items():
        table = into.setdefault(ctx, {})
        for tid, n in entries.items():
            table[tid] = table.get(tid, 0) + n


def oracle_optimize(counts, id_opt, trained=None, adapter=None):
    """quantize / prune, or finetune: counts + trained (+ adapter), unbounded ints."""
    if id_opt == "finetune":
        out = {ctx: dict(entries) for ctx, entries in counts.items()}
        _add_counts(out, trained)
        if adapter is not None:
            _add_counts(out, adapter)
        return out
    out = {}
    for ctx, entries in counts.items():
        if id_opt == "quantize":
            kept = {tid: n // 16 for tid, n in entries.items() if n // 16 > 0}
        else:
            kept = {tid: n for tid, n in entries.items() if n >= 2}
        if kept:
            out[ctx] = kept
    return out
