"""Deterministic toy stand-ins for the measured pipeline operations.

Every operation here is a pure function of byte-serializable inputs:
preprocessing, length-distribution, count-model training, a small family
of weight optimizations, argmax evaluation, and greedy inference. Nothing
learns anything useful; what matters is that identical inputs always
produce byte-identical outputs, so measurement sets are reproducible.

Tokens are whitespace-split byte runs stored as latin-1 strings (a
lossless byte/str mapping). Token ids are dense 0..|vocab|-1 with id 0
reserved for out-of-vocabulary tokens.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .encoding import lp, u32, u64
from .errors import FormatError, MissingDataset, UnknownOptimization

UNK_TOKEN = "<unk>"
UNK_ID = 0

RESPONSE_LEN = 8  # tokens emitted by greedy inference
PREPROC_MAX_LEN = 256

OPTIMIZATIONS = ("finetune", "quantize", "prune")
MODEL_KINDS = ("unigram", "bigram")
_KIND_BYTE = {"unigram": 1, "bigram": 2}


def _tokenize(record: bytes) -> list[str]:
    """Split on ASCII whitespace; tokens kept as latin-1 strings."""
    return [tok.decode("latin-1") for tok in record.split()]


@dataclass(frozen=True)
class ToyTokenizer:
    """Static vocabulary mapping token strings to dense ids; id 0 is reserved."""

    vocab: dict[str, int]

    def __post_init__(self):
        ids = sorted(self.vocab.values())
        if ids != list(range(len(self.vocab))):
            raise ValueError("token ids must be dense 0..|vocab|-1")

    @classmethod
    def build(cls, records: Sequence[bytes]) -> "ToyTokenizer":
        """Reserved token at id 0, remaining tokens sorted and numbered from 1."""
        tokens = sorted({t for rec in records for t in _tokenize(rec)} - {UNK_TOKEN})
        vocab = {UNK_TOKEN: UNK_ID}
        for i, tok in enumerate(tokens, start=1):
            vocab[tok] = i
        return cls(vocab)

    def encode(self, text: bytes) -> list[int]:
        return [self.vocab.get(tok, UNK_ID) for tok in _tokenize(text)]

    def decode_id(self, token_id: int) -> str:
        for tok, tid in self.vocab.items():
            if tid == token_id:
                return tok
        return UNK_TOKEN

    def serialized_bytes(self) -> bytes:
        """u32 entry count, then (length-prefixed token, u32 id) sorted by token."""
        out = bytearray(u32(len(self.vocab)))
        for tok in sorted(self.vocab, key=lambda t: t.encode("latin-1")):
            out += lp(tok.encode("latin-1"))
            out += u32(self.vocab[tok])
        return bytes(out)

    def to_json(self) -> dict:
        return {"vocab": dict(sorted(self.vocab.items()))}

    @classmethod
    def from_json(cls, doc: dict) -> "ToyTokenizer":
        return cls({str(k): int(v) for k, v in doc["vocab"].items()})


@dataclass(frozen=True)
class TrainConfig:
    """Seeded training schedule; fully determines training given the data."""

    seed: int = 0
    epochs: int = 1
    sampling: str = "sequential"  # or "shuffled"

    def __post_init__(self):
        if self.sampling not in ("sequential", "shuffled"):
            raise ValueError(f"unknown sampling {self.sampling!r}")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")

    def serialized_bytes(self) -> bytes:
        tag = 0 if self.sampling == "sequential" else 1
        return u64(self.seed) + u32(self.epochs) + bytes([tag])

    def to_json(self) -> dict:
        return {"seed": self.seed, "epochs": self.epochs, "sampling": self.sampling}

    @classmethod
    def from_json(cls, doc: dict) -> "TrainConfig":
        return cls(int(doc["seed"]), int(doc["epochs"]), str(doc["sampling"]))


@dataclass(frozen=True)
class ToyModel:
    """Count table keyed by context id; prediction is argmax with lowest-id ties.

    A unigram model keeps all counts under context 0; a bigram model keys
    them by the previous token id, with 0 doubling as the start context.
    """

    kind: str
    counts: dict[int, dict[int, int]] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")

    @classmethod
    def empty(cls, kind: str) -> "ToyModel":
        return cls(kind, {})

    def predict(self, context: int) -> int:
        """Most frequent token for the context; ties to the lowest id; empty → 0."""
        key = 0 if self.kind == "unigram" else context
        table = self.counts.get(key)
        if not table:
            return UNK_ID
        return max(table, key=lambda tid: (table[tid], -tid))

    def serialized_bytes(self) -> bytes:
        """Kind byte, u32 context count, per context u32 id + sorted u64 counts."""
        out = bytearray([_KIND_BYTE[self.kind]])
        out += u32(len(self.counts))
        for ctx in sorted(self.counts):
            entries = self.counts[ctx]
            out += u32(ctx)
            out += u32(len(entries))
            for tid in sorted(entries):
                out += u32(tid)
                out += u64(entries[tid])
        return bytes(out)

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "counts": {
                str(ctx): {str(tid): n for tid, n in sorted(entries.items())}
                for ctx, entries in sorted(self.counts.items())
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ToyModel":
        return cls(
            str(doc["kind"]),
            {
                int(ctx): {int(tid): int(n) for tid, n in entries.items()}
                for ctx, entries in doc["counts"].items()
            },
        )


def _copy_counts(counts: dict[int, dict[int, int]]) -> dict[int, dict[int, int]]:
    return {ctx: dict(entries) for ctx, entries in counts.items()}


def _add_counts(into: dict[int, dict[int, int]], frm: dict[int, dict[int, int]]) -> None:
    for ctx, entries in frm.items():
        table = into.setdefault(ctx, {})
        for tid, n in entries.items():
            table[tid] = table.get(tid, 0) + n


def preproc_record(record: bytes) -> bytes:
    """Lowercase ASCII, collapse whitespace runs to one space, cap at 256 bytes."""
    return b" ".join(record.lower().split())[:PREPROC_MAX_LEN]


def preproc(records: Iterable[bytes]) -> tuple[bytes, ...]:
    """preproc_record over every record, in order."""
    return tuple(map(preproc_record, records))


def attribute_distribution(records: Iterable[bytes]) -> dict[int, int]:
    """Histogram of record byte-lengths."""
    hist: dict[int, int] = {}
    for rec in records:
        hist[len(rec)] = hist.get(len(rec), 0) + 1
    return hist


def serialize_distribution(hist: dict[int, int]) -> bytes:
    """Canonical ASCII form sorted by key: {3:2,5:1}; empty histogram is {}."""
    body = ",".join(f"{k}:{hist[k]}" for k in sorted(hist))
    return ("{" + body + "}").encode("ascii")


def train(
    kind: str,
    records: Sequence[bytes],
    config: TrainConfig,
    tokenizer: ToyTokenizer,
) -> ToyModel:
    """Accumulate (context, token) counts over the records, epochs times.

    Counts are order-insensitive, so sampling order cannot change the model;
    it is still honored so the consumption schedule is well-defined.
    """
    counts: dict[int, dict[int, int]] = {}
    for epoch in range(config.epochs):
        order = list(range(len(records)))
        if config.sampling == "shuffled":
            random.Random(config.seed + epoch).shuffle(order)
        for idx in order:
            ids = tokenizer.encode(records[idx])
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
    return ToyModel(kind, counts)


def optimize(
    model: ToyModel,
    tokenizer: ToyTokenizer,
    config: TrainConfig,
    id_opt: str,
    adp: Optional[ToyModel] = None,
    d_opt: Optional[Sequence[bytes]] = None,
) -> ToyModel:
    """Apply one named optimization; finetune consumes d_opt, the others must not."""
    if id_opt not in OPTIMIZATIONS:
        raise UnknownOptimization(f"no optimization named {id_opt!r}")
    if id_opt == "finetune":
        if d_opt is None:
            raise MissingDataset("finetune requires an optimization dataset")
        counts = _copy_counts(model.counts)
        _add_counts(counts, train(model.kind, d_opt, config, tokenizer).counts)
        if adp is not None:
            if adp.kind != model.kind:
                raise ValueError(f"adapter kind {adp.kind!r} != model kind {model.kind!r}")
            _add_counts(counts, adp.counts)
        return ToyModel(model.kind, counts)
    if d_opt is not None:
        raise ValueError(f"{id_opt!r} does not take an optimization dataset")
    if id_opt == "quantize":
        counts = {}
        for ctx, entries in model.counts.items():
            kept = {tid: n // 16 for tid, n in entries.items() if n // 16 > 0}
            if kept:
                counts[ctx] = kept
        return ToyModel(model.kind, counts)
    # prune
    counts = {}
    for ctx, entries in model.counts.items():
        kept = {tid: n for tid, n in entries.items() if n >= 2}
        if kept:
            counts[ctx] = kept
    return ToyModel(model.kind, counts)


def evaluate(
    model: ToyModel, tokenizer: ToyTokenizer, records: Iterable[bytes]
) -> str:
    """Exact accuracy "num/den" over "context<TAB>expected-token" records.

    An empty test set has no defined accuracy; the sentinel "0/0" reports
    metric-undefined rather than claiming 0 or 1.
    """
    correct = total = 0
    for rec in records:
        total += 1
        ctx_part, sep, expected_part = rec.partition(b"\t")
        if not sep:
            raise FormatError("test record has no tab separator")
        ctx_ids = tokenizer.encode(ctx_part)
        context = ctx_ids[-1] if ctx_ids else 0
        expected = tokenizer.encode(expected_part.strip())
        expected_id = expected[0] if expected else UNK_ID
        if model.predict(context) == expected_id:
            correct += 1
    return f"{correct}/{total}"


def infer(model: ToyModel, tokenizer: ToyTokenizer, query: bytes) -> str:
    """Greedy continuation: 8 argmax steps seeded by the query's last token."""
    ids = tokenizer.encode(query)
    prev = ids[-1] if ids else 0
    out = []
    for _ in range(RESPONSE_LEN):
        prev = model.predict(prev)
        out.append(tokenizer.decode_id(prev))
    return " ".join(out)


History = tuple[tuple[bytes, bytes], ...]


def serialize_history(history: History) -> bytes:
    """u32 pair count, then length-prefixed (query, response) pairs in order."""
    out = bytearray(u32(len(history)))
    for q, r in history:
        out += lp(q)
        out += lp(r)
    return bytes(out)


def infer_session(
    model: ToyModel, tokenizer: ToyTokenizer, history: History, query: bytes
) -> str:
    """Inference over the flattened prior turns followed by the query.

    The history argument is left untouched; callers that track sessions
    append the new (query, response) pair themselves.
    """
    parts = [part for q, r in history for part in (q, r)]
    parts.append(query)
    return infer(model, tokenizer, b" ".join(parts))
