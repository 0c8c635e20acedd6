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

import re
import struct
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Iterable, Optional, Sequence

import numpy as np

from .encoding import check_keys, lp, sha3_256, u32, u64
from .errors import FormatError, MissingDataset, UnknownOptimization

UNK_TOKEN = "<unk>"
UNK_ID = 0

RESPONSE_LEN = 8  # tokens emitted by greedy inference
PREPROC_MAX_LEN = 256

OPTIMIZATIONS = ("finetune", "quantize", "prune")
MODEL_KINDS = ("unigram", "bigram")
_KIND_BYTE = {"unigram": 1, "bigram": 2}

_pack_u32 = struct.Struct("<I").pack


def _tokenize(record: bytes) -> list[str]:
    """Split on ASCII whitespace; tokens kept as latin-1 strings."""
    return [tok.decode("latin-1") for tok in record.split()]


@dataclass(frozen=True)
class ToyTokenizer:
    """Static vocabulary mapping token strings to dense ids; id 0 is reserved.

    Every token must be latin-1 text, the bytes it stands for, so that
    the tokenizer serialises. The vocabulary is not changed after
    construction: the id list, the latin-1 bytes -> id map, the canonical
    bytes and their digest are each built once per tokenizer, when first
    used."""

    vocab: dict[str, int]

    def __post_init__(self):
        ids = sorted(self.vocab.values())
        if ids != list(range(len(self.vocab))):
            raise ValueError("token ids must be dense 0..|vocab|-1")
        try:
            "".join(self.vocab).encode("latin-1")
        except UnicodeEncodeError as exc:
            raise ValueError(f"tokenizer vocabulary is not latin-1 text: {exc}") from None

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

    @cached_property
    def _tokens_by_id(self) -> list[str]:
        tokens = [UNK_TOKEN] * len(self.vocab)
        for tok, tid in self.vocab.items():
            tokens[tid] = tok
        return tokens

    def decode_id(self, token_id: int) -> str:
        if 0 <= token_id < len(self._tokens_by_id):
            return self._tokens_by_id[token_id]
        return UNK_TOKEN

    @cached_property
    def _ids_of_bytes(self) -> dict[bytes, int]:
        """Token id by the token's latin-1 bytes, the form records are split into."""
        return {tok.encode("latin-1"): tid for tok, tid in self.vocab.items()}

    @cached_property
    def _canonical(self) -> bytes:
        entries = sorted(self._ids_of_bytes.items())
        return u32(len(entries)) + b"".join(
            [_pack_u32(len(tok)) + tok + _pack_u32(tid) for tok, tid in entries]
        )

    def serialized_bytes(self) -> bytes:
        """u32 entry count, then (length-prefixed token, u32 id) sorted by token."""
        return self._canonical

    @cached_property
    def digest(self) -> bytes:
        """h(Mtok): the SHA3-256 of the canonical bytes."""
        return sha3_256(self.serialized_bytes())

    def to_json(self) -> dict:
        return {"vocab": dict(sorted(self.vocab.items()))}

    @classmethod
    def from_json(cls, doc: dict) -> "ToyTokenizer":
        check_keys(doc, ("vocab",), "tokenizer")
        vocab = doc["vocab"]
        return cls(dict(zip(map(str, vocab), _json_ints(vocab.values(), "token id"))))


@dataclass(frozen=True)
class TrainConfig:
    """Seeded training schedule, measured in h(T). Counts ignore record order,
    so `train` counts one pass and scales it by `epochs`: the seeded order
    that `sampling` names is measured but never replayed."""

    seed: int = 0
    epochs: int = 1
    sampling: str = "sequential"  # or "shuffled"

    def __post_init__(self):
        if self.sampling not in ("sequential", "shuffled"):
            raise ValueError(f"unknown sampling {self.sampling!r}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed {self.seed} outside [0, 2**64)")
        if not 0 <= self.epochs < 2**32:
            raise ValueError(f"epochs {self.epochs} outside [0, 2**32)")

    def serialized_bytes(self) -> bytes:
        tag = 0 if self.sampling == "sequential" else 1
        return u64(self.seed) + u32(self.epochs) + bytes([tag])

    def to_json(self) -> dict:
        return {"seed": self.seed, "epochs": self.epochs, "sampling": self.sampling}

    @classmethod
    def from_json(cls, doc: dict) -> "TrainConfig":
        check_keys(doc, ("seed", "epochs", "sampling"), "train config")
        seed, epochs = _json_ints((doc["seed"], doc["epochs"]), "seed or epochs")
        return cls(seed, epochs, str(doc["sampling"]))


class ToyModel:
    """Count table sorted by (context, token); prediction is argmax with lowest-id ties.

    A unigram model keeps all counts under context 0; a bigram model keys
    them by the previous token id, with 0 doubling as the start context.

    The table is columnar. `tokens` (u32) and `freqs` (u64) hold one row per
    (context, token) entry, sorted by context and then token; `contexts`
    (u32) lists the context ids in order and `starts` (one longer) bounds
    each context's run of rows. A context may have no rows: the dict form
    `ToyModel(kind, {ctx: {}})` serialises its header, so the table keeps it.
    `counts` is the dict form, built when read. The columns are read-only,
    so one model can serve many requests at once, and its canonical bytes
    and their digest are built once, when first asked for.

    A model has two constructors. `_checked` takes rows as Python ints, in
    any order, range-checks and sorts them; `ToyModel(kind, counts)` and
    `from_json` build through it, and neither passes on an id or a count
    that is not an exact int. `_from_rows` takes numpy rows already
    sorted, as `train`, `optimize` and `_summed` make them, and checks
    nothing. `ToyModel(...)` is `__new__`, so that it can return the model
    `_from_rows` builds.
    """

    __slots__ = ("kind", "contexts", "starts", "tokens", "freqs", "_canonical", "_digest")

    def __new__(cls, kind: str, counts: Optional[dict[int, dict[int, int]]] = None):
        counts = counts or {}
        return cls._checked(
            kind,
            _json_ints(counts, "context id"),
            [len(entries) for entries in counts.values()],
            _json_ints(chain.from_iterable(counts.values()), "token id"),
            _json_ints(chain.from_iterable(map(dict.values, counts.values())), "count"),
        )

    @classmethod
    def _checked(
        cls, kind: str, contexts: list, sizes: list, tokens: Iterable, freqs: Iterable
    ) -> "ToyModel":
        """A model over rows given as Python ints: `contexts` with `sizes`
        rows each, then the token and count of every row, context by
        context, in any order of contexts and of tokens within one. Each
        column is range-checked, then the rows are sorted once by
        (context, token)."""
        check_kind(kind)
        contexts = _column(contexts, np.uint32, len(contexts), "context id")
        ctx = np.repeat(contexts, sizes)
        tokens = _column(tokens, np.uint32, len(ctx), "token id")
        freqs = _column(freqs, np.uint64, len(ctx), "count")
        order = np.argsort((ctx.astype(np.uint64) << 32) | tokens)
        return cls._from_rows(kind, ctx[order], tokens[order], freqs[order], np.sort(contexts))

    @classmethod
    def _from_rows(cls, kind, ctx, tokens, freqs, contexts=None) -> "ToyModel":
        """A model over numpy rows already sorted by (context, token), taken
        as given. `contexts`, a sorted superset of the rows' context ids,
        adds contexts with no rows."""
        model = object.__new__(cls)
        model.kind = kind
        if contexts is None:  # the first id of each run of the sorted context column
            contexts = ctx[np.r_[True, ctx[1:] != ctx[:-1]][: len(ctx)]]
        model.contexts = contexts.astype(np.uint32, copy=False)
        model.starts = np.append(np.searchsorted(ctx, model.contexts), len(ctx)).astype(np.int64)
        model.tokens = tokens.astype(np.uint32, copy=False)
        model.freqs = freqs.astype(np.uint64, copy=False)
        for column in (model.contexts, model.starts, model.tokens, model.freqs):
            column.flags.writeable = False
        return model

    def _rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(context, token, count) columns, one entry per row."""
        return np.repeat(self.contexts, np.diff(self.starts)), self.tokens, self.freqs

    @classmethod
    def empty(cls, kind: str) -> "ToyModel":
        return cls(kind, {})

    @property
    def counts(self) -> dict[int, dict[int, int]]:
        tokens, freqs, starts = self.tokens.tolist(), self.freqs.tolist(), self.starts.tolist()
        return {
            ctx: dict(zip(tokens[lo:hi], freqs[lo:hi]))
            for ctx, lo, hi in zip(self.contexts.tolist(), starts, starts[1:])
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, ToyModel):
            return NotImplemented
        return self.kind == other.kind and all(
            np.array_equal(getattr(self, col), getattr(other, col))
            for col in ("contexts", "starts", "tokens", "freqs")
        )

    def __repr__(self) -> str:
        return f"ToyModel({self.kind!r}, {len(self.contexts)} contexts, {len(self.tokens)} entries)"

    def predict(self, context: int) -> int:
        """Most frequent token for the context; ties to the lowest id; empty → 0."""
        key = 0 if self.kind == "unigram" else context
        i = int(np.searchsorted(self.contexts, key))
        if i == len(self.contexts) or self.contexts[i] != key:
            return UNK_ID
        lo, hi = self.starts[i], self.starts[i + 1]
        if lo == hi:
            return UNK_ID
        return int(self.tokens[lo + np.argmax(self.freqs[lo:hi])])

    def serialized_bytes(self) -> bytes:
        """Kind byte, u32 context count, per context u32 id + sorted u64 counts.

        After the first five bytes everything is a little-endian u32 word:
        two per context header (id, entry count), then three per entry
        (token, low and high half of the count)."""
        try:
            return self._canonical
        except AttributeError:
            pass
        n_ctx, n = len(self.contexts), len(self.tokens)
        words = np.empty(2 * n_ctx + 3 * n, "<u4")
        header = np.zeros(len(words), bool)
        at = 2 * np.arange(n_ctx) + 3 * self.starts[:-1]
        header[at] = header[at + 1] = True
        words[at] = self.contexts
        words[at + 1] = np.diff(self.starts)
        entries = np.empty((n, 3), "<u4")
        entries[:, 0] = self.tokens
        entries[:, 1:] = np.asarray(self.freqs, "<u8").view("<u4").reshape(n, 2)
        words[~header] = entries.reshape(-1)
        self._canonical = b"".join((bytes([_KIND_BYTE[self.kind]]), u32(n_ctx), words))
        return self._canonical

    @property
    def digest(self) -> bytes:
        """The SHA3-256 of the canonical bytes: h(M), h(Madp) or h(Mar) of an input."""
        try:
            return self._digest
        except AttributeError:
            self._digest = sha3_256(self.serialized_bytes())
            return self._digest

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "counts": {
                str(ctx): {str(tid): n for tid, n in entries.items()}
                for ctx, entries in self.counts.items()
            },
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ToyModel":
        """Decode a document in any key order: frames sort keys as strings,
        so "10" arrives before "9". Ids must be canonical decimal keys, so no
        two keys name one id."""
        check_keys(doc, ("kind", "counts"), "model")
        counts = doc["counts"]
        return cls._checked(
            str(doc["kind"]),
            _json_ids(counts, "context id"),
            [len(entries) for entries in counts.values()],
            _json_ids(chain.from_iterable(counts.values()), "token id"),
            _json_ints(chain.from_iterable(map(dict.values, counts.values())), "count"),
        )


# A canonical decimal id key: 0, or up to ten digits with no leading zero.
_ID_KEY = re.compile("0|[1-9][0-9]{0,9}")
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)  # 10 .. 10**18


def _json_ids(keys: Iterable[str], what: str) -> list:
    """Ids named by JSON object keys, as a list of ints. Only a canonical
    decimal key names an id: "01", "+1", " 1", "1_0", "" or a non-ASCII
    digit is refused with a ValueError, never read as the id int() would
    give it.

    The keys are checked and parsed joined by commas, which takes less time
    than an int() per key and less memory than a regular expression over
    the joined text: the text must be ASCII digits between single commas,
    and the decimal forms of the parsed ids must fill it exactly, which a
    leading zero, or a key too long for an int64, would not."""
    keys = list(keys)
    text = ",".join(keys)
    if (text.isascii() and text.replace(",", "").isdigit() and ",," not in text
            and text[0] != "," and text[-1] != ","):
        ids = np.fromstring(text, np.int64, sep=",")
        digits = np.searchsorted(_POW10, ids, "right") + 1
        if len(ids) == len(keys) and int(digits.sum()) + len(ids) - 1 == len(text):
            return ids.tolist()
    elif not keys:
        return []
    bad = next(key for key in keys if not _ID_KEY.fullmatch(key))
    raise ValueError(f"{what} key {bad!r} is outside the canonical ids {_ID_KEY.pattern}")


def _json_ints(values: Iterable, what: str) -> list:
    """Decoded JSON numbers, or a model's ids and counts given in process,
    that must be integers, as a list. Only an exact int passes: a float or
    a bool is refused with a ValueError, never truncated to the int it
    would round to."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"{what} {bad!r} is not an integer")
    return values


def check_kind(kind: str) -> str:
    """A model kind the toy operations train; any other value is a ValueError."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    return kind


def _column(values: Iterable, dtype, count: int, what: str) -> np.ndarray:
    """Python ints as a numpy column; a value outside the dtype's range is a ValueError."""
    try:
        return np.fromiter(values, dtype, count)
    except OverflowError:
        bits = np.dtype(dtype).itemsize * 8
        raise ValueError(f"{what} outside [0, 2**{bits})") from None


def _summed(kind: str, models: Sequence[ToyModel]) -> ToyModel:
    """Entry-wise sum over the union of the models' contexts; a sum past u64 raises."""
    ctx, tokens, freqs = (np.concatenate(col) for col in zip(*(m._rows() for m in models)))
    keys = (ctx.astype(np.uint64) << 32) | tokens
    order = np.argsort(keys)
    keys, first = np.unique(keys[order], return_index=True)
    freqs = freqs[order]
    if len(freqs):
        # Exact u64 sums: add the high and low 32-bit halves apart.
        high = np.add.reduceat(freqs >> 32, first)
        low = np.add.reduceat(freqs & 0xFFFFFFFF, first)
        if np.any((high + (low >> 32)) >> 32):
            raise ValueError("finetuned count overflows u64")
        freqs = (high << 32) + low
    contexts = np.unique(np.concatenate([m.contexts for m in models]))
    return ToyModel._from_rows(kind, keys >> 32, keys & 0xFFFFFFFF, freqs, contexts)


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
    records: Iterable[bytes],
    config: TrainConfig,
    tokenizer: ToyTokenizer,
) -> ToyModel:
    """Count (context, token) pairs over one pass of the records, times epochs.

    An epoch holds every record once and no pair crosses a record boundary,
    so E epochs count exactly E times what one pass counts, in any sampling
    order: the schedule is measured in h(T) but never replayed. The pass is
    read whole even at 0 epochs, which give the empty model. Records are
    tokenised in order, then all pairs are counted by one sort of their keys
    `context * |vocab| + token`, which leaves the rows in (context, token)
    order. A count past u64 raises.
    """
    check_kind(kind)
    ids_of = tokenizer._ids_of_bytes
    split = [record.split() for record in records]
    if not config.epochs:
        return ToyModel.empty(kind)
    ids = np.array(list(map(ids_of.get, chain.from_iterable(split), repeat(UNK_ID))), np.uint64)
    prev = np.zeros_like(ids)
    if kind == "bigram":
        prev[1:] = ids[:-1]
        firsts = np.cumsum([0] + [len(tokens) for tokens in split[:-1]], dtype=np.int64)
        prev[firsts[firsts < len(ids)]] = 0
    width = np.uint64(max(len(tokenizer.vocab), 1))
    keys, freqs = np.unique(prev * width + ids, return_counts=True)
    if len(freqs) and int(freqs.max()) * config.epochs >= 2**64:
        raise ValueError("trained count overflows u64")
    freqs = freqs.astype(np.uint64) * np.uint64(config.epochs)
    # A unigram model that sampled any record has context 0, tokens or not.
    contexts = np.zeros(min(len(split), 1), np.uint32) if kind == "unigram" else None
    return ToyModel._from_rows(kind, keys // width, keys % width, freqs, contexts)


def optimize(
    model: ToyModel,
    tokenizer: ToyTokenizer,
    config: TrainConfig,
    id_opt: str,
    adp: Optional[ToyModel] = None,
    d_opt: Optional[Iterable[bytes]] = None,
) -> ToyModel:
    """Apply one named optimization; finetune consumes d_opt, the others must not."""
    if id_opt not in OPTIMIZATIONS:
        raise UnknownOptimization(f"no optimization named {id_opt!r}")
    if id_opt == "finetune":
        if d_opt is None:
            raise MissingDataset("finetune requires an optimization dataset")
        if adp is not None and adp.kind != model.kind:
            raise ValueError(f"adapter kind {adp.kind!r} != model kind {model.kind!r}")
        parts = [model, train(model.kind, d_opt, config, tokenizer)]
        return _summed(model.kind, parts + ([] if adp is None else [adp]))
    if d_opt is not None:
        raise ValueError(f"{id_opt!r} does not take an optimization dataset")
    ctx, tokens, freqs = model._rows()
    if id_opt == "quantize":
        freqs = freqs // 16
        kept = freqs > 0
    else:  # prune
        kept = freqs >= 2
    return ToyModel._from_rows(model.kind, ctx[kept], tokens[kept], freqs[kept])


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
