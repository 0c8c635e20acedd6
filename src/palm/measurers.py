"""Per-operation measurement sets: labeled input and output digests.

Each measurer runs one toy operation and assembles the evidence a quote
will bind: an ordered list of labeled input measurements (H_I) and output
measurements (H_O). Dataset inputs are measured according to how the
dataset is held: a plain SHA3-256 over the file bytes when it was loaded
whole (label "h(role)"), or the sample-time multiset digest when it is
memory-mapped (label "MSH(role)"). A GPU attestation token, when one was
produced, rides in H_I under the label "GPU_att"; its absence from an
operation that declared GPU use is a verifier-visible condition, so
measurers never fabricate a placeholder. OP_CODES lists each operation's
labels.

Measurers that take a dataset also take an optional MshPool. A mapped epoch
is then hashed by the pool's workers: every record is still sampled, claimed
and consumed here, once, and the bytes consumed are the bytes hashed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional, TypeVar, Union

from .dataset import (
    DatasetHash,
    InMemoryDataset,
    MappedDataset,
    finish_epoch,
    pack_records,
    record_spans,
)
from .encoding import lp, sha3_256, u32
from .errors import FormatError, PalmError
from .msh import MshAccumulator, MshPool, msh_of_records
from .toyops import (
    History,
    ToyModel,
    ToyTokenizer,
    TrainConfig,
    attribute_distribution,
    evaluate,
    infer,
    infer_session,
    optimize,
    preproc,
    preproc_record,
    serialize_distribution,
    serialize_history,
    train,
)

# Wire code and closed label schema per operation (h_D is h or MSH as the
# dataset is held; GPU_att, when present, is last in H_I).
OP_CODES = {                     # H_I                                  H_O
    "Preprocessing": 1,          # [h_D(D)]                             [h_D(Dpre)]
    "AttributeDistribution": 2,  # [h_D(D)]                             [h(Adist)]
    "MeasurementBinding": 3,     # []                                   [h(h(D)||MSH(D))]
    "Training": 4,               # [h(Mar), h_D(Dtr), h(T), h(Mtok)]    [h(Mtr)]
    "WeightOptimization": 5,     # [h(M), h(Mtok), h(T), h(idopt),      [h(Mopt)]
                                 #  h(Madp)?, h_D(Dopt)?]
    "Evaluation": 6,             # [h(M), h(Mtok), h_D(Dte)]            [h(metric)]
    "SingleInference": 7,        # [h(M), h(Mtok), h(q)]                [h(r)]
    "SessionInference": 8,       # [h(q), h(Mtok), h(M)]                [h(r), h(H)]
}

GPU_LABEL = "GPU_att"
BINDING_LABEL = "h(h(D)||MSH(D))"

Dataset = Union[InMemoryDataset, MappedDataset]
T = TypeVar("T")


@dataclass(frozen=True)
class OperationId:
    """One of the eight measured operations; optimizations carry their id."""

    name: str
    id_opt: Optional[str] = None

    def __post_init__(self):
        if self.name not in OP_CODES:
            raise ValueError(f"unknown operation {self.name!r}")
        if (self.id_opt is not None) != (self.name == "WeightOptimization"):
            raise ValueError("id_opt is set iff the operation is WeightOptimization")

    @property
    def code(self) -> int:
        return OP_CODES[self.name]


@dataclass(frozen=True)
class LabeledMeasurement:
    label: str
    data: bytes

    def __post_init__(self):
        if not self.data:
            raise ValueError(f"empty measurement bytes for {self.label!r}")


@dataclass(frozen=True)
class MeasurementSet:
    op: OperationId
    h_i: tuple[LabeledMeasurement, ...]
    h_o: tuple[LabeledMeasurement, ...]

    def serialized_bytes(self) -> bytes:
        """Op code byte, then each list as u32 count + (label, bytes) entries."""
        out = bytearray([self.op.code])
        for group in (self.h_i, self.h_o):
            out += u32(len(group))
            for entry in group:
                out += lp(entry.label.encode("ascii"))
                out += lp(entry.data)
        return bytes(out)

    def digest(self) -> bytes:
        return sha3_256(self.serialized_bytes())

    def to_json(self) -> dict:
        doc = {
            "op": self.op.name,
            "h_i": [{"label": e.label, "hex": e.data.hex()} for e in self.h_i],
            "h_o": [{"label": e.label, "hex": e.data.hex()} for e in self.h_o],
        }
        if self.op.id_opt is not None:
            doc["id_opt"] = self.op.id_opt
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "MeasurementSet":
        try:
            op = OperationId(doc["op"], doc.get("id_opt"))
            h_i = tuple(
                LabeledMeasurement(e["label"], bytes.fromhex(e["hex"]))
                for e in doc["h_i"]
            )
            h_o = tuple(
                LabeledMeasurement(e["label"], bytes.fromhex(e["hex"]))
                for e in doc["h_o"]
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad measurement set: {exc}") from exc
        return cls(op, h_i, h_o)


@dataclass(frozen=True)
class GpuToken:
    """Simulated accelerator evidence: state digest, nonce, signature over both."""

    gpu_measurement: bytes
    nonce: bytes
    signature: bytes

    def __post_init__(self):
        if len(self.gpu_measurement) != 32 or len(self.nonce) != 32:
            raise ValueError("gpu_measurement and nonce must be 32 bytes")
        if len(self.signature) != 64:
            raise ValueError("signature must be 64 bytes")

    def encode(self) -> bytes:
        return self.gpu_measurement + self.nonce + self.signature

    @classmethod
    def decode(cls, data: bytes) -> "GpuToken":
        if len(data) != 128:
            raise FormatError(f"GPU token must be 128 bytes, got {len(data)}")
        return cls(data[:32], data[32:64], data[64:])

    def signed_body(self) -> bytes:
        return self.gpu_measurement + self.nonce


@dataclass(frozen=True)
class Measured:
    """Result of a measured run: the operation output, its evidence, and the
    output payloads (keyed by label) a relying party can recheck H_O against.

    Payloads are built on first access of `outputs`, so a confidential run,
    whose payloads are never returned, never pays for them."""

    result: object
    mset: MeasurementSet
    payloads: Callable[[], dict[str, bytes]] = field(repr=False, compare=False)

    @cached_property
    def outputs(self) -> dict[str, bytes]:
        return self.payloads()


def _dataset_entry(role: str, dh: DatasetHash) -> LabeledMeasurement:
    if dh.kind == "plain":
        return LabeledMeasurement(f"h({role})", dh.plain)
    return LabeledMeasurement(f"MSH({role})", dh.multiset.encode())


def _sampled(ds: MappedDataset, into: MshAccumulator) -> Iterator[bytes]:
    """One exactly-once epoch in index order; each record is measured into
    `into` as it is sampled, one sample_record call per index."""
    for index in range(len(ds)):
        yield ds.sample_record(index, into)


def _one_pass(
    ds: Dataset, op: Callable[[Iterable[bytes]], T], pool: Optional[MshPool] = None
) -> tuple[T, DatasetHash]:
    """Run a single-pass operation over a dataset and measure the dataset.

    In-memory handles hand over the records hashed whole at load. Mapped
    handles are streamed: the operation consumes each record as
    sample_record returns it, no record list is built, and the epoch is
    finished after the pass, so a record withheld, served twice, or left
    unconsumed by the operation fails the run. The records are folded into
    an accumulator (hashed by the pool's workers when there is a pool) that
    finish_epoch merges as a partial, under the same bitmap and count checks.
    """
    if isinstance(ds, InMemoryDataset):
        return op(ds.records), ds.dataset_hash()
    acc = MshAccumulator(ds.params, pool)
    result = op(_sampled(ds, acc))
    return result, finish_epoch(ds, [acc])


def _ingest(
    ds: Dataset, pool: Optional[MshPool] = None
) -> tuple[tuple[bytes, ...], DatasetHash]:
    """Pull all records out of a dataset handle along with its measurement.

    Used by the operations that pass over the records several times:
    Training and WeightOptimization run epochs. In-memory handles were
    hashed whole at load. Mapped handles get one full exactly-once epoch
    here, measuring each record as it is sampled; the records are
    materialized so later passes stay inside already-measured memory.
    Single-pass operations use _one_pass instead and build no record list.
    """
    return _one_pass(ds, tuple, pool)


def _kept(into: list, items: Iterable[T]) -> Iterator[T]:
    """Pass items through unchanged, appending each to `into` on the way."""
    for item in items:
        into.append(item)
        yield item


def _with_gpu(h_i: list[LabeledMeasurement], gpu: Optional[GpuToken]) -> tuple:
    if gpu is not None:
        h_i = h_i + [LabeledMeasurement(GPU_LABEL, gpu.encode())]
    return tuple(h_i)


def _not_kept() -> dict[str, bytes]:
    raise PalmError("outputs were not kept: the run was measured without them")


def measure_preprocessing(
    ds: Dataset,
    gpu: Optional[GpuToken] = None,
    pool: Optional[MshPool] = None,
    keep_output: bool = True,
) -> Measured:
    """Dpre is measured the way its input is held: h over its packed form in
    memory, or MSH folded as each preprocessed record is produced when the
    input is mapped, in the same pass that samples and measures D.

    Without keep_output (a confidential run, whose outputs are never
    returned) Dpre is measured but not kept: the result is None and reading
    the outputs raises, so a mapped run holds no dataset-sized state."""
    if isinstance(ds, InMemoryDataset):
        d_pre = preproc(ds.records)
        packed = pack_records(d_pre)
        dh = ds.dataset_hash()
        out_entry = LabeledMeasurement("h(Dpre)", sha3_256(packed))
    else:
        produced: list[bytes] = []
        acc = MshAccumulator(ds.params, pool)
        d_pre_stream = map(preproc_record, _sampled(ds, acc))
        if keep_output:
            d_pre_stream = _kept(produced, d_pre_stream)
        d_pre_msh = msh_of_records(d_pre_stream, pool=pool)
        dh = finish_epoch(ds, [acc])
        d_pre = tuple(produced)
        out_entry = LabeledMeasurement("MSH(Dpre)", d_pre_msh.encode())
        packed = None  # packed only if the payload is read
    mset = MeasurementSet(
        OperationId("Preprocessing"),
        _with_gpu([_dataset_entry("D", dh)], gpu),
        (out_entry,),
    )
    if not keep_output:
        return Measured(None, mset, _not_kept)
    return Measured(d_pre, mset, lambda: {out_entry.label: packed or pack_records(d_pre)})


def measure_attribute_distribution(
    ds: Dataset, gpu: Optional[GpuToken] = None, pool: Optional[MshPool] = None
) -> Measured:
    hist, dh = _one_pass(ds, attribute_distribution, pool)
    ser = serialize_distribution(hist)
    mset = MeasurementSet(
        OperationId("AttributeDistribution"),
        _with_gpu([_dataset_entry("D", dh)], gpu),
        (LabeledMeasurement("h(Adist)", sha3_256(ser)),),
    )
    return Measured(hist, mset, lambda: {"h(Adist)": ser})


def measure_binding(path: str | os.PathLike) -> Measured:
    """One read of the file, two digests of the same bytes: the whole-file
    plain hash and the multiset hash of the records it holds, so the file
    cannot change between them. The records are hashed from views into the
    read bytes, so the peak is the file itself; a layout fault raises the
    same FormatError a mapped handle would. The single output entry ties
    the two digests together."""
    with open(path, "rb") as f:
        data = f.read()
    view = memoryview(data)
    acc = MshAccumulator()
    for offset, length in record_spans(lambda offset: view[offset:], len(data)):
        acc.insert(view[offset : offset + length])
    plain = sha3_256(data)
    msh = acc.finalize().encode()
    mset = MeasurementSet(
        OperationId("MeasurementBinding"),
        (),
        (LabeledMeasurement(BINDING_LABEL, sha3_256(plain + msh)),),
    )
    return Measured((plain, msh), mset, lambda: {"h(D)": plain, "MSH(D)": msh})


def measure_training(
    arch: str,
    ds_tr: Dataset,
    config: TrainConfig,
    tokenizer: ToyTokenizer,
    gpu: Optional[GpuToken] = None,
    pool: Optional[MshPool] = None,
) -> Measured:
    records, dh = _ingest(ds_tr, pool)
    model = train(arch, records, config, tokenizer)
    model_bytes = model.serialized_bytes()
    mset = MeasurementSet(
        OperationId("Training"),
        _with_gpu(
            [
                LabeledMeasurement("h(Mar)", sha3_256(ToyModel.empty(arch).serialized_bytes())),
                _dataset_entry("Dtr", dh),
                LabeledMeasurement("h(T)", sha3_256(config.serialized_bytes())),
                LabeledMeasurement("h(Mtok)", sha3_256(tokenizer.serialized_bytes())),
            ],
            gpu,
        ),
        (LabeledMeasurement("h(Mtr)", sha3_256(model_bytes)),),
    )
    return Measured(model, mset, lambda: {"h(Mtr)": model_bytes})


def measure_optimization(
    model: ToyModel,
    tokenizer: ToyTokenizer,
    config: TrainConfig,
    id_opt: str,
    adp: Optional[ToyModel] = None,
    ds_opt: Optional[Dataset] = None,
    gpu: Optional[GpuToken] = None,
    pool: Optional[MshPool] = None,
) -> Measured:
    d_opt_records = None
    opt_dh = None
    if ds_opt is not None:
        d_opt_records, opt_dh = _ingest(ds_opt, pool)
    optimized = optimize(model, tokenizer, config, id_opt, adp, d_opt_records)
    optimized_bytes = optimized.serialized_bytes()
    h_i = [
        LabeledMeasurement("h(M)", sha3_256(model.serialized_bytes())),
        LabeledMeasurement("h(Mtok)", sha3_256(tokenizer.serialized_bytes())),
        LabeledMeasurement("h(T)", sha3_256(config.serialized_bytes())),
        LabeledMeasurement("h(idopt)", sha3_256(id_opt.encode("ascii"))),
    ]
    if adp is not None:
        h_i.append(LabeledMeasurement("h(Madp)", sha3_256(adp.serialized_bytes())))
    if opt_dh is not None:
        h_i.append(_dataset_entry("Dopt", opt_dh))
    mset = MeasurementSet(
        OperationId("WeightOptimization", id_opt),
        _with_gpu(h_i, gpu),
        (LabeledMeasurement("h(Mopt)", sha3_256(optimized_bytes)),),
    )
    return Measured(optimized, mset, lambda: {"h(Mopt)": optimized_bytes})


def measure_evaluation(
    model: ToyModel,
    tokenizer: ToyTokenizer,
    ds_te: Dataset,
    gpu: Optional[GpuToken] = None,
    pool: Optional[MshPool] = None,
) -> Measured:
    metric, dh = _one_pass(ds_te, lambda records: evaluate(model, tokenizer, records), pool)
    metric_bytes = metric.encode("ascii")
    mset = MeasurementSet(
        OperationId("Evaluation"),
        _with_gpu(
            [
                LabeledMeasurement("h(M)", sha3_256(model.serialized_bytes())),
                LabeledMeasurement("h(Mtok)", sha3_256(tokenizer.serialized_bytes())),
                _dataset_entry("Dte", dh),
            ],
            gpu,
        ),
        (LabeledMeasurement("h(metric)", sha3_256(metric_bytes)),),
    )
    return Measured(metric, mset, lambda: {"h(metric)": metric_bytes})


def measure_inference(
    model: ToyModel,
    tokenizer: ToyTokenizer,
    query: bytes,
    gpu: Optional[GpuToken] = None,
) -> Measured:
    response = infer(model, tokenizer, query)
    r_bytes = response.encode("latin-1")
    mset = MeasurementSet(
        OperationId("SingleInference"),
        _with_gpu(
            [
                LabeledMeasurement("h(M)", sha3_256(model.serialized_bytes())),
                LabeledMeasurement("h(Mtok)", sha3_256(tokenizer.serialized_bytes())),
                LabeledMeasurement("h(q)", sha3_256(query)),
            ],
            gpu,
        ),
        (LabeledMeasurement("h(r)", sha3_256(r_bytes)),),
    )
    return Measured(response, mset, lambda: {"h(r)": r_bytes})


def measure_session_inference(
    model: ToyModel,
    tokenizer: ToyTokenizer,
    history: History,
    query: bytes,
    gpu: Optional[GpuToken] = None,
) -> Measured:
    response = infer_session(model, tokenizer, history, query)
    r_bytes = response.encode("latin-1")
    new_history = history + ((query, r_bytes),)
    history_bytes = serialize_history(new_history)
    mset = MeasurementSet(
        OperationId("SessionInference"),
        _with_gpu(
            [
                LabeledMeasurement("h(q)", sha3_256(query)),
                LabeledMeasurement("h(Mtok)", sha3_256(tokenizer.serialized_bytes())),
                LabeledMeasurement("h(M)", sha3_256(model.serialized_bytes())),
            ],
            gpu,
        ),
        (
            LabeledMeasurement("h(r)", sha3_256(r_bytes)),
            LabeledMeasurement("h(H)", sha3_256(history_bytes)),
        ),
    )
    return Measured(
        (response, new_history), mset, lambda: {"h(r)": r_bytes, "h(H)": history_bytes}
    )
