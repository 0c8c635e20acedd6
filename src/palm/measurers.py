"""Per-operation measurement sets: labeled input and output digests.

Each measurer runs one toy operation and states the evidence a quote will
bind through one function (_measured): an ordered list of labeled input
measurements (H_I) and output measurements (H_O). _measured appends the
GPU attestation token, when one was produced, last in H_I under the label
"GPU_att"; its absence from an operation that declared GPU use is a
verifier-visible condition, so measurers never fabricate a placeholder. It
derives each H_O entry "h(x)" as the SHA3 of the output payload x, built
when the run is measured; only a mapped Preprocessing's MSH(Dpre) and
MeasurementBinding's tie of two digests are derived by their measurers.
Model and tokenizer inputs are measured by their `digest`, the SHA3-256 of
their canonical bytes, which each object takes once, on first use: a model
or tokenizer that the prover's decode cache keeps is measured once, however
many requests it serves. Dataset inputs are measured according to how the
dataset is held: a plain SHA3-256 over the file bytes when it was loaded
whole (label "h(role)"), or the sample-time multiset digest when it is
memory-mapped (label "MSH(role)"). An operation is named by its key in
OP_CODES, which lists each operation's labels.

A set has one encoding, serialized_bytes: the bytes whose SHA3 a quote
binds, and the bytes a response carries. MeasurementSet.from_bytes is the
one parser of them, and it accepts only bytes it would write back
unchanged.

Every operation on a dataset handle makes one pass over it (_one_pass), so
a mapped dataset streams into the operation in one exactly-once epoch and
no copy of it is built; Training's epochs scale the counts of that pass.
The pass reads a mapped dataset in runs of consecutive records, each
claimed, read and measured as one unit (MappedDataset.sample_run): the
run's read buffer is one batch of the handle's accumulator, hashed here or,
for a handle opened with an MshPool, by the pool's workers. Either way
every record is claimed and consumed here, once, and the bytes consumed are
the bytes hashed. A mapped Preprocessing measures Dpre through a companion
of the handle's accumulator (MshAccumulator.companion), fed the records the
operation consumes: each batch hashes its records and their preprocessed
forms together, so this process runs preproc_record for the measurement
only where the batch is hashed, and for the payload only when the run
keeps Dpre.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, TypeVar, Union

from . import msh
from .dataset import (
    InMemoryDataset,
    MappedDataset,
    finish_epoch,
    pack_records,
    record_spans,
)
from .encoding import Reader, lp, sha3_256, u32
from .errors import FormatError, IncompleteEpoch
from .msh import MshAccumulator, MshDigest, msh_of_records
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

# Wire code and closed label schema per operation, by operation name (h_D
# is h or MSH as the dataset is held; _measured appends GPU_att, when there
# is a token, last in H_I, and derives each h(...) entry of H_O).
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

_OP_NAMES = {code: name for name, code in OP_CODES.items()}

GPU_LABEL = "GPU_att"
BINDING_LABEL = "h(h(D)||MSH(D))"

Dataset = Union[InMemoryDataset, MappedDataset]
T = TypeVar("T")


@dataclass(frozen=True)
class LabeledMeasurement:
    label: str
    data: bytes

    def __post_init__(self):
        if not (isinstance(self.label, str) and self.label.isascii()):
            raise ValueError(f"label {self.label!r} is not ASCII text")
        if not self.data:
            raise ValueError(f"empty measurement bytes for {self.label!r}")


@dataclass(frozen=True)
class MeasurementSet:
    """The evidence of one run of the operation named `op`, a key of OP_CODES."""

    op: str
    h_i: tuple[LabeledMeasurement, ...]
    h_o: tuple[LabeledMeasurement, ...]

    def __post_init__(self):
        if self.op not in OP_CODES:
            raise ValueError(f"unknown operation {self.op!r}")

    def serialized_bytes(self) -> bytes:
        """Op code byte, then each list as u32 count + (label, bytes) entries."""
        out = bytearray([OP_CODES[self.op]])
        for group in (self.h_i, self.h_o):
            out += u32(len(group))
            for entry in group:
                out += lp(entry.label.encode("ascii"))
                out += lp(entry.data)
        return bytes(out)

    def digest(self) -> bytes:
        return sha3_256(self.serialized_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "MeasurementSet":
        """The set whose serialized_bytes are `data`. An unknown op code, a
        truncated count or entry, a label that is not ASCII, empty data or
        a trailing byte is a FormatError, so each set has one encoding."""
        reader = Reader(data)
        op = _OP_NAMES.get(reader.take(1)[0])
        if op is None:
            raise FormatError(f"bad measurement set: unknown op code {data[0]}")
        try:  # latin-1 maps each byte to one character, ASCII to itself
            groups = [tuple(LabeledMeasurement(reader.lp().decode("latin-1"), reader.lp())
                            for _ in range(reader.u32())) for _ in ("h_i", "h_o")]
        except ValueError as exc:
            raise FormatError(f"bad measurement set: {exc}") from exc
        reader.expect_end()
        return cls(op, *groups)


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
    output payloads (keyed by label) a relying party can recheck H_O against,
    or None when the run kept none."""

    result: object
    mset: MeasurementSet
    outputs: Optional[dict[str, bytes]]


def _one_pass(
    ds: Dataset, role: str, op: Callable[[Iterable[bytes]], T]
) -> tuple[T, LabeledMeasurement]:
    """Run an operation over one pass of a dataset and measure the dataset
    in the `role` it plays for the operation.

    Every operation on a dataset handle runs through here. In-memory handles
    hand over the records hashed whole at load: h(role). Mapped handles are
    streamed in index order, in runs of msh.FLUSH_RECORDS records: each run
    is claimed, read and measured by one sample_run call, the operation
    consumes its records one by one, and no record list longer than a run
    is built. The epoch is finished after the pass, so a record withheld,
    served twice, or left unconsumed by the operation fails the run:
    MSH(role). A run is measured before its records are consumed, so an
    operation that stops inside one fails with the records it left.
    """
    if isinstance(ds, InMemoryDataset):
        return op(ds.records), LabeledMeasurement(f"h({role})", ds.file_bytes_hash)
    taken = claimed = 0

    def records() -> Iterator[bytes]:
        nonlocal taken, claimed
        step = msh.FLUSH_RECORDS
        for start in range(0, len(ds), step):
            claimed = min(start + step, len(ds))
            for record in ds.sample_run(start, claimed):
                taken += 1
                yield record

    result = op(records())
    if taken < claimed:
        raise IncompleteEpoch(list(range(taken, claimed)) + ds.missing_indices())
    return result, LabeledMeasurement(f"MSH({role})", finish_epoch(ds).encode())


def _kept(into: list, items: Iterable[T], derive: Callable[[T], object]) -> Iterator[T]:
    """Pass items through unchanged, appending derive(item) to `into` on the way."""
    for item in items:
        into.append(derive(item))
        yield item


def _measured(
    name: str,
    h_i: list[LabeledMeasurement],
    gpu: Optional[GpuToken],
    result: object,
    outputs: dict[str, bytes],
    h_o: Optional[list[LabeledMeasurement]] = None,
    keep: bool = True,
) -> Measured:
    """The evidence of a run of operation `name`, as every measurer states it.

    H_I is `h_i` followed by the GPU token, when there is one. H_O is `h_o`
    when the measurer derives it itself, or else one entry per output
    payload, in order: its label and the SHA3 of the payload. Without `keep`
    (a confidential run) the result and the payloads are measured but not
    kept: both are None."""
    if gpu is not None:
        h_i = [*h_i, LabeledMeasurement(GPU_LABEL, gpu.encode())]
    if h_o is None:
        h_o = [LabeledMeasurement(label, sha3_256(payload)) for label, payload in outputs.items()]
    mset = MeasurementSet(name, tuple(h_i), tuple(h_o))
    return Measured(result, mset, outputs) if keep else Measured(None, mset, None)


def idopt_entry(id_opt: str) -> LabeledMeasurement:
    """The H_I entry that names a WeightOptimization's optimization."""
    return LabeledMeasurement("h(idopt)", sha3_256(id_opt.encode("ascii")))


def measure_preprocessing(
    ds: Dataset, gpu: Optional[GpuToken] = None, keep_output: bool = True
) -> Measured:
    """Dpre is measured the way its input is held: h over its packed form in
    memory, or, when the input is mapped, MSH folded over the preprocessed
    form of each record in the same pass that samples and measures D, by
    the companion of the handle's accumulator.

    Without keep_output (a confidential run, whose outputs are never
    returned) Dpre is measured but not kept: the result and the outputs are
    None, so a mapped run holds no dataset-sized state. A run that keeps
    Dpre preprocesses each consumed record here for the payload, from the
    same bytes the companion measures."""
    if isinstance(ds, InMemoryDataset):
        d_pre, d_entry = _one_pass(ds, "D", preproc)
        return _measured("Preprocessing", [d_entry], gpu, d_pre,
                         {"h(Dpre)": pack_records(d_pre)}, keep=keep_output)
    produced: list[bytes] = []
    d_pre_acc = ds.accumulator.companion()

    def fold(records: Iterable[bytes]) -> MshDigest:
        if keep_output:
            records = _kept(produced, records, preproc_record)
        return msh_of_records(records, into=d_pre_acc)

    d_pre_msh, d_entry = _one_pass(ds, "D", fold)
    out_entry = LabeledMeasurement("MSH(Dpre)", d_pre_msh.encode())
    return _measured("Preprocessing", [d_entry], gpu, tuple(produced),
                     {out_entry.label: pack_records(produced)}, h_o=[out_entry], keep=keep_output)


def measure_attribute_distribution(ds: Dataset, gpu: Optional[GpuToken] = None) -> Measured:
    hist, d_entry = _one_pass(ds, "D", attribute_distribution)
    return _measured("AttributeDistribution", [d_entry], gpu, hist,
                     {"h(Adist)": serialize_distribution(hist)})


def measure_binding(path: str | os.PathLike, gpu: Optional[GpuToken] = None) -> Measured:
    """One read of the file, two digests of the same bytes: the whole-file
    plain hash and the multiset hash of the records it holds, so the file
    cannot change between them. The records are folded from the read bytes
    as batches of msh.FLUSH_RECORDS spans, so the peak is the file plus one
    batch; a layout fault raises the same FormatError a mapped handle
    would. The single output entry ties the two digests together, and a GPU
    token, when there is one, is quoted like any operation's."""
    with open(path, "rb") as f:
        data = f.read()
    view = memoryview(data)
    spans = record_spans(lambda offset: view[offset:], len(data))
    acc = MshAccumulator()
    for start in range(0, len(spans), msh.FLUSH_RECORDS):
        acc.insert_spans(data, spans[start : start + msh.FLUSH_RECORDS])
    plain = sha3_256(data)
    multiset = acc.finalize().encode()
    return _measured("MeasurementBinding", [], gpu, (plain, multiset),
                     {"h(D)": plain, "MSH(D)": multiset},
                     h_o=[LabeledMeasurement(BINDING_LABEL, sha3_256(plain + multiset))])


def measure_training(
    arch: str,
    ds_tr: Dataset,
    config: TrainConfig,
    tokenizer: ToyTokenizer,
    gpu: Optional[GpuToken] = None,
) -> Measured:
    model, d_entry = _one_pass(
        ds_tr, "Dtr", lambda records: train(arch, records, config, tokenizer)
    )
    h_i = [
        LabeledMeasurement("h(Mar)", ToyModel.empty(arch).digest),
        d_entry,
        LabeledMeasurement("h(T)", sha3_256(config.serialized_bytes())),
        LabeledMeasurement("h(Mtok)", tokenizer.digest),
    ]
    return _measured("Training", h_i, gpu, model, {"h(Mtr)": model.serialized_bytes()})


def measure_optimization(
    model: ToyModel,
    tokenizer: ToyTokenizer,
    config: TrainConfig,
    id_opt: str,
    adp: Optional[ToyModel] = None,
    ds_opt: Optional[Dataset] = None,
    gpu: Optional[GpuToken] = None,
) -> Measured:
    opt_entry = None
    if ds_opt is None:
        optimized = optimize(model, tokenizer, config, id_opt, adp)
    else:
        optimized, opt_entry = _one_pass(
            ds_opt, "Dopt", lambda d_opt: optimize(model, tokenizer, config, id_opt, adp, d_opt)
        )
    h_i = [
        LabeledMeasurement("h(M)", model.digest),
        LabeledMeasurement("h(Mtok)", tokenizer.digest),
        LabeledMeasurement("h(T)", sha3_256(config.serialized_bytes())),
        idopt_entry(id_opt),
    ]
    if adp is not None:
        h_i.append(LabeledMeasurement("h(Madp)", adp.digest))
    if opt_entry is not None:
        h_i.append(opt_entry)
    return _measured("WeightOptimization", h_i, gpu, optimized,
                     {"h(Mopt)": optimized.serialized_bytes()})


def measure_evaluation(
    model: ToyModel,
    tokenizer: ToyTokenizer,
    ds_te: Dataset,
    gpu: Optional[GpuToken] = None,
) -> Measured:
    metric, d_entry = _one_pass(ds_te, "Dte", lambda records: evaluate(model, tokenizer, records))
    h_i = [
        LabeledMeasurement("h(M)", model.digest),
        LabeledMeasurement("h(Mtok)", tokenizer.digest),
        d_entry,
    ]
    return _measured("Evaluation", h_i, gpu, metric, {"h(metric)": metric.encode("ascii")})


def measure_inference(
    model: ToyModel,
    tokenizer: ToyTokenizer,
    query: bytes,
    gpu: Optional[GpuToken] = None,
) -> Measured:
    response = infer(model, tokenizer, query)
    h_i = [
        LabeledMeasurement("h(M)", model.digest),
        LabeledMeasurement("h(Mtok)", tokenizer.digest),
        LabeledMeasurement("h(q)", sha3_256(query)),
    ]
    return _measured("SingleInference", h_i, gpu, response, {"h(r)": response.encode("latin-1")})


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
    h_i = [
        LabeledMeasurement("h(q)", sha3_256(query)),
        LabeledMeasurement("h(Mtok)", tokenizer.digest),
        LabeledMeasurement("h(M)", model.digest),
    ]
    return _measured("SessionInference", h_i, gpu, (response, new_history),
                     {"h(r)": r_bytes, "h(H)": serialize_history(new_history)})
