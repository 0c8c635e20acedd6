"""Four-party attestation flow: request, prove, and verify.

An initiator builds a request naming an operation, its inputs, and a
challenge. The prover runs the operation inside its simulated trust
domain, binds the resulting measurement set and the challenge into a
signed quote, and returns quote + measurement set + (optionally) the
output payloads. A response document carries each of them as canonical
base64 of bytes, the measurement set as the very bytes whose SHA3 the
quote binds (MeasurementSet.serialized_bytes), read back by the one
strict parser MeasurementSet.from_bytes. The verifier is non-interactive:
its only inputs are that response, the echoed request, and the trusted
authority's reference store. It runs a fixed check pipeline and reports
every check it ran.

Each operation is one entry of the OPS table: the inputs a request must and
may carry, and the measurer call that runs it. A request checks itself
against its entry when constructed, wherever it was built or decoded; the
prover decodes every input before the measurer runs. Models, adapters and
tokenizers are decoded through the context's DecodeCache, so a prover that
is sent the document it decoded last reuses the object.

Check order (first failure wins, later checks are not executed):

    1 quote_signature          quote parses and verifies under a registered key
    2 challenge_freshness      quote binds the expected challenge; nonces are
                               single-use, timestamps must be within the window
    3 td_image                 h_TD is an accepted trust-domain measurement
    4 td_module                h_module is an accepted module measurement
    5 gpu_evidence             token present and valid when the request declared GPU
    6 measurement_set_binding  cleartext measurement set hashes to the quoted digest,
                               names the requested operation, and quotes h(idopt)
                               of the requested optimization
    7 output_measurements      H_O entries recompute from the returned outputs
    8 reference_values         measurements match registered references (multiset
                               entries may resolve through a registered binding)
"""

from __future__ import annotations

import base64
import json
import marshal
import os
import threading
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Optional

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

from .attestation import (
    H_MODULE,
    Challenge,
    Quote,
    build_report_data,
    create_td_report,
    derive_mac_key,
    derive_private_key,
    gpu_attest,
    measure_td_image,
    qe_sign_quote,
    verify_gpu_token,
    verify_quote,
)
from .dataset import MappedDataset, load_in_memory, unpack_records
from .encoding import check_keys, hex_bytes, sha3_256
from .errors import (
    FormatError,
    MalformedQuote,
    SchemaError,
    SignatureInvalid,
)
from .measurers import (
    BINDING_LABEL,
    GPU_LABEL,
    GpuToken,
    Measured,
    MeasurementSet,
    idopt_entry,
    measure_attribute_distribution,
    measure_binding,
    measure_evaluation,
    measure_inference,
    measure_optimization,
    measure_preprocessing,
    measure_session_inference,
    measure_training,
)
from .msh import MshPool, msh_of_records
from .refstore import ReferenceStore
from .toyops import OPTIMIZATIONS, History, ToyModel, ToyTokenizer, TrainConfig, check_kind

TIMESTAMP_WINDOW_SECONDS = 300

MODES = ("inmem", "mapped")


# --------------------------------------------------------------------------
# Operation table


def _latin1(text, what: str) -> bytes:
    """Request text as the bytes the toy operations consume; text outside
    latin-1 (or not text at all) is a schema fault, not a crash."""
    try:
        return text.encode("latin-1")
    except (AttributeError, UnicodeEncodeError) as exc:
        raise SchemaError(f"{what} is not latin-1 text: {exc}") from exc


def _staged(name, ctx) -> str:
    """A staged file, named by a plain file name: no request reaches a file
    outside the staging directory."""
    if name in ("", ".", "..") or "\0" in name or os.path.basename(name) != name:
        raise SchemaError(f"dataset name {name!r} is not a plain file name")
    return os.path.join(ctx.staging_dir, name)


def _history(pairs, ctx) -> History:
    return tuple((_latin1(q, "history query"), _latin1(r, "history response")) for q, r in pairs)


# Input name -> decoder(value, ctx); id_opt passes as given. Each decoder
# only calls into the toy types, which check their own documents, and
# looks its function up when called, so a harness that replaces one to
# trace it is obeyed.
_DECODERS = {
    "arch": lambda kind, ctx: check_kind(kind),
    "model": lambda doc, ctx: ToyModel.from_json(doc),
    "adapter": lambda doc, ctx: ToyModel.from_json(doc),
    "tokenizer": lambda doc, ctx: ToyTokenizer.from_json(doc),
    "train_config": lambda doc, ctx: TrainConfig.from_json(doc),
    "dataset": _staged,
    "opt_dataset": _staged,
    "query": lambda text, ctx: _latin1(text, "query"),
    "history": _history,
}

# Inputs decoded through the context's DecodeCache, each its own key space.
# The transport attaches them as JSON text.
CACHED_INPUTS = ("model", "adapter", "tokenizer")


class DecodeCache:
    """The last object decoded for each input name, kept with its JSON text.

    A document arrives as its JSON text (UTF-8 bytes, as the transport
    attaches it) or, in process, as a JSON value, whose key is its
    `input_text`; that is the one key form. A hit is a byte comparison, and
    a miss decodes json.loads of the key, so a hit gives what a decode
    would: the no-wrong-hit property holds by construction. JSON text keeps
    types exact, so a count of `true` or `1.0` never finds the entry of a
    `1`. An in-process value decodes as the JSON it writes (a str subclass
    as its string); one JSON cannot write (bytes, a numpy integer) is a
    TypeError. Only a document that decoded without error replaces the
    entry, and the objects kept are never written to (ToyModel columns are
    read-only). Equal documents written in another key order or spacing
    cost a miss, never a wrong hit. A context keeps at most one model, one
    adapter and one tokenizer. Safe to share between threads; two threads
    that miss on one document both decode it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.last: dict[str, tuple[bytes, object]] = {}

    def get(self, space: str, doc, decode: Callable[[object], object]):
        key = doc if isinstance(doc, bytes) else input_text(space, doc)
        with self._lock:
            kept = self.last.get(space)
        if kept is not None and kept[0] == key:
            return kept[1]
        value = decode(json.loads(key.decode("utf-8")))
        with self._lock:
            self.last[space] = (key, value)
        return value


def json_text(doc) -> bytes:
    """A JSON value as the compact UTF-8 text that keys the decode cache and
    travels as a request's attached model, adapter or tokenizer."""
    return json.dumps(doc, separators=(",", ":")).encode()


# Input name -> (marshal snapshot, JSON text) of the last value input_text
# encoded for it: at most one entry per name of CACHED_INPUTS.
_sent_texts: dict[str, tuple[bytes, bytes]] = {}
_sent_lock = threading.Lock()


def input_text(name: str, value) -> bytes:
    """`json_text(value)` of a model, adapter or tokenizer input, encoded
    once while the value stays the same.

    The key is the value's marshal snapshot (version 2), taken on every
    call, so a value changed in place misses. marshal writes each object of
    an exact JSON type under its own type code, with no back-references, so
    equal snapshots mean the same types, order and values: `1`, `True` and
    `1.0` differ, and so do a tuple and a list. The text kept is the JSON
    text of the snapshot's own value (marshal.loads), so it is a function
    of the snapshot alone. A subclass of a JSON type makes marshal raise
    ValueError, and marshal writes any other object with a buffer (bytes, a
    numpy scalar) as bytes, which JSON cannot write; both are encoded from
    the value as given and kept nowhere, so they give what json_text gives
    (the string for a str subclass, TypeError for bytes). Thread-safe."""
    if name not in CACHED_INPUTS:
        raise ValueError(f"{name!r} is not a cached input")
    try:
        snapshot = marshal.dumps(value, 2)
    except ValueError:
        return json_text(value)
    with _sent_lock:
        kept = _sent_texts.get(name)
    if kept is not None and kept[0] == snapshot:
        return kept[1]
    try:
        text = json_text(marshal.loads(snapshot))
    except TypeError:
        return json_text(value)
    with _sent_lock:
        _sent_texts[name] = (snapshot, text)
    return text


@dataclass
class _Run:
    """One request being proved. Indexing returns an input decoded by its
    name's decoder, or None for an absent optional input; an input that does
    not decode (a key missing, a value of the wrong type or out of range,
    text that is not UTF-8 JSON) is a SchemaError. `open` opens a staged
    dataset the way the request holds it, closed with `handles`."""

    request: AttestationRequest
    ctx: TdContext
    gpu: Optional[GpuToken]
    handles: ExitStack

    def __getitem__(self, name: str):
        if name not in self.request.inputs:
            return None
        value = self.request.inputs[name]
        decode = _DECODERS.get(name, lambda value, ctx: value)
        try:
            if name in CACHED_INPUTS:
                return self.ctx.decode_cache.get(
                    name, value, lambda doc: decode(doc, self.ctx))
            return decode(value, self.ctx)
        except (AttributeError, KeyError, OverflowError, RecursionError, TypeError,
                ValueError) as exc:
            raise SchemaError(f"bad {name}: {exc}") from exc

    def open(self, path: Optional[str]):
        if path is None:
            return None
        if self.request.mode == "inmem":
            return load_in_memory(path)
        return self.handles.enter_context(self.ctx.mapped_opener(path, self.ctx.msh_pool))


@dataclass(frozen=True)
class OpSpec:
    """One measured operation: the inputs a request for it must and may
    carry, and the measurer call, which reads each input from the run as it
    passes it on. Wire codes and label schemas are the measurers' own."""

    name: str
    required: tuple[str, ...]
    measure: Callable[[_Run], Measured]
    optional: tuple[str, ...] = ()
    nonce_only: bool = False  # inference answers a live query: no timestamps


OPS = {spec.name: spec for spec in (
    OpSpec("Preprocessing", ("dataset",), lambda r: measure_preprocessing(
        r.open(r["dataset"]), r.gpu, keep_output=not r.request.confidential)),
    OpSpec("AttributeDistribution", ("dataset",), lambda r: measure_attribute_distribution(
        r.open(r["dataset"]), r.gpu)),
    OpSpec("MeasurementBinding", ("dataset",), lambda r: measure_binding(r["dataset"], r.gpu)),
    OpSpec("Training", ("arch", "dataset", "train_config", "tokenizer"),
           lambda r: measure_training(r["arch"], r.open(r["dataset"]), r["train_config"],
                                      r["tokenizer"], r.gpu)),
    OpSpec("WeightOptimization", ("model", "tokenizer", "train_config", "id_opt"),
           lambda r: measure_optimization(r["model"], r["tokenizer"], r["train_config"],
                                          r["id_opt"], r["adapter"], r.open(r["opt_dataset"]),
                                          r.gpu),
           optional=("adapter", "opt_dataset")),
    OpSpec("Evaluation", ("model", "tokenizer", "dataset"), lambda r: measure_evaluation(
        r["model"], r["tokenizer"], r.open(r["dataset"]), r.gpu)),
    OpSpec("SingleInference", ("model", "tokenizer", "query"), lambda r: measure_inference(
        r["model"], r["tokenizer"], r["query"], r.gpu), nonce_only=True),
    OpSpec("SessionInference", ("model", "tokenizer", "query", "history"),
           lambda r: measure_session_inference(r["model"], r["tokenizer"], r["history"],
                                               r["query"], r.gpu), nonce_only=True),
)}


# --------------------------------------------------------------------------
# Request


@dataclass(frozen=True)
class AttestationRequest:
    """A request for the operation named `op`, a key of OPS. It holds itself
    to the operation's entry on construction; a fault is a SchemaError."""

    op: str
    chal: Challenge
    inputs: dict
    mode: str = "inmem"
    want_gpu: bool = False
    confidential: bool = False

    def __post_init__(self):
        spec = OPS.get(self.op)
        if spec is None:
            raise SchemaError(f"unknown operation {self.op!r}")
        if not isinstance(self.inputs, dict):
            raise SchemaError("inputs must be an object")
        if self.mode not in MODES:
            raise SchemaError(f"unknown mode {self.mode!r}")
        if not (isinstance(self.want_gpu, bool) and isinstance(self.confidential, bool)):
            raise SchemaError("want_gpu and confidential must each be true or false")
        missing = set(spec.required) - self.inputs.keys()
        unknown = self.inputs.keys() - {*spec.required, *spec.optional}
        if missing:
            raise SchemaError(f"{spec.name} is missing inputs: {sorted(missing)}")
        if unknown:
            raise SchemaError(f"{spec.name} does not take inputs: {sorted(unknown)}")
        if spec.nonce_only and self.chal.kind != "nonce":
            raise SchemaError(f"{spec.name} requires a nonce challenge, not {self.chal.kind}")
        if "id_opt" in self.inputs:
            id_opt = self.inputs["id_opt"]
            if id_opt not in OPTIMIZATIONS:
                raise SchemaError(f"unknown optimization {id_opt!r}")
            if id_opt == "finetune" and "opt_dataset" not in self.inputs:
                raise SchemaError("finetune requires opt_dataset")
            if id_opt != "finetune" and "opt_dataset" in self.inputs:
                raise SchemaError(f"{id_opt!r} does not take opt_dataset")

    def to_json(self) -> dict:
        return {
            "op": self.op,
            "chal": self.chal.encode().hex(),
            "inputs": self.inputs,
            "mode": self.mode,
            "want_gpu": self.want_gpu,
            "confidential": self.confidential,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "AttestationRequest":
        try:
            check_keys(doc, ("op", "chal", "inputs", "mode", "want_gpu", "confidential"),
                       "request")
            return cls(
                op=doc["op"],
                chal=Challenge.decode(hex_bytes(doc["chal"])),
                inputs=doc["inputs"],
                mode=doc["mode"],
                want_gpu=doc["want_gpu"],
                confidential=doc["confidential"],
            )
        except (KeyError, TypeError, ValueError, FormatError) as exc:
            raise SchemaError(f"bad request document: {exc}") from exc


def build_request(
    op_name: str,
    inputs: dict,
    chal: Challenge,
    mode: str = "inmem",
    want_gpu: bool = False,
    confidential: bool = False,
) -> AttestationRequest:
    """A request for the named operation; it checks itself against the
    operation's schema."""
    return AttestationRequest(op_name, chal, inputs, mode, want_gpu, confidential)


# --------------------------------------------------------------------------
# Prover


@dataclass
class TdContext:
    """Everything the simulated trust domain holds: its measured identity,
    platform keys, a staging directory for untrusted inputs, and optionally
    an attesting accelerator. mapped_opener(path, pool) opens a mapped
    dataset; it exists so harnesses can hand the measurers a fault-injecting
    handle. msh_pool, when set, is given to every mapped handle opened, so
    the batches of its epoch are hashed in worker processes instead of in
    this process, by the same function; the pool's owner (a serving
    AttestationServer) stops it. decode_cache holds the last model, adapter
    and tokenizer decoded for this context's requests; every context, a copy
    too, starts with an empty one."""

    image_bytes: bytes
    h_td: bytes
    mac_key: bytes
    qe_key: Ed25519PrivateKey
    qe_key_id: str
    staging_dir: str
    gpu_state: Optional[bytes] = None
    gpu_key: Optional[Ed25519PrivateKey] = None
    mapped_opener: Callable[[str, Optional[MshPool]], MappedDataset] = MappedDataset
    report_hook: Callable = staticmethod(lambda report: report)
    msh_pool: Optional[MshPool] = None
    decode_cache: DecodeCache = field(
        default_factory=DecodeCache, init=False, repr=False, compare=False)

    @classmethod
    def create(
        cls,
        image_bytes: bytes,
        seed: bytes,
        staging_dir: str,
        with_gpu: bool = True,
    ) -> "TdContext":
        qe_key = derive_private_key(b"qe:" + seed)
        pub = qe_key.public_key().public_bytes_raw()
        ctx = cls(
            image_bytes=image_bytes,
            h_td=measure_td_image(image_bytes),
            mac_key=derive_mac_key(seed),
            qe_key=qe_key,
            qe_key_id="qe-" + pub.hex()[:8],
            staging_dir=staging_dir,
        )
        if with_gpu:
            ctx.gpu_state = b"palm-gpu-sim/1"
            ctx.gpu_key = derive_private_key(b"gpu:" + seed)
        return ctx

    def gpu_key_id(self) -> str:
        return "gpu-" + self.gpu_key.public_key().public_bytes_raw().hex()[:8]


def _b64(text: str) -> bytes:
    """The bytes canonical base64 text encodes (RFC 4648 §3.5); data after
    the padding, non-zero pad bits or a character outside the alphabet is a
    ValueError."""
    data = base64.b64decode(text, validate=True)
    if base64.b64encode(data).decode("ascii") != text:
        raise ValueError("base64 text is not canonical")
    return data


@dataclass(frozen=True)
class AttestationResponse:
    """The quote, the measurement set it binds (a GPU token, when there is
    one, is its GPU_att entry), and the outputs. A document holds each as
    canonical base64, the set as its serialized bytes."""

    quote: bytes
    mset: MeasurementSet
    outputs: Optional[dict[str, bytes]]  # None when the run was confidential

    def to_json(self) -> dict:
        return {
            "quote": base64.b64encode(self.quote).decode("ascii"),
            "measurement_set": base64.b64encode(self.mset.serialized_bytes()).decode("ascii"),
            "outputs": None
            if self.outputs is None
            else {k: base64.b64encode(v).decode("ascii") for k, v in self.outputs.items()},
        }

    @classmethod
    def from_json(cls, doc: dict) -> "AttestationResponse":
        """The response a document describes. An output is canonical base64
        text, or bytes as the transport attaches them (a JSON document holds
        none)."""
        try:
            check_keys(doc, ("quote", "measurement_set", "outputs"), "response")
            outputs = doc["outputs"]
            if not isinstance(outputs, (dict, type(None))):
                raise TypeError(f"outputs must be an object, not {type(outputs).__name__}")
            return cls(
                quote=_b64(doc["quote"]),
                mset=MeasurementSet.from_bytes(_b64(doc["measurement_set"])),
                outputs=None
                if outputs is None
                else {k: v if isinstance(v, bytes) else _b64(v) for k, v in outputs.items()},
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad response document: {exc}") from exc

    def canonical_bytes(self) -> bytes:
        """Stable byte rendering, used by determinism and transport checks."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()


def prover_handle(request: AttestationRequest, ctx: TdContext) -> AttestationResponse:
    """Run the operation inside the trust domain and quote the evidence.

    The GPU token binds the challenge digest as its nonce, so accelerator
    evidence cannot be replayed across challenges. A request that wants GPU
    evidence on a GPU-less context still completes; the verifier, not the
    prover, is the party that treats the token's absence as a failure.
    """
    gpu = None
    if request.want_gpu and ctx.gpu_key is not None:
        gpu = gpu_attest(ctx.gpu_state, request.chal.digest(), ctx.gpu_key)
    with ExitStack() as handles:
        measured = OPS[request.op].measure(_Run(request, ctx, gpu, handles))
    rd = build_report_data(request.chal, measured.mset)
    report = create_td_report(ctx.h_td, H_MODULE, rd, ctx.mac_key)
    report = ctx.report_hook(report)
    quote = qe_sign_quote(report, ctx.mac_key, ctx.qe_key, ctx.qe_key_id)
    return AttestationResponse(
        quote=quote.encode(),
        mset=measured.mset,
        outputs=None if request.confidential else measured.outputs,
    )


# --------------------------------------------------------------------------
# Verifier


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class Verdict:
    result: str  # "Accept" | "Reject"
    reason: Optional[str]
    checks: tuple[CheckResult, ...]

    @property
    def accepted(self) -> bool:
        return self.result == "Accept"

    def to_json(self) -> dict:
        return {
            "result": self.result,
            "reason": self.reason,
            "checks": [c.to_json() for c in self.checks],
        }


class _Fail(Exception):
    def __init__(self, reason: str, detail: str):
        self.reason = reason
        self.detail = detail


@dataclass
class _Evidence:
    """What the checks of one verification share; the signature check
    stores the quote it decoded."""

    response: AttestationResponse
    request: AttestationRequest
    now: float
    quote: Optional[Quote] = None


class Verifier:
    """Non-interactive check pipeline against a trusted authority's store.

    Nonces are single-use: a nonce is burned the first time a response
    presents it, so a replayed quote fails challenge freshness even if the
    first presentation was rejected further down the pipeline.
    """

    def __init__(self, refstore: ReferenceStore):
        self.refstore = refstore
        self._seen_nonces: set[bytes] = set()
        self._nonce_lock = threading.Lock()

    # -- individual checks (each returns a pass detail or raises _Fail) ----

    def _check_signature(self, ev: _Evidence) -> str:
        try:
            quote = Quote.decode(ev.response.quote)
        except MalformedQuote as exc:
            raise _Fail("Malformed", f"quote does not parse: {exc}")
        pubkey = self.refstore.qe_public_key(quote.qe_key_id)
        if pubkey is None:
            raise _Fail("SignatureInvalid", f"no registered key {quote.qe_key_id!r}")
        try:
            verify_quote(ev.response.quote, pubkey)
        except SignatureInvalid:
            raise _Fail("SignatureInvalid", "signature does not verify")
        ev.quote = quote
        return f"verified under {quote.qe_key_id}"

    def _check_freshness(self, ev: _Evidence) -> str:
        chal = ev.request.chal
        if ev.quote.report_data.chal_digest != chal.digest():
            raise _Fail("StaleChallenge", "quote binds a different challenge")
        if chal.kind == "nonce":
            with self._nonce_lock:
                if chal.nonce in self._seen_nonces:
                    raise _Fail("StaleChallenge", "nonce already used")
                self._seen_nonces.add(chal.nonce)
            return "fresh nonce"
        age = ev.now - chal.timestamp
        if abs(age) > TIMESTAMP_WINDOW_SECONDS:
            raise _Fail(
                "StaleChallenge",
                f"timestamp outside {TIMESTAMP_WINDOW_SECONDS}s window (age {age:.0f}s)",
            )
        return f"timestamp within window (age {age:.0f}s)"

    def _check_td_image(self, ev: _Evidence) -> str:
        if ev.quote.h_td not in self.refstore.accepted_h_td:
            raise _Fail("UnknownTdImage", f"h_TD {ev.quote.h_td.hex()[:16]}… not accepted")
        return "trust-domain measurement accepted"

    def _check_td_module(self, ev: _Evidence) -> str:
        if ev.quote.h_module not in self.refstore.accepted_h_module:
            raise _Fail("UnknownModule", f"h_module {ev.quote.h_module.hex()[:16]}… not accepted")
        return "module measurement accepted"

    def _check_gpu(self, ev: _Evidence) -> str:
        entry = next((e for e in ev.response.mset.h_i if e.label == GPU_LABEL), None)
        if entry is None:
            if ev.request.want_gpu:
                raise _Fail("GpuEvidenceMissing", "request declared GPU but no token returned")
            return "no GPU evidence declared or supplied"
        try:
            token = GpuToken.decode(entry.data)
        except FormatError:
            raise _Fail("GpuEvidenceInvalid", "measurement-set GPU entry does not parse")
        if token.nonce != ev.request.chal.digest():
            raise _Fail("GpuEvidenceInvalid", "token nonce does not bind this challenge")
        if not any(verify_gpu_token(token, pk) for pk in self.refstore.gpu_public_keys()):
            raise _Fail("GpuEvidenceInvalid", "token signature verifies under no registered key")
        return "GPU token valid"

    def _check_mset_binding(self, ev: _Evidence) -> str:
        mset = ev.response.mset
        if mset.digest() != ev.quote.report_data.hi_ho_digest:
            raise _Fail("Malformed", "measurement set does not hash to the quoted digest")
        if mset.op != ev.request.op:
            raise _Fail("Malformed", f"measurement set is for {mset.op}, not {ev.request.op}")
        id_opt = ev.request.inputs.get("id_opt")
        if id_opt is not None and idopt_entry(id_opt) not in mset.h_i:
            raise _Fail("Malformed", f"measurement set does not quote optimization {id_opt!r}")
        return "measurement set bound by quote"

    def _check_outputs(self, ev: _Evidence) -> str:
        outputs = ev.response.outputs
        if outputs is None:
            return "outputs withheld (confidential); skipped"
        for entry in ev.response.mset.h_o:
            if entry.label == BINDING_LABEL:
                plain = outputs.get("h(D)")
                msh = outputs.get("MSH(D)")
                if plain is None or msh is None:
                    raise _Fail("OutputMismatch", "binding outputs missing h(D) or MSH(D)")
                if sha3_256(plain + msh) != entry.data:
                    raise _Fail("OutputMismatch", "binding digest does not recompute")
                continue
            payload = outputs.get(entry.label)
            if payload is None:
                raise _Fail("OutputMismatch", f"no output payload for {entry.label!r}")
            if entry.label.startswith("MSH("):
                try:
                    recomputed = msh_of_records(unpack_records(payload)).encode()
                except FormatError as exc:
                    raise _Fail("OutputMismatch", f"{entry.label}: payload not a dataset: {exc}")
            else:
                recomputed = sha3_256(payload)
            if recomputed != entry.data:
                raise _Fail("OutputMismatch", f"{entry.label} does not recompute from payload")
        return "all output measurements recompute"

    def _check_references(self, ev: _Evidence) -> str:
        mset = ev.response.mset
        checked = 0
        for entry in (*mset.h_i, *mset.h_o):
            if entry.label == GPU_LABEL:
                continue  # GPU evidence has its own check
            refs = self.refstore.refs_for(mset.op, entry.label)
            if refs is not None:
                checked += 1
                if entry.data not in refs:
                    raise _Fail("ReferenceMismatch", f"{entry.label} not among reference values")
                continue
            if entry.label.startswith("MSH("):
                # No multiset reference; try the bound plain-hash form.
                plain_label = "h(" + entry.label[len("MSH(") :]
                plain_refs = self.refstore.refs_for(mset.op, plain_label)
                if plain_refs is None:
                    continue
                checked += 1
                plain = self.refstore.plain_for_msh(entry.data)
                if plain is None:
                    raise _Fail(
                        "ReferenceMismatch",
                        f"{entry.label}: no binding links it to a {plain_label} reference",
                    )
                if plain not in plain_refs:
                    raise _Fail(
                        "ReferenceMismatch",
                        f"{entry.label}: bound plain digest not among reference values",
                    )
        return f"{checked} measurement(s) checked against references"

    # -- pipeline -----------------------------------------------------------

    CHECKS = (
        ("quote_signature", _check_signature),
        ("challenge_freshness", _check_freshness),
        ("td_image", _check_td_image),
        ("td_module", _check_td_module),
        ("gpu_evidence", _check_gpu),
        ("measurement_set_binding", _check_mset_binding),
        ("output_measurements", _check_outputs),
        ("reference_values", _check_references),
    )

    def verify(
        self,
        response: AttestationResponse,
        request_echo: AttestationRequest,
        now: Optional[float] = None,
    ) -> Verdict:
        ev = _Evidence(response, request_echo, time.time() if now is None else now)
        checks: list[CheckResult] = []
        for name, check in self.CHECKS:
            try:
                detail = check(self, ev)
            except _Fail as fail:
                checks.append(CheckResult(name, False, fail.detail))
                return Verdict("Reject", fail.reason, tuple(checks))
            checks.append(CheckResult(name, True, detail))
        return Verdict("Accept", None, tuple(checks))

    def register_binding(
        self,
        response: AttestationResponse,
        request_echo: AttestationRequest,
        now: Optional[float] = None,
    ) -> Verdict:
        """Verify a measurement-binding response; on acceptance, register the
        (plain, multiset) pair so multiset measurements can resolve against
        plain references from then on."""
        if response.mset.op != "MeasurementBinding":
            raise SchemaError("not a measurement-binding response")
        verdict = self.verify(response, request_echo, now)
        if verdict.accepted:
            if response.outputs is None:
                raise SchemaError("binding response must carry its two digests")
            self.refstore.add_binding(response.outputs["h(D)"], response.outputs["MSH(D)"])
        return verdict
