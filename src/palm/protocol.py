"""Four-party attestation flow: request, prove, and verify.

An initiator builds a request naming an operation, its inputs, and a
challenge. The prover runs the operation inside its simulated trust
domain, binds the resulting measurement set and the challenge into a
signed quote, and returns quote + measurement set + (optionally) the
output payloads. The verifier is non-interactive: its only inputs are
that response, the echoed request, and the trusted authority's reference
store. It runs a fixed check pipeline and reports every check it ran.

Check order (first failure wins, later checks are not executed):

    1 quote_signature          quote parses and verifies under a registered key
    2 challenge_freshness      quote binds the expected challenge; nonces are
                               single-use, timestamps must be within the window
    3 td_image                 h_TD is an accepted trust-domain measurement
    4 td_module                h_module is an accepted module measurement
    5 gpu_evidence             token present and valid when the request declared GPU
    6 measurement_set_binding  cleartext measurement set hashes to the quoted digest
    7 output_measurements      H_O entries recompute from the returned outputs
    8 reference_values         measurements match registered references (multiset
                               entries may resolve through a registered binding)
"""

from __future__ import annotations

import base64
import json
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
)
from .dataset import MappedDataset, load_in_memory, unpack_records
from .encoding import sha3_256
from .errors import (
    FormatError,
    MalformedQuote,
    PalmError,
    SchemaError,
    SignatureInvalid,
)
from .measurers import (
    BINDING_LABEL,
    GPU_LABEL,
    GpuToken,
    Measured,
    MeasurementSet,
    OperationId,
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
from .toyops import ToyModel, ToyTokenizer, TrainConfig

TIMESTAMP_WINDOW_SECONDS = 300

INFERENCE_OPS = frozenset({"SingleInference", "SessionInference"})

REJECT_REASONS = (
    "SignatureInvalid",
    "StaleChallenge",
    "UnknownTdImage",
    "UnknownModule",
    "GpuEvidenceMissing",
    "GpuEvidenceInvalid",
    "OutputMismatch",
    "ReferenceMismatch",
    "Malformed",
)

_REQUIRED_INPUTS = {
    "Preprocessing": frozenset({"dataset"}),
    "AttributeDistribution": frozenset({"dataset"}),
    "MeasurementBinding": frozenset({"dataset"}),
    "Training": frozenset({"arch", "dataset", "train_config", "tokenizer"}),
    "WeightOptimization": frozenset({"model", "tokenizer", "train_config", "id_opt"}),
    "Evaluation": frozenset({"model", "tokenizer", "dataset"}),
    "SingleInference": frozenset({"model", "tokenizer", "query"}),
    "SessionInference": frozenset({"model", "tokenizer", "query", "history"}),
}
_OPTIONAL_INPUTS = {
    "WeightOptimization": frozenset({"adapter", "opt_dataset"}),
}


# --------------------------------------------------------------------------
# Request


@dataclass(frozen=True)
class AttestationRequest:
    op: OperationId
    chal: Challenge
    inputs: dict
    mode: str = "inmem"
    want_gpu: bool = False
    confidential: bool = False

    def to_json(self) -> dict:
        doc = {
            "op": self.op.name,
            "chal": self.chal.encode().hex(),
            "inputs": self.inputs,
            "mode": self.mode,
            "want_gpu": self.want_gpu,
            "confidential": self.confidential,
        }
        if self.op.id_opt is not None:
            doc["id_opt"] = self.op.id_opt
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "AttestationRequest":
        try:
            return cls(
                op=OperationId(doc["op"], doc.get("id_opt")),
                chal=Challenge.decode(bytes.fromhex(doc["chal"])),
                inputs=dict(doc["inputs"]),
                mode=doc["mode"],
                want_gpu=bool(doc["want_gpu"]),
                confidential=bool(doc["confidential"]),
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
    id_opt: Optional[str] = None,
) -> AttestationRequest:
    """Validate the input descriptors against the operation's schema."""
    if op_name not in _REQUIRED_INPUTS:
        raise SchemaError(f"unknown operation {op_name!r}")
    if mode not in ("inmem", "mapped"):
        raise SchemaError(f"unknown mode {mode!r}")
    required = _REQUIRED_INPUTS[op_name]
    allowed = required | _OPTIONAL_INPUTS.get(op_name, frozenset())
    missing = required - inputs.keys()
    unknown = inputs.keys() - allowed
    if missing:
        raise SchemaError(f"{op_name} is missing inputs: {sorted(missing)}")
    if unknown:
        raise SchemaError(f"{op_name} does not take inputs: {sorted(unknown)}")
    if op_name in INFERENCE_OPS and chal.kind != "nonce":
        raise SchemaError(f"{op_name} requires a nonce challenge, not {chal.kind}")
    if op_name == "WeightOptimization":
        if inputs["id_opt"] == "finetune" and "opt_dataset" not in inputs:
            raise SchemaError("finetune requires opt_dataset")
        if inputs["id_opt"] != "finetune" and "opt_dataset" in inputs:
            raise SchemaError(f"{inputs['id_opt']!r} does not take opt_dataset")
        id_opt = inputs["id_opt"]
    return AttestationRequest(
        op=OperationId(op_name, id_opt),
        chal=chal,
        inputs=inputs,
        mode=mode,
        want_gpu=want_gpu,
        confidential=confidential,
    )


# --------------------------------------------------------------------------
# Prover


@dataclass
class TdContext:
    """Everything the simulated trust domain holds: its measured identity,
    platform keys, a staging directory for untrusted inputs, and optionally
    an attesting accelerator. mapped_opener exists so harnesses can hand the
    measurers a fault-injecting dataset handle. msh_pool, when set, hashes
    every mapped epoch in worker processes; its owner (a serving
    AttestationServer) stops it. Without one, everything runs in this
    process."""

    image_bytes: bytes
    h_td: bytes
    mac_key: bytes
    qe_key: Ed25519PrivateKey
    qe_key_id: str
    staging_dir: str
    gpu_state: Optional[bytes] = None
    gpu_key: Optional[Ed25519PrivateKey] = None
    mapped_opener: Callable[[str], MappedDataset] = MappedDataset
    report_hook: Callable = staticmethod(lambda report: report)
    msh_pool: Optional[MshPool] = None

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


@dataclass(frozen=True)
class AttestationResponse:
    quote: bytes
    mset: MeasurementSet
    outputs: Optional[dict[str, bytes]]  # None when the run was confidential
    gpu_token: Optional[GpuToken] = None

    def to_json(self) -> dict:
        return {
            "quote": base64.b64encode(self.quote).decode("ascii"),
            "measurement_set": self.mset.to_json(),
            "outputs": None
            if self.outputs is None
            else {k: base64.b64encode(v).decode("ascii") for k, v in self.outputs.items()},
            "gpu_token": None
            if self.gpu_token is None
            else base64.b64encode(self.gpu_token.encode()).decode("ascii"),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "AttestationResponse":
        try:
            outputs = doc["outputs"]
            token = doc["gpu_token"]
            return cls(
                quote=base64.b64decode(doc["quote"]),
                mset=MeasurementSet.from_json(doc["measurement_set"]),
                outputs=None
                if outputs is None
                else {k: base64.b64decode(v) for k, v in outputs.items()},
                gpu_token=None if token is None else GpuToken.decode(base64.b64decode(token)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"bad response document: {exc}") from exc

    def canonical_bytes(self) -> bytes:
        """Stable byte rendering, used by determinism and transport checks."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":")).encode()


def _latin1(text, what: str) -> bytes:
    """Request text as the bytes the toy operations consume; text outside
    latin-1 (or not text at all) is a schema fault, not a crash."""
    try:
        return text.encode("latin-1")
    except (AttributeError, UnicodeEncodeError) as exc:
        raise SchemaError(f"{what} is not latin-1 text: {exc}") from exc


def _run_measurer(
    request: AttestationRequest, ctx: TdContext, gpu: Optional[GpuToken], handles: ExitStack
) -> Measured:
    op = request.op.name
    inputs = request.inputs
    pool = ctx.msh_pool

    def dataset(name: str):
        """Open a staged dataset; a mapped handle is closed with `handles`."""
        path = os.path.join(ctx.staging_dir, name)
        if request.mode == "inmem":
            return load_in_memory(path)
        return handles.enter_context(ctx.mapped_opener(path))

    if op == "Preprocessing":
        return measure_preprocessing(
            dataset(inputs["dataset"]), gpu, pool, keep_output=not request.confidential
        )
    if op == "AttributeDistribution":
        return measure_attribute_distribution(dataset(inputs["dataset"]), gpu, pool)
    if op == "MeasurementBinding":
        return measure_binding(os.path.join(ctx.staging_dir, inputs["dataset"]))
    if op == "Training":
        return measure_training(
            inputs["arch"],
            dataset(inputs["dataset"]),
            TrainConfig.from_json(inputs["train_config"]),
            ToyTokenizer.from_json(inputs["tokenizer"]),
            gpu,
            pool,
        )
    if op == "WeightOptimization":
        adp = inputs.get("adapter")
        ds_opt = inputs.get("opt_dataset")
        return measure_optimization(
            ToyModel.from_json(inputs["model"]),
            ToyTokenizer.from_json(inputs["tokenizer"]),
            TrainConfig.from_json(inputs["train_config"]),
            inputs["id_opt"],
            adp=None if adp is None else ToyModel.from_json(adp),
            ds_opt=None if ds_opt is None else dataset(ds_opt),
            gpu=gpu,
            pool=pool,
        )
    if op == "Evaluation":
        return measure_evaluation(
            ToyModel.from_json(inputs["model"]),
            ToyTokenizer.from_json(inputs["tokenizer"]),
            dataset(inputs["dataset"]),
            gpu,
            pool,
        )
    if op == "SingleInference":
        return measure_inference(
            ToyModel.from_json(inputs["model"]),
            ToyTokenizer.from_json(inputs["tokenizer"]),
            _latin1(inputs["query"], "query"),
            gpu,
        )
    # SessionInference
    try:
        history = tuple(
            (_latin1(q, "history query"), _latin1(r, "history response"))
            for q, r in inputs["history"]
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"history is not a list of (query, response) pairs: {exc}") from exc
    return measure_session_inference(
        ToyModel.from_json(inputs["model"]),
        ToyTokenizer.from_json(inputs["tokenizer"]),
        history,
        _latin1(inputs["query"], "query"),
        gpu,
    )


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
        measured = _run_measurer(request, ctx, gpu, handles)
    rd = build_report_data(request.chal, measured.mset)
    report = create_td_report(ctx.h_td, H_MODULE, rd, ctx.mac_key)
    report = ctx.report_hook(report)
    quote = qe_sign_quote(report, ctx.mac_key, ctx.qe_key, ctx.qe_key_id)
    return AttestationResponse(
        quote=quote.encode(),
        mset=measured.mset,
        outputs=None if request.confidential else dict(measured.outputs),
        gpu_token=gpu,
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

    def _check_signature(self, response: AttestationResponse) -> tuple[Quote, str]:
        try:
            quote = Quote.decode(response.quote)
        except MalformedQuote as exc:
            raise _Fail("Malformed", f"quote does not parse: {exc}")
        pubkey = self.refstore.qe_public_key(quote.qe_key_id)
        if pubkey is None:
            raise _Fail("SignatureInvalid", f"no registered key {quote.qe_key_id!r}")
        try:
            pubkey.verify(quote.signature, quote.signed_body())
        except Exception:
            raise _Fail("SignatureInvalid", "signature does not verify")
        return quote, f"verified under {quote.qe_key_id}"

    def _check_freshness(self, quote: Quote, chal: Challenge, now: float) -> str:
        if quote.report_data.chal_digest != chal.digest():
            raise _Fail("StaleChallenge", "quote binds a different challenge")
        if chal.kind == "nonce":
            with self._nonce_lock:
                if chal.nonce in self._seen_nonces:
                    raise _Fail("StaleChallenge", "nonce already used")
                self._seen_nonces.add(chal.nonce)
            return "fresh nonce"
        age = now - chal.timestamp
        if abs(age) > TIMESTAMP_WINDOW_SECONDS:
            raise _Fail(
                "StaleChallenge",
                f"timestamp outside {TIMESTAMP_WINDOW_SECONDS}s window (age {age:.0f}s)",
            )
        return f"timestamp within window (age {age:.0f}s)"

    def _check_td_image(self, quote: Quote) -> str:
        if quote.h_td not in self.refstore.accepted_h_td:
            raise _Fail("UnknownTdImage", f"h_TD {quote.h_td.hex()[:16]}… not accepted")
        return "trust-domain measurement accepted"

    def _check_td_module(self, quote: Quote) -> str:
        if quote.h_module not in self.refstore.accepted_h_module:
            raise _Fail("UnknownModule", f"h_module {quote.h_module.hex()[:16]}… not accepted")
        return "module measurement accepted"

    def _check_gpu(self, response: AttestationResponse, request: AttestationRequest) -> str:
        mset_entry = next(
            (e for e in response.mset.h_i if e.label == GPU_LABEL), None
        )
        token = response.gpu_token
        if token is None and mset_entry is not None:
            try:
                token = GpuToken.decode(mset_entry.data)
            except FormatError:
                raise _Fail("GpuEvidenceInvalid", "measurement-set GPU entry does not parse")
        if token is None:
            if request.want_gpu:
                raise _Fail("GpuEvidenceMissing", "request declared GPU but no token returned")
            return "no GPU evidence declared or supplied"
        if mset_entry is not None and mset_entry.data != token.encode():
            raise _Fail("GpuEvidenceInvalid", "token differs from quoted measurement entry")
        if token.nonce != request.chal.digest():
            raise _Fail("GpuEvidenceInvalid", "token nonce does not bind this challenge")
        if not any(verify_gpu_token(token, pk) for pk in self.refstore.gpu_public_keys()):
            raise _Fail("GpuEvidenceInvalid", "token signature verifies under no registered key")
        return "GPU token valid"

    def _check_mset_binding(self, response: AttestationResponse, quote: Quote) -> str:
        if response.mset.digest() != quote.report_data.hi_ho_digest:
            raise _Fail("Malformed", "measurement set does not hash to the quoted digest")
        return "measurement set bound by quote"

    def _check_outputs(self, response: AttestationResponse) -> str:
        if response.outputs is None:
            return "outputs withheld (confidential); skipped"
        outputs = response.outputs
        for entry in response.mset.h_o:
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

    def _check_references(self, response: AttestationResponse) -> str:
        op_name = response.mset.op.name
        checked = 0
        for entry in (*response.mset.h_i, *response.mset.h_o):
            if entry.label == GPU_LABEL:
                continue  # GPU evidence has its own check
            refs = self.refstore.refs_for(op_name, entry.label)
            if refs is not None:
                checked += 1
                if entry.data not in refs:
                    raise _Fail("ReferenceMismatch", f"{entry.label} not among reference values")
                continue
            if entry.label.startswith("MSH("):
                # No multiset reference; try the bound plain-hash form.
                plain_label = "h(" + entry.label[len("MSH(") :]
                plain_refs = self.refstore.refs_for(op_name, plain_label)
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

    def verify(
        self,
        response: AttestationResponse,
        request_echo: AttestationRequest,
        now: Optional[float] = None,
    ) -> Verdict:
        now = time.time() if now is None else now
        checks: list[CheckResult] = []

        def run(name: str, fn) -> object:
            try:
                outcome = fn()
            except _Fail as fail:
                checks.append(CheckResult(name, False, fail.detail))
                raise
            detail = outcome[1] if isinstance(outcome, tuple) else outcome
            checks.append(CheckResult(name, True, detail))
            return outcome[0] if isinstance(outcome, tuple) else outcome

        try:
            quote = run("quote_signature", lambda: self._check_signature(response))
            run("challenge_freshness", lambda: self._check_freshness(quote, request_echo.chal, now))
            run("td_image", lambda: self._check_td_image(quote))
            run("td_module", lambda: self._check_td_module(quote))
            run("gpu_evidence", lambda: self._check_gpu(response, request_echo))
            run("measurement_set_binding", lambda: self._check_mset_binding(response, quote))
            run("output_measurements", lambda: self._check_outputs(response))
            run("reference_values", lambda: self._check_references(response))
        except _Fail as fail:
            return Verdict("Reject", fail.reason, tuple(checks))
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
        if response.mset.op.name != "MeasurementBinding":
            raise SchemaError("not a measurement-binding response")
        verdict = self.verify(response, request_echo, now)
        if verdict.accepted:
            if response.outputs is None:
                raise SchemaError("binding response must carry its two digests")
            self.refstore.add_binding(response.outputs["h(D)"], response.outputs["MSH(D)"])
        return verdict
