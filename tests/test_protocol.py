"""Protocol pipeline: request schemas, verdict checks, binding, transport."""

import base64
import json
import os
import signal
import socket
import struct
from dataclasses import replace
from itertools import chain
from typing import Iterator

import pytest

from palm.adversary import build_clean_fixture
from palm.attestation import Challenge, Quote, derive_private_key
from palm.dataset import write_dataset
from palm.dataset import MappedDataset
from palm.encoding import lp, sha3_256, u32
from palm.errors import FormatError, PalmError, SchemaError
from palm.measurers import GPU_LABEL, OP_CODES, GpuToken, LabeledMeasurement, MeasurementSet
from palm.msh import msh_of_records
from palm.protocol import (
    OPS,
    AttestationRequest,
    AttestationResponse,
    Verifier,
    build_request,
    prover_handle,
)
from palm.refstore import ReferenceStore
from palm.toyops import ToyModel, ToyTokenizer, TrainConfig, preproc_record
from palm.transport import (
    MAX_FRAME,
    MSG_ERROR,
    MSG_REQUEST,
    MSG_RESPONSE,
    recv_frame,
    request_over_tcp,
    send_frame,
    serve_background,
)


@pytest.fixture
def fixture(tmp_path):
    return build_clean_fixture(str(tmp_path))


@pytest.fixture
def ctx(fixture):
    return fixture.make_context()


@pytest.fixture
def verifier(fixture):
    return Verifier(fixture.refstore)


# Offset of the first H_I label in a set's bytes: op code, H_I count, label length.
FIRST_LABEL = 1 + 4 + 4
B64_ALPHABET = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


def _set_bytes(doc: dict) -> bytearray:
    """The measurement set's bytes that a response document carries."""
    return bytearray(base64.b64decode(doc["measurement_set"]))


def _with_set_bytes(doc: dict, raw: bytes) -> dict:
    return dict(doc, measurement_set=base64.b64encode(raw).decode("ascii"))


def nonce_chal(tag: str) -> Challenge:
    return Challenge.from_nonce(sha3_256(b"proto:" + tag.encode()))


def _gpu_token(response) -> GpuToken:
    """The token a response carries: its quoted GPU_att entry."""
    (entry,) = [e for e in response.mset.h_i if e.label == GPU_LABEL]
    return GpuToken.decode(entry.data)


def _with_gpu_entry(response, token):
    """The response with its GPU_att entry replaced by `token`."""
    h_i = tuple(LabeledMeasurement(GPU_LABEL, token.encode()) if e.label == GPU_LABEL else e
                for e in response.mset.h_i)
    return replace(response, mset=replace(response.mset, h_i=h_i))


class TestRequestSchema:
    def test_training_with_timestamp_is_valid(self, fixture):
        req = build_request(
            "Training",
            {
                "arch": "bigram",
                "dataset": fixture.dataset_name,
                "train_config": fixture.config.to_json(),
                "tokenizer": fixture.tokenizer.to_json(),
            },
            Challenge.from_timestamp(),
        )
        assert req.op == "Training"

    def test_inference_requires_nonce(self, fixture):
        with pytest.raises(SchemaError):
            build_request(
                "SingleInference",
                {"model": {}, "tokenizer": {}, "query": "q"},
                Challenge.from_timestamp(),
            )

    def test_finetune_requires_opt_dataset(self):
        with pytest.raises(SchemaError):
            build_request(
                "WeightOptimization",
                {"model": {}, "tokenizer": {}, "train_config": {}, "id_opt": "finetune"},
                Challenge.from_timestamp(),
            )

    def test_quantize_forbids_opt_dataset(self):
        with pytest.raises(SchemaError):
            build_request(
                "WeightOptimization",
                {
                    "model": {},
                    "tokenizer": {},
                    "train_config": {},
                    "id_opt": "quantize",
                    "opt_dataset": "x",
                },
                Challenge.from_timestamp(),
            )

    def test_missing_and_unknown_inputs(self):
        with pytest.raises(SchemaError):
            build_request("Training", {"arch": "bigram"}, Challenge.from_timestamp())
        with pytest.raises(SchemaError):
            build_request(
                "Preprocessing", {"dataset": "d", "extra": 1}, Challenge.from_timestamp()
            )

    def test_unknown_operation(self):
        with pytest.raises(SchemaError):
            build_request("Distillation", {}, Challenge.from_timestamp())

    def test_json_round_trip(self, fixture):
        req = fixture.make_request("round-trip")
        assert AttestationRequest.from_json(req.to_json()) == req


class TestCleanPipeline:
    def test_accepts_with_all_checks(self, fixture, ctx, verifier):
        req = fixture.make_request("clean")
        verdict = verifier.verify(prover_handle(req, ctx), req)
        assert verdict.accepted
        assert [c.name for c in verdict.checks] == [
            "quote_signature",
            "challenge_freshness",
            "td_image",
            "td_module",
            "gpu_evidence",
            "measurement_set_binding",
            "output_measurements",
            "reference_values",
        ]
        assert all(c.passed for c in verdict.checks)

    def test_confidential_withholds_outputs(self, fixture, ctx, verifier):
        req = fixture.make_request("confidential")
        req = AttestationRequest(
            req.op, req.chal, req.inputs, req.mode, req.want_gpu, confidential=True
        )
        response = prover_handle(req, ctx)
        assert response.outputs is None
        verdict = verifier.verify(response, req)
        assert verdict.accepted
        outputs_check = [c for c in verdict.checks if c.name == "output_measurements"][0]
        assert "withheld" in outputs_check.detail

    def test_response_json_round_trip(self, fixture, ctx):
        req = fixture.make_request("json")
        response = prover_handle(req, ctx)
        assert AttestationResponse.from_json(response.to_json()) == response


class TestRejectReasons:
    def test_gpu_missing(self, fixture, verifier):
        req = fixture.make_request("gpu-missing")
        response = prover_handle(req, fixture.make_context(with_gpu=False))
        verdict = verifier.verify(response, req)
        assert (verdict.result, verdict.reason) == ("Reject", "GpuEvidenceMissing")

    def test_gpu_invalid_signature(self, fixture, ctx, verifier):
        req = fixture.make_request("gpu-bad-sig")
        response = prover_handle(req, ctx)
        token = _gpu_token(response)
        bad = GpuToken(token.gpu_measurement, token.nonce, bytes(64))
        verdict = verifier.verify(_with_gpu_entry(response, bad), req)
        assert verdict.reason == "GpuEvidenceInvalid"

    def test_gpu_nonce_must_match_challenge(self, fixture, ctx, verifier):
        from palm.attestation import gpu_attest

        req = fixture.make_request("gpu-nonce")
        response = prover_handle(req, ctx)
        retargeted = gpu_attest(ctx.gpu_state, b"\x00" * 32, ctx.gpu_key)
        assert verifier.verify(_with_gpu_entry(response, retargeted), req).reason == \
            "GpuEvidenceInvalid"

    def test_mset_tamper_breaks_binding(self, fixture, ctx, verifier):
        req = fixture.make_request("mset-tamper")
        response = prover_handle(req, ctx)
        entries = list(response.mset.h_i)
        entries[0] = LabeledMeasurement(entries[0].label, sha3_256(b"lie"))
        forged = MeasurementSet(response.mset.op, tuple(entries), response.mset.h_o)
        verdict = verifier.verify(
            AttestationResponse(response.quote, forged, response.outputs),
            req,
        )
        assert verdict.reason == "Malformed"
        names = [c.name for c in verdict.checks]
        assert names[-1] == "measurement_set_binding"

    def test_output_payload_tamper(self, fixture, ctx, verifier):
        req = fixture.make_request("output-tamper")
        response = prover_handle(req, ctx)
        outputs = dict(response.outputs)
        outputs["h(Mtr)"] = outputs["h(Mtr)"] + b"\x00"
        verdict = verifier.verify(
            AttestationResponse(response.quote, response.mset, outputs),
            req,
        )
        assert verdict.reason == "OutputMismatch"

    def test_reference_mismatch(self, fixture, ctx):
        store = ReferenceStore.from_json(fixture.refstore.to_json())
        store.property_refs["Training"]["MSH(Dtr)"] = {b"\x00" * 10}
        req = fixture.make_request("ref-mismatch")
        verdict = Verifier(store).verify(prover_handle(req, ctx), req)
        assert verdict.reason == "ReferenceMismatch"

    def test_wrong_challenge_echo(self, fixture, ctx, verifier):
        req = fixture.make_request("echo-a")
        response = prover_handle(req, ctx)
        other = AttestationRequest(
            req.op, nonce_chal("echo-b"), req.inputs, req.mode, req.want_gpu
        )
        verdict = verifier.verify(response, other)
        assert verdict.reason == "StaleChallenge"

    def test_short_circuit_stops_at_first_failure(self, fixture, ctx, verifier):
        req = fixture.make_request("short-circuit")
        response = prover_handle(req, fixture.make_context(image_bytes=b"other-image"))
        verdict = verifier.verify(response, req)
        assert verdict.reason == "UnknownTdImage"
        assert [c.name for c in verdict.checks] == [
            "quote_signature",
            "challenge_freshness",
            "td_image",
        ]
        assert [c.passed for c in verdict.checks] == [True, True, False]


class TestFreshness:
    def test_nonce_single_use(self, fixture, ctx, verifier):
        req = fixture.make_request("single-use")
        response = prover_handle(req, ctx)
        assert verifier.verify(response, req).accepted
        second = verifier.verify(response, req)
        assert (second.result, second.reason) == ("Reject", "StaleChallenge")

    def test_timestamp_window(self, fixture, ctx):
        ts = 1_754_000_000
        req = build_request(
            "Preprocessing",
            {"dataset": fixture.dataset_name},
            Challenge.from_timestamp(ts),
        )
        response = prover_handle(req, ctx)
        fresh = Verifier(fixture.refstore).verify(response, req, now=ts + 299)
        stale = Verifier(fixture.refstore).verify(response, req, now=ts + 301)
        future = Verifier(fixture.refstore).verify(response, req, now=ts - 301)
        assert fresh.accepted
        assert stale.reason == "StaleChallenge"
        assert future.reason == "StaleChallenge"


class TestBindingResolution:
    def _plain_only_store(self, fixture):
        store = ReferenceStore.from_json(fixture.refstore.to_json())
        with open(fixture.dataset_path, "rb") as f:
            plain = sha3_256(f.read())
        store.property_refs["Training"] = {"h(Dtr)": {plain}}
        return store

    def test_multiset_resolves_after_binding(self, fixture, ctx):
        store = self._plain_only_store(fixture)
        verifier = Verifier(store)
        req = fixture.make_request("needs-binding")
        response = prover_handle(req, ctx)
        before = verifier.verify(response, req)
        assert before.reason == "ReferenceMismatch"

        bind_req = build_request(
            "MeasurementBinding",
            {"dataset": fixture.dataset_name},
            Challenge.from_timestamp(),
        )
        bind_verdict = verifier.register_binding(prover_handle(bind_req, ctx), bind_req)
        assert bind_verdict.accepted

        req2 = fixture.make_request("after-binding")
        after = verifier.verify(prover_handle(req2, ctx), req2)
        assert after.accepted

    def test_binding_quotes_its_gpu_token(self, fixture, ctx, verifier):
        """A response carries a GPU token only as its quoted GPU_att entry,
        so a binding that wants GPU evidence quotes it like every other op."""
        bind_req = build_request("MeasurementBinding", {"dataset": fixture.dataset_name},
                                 nonce_chal("bind-gpu"), want_gpu=True)
        response = prover_handle(bind_req, ctx)
        assert [e.label for e in response.mset.h_i] == [GPU_LABEL]
        assert _gpu_token(response).nonce == bind_req.chal.digest()
        assert verifier.register_binding(response, bind_req).accepted

    def test_binding_for_other_dataset_does_not_resolve(self, fixture, ctx, tmp_path):
        store = self._plain_only_store(fixture)
        verifier = Verifier(store)
        other = tmp_path / "other.palmds"
        write_dataset(other, [b"unrelated"])
        bind_req = build_request(
            "MeasurementBinding", {"dataset": "other.palmds"}, Challenge.from_timestamp()
        )
        assert verifier.register_binding(prover_handle(bind_req, ctx), bind_req).accepted

        req = fixture.make_request("wrong-binding")
        verdict = verifier.verify(prover_handle(req, ctx), req)
        assert verdict.reason == "ReferenceMismatch"

    def test_forged_binding_rejected_and_not_registered(self, fixture, ctx):
        store = self._plain_only_store(fixture)
        verifier = Verifier(store)
        bind_req = build_request(
            "MeasurementBinding", {"dataset": fixture.dataset_name}, Challenge.from_timestamp()
        )
        response = prover_handle(bind_req, ctx)
        from palm.attestation import Quote

        quote = Quote.decode(response.quote)
        rogue = derive_private_key(b"rogue-binding")
        forged = Quote(
            quote.h_td, quote.h_module, quote.report_data, quote.qe_key_id,
            rogue.sign(quote.signed_body()),
        )
        verdict = verifier.register_binding(
            AttestationResponse(forged.encode(), response.mset, response.outputs),
            bind_req,
        )
        assert verdict.reason == "SignatureInvalid"
        assert store.bindings == []


class TestTransport:
    def test_loopback_matches_in_process(self, fixture, ctx):
        req = fixture.make_request("loopback")
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            over_tcp = request_over_tcp(server.endpoint, req)
        finally:
            server.shutdown()
            server.server_close()
        in_process = prover_handle(req, ctx)
        assert over_tcp.canonical_bytes() == in_process.canonical_bytes()

    def test_bad_json_gets_error_frame_and_connection_survives(self, fixture, ctx):
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            with socket.create_connection(server.endpoint, timeout=10) as sock:
                body = b"this is not json"
                sock.sendall(struct.pack("<I", len(body)) + body)
                error = recv_frame(sock)
                assert error["type"] == MSG_ERROR

                req = fixture.make_request("after-error")
                send_frame(sock, {"type": MSG_REQUEST, "body": req.to_json()})
                message = recv_frame(sock)
                assert message["type"] == MSG_RESPONSE
        finally:
            server.shutdown()
            server.server_close()

    def test_wrong_type_frame_is_error(self, fixture, ctx):
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            with socket.create_connection(server.endpoint, timeout=10) as sock:
                send_frame(sock, {"type": "NONSENSE"})
                assert recv_frame(sock)["type"] == MSG_ERROR
        finally:
            server.shutdown()
            server.server_close()

    def test_prover_errors_become_error_frames(self, fixture, ctx):
        server = serve_background(("127.0.0.1", 0), ctx)
        req = build_request(
            "Preprocessing", {"dataset": "does-not-exist.palmds"}, Challenge.from_timestamp()
        )
        try:
            with pytest.raises(Exception, match="server error"):
                request_over_tcp(server.endpoint, req)
        finally:
            server.shutdown()
            server.server_close()

    def test_many_sequential_requests(self, fixture, ctx, verifier):
        model_json = {"kind": "unigram", "counts": {"0": {"1": 3}}}
        tok_json = fixture.tokenizer.to_json()
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            for i in range(100):
                req = build_request(
                    "SingleInference",
                    {"model": model_json, "tokenizer": tok_json, "query": f"q{i}"},
                    nonce_chal(f"seq-{i}"),
                )
                response = request_over_tcp(server.endpoint, req)
                assert Verifier(fixture.refstore).verify(response, req).accepted
        finally:
            server.shutdown()
            server.server_close()


class TestConfidentialPayloads:
    def test_confidential_mapped_preprocessing_keeps_its_measurement_set(self, fixture, ctx):
        def request(tag: str, confidential: bool) -> AttestationRequest:
            return build_request(
                "Preprocessing", {"dataset": fixture.dataset_name}, nonce_chal(tag),
                mode="mapped", want_gpu=True, confidential=confidential,
            )

        shown = prover_handle(request("pre", False), ctx)
        fixture.reset_dataset()
        hidden = prover_handle(request("pre", True), ctx)
        assert hidden.outputs is None
        assert hidden.mset == shown.mset
        assert list(shown.outputs) == ["MSH(Dpre)"]


class TestNonLatin1Text:
    MODEL = {"kind": "unigram", "counts": {"0": {"1": 3}}}

    def _inference(self, fixture, tag: str, query: str, history=None):
        inputs = {"model": self.MODEL, "tokenizer": fixture.tokenizer.to_json(), "query": query}
        op = "SingleInference"
        if history is not None:
            op, inputs["history"] = "SessionInference", history
        return build_request(op, inputs, nonce_chal(tag))

    @pytest.mark.parametrize(
        "query, history",
        [("snow \u2603", None), ("snow \u2603", []), ("q", [["snow \u2603", "r"]]),
         ("q", [["q", 7]]), ("q", [["only a query"]])],
    )
    def test_prover_raises_schema_error(self, fixture, ctx, query, history):
        with pytest.raises(SchemaError):
            prover_handle(self._inference(fixture, "bad", query, history), ctx)

    def test_server_answers_with_error_frame_and_keeps_serving(self, fixture, ctx, verifier):
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            bad = self._inference(fixture, "snow", "snow \u2603")
            with pytest.raises(PalmError, match=r"^server error: SchemaError"):
                request_over_tcp(server.endpoint, bad, timeout=10)
            good = self._inference(fixture, "plain", "snow")
            assert verifier.verify(request_over_tcp(server.endpoint, good, timeout=10), good).accepted
        finally:
            server.shutdown()
            server.server_close()

    def test_unexpected_prover_exception_is_an_error_frame(self, fixture, ctx, caplog,
                                                           monkeypatch):
        from palm import protocol

        def defect(*args):
            raise RuntimeError("measurer defect")

        monkeypatch.setattr(protocol, "measure_training", defect)
        bad = fixture.make_request("defect")
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            with pytest.raises(PalmError, match=r"^server error: RuntimeError: measurer defect"):
                request_over_tcp(server.endpoint, bad, timeout=10)
            good = self._inference(fixture, "after", "snow")
            assert request_over_tcp(server.endpoint, good, timeout=10).mset.op == good.op
        finally:
            server.shutdown()
            server.server_close()
        assert "prover failed on a request" in caplog.text


class TestInputRanges:
    """Out-of-range config and model inputs are refused when decoded, before
    any operation runs, and the client gets an ERROR frame."""

    def _served(self, ctx, bad, pattern):
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            with pytest.raises(PalmError, match=pattern):
                request_over_tcp(server.endpoint, bad, timeout=10)
        finally:
            server.shutdown()
            server.server_close()

    def test_negative_seed_never_trains(self, fixture, ctx, monkeypatch):
        from palm import measurers

        calls = []
        real = measurers.train
        monkeypatch.setattr(measurers, "train", lambda *a: calls.append(a) or real(*a))
        req = fixture.make_request("negative-seed")
        inputs = dict(req.inputs, train_config={"seed": -1, "epochs": 1, "sampling": "shuffled"})
        bad = AttestationRequest(req.op, req.chal, inputs, req.mode, req.want_gpu)
        self._served(ctx, bad, r"^server error: SchemaError: bad train_config: seed -1 outside")
        assert calls == []

    @pytest.mark.parametrize("arch", ["trigram", 7, ["bigram"]])
    def test_unknown_arch_never_trains(self, fixture, ctx, monkeypatch, arch):
        from palm import measurers

        calls = []
        monkeypatch.setattr(measurers, "train", lambda *a: calls.append(a))
        req = fixture.make_request("unknown-arch")
        bad = AttestationRequest(req.op, req.chal, dict(req.inputs, arch=arch), "inmem")
        with pytest.raises(SchemaError, match=r"^bad arch: unknown model kind"):
            prover_handle(bad, ctx)
        assert calls == []

    def test_oversized_count_is_an_error_frame(self, fixture, ctx):
        model = {"kind": "unigram", "counts": {"0": {"1": 2**64}}}
        bad = build_request(
            "SingleInference",
            {"model": model, "tokenizer": fixture.tokenizer.to_json(), "query": "q"},
            nonce_chal("oversized-count"),
        )
        self._served(ctx, bad, r"^server error: SchemaError: bad model: count outside \[0, 2\*\*64\)")

    @pytest.mark.parametrize("name, kind", [("model", ToyModel), ("tokenizer", ToyTokenizer),
                                            ("train_config", TrainConfig)])
    def test_document_with_a_key_it_is_not_read_for_is_refused(self, fixture, ctx, name, kind):
        """A model, tokenizer or train config holds nothing it is not read
        for, so each has one encoding."""
        docs = {"model": TestNonLatin1Text.MODEL, "tokenizer": fixture.tokenizer.to_json(),
                "train_config": fixture.config.to_json()}
        doc = dict(docs[name], extra=1)
        with pytest.raises(ValueError, match=r"has keys it is not read for: \['extra'\]"):
            kind.from_json(doc)
        req = (TestNonLatin1Text()._inference(fixture, "extra-key", "q") if name == "model"
               else fixture.make_request("extra-key"))
        bad = AttestationRequest(req.op, req.chal, dict(req.inputs, **{name: doc}), req.mode)
        self._served(ctx, bad, rf"^server error: SchemaError: bad {name}: .* not read for")


    def test_bad_sampling_is_a_schema_error_not_a_defect(self, fixture, ctx, caplog):
        req = fixture.make_request("bad-sampling")
        inputs = dict(req.inputs, train_config={"seed": 1, "epochs": 1, "sampling": "zzz"})
        bad = AttestationRequest(req.op, req.chal, inputs, req.mode, req.want_gpu)
        self._served(ctx, bad, r"^server error: SchemaError: bad train_config: unknown sampling")
        assert "prover failed on a request" not in caplog.text

    def test_non_integer_count_in_a_raw_frame_is_an_error_frame(self, fixture, ctx, verifier):
        """The frame is written by hand, so the count reaches the server as
        the JSON number 2.7, which no client-side type could produce."""
        good = TestNonLatin1Text()._inference(fixture, "raw-count", "snow")
        frame = json.dumps({"type": MSG_REQUEST, "body": good.to_json()}).encode()
        frame = frame.replace(b'{"1": 3}', b'{"1": 2.7}', 1)
        assert b"2.7" in frame
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            with socket.create_connection(server.endpoint, timeout=10) as sock:
                sock.sendall(struct.pack("<I", len(frame)) + frame)
                error = recv_frame(sock)
                assert error["type"] == MSG_ERROR
                assert error["error"].startswith("SchemaError: bad model: count 2.7 is not"), error
                send_frame(sock, {"type": MSG_REQUEST, "body": good.to_json()})
                message = recv_frame(sock)
        finally:
            server.shutdown()
            server.server_close()
        assert message["type"] == MSG_RESPONSE
        assert verifier.verify(AttestationResponse.from_json(message["body"]), good).accepted

    @pytest.mark.parametrize("name, value", [
        ("train_config", {"seed": 1, "sampling": "shuffled"}),
        ("train_config", {"seed": float("inf"), "epochs": 1, "sampling": "shuffled"}),
        ("train_config", [1, 1, "shuffled"]),
        ("tokenizer", {"vocab": ["a", "b"]}),
        ("tokenizer", {"vocab": {"a": "one"}}),
        ("model", {"kind": "trigram", "counts": {}}),
        ("model", {"kind": "unigram", "counts": {"0": {"x": 1}}}),
        ("adapter", {"kind": "unigram"}),
        # JSON numbers that are not integers are refused, never truncated
        ("train_config", {"seed": 1.9, "epochs": 1, "sampling": "shuffled"}),
        ("train_config", {"seed": 1, "epochs": True, "sampling": "shuffled"}),
        ("tokenizer", {"vocab": {"<unk>": 0, "a": True}}),
        ("model", {"kind": "unigram", "counts": {"0": {"1": 2.7}}}),
    ])
    def test_malformed_document_never_runs(self, fixture, ctx, monkeypatch, name, value):
        from palm import protocol

        calls = []
        for measurer in ("measure_training", "measure_optimization", "measure_inference"):
            monkeypatch.setattr(protocol, measurer, lambda *a, **k: calls.append(a))
        if name in ("train_config", "tokenizer"):
            req = fixture.make_request(f"bad-{name}")
        elif name == "model":
            req = TestNonLatin1Text()._inference(fixture, "bad-model", "snow")
        else:
            req = _optimization(fixture, "bad-adapter", "quantize")
        bad = AttestationRequest(req.op, req.chal, dict(req.inputs, **{name: value}), req.mode)
        with pytest.raises(SchemaError, match=f"^bad {name}: "):
            prover_handle(bad, ctx)
        assert calls == []


class TestStagingNames:
    """A request names a staged dataset by a plain file name; a name that
    leads out of the staging directory is refused before any file opens."""

    @pytest.fixture
    def staged(self, fixture, ctx, tmp_path, monkeypatch):
        """The context stages into an empty subdirectory, next to a dataset
        that a request must not be able to reach."""
        from palm import protocol

        write_dataset(tmp_path / "outside.palmds", fixture.records)
        ctx.staging_dir = str(tmp_path / "staging")
        os.mkdir(ctx.staging_dir)
        opened = []
        monkeypatch.setattr(protocol, "load_in_memory", lambda path: opened.append(path))
        ctx.mapped_opener = lambda path, pool: opened.append(path)
        monkeypatch.setattr(protocol, "measure_binding", lambda path: opened.append(path))
        return opened

    @staticmethod
    def _name(tmp_path, name: str) -> str:
        return str(tmp_path / "outside.palmds") if name == "absolute" else name

    @pytest.mark.parametrize("name", ["../outside.palmds", "absolute", "staging/../x",
                                      ".", "..", "", "train\0.palmds", 7])
    @pytest.mark.parametrize("op", ["Preprocessing", "MeasurementBinding", "finetune"])
    def test_prover_refuses(self, fixture, ctx, staged, tmp_path, name, op):
        name = self._name(tmp_path, name)
        if op == "finetune":
            req = _optimization(fixture, "escape", "finetune", opt_dataset=name)
        else:
            req = build_request(op, {"dataset": name}, nonce_chal("escape"), mode="mapped")
        with pytest.raises(SchemaError, match="not a plain file name|bad (opt_)?dataset"):
            prover_handle(req, ctx)
        assert staged == []

    @pytest.mark.parametrize("name", ["../outside.palmds", "absolute"])
    def test_error_frame_then_connection_serves(self, fixture, ctx, staged, tmp_path, name,
                                                caplog):
        bad = build_request("Preprocessing", {"dataset": self._name(tmp_path, name)},
                            nonce_chal("escape-tcp"))
        good = TestNonLatin1Text()._inference(fixture, "after-escape", "snow")
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            with socket.create_connection(server.endpoint, timeout=10) as sock:
                send_frame(sock, {"type": MSG_REQUEST, "body": bad.to_json()})
                error = recv_frame(sock)
                assert error["type"] == MSG_ERROR
                assert error["error"].startswith("SchemaError"), error["error"]
                send_frame(sock, {"type": MSG_REQUEST, "body": good.to_json()})
                message = recv_frame(sock)
                assert message["type"] == MSG_RESPONSE
        finally:
            server.shutdown()
            server.server_close()
        assert staged == []
        assert "prover failed on a request" not in caplog.text
        response = AttestationResponse.from_json(message["body"])
        assert Verifier(fixture.refstore).verify(response, good).accepted


class TestDatasetHandlesClosed:
    """prover_handle closes each mapped dataset it opens, on success and on
    failure, instead of leaving it to the garbage collector."""

    @pytest.mark.parametrize("scenario", ["clean", "SkipRecord"])
    def test_no_unclosed_file(self, fixture, scenario):
        import gc
        import warnings

        from palm.adversary import adversary_run, clean_run

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            if scenario == "clean":
                assert clean_run(fixture).accepted
            else:
                assert adversary_run(scenario, fixture).prover_error == "IncompleteEpoch"
            gc.collect()
        assert [str(w.message) for w in caught if w.category is ResourceWarning] == []


def _corpus(n: int) -> list[bytes]:
    words = [b"Alpha", b"beta", b"GAMMA", b"delta", b"Epsilon"]
    return [b" ".join(words[(i + j) % 5] for j in range(1 + i % 4)) + b" #%d" % i
            for i in range(n)]


class _StopThenKillWorkers(MappedDataset):
    """Stops every worker of the pool it was opened with before the first
    record, so no batch can be answered, and kills them all once two
    batches are out."""

    def __init__(self, path, pool):
        super().__init__(path, pool)
        self.workers = pool

    def sample_run(self, start, stop):
        if start < 300 < stop:
            return self.sample_run(start, 300) + self.sample_run(300, stop)
        if start in (0, 300):
            for pid in self.workers.pids():
                os.kill(pid, signal.SIGSTOP if start == 0 else signal.SIGKILL)
        return super().sample_run(start, stop)


class TestServerPool:
    """A server hashes mapped epochs in its worker pool."""

    N = 600  # more than two batches of FLUSH_RECORDS

    @pytest.fixture
    def staged(self, fixture):
        records = _corpus(self.N)
        write_dataset(os.path.join(fixture.workdir, "big.palmds"), records)
        fixture.refstore.add_property_ref("Preprocessing", "MSH(D)",
                                          msh_of_records(records).encode())
        fixture.refstore.add_property_ref("Preprocessing", "MSH(Dpre)",
                                          msh_of_records(map(preproc_record, records)).encode())
        return records

    def _preprocessing(self, tag: str) -> AttestationRequest:
        return build_request("Preprocessing", {"dataset": "big.palmds"}, nonce_chal(tag),
                             mode="mapped", want_gpu=True)

    def test_caller_context_stays_in_process(self, fixture, ctx, verifier):
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            assert ctx.msh_pool is None
            assert server.td_context.msh_pool is server.msh_pool
            req = build_request(
                "SingleInference",
                {"model": TestNonLatin1Text.MODEL, "tokenizer": fixture.tokenizer.to_json(),
                 "query": "snow"},
                nonce_chal("no-pool"),
            )
            assert verifier.verify(request_over_tcp(server.endpoint, req, timeout=30), req).accepted
            assert server.msh_pool.pids() == []  # a request with no mapped epoch starts nothing
        finally:
            server.shutdown()
            server.server_close()

    def test_concurrent_mapped_requests_accept(self, fixture, ctx, staged):
        import threading

        server = serve_background(("127.0.0.1", 0), ctx)
        requests = [self._preprocessing(f"concurrent-{i}") for i in range(2)]
        responses: dict = {}

        def send(req):
            responses[req.chal.nonce] = request_over_tcp(server.endpoint, req, timeout=60)

        try:
            threads = [threading.Thread(target=send, args=(req,)) for req in requests]
            for t in threads:
                t.start()
            for t in threads:
                t.join(90)
            assert not any(t.is_alive() for t in threads)
            assert len(server.msh_pool.pids()) == server.msh_pool.size
        finally:
            server.shutdown()
            server.server_close()
        for req in requests:
            response = responses[req.chal.nonce]
            verdict = Verifier(fixture.refstore).verify(response, req)
            assert verdict.accepted, verdict.reason
            assert verdict.checks[-1].detail == "2 measurement(s) checked against references"
            assert response.canonical_bytes() == prover_handle(req, ctx).canonical_bytes()

    def test_killed_worker_is_an_error_frame_then_served(self, fixture, ctx, verifier, staged):
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            warm = self._preprocessing("before")
            assert verifier.verify(request_over_tcp(server.endpoint, warm, timeout=30), warm).accepted
            server.td_context.mapped_opener = _StopThenKillWorkers
            with pytest.raises(PalmError, match=r"^server error: MshWorkerError: .*code -9"):
                request_over_tcp(server.endpoint, self._preprocessing("killed"), timeout=30)
            server.td_context.mapped_opener = MappedDataset
            after = self._preprocessing("after")
            assert verifier.verify(request_over_tcp(server.endpoint, after, timeout=30),
                                   after).accepted
        finally:
            server.shutdown()
            server.server_close()

    def test_no_worker_outlives_server_close(self, fixture, ctx, staged):
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            request_over_tcp(server.endpoint, self._preprocessing("close"), timeout=30)
            pids = server.msh_pool.pids()
            assert len(pids) == server.msh_pool.size
        finally:
            server.shutdown()
            server.server_close()
        assert server.msh_pool.pids() == []
        for pid in pids:  # stopped and reaped
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


class TestPooledAdversary:
    def test_mid_epoch_tamper_rejected_with_pool(self, fixture, msh_pool):
        from palm.adversary import _MidEpochTamperDataset

        ctx = fixture.make_context()
        ctx.msh_pool = msh_pool
        clean = fixture.make_request("pooled-clean")
        verdict = Verifier(fixture.refstore).verify(prover_handle(clean, ctx), clean)
        assert verdict.accepted, verdict.reason

        last = len(fixture.records) - 1
        ctx.mapped_opener = lambda path, pool: _MidEpochTamperDataset(path, pool, 4, last)
        tampered = fixture.make_request("pooled-tamper")
        verdict = Verifier(fixture.refstore).verify(prover_handle(tampered, ctx), tampered)
        assert verdict.reason == "ReferenceMismatch"


class TestOperationTable:
    def test_table_and_wire_codes_name_the_same_eight_operations(self):
        assert len(OPS) == 8
        assert set(OPS) == set(OP_CODES)
        assert all(name == spec.name for name, spec in OPS.items())

    def test_prover_calls_what_the_module_names_at_call_time(self, fixture, ctx, monkeypatch):
        """A harness that replaces a measurer, loader or decoder (to trace it)
        sees every call the prover makes. A document the context decoded
        before is not decoded again; a new one reaches the replaced decoder."""
        from palm import protocol
        from palm.toyops import ToyModel, ToyTokenizer

        calls = []

        def spy(owner, attr, as_classmethod=False):
            real = getattr(owner, attr)
            name = f"{owner.__name__}.{attr}" if as_classmethod else attr

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, classmethod(lambda cls, doc: counted(doc))
                                if as_classmethod else counted)

        spy(protocol, "measure_training")
        spy(protocol, "measure_inference")
        spy(protocol, "load_in_memory")
        spy(ToyModel, "from_json", as_classmethod=True)
        spy(ToyTokenizer, "from_json", as_classmethod=True)
        req = fixture.make_request("traced")
        prover_handle(AttestationRequest(req.op, req.chal, req.inputs, "inmem", True), ctx)
        prover_handle(TestNonLatin1Text()._inference(fixture, "traced", "snow"), ctx)
        other = build_request(
            "SingleInference",
            {"model": TestNonLatin1Text.MODEL, "query": "snow",
             "tokenizer": ToyTokenizer.build([b"other words"]).to_json()},
            nonce_chal("traced-other"),
        )
        prover_handle(other, ctx)
        assert calls == ["load_in_memory", "ToyTokenizer.from_json", "measure_training",
                         "ToyModel.from_json", "measure_inference",
                         "ToyTokenizer.from_json", "measure_inference"]


def _optimization(fixture, tag: str, id_opt: str, **inputs) -> AttestationRequest:
    return build_request(
        "WeightOptimization",
        {"model": TestNonLatin1Text.MODEL, "tokenizer": fixture.tokenizer.to_json(),
         "train_config": fixture.config.to_json(), "id_opt": id_opt, **inputs},
        nonce_chal(tag),
    )


def _inference_doc(fixture, tag: str) -> dict:
    return build_request(
        "SingleInference",
        {"model": TestNonLatin1Text.MODEL, "tokenizer": fixture.tokenizer.to_json(),
         "query": "snow"},
        nonce_chal(tag),
    ).to_json()


def _bad_mode(doc, fixture):
    doc["mode"] = "zzz"


def _missing_input(doc, fixture):
    del doc["inputs"]["query"]


def _unknown_input(doc, fixture):
    doc["inputs"]["temperature"] = 0.5


def _timestamp_inference(doc, fixture):
    doc["chal"] = Challenge.from_timestamp().encode().hex()


def _mismatched_id_opt(doc, fixture):
    doc.clear()
    doc.update(_optimization(fixture, "mismatch", "quantize").to_json())
    doc["inputs"]["id_opt"] = "distill"


SCHEMA_FAULTS = [_bad_mode, _missing_input, _unknown_input, _timestamp_inference,
                 _mismatched_id_opt]


class TestServedSchema:
    """A request is held to its operation's schema wherever it is decoded,
    so a served prover refuses a malformed request before proving it."""

    @pytest.mark.parametrize("fault", SCHEMA_FAULTS, ids=lambda f: f.__name__[1:])
    def test_from_json_raises_schema_error(self, fixture, fault):
        doc = _inference_doc(fixture, "doc")
        fault(doc, fixture)
        with pytest.raises(SchemaError):
            AttestationRequest.from_json(doc)

    @pytest.mark.parametrize("fault", SCHEMA_FAULTS, ids=lambda f: f.__name__[1:])
    def test_error_frame_then_connection_serves(self, fixture, ctx, fault, caplog):
        doc = _inference_doc(fixture, "served")
        fault(doc, fixture)
        good = build_request(
            "SingleInference",
            {"model": TestNonLatin1Text.MODEL, "tokenizer": fixture.tokenizer.to_json(),
             "query": "snow"},
            nonce_chal(f"after-{fault.__name__}"),
        )
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            with socket.create_connection(server.endpoint, timeout=10) as sock:
                send_frame(sock, {"type": MSG_REQUEST, "body": doc})
                error = recv_frame(sock)
                assert error["type"] == MSG_ERROR
                assert error["error"].startswith("SchemaError"), error["error"]
                send_frame(sock, {"type": MSG_REQUEST, "body": good.to_json()})
                message = recv_frame(sock)
                assert message["type"] == MSG_RESPONSE
        finally:
            server.shutdown()
            server.server_close()
        assert "prover failed on a request" not in caplog.text
        response = AttestationResponse.from_json(message["body"])
        assert Verifier(fixture.refstore).verify(response, good).accepted

    def test_direct_construction_is_checked(self, fixture):
        req = fixture.make_request("direct")
        with pytest.raises(SchemaError, match="unknown mode"):
            AttestationRequest(req.op, req.chal, req.inputs, "zzz")
        with pytest.raises(SchemaError, match="does not take inputs"):
            AttestationRequest(req.op, req.chal, dict(req.inputs, extra=1))
        quantize = _optimization(fixture, "direct", "quantize")
        with pytest.raises(SchemaError, match="unknown optimization"):
            AttestationRequest(quantize.op, quantize.chal, dict(quantize.inputs, id_opt="distill"))


class TestHostileDocuments:
    """A request or response document decodes exactly or fails closed."""

    @pytest.mark.parametrize("key", ["want_gpu", "confidential"])
    @pytest.mark.parametrize("value", ["false", 1, 1.5, {}], ids=repr)
    def test_flags_are_exact_booleans(self, fixture, key, value):
        doc = fixture.make_request("flags").to_json()
        doc[key] = value
        with pytest.raises(SchemaError, match="must each be true or false"):
            AttestationRequest.from_json(doc)

    @pytest.mark.parametrize("char", ["\u00e9", "\x80", "\xff"], ids=repr)
    def test_label_must_be_ascii_text(self, fixture, ctx, char):
        doc = prover_handle(fixture.make_request("label"), ctx).to_json()
        raw = _set_bytes(doc)
        raw[FIRST_LABEL] = ord(char)
        with pytest.raises(FormatError, match="is not ASCII text"):
            AttestationResponse.from_json(_with_set_bytes(doc, raw))

    @pytest.mark.parametrize("outputs", [[1], "x", 7], ids=repr)
    def test_outputs_must_be_an_object(self, fixture, ctx, outputs):
        doc = prover_handle(fixture.make_request("outputs"), ctx).to_json()
        doc["outputs"] = outputs
        with pytest.raises(FormatError, match="outputs must be an object"):
            AttestationResponse.from_json(doc)

    @pytest.mark.parametrize("field", ["quote", "output", "measurement_set"])
    def test_base64_must_be_canonical(self, fixture, ctx, field):
        """RFC 4648 section 3.5: data after the padding, or pad bits that are
        not zero, make text that no encoder writes."""
        response = prover_handle(fixture.make_request("b64"), ctx)
        doc = response.to_json()
        section, key = (doc["outputs"], "h(Mtr)") if field == "output" else (doc, field)
        text = section[key]
        data = text.rstrip("=")
        assert data != text, "the field's bytes must end in a padded group"
        nonzero_pad = data[:-1] + B64_ALPHABET[B64_ALPHABET.index(data[-1]) + 1] + text[len(data):]
        for spelling in (text + "QUJD", nonzero_pad):
            section[key] = spelling
            with pytest.raises(FormatError, match="padding|not canonical"):
                AttestationResponse.from_json(doc)
        section[key] = text
        assert AttestationResponse.from_json(doc) == response

    @pytest.mark.parametrize("spell", [str.upper, lambda text: text[:2] + " " + text[2:]],
                             ids=["upper", "spaced"])
    def test_hex_must_be_canonical(self, fixture, spell):
        """Lowercase hex with no separators is the one spelling of bytes."""
        request = fixture.make_request("hex").to_json()
        request["chal"], original = spell(request["chal"]), request["chal"]
        assert request["chal"] != original
        with pytest.raises(SchemaError, match="not canonical"):
            AttestationRequest.from_json(request)

    @pytest.mark.parametrize("id_opt", [None, 7, "Quantize"], ids=repr)
    def test_optimization_must_be_known(self, fixture, id_opt):
        doc = _optimization(fixture, "id-opt", "quantize").to_json()
        doc["inputs"]["id_opt"] = id_opt
        with pytest.raises(SchemaError, match="unknown optimization"):
            AttestationRequest.from_json(doc)

    @pytest.mark.parametrize("where", ["request", "response", "measurement set",
                                       "measurement"])
    def test_stale_id_opt_key_is_refused(self, fixture, ctx, verifier, where):
        """A document holds only what its decoder reads, so a stale field
        such as an id_opt is refused, not ignored: a key of a request or
        response object, bytes after a measurement set, or an entry of a
        set that the quote does not bind."""
        req = _optimization(fixture, "stale-key", "quantize")
        request, response = req.to_json(), prover_handle(req, ctx).to_json()
        refused = rf"{where} has keys it is not read for: \['id_opt'\]"
        stale = lp(b"id_opt") + lp(b"quantize")
        raw = _set_bytes(response)
        if where == "request":
            request["id_opt"] = "quantize"
            with pytest.raises(SchemaError, match=refused):
                AttestationRequest.from_json(request)
        elif where == "response":
            response["id_opt"] = "quantize"
            with pytest.raises(FormatError, match=refused):
                AttestationResponse.from_json(response)
        elif where == "measurement set":
            with pytest.raises(FormatError, match=f"{len(stale)} trailing byte"):
                AttestationResponse.from_json(_with_set_bytes(response, raw + stale))
        else:
            raw[1:5] = u32(int.from_bytes(raw[1:5], "little") + 1)
            raw[5:5] = stale  # the first H_I entry
            verdict = verifier.verify(AttestationResponse.from_json(_with_set_bytes(response, raw)), req)
            assert (verdict.result, verdict.reason) == ("Reject", "Malformed")
            assert verdict.checks[-1].name == "measurement_set_binding"

    def test_every_cut_and_byte_change_of_the_set_fails_closed(self, fixture, ctx):
        """Set bytes other than those the quote binds never pass check 6.
        Every proper prefix of a clean set, and every change of one of its
        bytes to any other value, is a FormatError or parses to a set whose
        digest is not the quoted one. Each prefix, and each byte changed in
        its low bit, its high bit or all bits, is also taken through a
        response document and the verifier: a FormatError or a Reject at
        measurement_set_binding."""
        req = _optimization(fixture, "set-bytes", "quantize")
        response = prover_handle(req, ctx)
        raw = response.mset.serialized_bytes()
        quoted = Quote.decode(response.quote).report_data.hi_ho_digest
        assert Verifier(fixture.refstore).verify(response, req).accepted

        def changed(at: int, values) -> Iterator[bytes]:
            return (raw[:at] + bytes([v]) + raw[at + 1:] for v in values if v != raw[at])

        cuts = [raw[:n] for n in range(len(raw))]
        for mutant in chain(cuts, *(changed(at, range(256)) for at in range(len(raw)))):
            try:
                assert MeasurementSet.from_bytes(mutant).digest() != quoted, mutant.hex()
            except FormatError:
                pass
        doc = response.to_json()
        flips = (changed(at, (raw[at] ^ m for m in (0x01, 0x80, 0xFF))) for at in range(len(raw)))
        for mutant in chain(cuts, *flips):
            try:
                hostile = AttestationResponse.from_json(_with_set_bytes(doc, mutant))
            except FormatError:
                continue
            verdict = Verifier(fixture.refstore).verify(hostile, req)
            assert (verdict.result, verdict.checks[-1].name) == (
                "Reject", "measurement_set_binding"), mutant.hex()

    def test_inputs_must_be_an_object(self, fixture):
        doc = fixture.make_request("inputs").to_json()
        doc["inputs"] = list(doc["inputs"].items())
        with pytest.raises(SchemaError, match="inputs must be an object"):
            AttestationRequest.from_json(doc)


class TestVerifierBindsOperation:
    """A measurement set answers the operation the relying party asked for:
    evidence of another operation under the same challenge is Malformed."""

    def _assert_malformed_at_binding(self, verdict):
        assert (verdict.result, verdict.reason) == ("Reject", "Malformed")
        assert verdict.checks[-1].name == "measurement_set_binding"
        assert not verdict.checks[-1].passed

    def test_preprocessing_response_under_training_echo(self, fixture, ctx, verifier):
        training = fixture.make_request("op-swap")
        preprocessing = build_request(
            "Preprocessing", {"dataset": fixture.dataset_name}, training.chal,
            mode="mapped", want_gpu=True,
        )
        response = prover_handle(preprocessing, ctx)
        self._assert_malformed_at_binding(verifier.verify(response, training))

    def test_id_opt_disagreement(self, fixture, ctx, verifier):
        prune = _optimization(fixture, "id-opt-swap", "prune")
        quantize = _optimization(fixture, "id-opt-swap", "quantize")
        assert prune.chal == quantize.chal
        response = prover_handle(prune, ctx)
        self._assert_malformed_at_binding(verifier.verify(response, quantize))
        assert Verifier(fixture.refstore).verify(response, prune).accepted

    def test_relabelled_optimization(self, fixture, ctx, verifier):
        """A quantize run presented as prune: the echoed request's id_opt
        names prune. Only the quoted h(idopt) names the optimization that
        ran."""
        quantize = _optimization(fixture, "relabel", "quantize")
        response = prover_handle(quantize, ctx).to_json()
        request = quantize.to_json()
        request["inputs"] = dict(request["inputs"], id_opt="prune")
        verdict = verifier.verify(AttestationResponse.from_json(response),
                                  AttestationRequest.from_json(request))
        self._assert_malformed_at_binding(verdict)
        assert "does not quote optimization 'prune'" in verdict.checks[-1].detail


class TestTokenizerText:
    def test_non_latin1_token_never_runs_inference(self, fixture, ctx, monkeypatch):
        from palm import protocol

        calls = []
        real = protocol.measure_inference
        monkeypatch.setattr(protocol, "measure_inference",
                            lambda *a: calls.append(a) or real(*a))
        vocab = fixture.tokenizer.to_json()["vocab"]
        tokenizer = {"vocab": dict(vocab, **{"snow\u2603": len(vocab)})}
        bad = build_request(
            "SingleInference",
            {"model": TestNonLatin1Text.MODEL, "tokenizer": tokenizer, "query": "snow"},
            nonce_chal("snowman-token"),
        )
        with pytest.raises(SchemaError, match="tokenizer vocabulary"):
            prover_handle(bad, ctx)
        TestInputRanges()._served(
            ctx, bad, r"^server error: SchemaError: bad tokenizer: tokenizer vocabulary")
        assert calls == []


class TestOversizedFrame:
    def test_error_frame_then_close_and_server_still_serves(self, fixture, ctx, verifier):
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            with socket.create_connection(server.endpoint, timeout=10) as sock:
                sock.sendall(struct.pack("<I", MAX_FRAME + 1))
                error = recv_frame(sock)
                assert error["type"] == MSG_ERROR
                assert "exceeds limit" in error["error"]
                assert recv_frame(sock) is None  # closed, not reading on
            req = TestNonLatin1Text()._inference(fixture, "after-oversize", "snow")
            assert verifier.verify(request_over_tcp(server.endpoint, req, timeout=10),
                                   req).accepted
        finally:
            server.shutdown()
            server.server_close()


class TestCanonicalModelIds:
    """A model or adapter id is a canonical decimal key. Any other key would
    be read by int() as some other id, so the prover would quote h(M) for a
    model other than the one the request carried; it is refused before any
    operation runs."""

    BAD_KEYS = ["1_0", " 7", "+7", "٣", "01", "-0", ""]

    @pytest.mark.parametrize("key", BAD_KEYS)
    @pytest.mark.parametrize("name", ["model", "adapter"])
    def test_prover_refuses(self, fixture, ctx, monkeypatch, name, key):
        from palm import protocol

        calls = []
        for measurer in ("measure_optimization", "measure_inference"):
            monkeypatch.setattr(protocol, measurer, lambda *a, **k: calls.append(a))
        if name == "model":
            req = TestNonLatin1Text()._inference(fixture, f"id-{key}", "snow")
        else:
            req = _optimization(fixture, f"id-{key}", "quantize")
        doc = {"kind": "unigram", "counts": {"0": {"1": 3, key: 1}}}
        bad = AttestationRequest(req.op, req.chal, dict(req.inputs, **{name: doc}), req.mode)
        with pytest.raises(SchemaError, match=f"^bad {name}: token id key .* is outside"):
            prover_handle(bad, ctx)
        assert calls == []

    def test_context_key_refused(self, fixture, ctx):
        req = TestNonLatin1Text()._inference(fixture, "ctx-key", "snow")
        doc = {"kind": "bigram", "counts": {"0": {"1": 3}, "00": {"2": 1}}}
        bad = AttestationRequest(req.op, req.chal, dict(req.inputs, model=doc), req.mode)
        with pytest.raises(SchemaError, match="^bad model: context id key '00' is outside"):
            prover_handle(bad, ctx)

    def test_raw_frame_is_an_error_frame_then_served(self, fixture, ctx, verifier):
        """The frame is written by hand, so the key reaches the server as
        the string "1_0", which ToyModel.to_json never writes."""
        good = TestNonLatin1Text()._inference(fixture, "raw-id", "snow")
        frame = json.dumps({"type": MSG_REQUEST, "body": good.to_json()}).encode()
        frame = frame.replace(b'{"1": 3}', b'{"1_0": 3}', 1)
        assert b'"1_0"' in frame
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            with socket.create_connection(server.endpoint, timeout=10) as sock:
                sock.sendall(struct.pack("<I", len(frame)) + frame)
                error = recv_frame(sock)
                assert error["type"] == MSG_ERROR
                assert error["error"].startswith(
                    "SchemaError: bad model: token id key '1_0' is outside"), error
                send_frame(sock, {"type": MSG_REQUEST, "body": good.to_json()})
                message = recv_frame(sock)
        finally:
            server.shutdown()
            server.server_close()
        assert message["type"] == MSG_RESPONSE
        assert verifier.verify(AttestationResponse.from_json(message["body"]), good).accepted
