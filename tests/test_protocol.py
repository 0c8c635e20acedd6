"""Protocol pipeline: request schemas, verdict checks, binding, transport."""

import os
import signal
import socket
import struct

import pytest

from palm.adversary import build_clean_fixture
from palm.attestation import Challenge, derive_private_key
from palm.dataset import write_dataset
from palm.dataset import MappedDataset
from palm.encoding import sha3_256
from palm.errors import PalmError, SchemaError
from palm.measurers import OP_CODES, GpuToken, LabeledMeasurement, MeasurementSet
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
from palm.toyops import preproc_record
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


def nonce_chal(tag: str) -> Challenge:
    return Challenge.from_nonce(sha3_256(b"proto:" + tag.encode()))


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
        assert req.op.name == "Training"

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
        bad = GpuToken(
            response.gpu_token.gpu_measurement,
            response.gpu_token.nonce,
            bytes(64),
        )
        tampered = AttestationResponse(response.quote, response.mset, response.outputs, bad)
        verdict = verifier.verify(tampered, req)
        assert verdict.reason == "GpuEvidenceInvalid"

    def test_gpu_nonce_must_match_challenge(self, fixture, ctx, verifier):
        from palm.attestation import gpu_attest

        req = fixture.make_request("gpu-nonce")
        response = prover_handle(req, ctx)
        retargeted = gpu_attest(ctx.gpu_state, b"\x00" * 32, ctx.gpu_key)
        tampered = AttestationResponse(response.quote, response.mset, response.outputs, retargeted)
        assert verifier.verify(tampered, req).reason == "GpuEvidenceInvalid"

    def test_mset_tamper_breaks_binding(self, fixture, ctx, verifier):
        req = fixture.make_request("mset-tamper")
        response = prover_handle(req, ctx)
        entries = list(response.mset.h_i)
        entries[0] = LabeledMeasurement(entries[0].label, sha3_256(b"lie"))
        forged = MeasurementSet(response.mset.op, tuple(entries), response.mset.h_o)
        verdict = verifier.verify(
            AttestationResponse(response.quote, forged, response.outputs, response.gpu_token),
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
            AttestationResponse(response.quote, response.mset, outputs, response.gpu_token),
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

    def test_unexpected_prover_exception_is_an_error_frame(self, fixture, ctx, caplog):
        req = fixture.make_request("bad-sampling")
        inputs = dict(req.inputs, train_config={"seed": 1, "epochs": 1, "sampling": "zzz"})
        bad = AttestationRequest(req.op, req.chal, inputs, req.mode, req.want_gpu)
        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            with pytest.raises(PalmError, match=r"^server error: ValueError: unknown sampling"):
                request_over_tcp(server.endpoint, bad, timeout=10)
            good = self._inference(fixture, "after", "snow")
            assert request_over_tcp(server.endpoint, good, timeout=10).mset.op.name == good.op.name
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
        self._served(ctx, bad, r"^server error: ValueError: seed -1 outside")
        assert calls == []

    def test_oversized_count_is_an_error_frame(self, fixture, ctx):
        model = {"kind": "unigram", "counts": {"0": {"1": 2**64}}}
        bad = build_request(
            "SingleInference",
            {"model": model, "tokenizer": fixture.tokenizer.to_json(), "query": "q"},
            nonce_chal("oversized-count"),
        )
        self._served(ctx, bad, r"^server error: ValueError: count outside \[0, 2\*\*64\)")


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
    """Stops every pool worker before the first record, so no batch can be
    answered, and kills them all once two batches are out."""

    pool = None

    def sample_record(self, index, into=None):
        if index in (0, 300):
            for pid in self.pool.pids():
                os.kill(pid, signal.SIGSTOP if index == 0 else signal.SIGKILL)
        return super().sample_record(index, into)


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
            _StopThenKillWorkers.pool = server.msh_pool
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
        import multiprocessing

        server = serve_background(("127.0.0.1", 0), ctx)
        try:
            request_over_tcp(server.endpoint, self._preprocessing("close"), timeout=30)
            pids = server.msh_pool.pids()
            assert len(pids) == server.msh_pool.size
        finally:
            server.shutdown()
            server.server_close()
        assert server.msh_pool.pids() == []
        assert not {p.pid for p in multiprocessing.active_children()} & set(pids)
        for pid in pids:
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
        ctx.mapped_opener = lambda path: _MidEpochTamperDataset(path, 4, last)
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
        sees every call the prover makes."""
        from palm import protocol
        from palm.toyops import ToyModel, ToyTokenizer

        calls = []

        def spy(owner, attr, as_classmethod=False):
            real = getattr(owner, attr)

            def counted(*args, **kwargs):
                calls.append(attr)
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
        assert calls == ["load_in_memory", "from_json", "measure_training",
                         "from_json", "from_json", "measure_inference"]


def _optimization(fixture, tag: str, id_opt: str) -> AttestationRequest:
    return build_request(
        "WeightOptimization",
        {"model": TestNonLatin1Text.MODEL, "tokenizer": fixture.tokenizer.to_json(),
         "train_config": fixture.config.to_json(), "id_opt": id_opt},
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
    doc["inputs"]["id_opt"] = "prune"


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
        with pytest.raises(SchemaError, match="disagrees"):
            AttestationRequest(quantize.op, quantize.chal, dict(quantize.inputs, id_opt="prune"))


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
        TestInputRanges()._served(ctx, bad, r"^server error: SchemaError: tokenizer vocabulary")
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
