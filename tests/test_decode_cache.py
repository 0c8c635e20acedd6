"""The prover's decode cache, and frames that keep their key order.

A context keeps the last model, adapter and tokenizer it decoded, keyed by
the document's JSON text: a request that carries the same text again
reuses the object. These tests pin what makes a hit sound (type-exact
keys, only documents that decoded are kept, kept objects are never written
to), that a context keeps one object per input name, and sharing between
threads.
"""

import gc
import os
import socket
import struct
import sys
import threading
import weakref

import numpy as np
import pytest

from palm.adversary import build_clean_fixture
from palm.attestation import Challenge
from palm.dataset import write_dataset
from palm.encoding import sha3_256
from palm.errors import FormatError, SchemaError
from palm.protocol import DecodeCache, Verifier, build_request, json_text, prover_handle
from palm.toyops import ToyModel, ToyTokenizer, train
from palm.transport import recv_frame, request_over_tcp, send_frame, serve_background
from reference import oracle_model_bytes


@pytest.fixture
def fixture(tmp_path):
    return build_clean_fixture(str(tmp_path))


@pytest.fixture
def ctx(fixture):
    return fixture.make_context()


def nonce_chal(tag: str) -> Challenge:
    return Challenge.from_nonce(sha3_256(b"cache:" + tag.encode()))


def _inference(fixture, tag: str, model: dict, tokenizer=None):
    tokenizer = fixture.tokenizer.to_json() if tokenizer is None else tokenizer
    return build_request(
        "SingleInference", {"model": model, "tokenizer": tokenizer, "query": "quick"},
        nonce_chal(tag),
    )


def _calls(monkeypatch, owner) -> list:
    """Count the calls that reach owner.from_json (looked up by name)."""
    calls = []
    real = owner.from_json

    def counted(cls, doc):
        calls.append(doc)
        return real(doc)

    monkeypatch.setattr(owner, "from_json", classmethod(counted))
    return calls


def _kept(ctx, space: str, doc):
    """The object the context keeps for doc; fails if it keeps none."""
    def missed(doc):
        raise AssertionError(f"{space} document is not in the cache")

    return ctx.decode_cache.get(space, doc, missed)


class TestTypeExactKeys:
    @pytest.mark.parametrize("count", [True, 1.0])
    def test_count_never_hits_the_entry_of_an_int(self, fixture, ctx, count):
        one = {"kind": "unigram", "counts": {"0": {"1": 1}}}
        prover_handle(_inference(fixture, "int", one), ctx)
        other = {"kind": "unigram", "counts": {"0": {"1": count}}}
        assert other == one  # equal as Python values: a dict key would hit
        with pytest.raises(SchemaError, match=r"^bad model: count .* is not an integer"):
            prover_handle(_inference(fixture, "exact", other), ctx)

    @pytest.mark.parametrize("token_id", [True, 1.0])
    def test_tokenizer_id_never_hits_the_entry_of_an_int(self, fixture, ctx, token_id):
        model = {"kind": "unigram", "counts": {"0": {"1": 3}}}
        prover_handle(_inference(fixture, "int", model, {"vocab": {"<unk>": 0, "a": 1}}), ctx)
        other = {"vocab": {"<unk>": 0, "a": token_id}}
        with pytest.raises(SchemaError, match=r"^bad tokenizer: token id .* is not an integer"):
            prover_handle(_inference(fixture, "exact", model, other), ctx)

    def test_each_input_name_is_its_own_key_space(self):
        cache = DecodeCache()
        doc = {"vocab": {"<unk>": 0}}
        assert cache.get("model", doc, lambda doc: "as model") == "as model"
        assert cache.get("adapter", doc, lambda doc: "as adapter") == "as adapter"
        assert cache.get("tokenizer", doc, lambda doc: "as tokenizer") == "as tokenizer"
        assert cache.get("model", doc, lambda doc: "again") == "as model"


class TestFailures:
    def test_failing_document_is_decoded_and_fails_every_time(self, fixture, ctx, monkeypatch):
        calls = _calls(monkeypatch, ToyModel)
        bad = {"kind": "unigram", "counts": {"0": {"1": 2**64}}}
        for attempt in range(3):
            with pytest.raises(SchemaError, match=r"^bad model: count outside"):
                prover_handle(_inference(fixture, f"bad-{attempt}", bad), ctx)
        assert len(calls) == 3
        assert ctx.decode_cache.get("model", bad, lambda doc: "not kept") == "not kept"


class TestTextKey:
    """An in-process document is keyed by the JSON text it writes and decoded
    as json.loads of that text, so a hit gives what a decode would, and an
    object JSON cannot write leaves no entry."""

    def test_bytes_inside_a_document_are_a_schema_error(self, fixture, ctx):
        model = {"kind": "unigram".encode("utf-32-le"), "counts": {"0": {"1": 3}}}
        with pytest.raises(SchemaError, match=r"^bad model: Object of type bytes is not JSON"):
            prover_handle(_inference(fixture, "kind-bytes", model), ctx)
        assert ctx.decode_cache.last == {}

    class Kind(str):
        pass

    @pytest.mark.parametrize("kind", [np.str_("unigram"), Kind("unigram")],
                             ids=["numpy", "subclass"])
    def test_str_subclass_keys_and_decodes_as_its_string(self, fixture, ctx, kind):
        model = {"kind": kind, "counts": {"0": {"1": 3}}}
        plain = {"kind": "unigram", "counts": {"0": {"1": 3}}}
        prover_handle(_inference(fixture, f"kind-{type(kind).__name__}", model), ctx)
        kept = _kept(ctx, "model", plain)
        assert type(kept.kind) is str and kept == ToyModel.from_json(plain)
        assert ctx.decode_cache.last["model"][0] == json_text(plain)

    def test_json_text_and_its_document_share_one_entry(self):
        cache = DecodeCache()
        doc = {"vocab": {"<unk>": 0, "a": 1}}
        kept = cache.get("tokenizer", json_text(doc), ToyTokenizer.from_json)
        assert cache.get("tokenizer", doc, lambda doc: "missed") is kept

    @pytest.mark.parametrize("encoding", ["utf-16", "utf-32"])
    def test_text_other_than_utf8_is_a_schema_error(self, fixture, ctx, encoding):
        model = json_text({"kind": "unigram", "counts": {"0": {"1": 3}}})
        request = _inference(fixture, f"text-{encoding}", model.decode().encode(encoding))
        with pytest.raises(SchemaError, match=r"^bad model: 'utf-8' codec can't decode"):
            prover_handle(request, ctx)
        assert ctx.decode_cache.last == {}


class TestOneObjectPerName:
    def test_distinct_tokenizers_leave_only_the_last_one_kept(self):
        cache = DecodeCache()
        docs = [{"vocab": {"<unk>": 0, **{f"t{i}-{n}": n for n in range(1, 500)}}}
                for i in range(4)]
        decoded = [weakref.ref(cache.get("tokenizer", doc, ToyTokenizer.from_json))
                   for doc in docs]
        gc.collect()
        assert [ref() is not None for ref in decoded] == [False, False, False, True]
        assert list(cache.last) == ["tokenizer"]
        assert cache.last["tokenizer"][0] == json_text(docs[-1])

    def test_finetune_keeps_its_model_and_a_different_adapter(self, fixture, ctx, monkeypatch):
        model = train("bigram", fixture.records, fixture.config, fixture.tokenizer).to_json()
        adapter = train("bigram", fixture.records[:2], fixture.config, fixture.tokenizer).to_json()
        calls = _calls(monkeypatch, ToyModel)
        for attempt in range(3):
            prover_handle(build_request(
                "WeightOptimization",
                {"model": model, "tokenizer": fixture.tokenizer.to_json(),
                 "train_config": fixture.config.to_json(), "id_opt": "finetune",
                 "adapter": adapter, "opt_dataset": fixture.dataset_name},
                nonce_chal(f"finetune-{attempt}"),
            ), ctx)
        assert calls == [model, adapter]

    def test_document_that_fails_leaves_the_last_one_kept(self, fixture, ctx):
        model = {"kind": "unigram", "counts": {"0": {"1": 3}}}
        prover_handle(_inference(fixture, "good", model), ctx)
        kept = _kept(ctx, "model", model)
        with pytest.raises(SchemaError, match=r"^bad model: count outside"):
            prover_handle(_inference(fixture, "bad", {"kind": "unigram",
                                                      "counts": {"0": {"1": -1}}}), ctx)
        assert _kept(ctx, "model", model) is kept


class TestThreads:
    def test_four_threads_decoding_one_document_get_equal_objects(self, fixture):
        model_doc = train("bigram", fixture.records * 20, fixture.config,
                          fixture.tokenizer).to_json()
        expected = ToyModel.from_json(model_doc)
        cache = DecodeCache()
        barrier = threading.Barrier(4)
        results, errors = [], []

        def work():
            try:
                barrier.wait()
                for _ in range(5):
                    results.append(cache.get("model", model_doc, ToyModel.from_json))
            except Exception as exc:
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(results) == 20 and all(model == expected for model in results)

    def test_four_threads_proving_on_one_context_give_one_response(self, fixture, ctx):
        model = train("bigram", fixture.records, fixture.config, fixture.tokenizer).to_json()
        request = build_request(
            "SessionInference",
            {"model": model, "tokenizer": fixture.tokenizer.to_json(), "query": "quick",
             "history": [["the", "lazy dog"]]},
            nonce_chal("threads"),
        )
        expected = prover_handle(request, fixture.make_context()).canonical_bytes()
        responses = []
        barrier = threading.Barrier(4)

        def work():
            barrier.wait()
            responses.append(prover_handle(request, ctx).canonical_bytes())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert responses == [expected] * 4


class TestKeptModelIsNeverWritten:
    def test_every_model_op_leaves_the_kept_model_unchanged(self, fixture, ctx):
        model = train("bigram", fixture.records, fixture.config, fixture.tokenizer).to_json()
        tokenizer = fixture.tokenizer.to_json()
        eval_name = "eval.palmds"
        write_dataset(os.path.join(fixture.workdir, eval_name),
                      [b"the quick\tbrown", b"lazy\tdog", b"\tthe"])
        prover_handle(_inference(fixture, "first", model), ctx)
        kept = _kept(ctx, "model", model)
        before = kept.serialized_bytes()

        def optimization(tag, id_opt, **extra):
            return build_request(
                "WeightOptimization",
                {"model": model, "tokenizer": tokenizer, "train_config": fixture.config.to_json(),
                 "id_opt": id_opt, **extra},
                nonce_chal(tag),
            )

        requests = [
            build_request("Evaluation",
                          {"model": model, "tokenizer": tokenizer, "dataset": eval_name},
                          nonce_chal("eval")),
            _inference(fixture, "single", model),
            build_request("SessionInference",
                          {"model": model, "tokenizer": tokenizer, "query": "quick",
                           "history": [["the", "lazy dog"]]}, nonce_chal("session")),
            optimization("quantize", "quantize"),
            optimization("prune", "prune"),
            optimization("finetune", "finetune", adapter=model, opt_dataset=fixture.dataset_name),
        ]
        for request in requests:
            prover_handle(request, ctx)
            assert _kept(ctx, "model", model) is kept
            assert kept.serialized_bytes() == before, request.op
            for column in (kept.contexts, kept.starts, kept.tokens, kept.freqs):
                assert not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            kept.freqs[0] = 0

    def test_kept_model_builds_its_canonical_bytes_once(self, fixture, ctx):
        model = train("bigram", fixture.records, fixture.config, fixture.tokenizer).to_json()
        prover_handle(_inference(fixture, "once-1", model), ctx)
        kept = _kept(ctx, "model", model)
        first = kept.serialized_bytes()
        prover_handle(_inference(fixture, "once-2", model), ctx)
        assert _kept(ctx, "model", model).serialized_bytes() is first
        assert first == oracle_model_bytes("bigram", ToyModel.from_json(model).counts)


class TestServedSession:
    def test_chat_turns_decode_the_model_once(self, fixture, ctx, monkeypatch):
        model_calls = _calls(monkeypatch, ToyModel)
        tokenizer_calls = _calls(monkeypatch, ToyTokenizer)
        model = train("bigram", fixture.records, fixture.config, fixture.tokenizer).to_json()
        verifier = Verifier(fixture.refstore)
        server = serve_background(("127.0.0.1", 0), ctx)
        history = []
        try:
            for turn in range(4):
                request = build_request(
                    "SessionInference",
                    {"model": model, "tokenizer": fixture.tokenizer.to_json(),
                     "query": f"quick {turn}", "history": list(history)},
                    nonce_chal(f"turn-{turn}"),
                )
                response = request_over_tcp(server.endpoint, request, timeout=10)
                assert verifier.verify(response, request).checks[-2].passed
                history.append([f"quick {turn}", "the lazy dog"])
        finally:
            server.shutdown()
            server.server_close()
        assert len(model_calls) == 1
        assert len(tokenizer_calls) == 1
        assert ctx.decode_cache.last == {}  # the server proves with a copy of its own


class TestFrames:
    def test_frames_keep_key_order(self):
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, {"type": "REQUEST", "body": {"counts": {"9": 1, "10": 2}}})
            message = recv_frame(b)
        assert list(message) == ["type", "body"]
        assert list(message["body"]["counts"]) == ["9", "10"]

    @pytest.mark.parametrize("sent", [b"", b"\x05\x00"])
    def test_end_of_stream_before_a_frame_is_none(self, sent):
        a, b = socket.socketpair()
        with b:
            with a:
                a.sendall(sent)
            assert recv_frame(b) is None

    def test_end_of_stream_inside_a_frame_is_out_of_step(self):
        a, b = socket.socketpair()
        with b:
            with a:
                a.sendall(struct.pack("<I", 10) + b'{"type"')
            with pytest.raises(FormatError, match="stream ended mid-frame"):
                recv_frame(b)
