"""Messages over TCP: a JSON head and the raw attachments it announces.

A request's model, adapter and tokenizer travel as JSON text and a
response's outputs as raw bytes, each in its own frame after the head.
These tests pin the round trip, that both directions attach what they
should, that a malformed, oversized or cut-off message ends its
connection after an ERROR frame while the server serves on, and that a
connection that stalls is closed.
"""

import json
import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from palm import transport
from palm.adversary import build_clean_fixture
from palm.attestation import Challenge
from palm.encoding import sha3_256
from palm.errors import FormatError, PalmError
from palm.protocol import AttestationResponse, Verifier, build_request, json_text
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

MODEL = {"kind": "unigram", "counts": {"0": {"1": 3}}}


@pytest.fixture
def fixture(tmp_path):
    return build_clean_fixture(str(tmp_path))


@pytest.fixture
def server(fixture):
    server = serve_background(("127.0.0.1", 0), fixture.make_context())
    yield server
    server.shutdown()
    server.server_close()


def inference(fixture, tag: str):
    return build_request(
        "SingleInference",
        {"model": MODEL, "tokenizer": fixture.tokenizer.to_json(), "query": "quick"},
        Challenge.from_nonce(sha3_256(b"transport:" + tag.encode())),
    )


def frame(data: bytes) -> bytes:
    return struct.pack("<I", len(data)) + data


def head(message: dict) -> bytes:
    return frame(json.dumps(message).encode())


def still_serves(fixture, server, tag: str) -> None:
    request = inference(fixture, tag)
    response = request_over_tcp(server.endpoint, request, timeout=10)
    assert Verifier(fixture.refstore).verify(response, request).accepted


def attached_inference(fixture, tag: str, attached) -> dict:
    """A REQUEST head whose model is announced as attached by `attached`."""
    body = inference(fixture, tag).to_json()
    body["inputs"] = dict(body["inputs"], model=None)
    return {"type": MSG_REQUEST, "body": body, "attached": attached}


class TestRoundTrip:
    values = st.dictionaries(st.text(max_size=8), st.binary(max_size=600), max_size=4)

    @settings(max_examples=60, deadline=None)
    @given(inputs=values, outputs=values, plain=st.dictionaries(st.text(max_size=8),
                                                                st.integers(), max_size=3))
    def test_bytes_values_come_back_in_place(self, inputs, outputs, plain):
        body = {"inputs": {**plain, **inputs}, "outputs": {**plain, **outputs}, "chal": "00"}
        message = {"type": MSG_REQUEST, "body": body}
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, message)
            received = recv_frame(b)
        assert received == message
        assert list(received["body"]["inputs"]) == list(body["inputs"])

    def test_head_announces_each_attachment_in_order(self):
        message = {"type": MSG_RESPONSE,
                   "body": {"outputs": {"M": b"\x00model", "empty": b"", "n": 1}}}
        a, b = socket.socketpair()
        with a, b:
            send_frame(a, message)
            a.close()
            data = b.recv(1 << 16)
        (length,) = struct.unpack("<I", data[:4])
        assert json.loads(data[4:4 + length]) == {
            "type": MSG_RESPONSE, "body": {"outputs": {"M": None, "empty": None, "n": 1}},
            "attached": [["outputs", "M"], ["outputs", "empty"]]}
        assert data[4 + length:] == frame(b"\x00model") + frame(b"")


class TestBothDirectionsAttach:
    def test_request_attaches_model_and_tokenizer_as_json_text(self, fixture):
        request = inference(fixture, "client")
        seen = {}

        with socket.create_server(("127.0.0.1", 0)) as listener:
            def serve():
                conn, _ = listener.accept()
                with conn:
                    (length,) = struct.unpack("<I", conn.recv(4, socket.MSG_WAITALL))
                    seen["head"] = json.loads(conn.recv(length, socket.MSG_WAITALL))
                    parts = []
                    for _ in seen["head"]["attached"]:
                        (size,) = struct.unpack("<I", conn.recv(4, socket.MSG_WAITALL))
                        parts.append(conn.recv(size, socket.MSG_WAITALL) if size else b"")
                    seen["parts"] = parts
                    send_frame(conn, {"type": MSG_ERROR, "error": "seen"})

            thread = threading.Thread(target=serve)
            thread.start()
            with pytest.raises(PalmError, match="server error: seen"):
                request_over_tcp(listener.getsockname(), request, timeout=10)
            thread.join(10)
        inputs = seen["head"]["body"]["inputs"]
        assert seen["head"]["attached"] == [["inputs", "model"], ["inputs", "tokenizer"]]
        assert inputs["model"] is None and inputs["tokenizer"] is None
        assert inputs["query"] == "quick"
        assert seen["parts"] == [json_text(MODEL), json_text(fixture.tokenizer.to_json())]

    def test_response_outputs_travel_raw(self, fixture, server):
        request = inference(fixture, "outputs")
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            send_frame(sock, {"type": MSG_REQUEST, "body": request.to_json()})
            (length,) = struct.unpack("<I", sock.recv(4, socket.MSG_WAITALL))
            response_head = json.loads(sock.recv(length, socket.MSG_WAITALL))
        outputs = response_head["body"]["outputs"]
        assert outputs and set(outputs.values()) == {None}
        assert response_head["attached"] == [["outputs", label] for label in outputs]

    def test_response_decodes_bytes_outputs_as_they_are(self, fixture, server):
        request = inference(fixture, "decode")
        response = request_over_tcp(server.endpoint, request, timeout=10)
        doc = response.to_json()
        assert AttestationResponse.from_json(doc) == response
        assert AttestationResponse.from_json(dict(doc, outputs=response.outputs)) == response


class TestAttachmentsFailClosed:
    """Every malformed message is answered with an ERROR frame and then the
    connection ends, as what follows it cannot be known; the handler thread
    lives to answer, and the server serves other connections."""

    BAD_LISTS = {
        "not-a-list": {"inputs": "model"},
        "not-a-pair": [["inputs"]],
        "key-not-text": [["inputs", 7]],
        "unknown-section": [["quote", "model"]],
        "missing-key": [["inputs", "adapter"]],
        "value-not-null": [["inputs", "query"]],
        "named-twice": [["inputs", "model"], ["inputs", "model"]],
    }

    def _error_then_closed(self, sock, match: str) -> None:
        error = recv_frame(sock)
        assert error["type"] == MSG_ERROR and match in error["error"], error
        assert recv_frame(sock) is None

    @pytest.mark.parametrize("attached", BAD_LISTS.values(), ids=BAD_LISTS.keys())
    def test_bad_attached_list(self, fixture, server, attached):
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            sock.sendall(head(attached_inference(fixture, "bad-list", attached)))
            self._error_then_closed(sock, "attached")
        still_serves(fixture, server, "after-bad-list")

    def test_attachment_over_the_limit(self, fixture, server):
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            sock.sendall(head(attached_inference(fixture, "oversized", [["inputs", "model"]]))
                         + struct.pack("<I", MAX_FRAME))
            self._error_then_closed(sock, "attachment of 67108864 bytes exceeds limit")
        still_serves(fixture, server, "after-oversized")

    def test_head_and_attachments_count_together(self, fixture, server, monkeypatch):
        monkeypatch.setattr(transport, "MAX_FRAME", 4096)
        message = attached_inference(fixture, "together", [["inputs", "model"],
                                                            ["inputs", "tokenizer"]])
        message["body"]["inputs"]["tokenizer"] = None
        first = b" " * (4096 - len(json.dumps(message)))
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            sock.sendall(head(message) + frame(first) + struct.pack("<I", 1))
            self._error_then_closed(sock, "attachment of 1 bytes exceeds limit")
        still_serves(fixture, server, "after-together")

    @pytest.mark.parametrize("tail", [b"", b"\x09\x00", frame(b"{}") + b"\x40\x00\x00\x00{"],
                             ids=["before", "in-length", "inside"])
    def test_stream_ends_inside_a_message(self, fixture, server, tail):
        message = attached_inference(fixture, "cut", [["inputs", "model"],
                                                      ["inputs", "tokenizer"]])
        message["body"]["inputs"]["tokenizer"] = None
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            sock.sendall(head(message) + tail)
            sock.shutdown(socket.SHUT_WR)
            self._error_then_closed(sock, "stream ended")
        still_serves(fixture, server, "after-cut")

    def test_path_into_a_missing_body(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(head({"type": MSG_REQUEST, "attached": [["inputs", "x"]]}))
            with pytest.raises(FormatError, match="names no null value"):
                recv_frame(b)

    def test_empty_list_is_a_whole_message(self, fixture, server):
        request = inference(fixture, "empty-list")
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            sock.sendall(head({"type": MSG_REQUEST, "body": request.to_json(), "attached": []}))
            assert recv_frame(sock)["type"] == MSG_RESPONSE


class TestHostileJson:
    def test_deeply_nested_head_is_an_error_frame_and_the_stream_goes_on(self, fixture, server):
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            sock.sendall(frame(b"[" * 100_000))
            error = recv_frame(sock)
            assert error["type"] == MSG_ERROR and "not valid JSON" in error["error"]
            send_frame(sock, {"type": MSG_REQUEST, "body": inference(fixture, "deep").to_json()})
            assert recv_frame(sock)["type"] == MSG_RESPONSE

    def test_deeply_nested_model_is_a_schema_error(self, fixture, server):
        body = inference(fixture, "deep-model").to_json()
        body["inputs"] = dict(body["inputs"], model=b"[" * 100_000)
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            send_frame(sock, {"type": MSG_REQUEST, "body": body})
            error = recv_frame(sock)
        assert error["error"].startswith("SchemaError: bad model: maximum recursion"), error

    @pytest.mark.parametrize("name", ["query", "history", "dataset", "train_config", "arch"])
    def test_bytes_for_an_input_that_is_not_json_text_is_refused(self, fixture, server, name):
        if name in ("query", "history"):
            body = build_request(
                "SessionInference",
                {"model": MODEL, "tokenizer": fixture.tokenizer.to_json(), "query": "q",
                 "history": []},
                Challenge.from_nonce(sha3_256(name.encode()))).to_json()
        else:
            body = build_request(
                "Training",
                {"arch": "bigram", "dataset": fixture.dataset_name,
                 "train_config": fixture.config.to_json(), "tokenizer": fixture.tokenizer.to_json()},
                Challenge.from_nonce(sha3_256(name.encode()))).to_json()
        body["inputs"] = dict(body["inputs"], **{name: b"bigram"})
        with socket.create_connection(server.endpoint, timeout=10) as sock:
            send_frame(sock, {"type": MSG_REQUEST, "body": body})
            error = recv_frame(sock)
        assert error["type"] == MSG_ERROR
        assert error["error"].startswith("SchemaError: ") and name in error["error"], error


class TestIdleTimeout:
    """A connection that stalls is closed after IDLE_TIMEOUT_S; the client's
    own timeout keeps the test from hanging where the server never closes."""

    @pytest.mark.parametrize("sent", [b"", b"\x10\x00"], ids=["idle", "mid-length"])
    def test_stalled_client_sees_end_of_stream(self, fixture, server, monkeypatch, sent):
        monkeypatch.setattr(transport, "IDLE_TIMEOUT_S", 0.3)
        with socket.create_connection(server.endpoint, timeout=5) as sock:
            sock.sendall(sent)
            assert sock.recv(1) == b""
        still_serves(fixture, server, "after-idle")

    def test_client_stalled_inside_an_attachment_sees_end_of_stream(
            self, fixture, server, monkeypatch):
        monkeypatch.setattr(transport, "IDLE_TIMEOUT_S", 0.3)
        message = attached_inference(fixture, "stall", [["inputs", "model"]])
        with socket.create_connection(server.endpoint, timeout=5) as sock:
            sock.sendall(head(message) + struct.pack("<I", 100) + b"{")
            assert sock.recv(1) == b""
        still_serves(fixture, server, "after-stall")
