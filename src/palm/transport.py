"""Networked deployment of the protocol: length-prefixed JSON over TCP.

A message is a head frame and the attachments that the head announces.
Each frame is a 4-byte little-endian length followed by that many bytes.
The head frame holds one UTF-8 JSON object with a "type" of REQUEST,
RESPONSE, or ERROR. A head may carry "attached": [[section, key], ...],
where each section is "inputs" or "outputs" of its "body" and each key
names a distinct entry of that section whose head value is null. One raw
frame follows per path, in order, and holds that entry's bytes: the JSON
text of a request's model, adapter or tokenizer, or a response's output
payload. So bulk bytes travel without base64 or JSON string escaping, and
the prover's decode cache compares a model's text without parsing it. A
head with no "attached" is a whole message. The client keeps the last
text it sent for each input name, keyed by the value's marshal snapshot
(`protocol.input_text`), so an unchanged model is encoded once per
process, not once per request; what goes on the wire is the same.

A connection may carry any number of messages. A head the server cannot
understand gets an ERROR frame back, and the connection stays open, as
the head was read whole. What leaves the stream out of step ends the
connection after an ERROR frame: a frame or message over MAX_FRAME (a
head and its attachments count together), an "attached" list that breaks
the rules above, or a stream that ends inside a message. A connection
that sends nothing for IDLE_TIMEOUT_S, between messages or inside one,
is closed. Transport adds nothing to the trust story: responses are
byte-identical to in-process calls, and their integrity rests on the
quote, not the channel.

Frames keep their objects' key order and do not sort keys: a frame is not
a canonical encoding of what it carries, and nothing is hashed from it.
Only AttestationResponse.canonical_bytes is canonical.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import socket
import socketserver
import struct
import threading
from typing import Optional

from .errors import FormatError, PalmError
from .msh import MshPool
from .protocol import (
    CACHED_INPUTS,
    AttestationRequest,
    AttestationResponse,
    TdContext,
    input_text,
    prover_handle,
)

MAX_FRAME = 64 * 1024 * 1024
IDLE_TIMEOUT_S = 60

_log = logging.getLogger(__name__)

MSG_REQUEST = "REQUEST"
MSG_RESPONSE = "RESPONSE"
MSG_ERROR = "ERROR"

SECTIONS = ("inputs", "outputs")


class _OutOfStep(FormatError):
    """A message that was not read whole; the stream cannot go on."""


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = bytearray(n)
    view = memoryview(buf)
    while view:
        got = sock.recv_into(view)
        if not got:
            return None  # peer closed
        view = view[got:]
    return bytes(buf)


def _recv_part(sock: socket.socket, budget: int, what: str) -> Optional[bytes]:
    """One frame of at most budget bytes, or None on end-of-stream before it."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack("<I", header)
    if length > budget:
        raise _OutOfStep(f"{what} of {length} bytes exceeds limit")
    data = _recv_exact(sock, length)
    if data is None:
        raise _OutOfStep(f"stream ended mid-{what}")
    return data


def _attach_paths(message: dict) -> list[list[str]]:
    """The paths that message's "attached" announces, removed from it."""
    paths = message.pop("attached", [])
    body = message.get("body")
    if not isinstance(paths, list):
        raise _OutOfStep("attached is not a list")
    seen = set()
    for path in paths:
        if not (isinstance(path, list) and len(path) == 2 and path[0] in SECTIONS
                and isinstance(path[1], str)):
            raise _OutOfStep(f"attached path {path!r} is not [section, key]")
        section, key = path
        values = body.get(section) if isinstance(body, dict) else None
        if not isinstance(values, dict) or key not in values or values[key] is not None:
            raise _OutOfStep(f"attached path {path!r} names no null value of the body")
        if (section, key) in seen:
            raise _OutOfStep(f"attached path {path!r} is named twice")
        seen.add((section, key))
    return paths


def _detach(message: dict) -> tuple[dict, list[bytes]]:
    """The head for message, and the bytes values of its body's inputs and
    outputs that travel attached after it, in the head's order."""
    body = message.get("body")
    if not isinstance(body, dict):
        return message, []
    body, paths, parts = dict(body), [], []
    for section in SECTIONS:
        values = body.get(section)
        if isinstance(values, dict):
            attached = {key: value for key, value in values.items() if isinstance(value, bytes)}
            if attached:
                body[section] = {**values, **dict.fromkeys(attached)}
                paths += ([section, key] for key in attached)
                parts += attached.values()
    if not paths:
        return message, []
    return {**message, "body": body, "attached": paths}, parts


def _send_all(sock: socket.socket, buffers: list) -> None:
    """Write the buffers in order, without joining them into one copy."""
    views = [memoryview(b) for b in buffers]
    while views:
        sent = sock.sendmsg(views)
        while views and sent >= views[0].nbytes:
            sent -= views.pop(0).nbytes
        if views:
            views[0] = views[0][sent:]


def send_frame(sock: socket.socket, message: dict) -> None:
    """Send one message: a head frame, then each bytes value of its body's
    inputs and outputs as a raw frame."""
    head, parts = _detach(message)
    text = json.dumps(head, separators=(",", ":")).encode()
    buffers = [struct.pack("<I", len(text)), text]
    for part in parts:
        buffers += (struct.pack("<I", len(part)), part)
    _send_all(sock, buffers)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """One message, with each attachment in its place, or None on clean
    end-of-stream."""
    body = _recv_part(sock, MAX_FRAME, "frame")
    if body is None:
        return None
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise FormatError("frame body must be a JSON object")
    budget = MAX_FRAME - len(body)
    for section, key in _attach_paths(message):
        data = _recv_part(sock, budget, "attachment")
        if data is None:
            raise _OutOfStep("stream ended before an attachment")
        budget -= len(data)
        message["body"][section][key] = data
    return message


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        self.request.settimeout(IDLE_TIMEOUT_S)
        try:
            while self._serve_one():
                pass
        except OSError:
            return  # the peer went away, or sent nothing for IDLE_TIMEOUT_S

    def _serve_one(self) -> bool:
        """Answer one message; False once the connection should end."""
        try:
            message = recv_frame(self.request)
        except FormatError as exc:
            # Unparseable message: report it; serve on if the stream is in step.
            send_frame(self.request, {"type": MSG_ERROR, "error": str(exc)})
            return not isinstance(exc, _OutOfStep)
        if message is None:
            return False
        send_frame(self.request, self._respond(message))
        return True

    def _respond(self, message: dict) -> dict:
        if message.get("type") != MSG_REQUEST or "body" not in message:
            return {"type": MSG_ERROR, "error": "expected a REQUEST frame with a body"}
        try:
            request = AttestationRequest.from_json(message["body"])
            response = prover_handle(request, self.server.td_context)
        except PalmError as exc:
            return {"type": MSG_ERROR, "error": f"{type(exc).__name__}: {exc}"}
        except OSError as exc:
            return {"type": MSG_ERROR, "error": f"IoError: {exc}"}
        except Exception as exc:
            # A defect, not a bad request: keep its traceback, but still
            # answer so the client is not left with a dropped connection.
            _log.exception("prover failed on a request")
            return {"type": MSG_ERROR, "error": f"{type(exc).__name__}: {exc}"}
        # The outputs travel as raw attachments, not base64 in the head.
        body = dataclasses.replace(response, outputs=None).to_json()
        body["outputs"] = response.outputs
        return {"type": MSG_RESPONSE, "body": body}


class AttestationServer(socketserver.ThreadingTCPServer):
    """Serves prover_handle over TCP; one thread per connection.

    The server owns an MshPool that hashes mapped epochs on every core. It
    proves with a copy of the given context that carries the pool, so the
    caller's context keeps the in-process path. The pool starts its workers
    on the first mapped request; shutdown and server_close stop them."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, endpoint: tuple[str, int], td_context: TdContext):
        super().__init__(endpoint, _Handler)
        self.msh_pool = MshPool()
        self.td_context = dataclasses.replace(td_context, msh_pool=self.msh_pool)

    def shutdown(self) -> None:
        super().shutdown()
        self.msh_pool.close()

    def server_close(self) -> None:
        super().server_close()
        self.msh_pool.close()

    @property
    def endpoint(self) -> tuple[str, int]:
        return self.server_address


def serve_background(endpoint: tuple[str, int], ctx: TdContext) -> AttestationServer:
    """Start a server on a daemon thread and return it (caller shuts it down)."""
    server = AttestationServer(endpoint, ctx)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server


def request_over_tcp(
    endpoint: tuple[str, int], request: AttestationRequest, timeout: float = 30.0
) -> AttestationResponse:
    """Send one request, its model, adapter and tokenizer attached as JSON
    text, and wait for its response. The text comes from `input_text`, so a
    session that sends one model turn after turn encodes it once."""
    body = request.to_json()
    body["inputs"] = {name: input_text(name, value) if name in CACHED_INPUTS else value
                      for name, value in body["inputs"].items()}
    with socket.create_connection(endpoint, timeout=timeout) as sock:
        send_frame(sock, {"type": MSG_REQUEST, "body": body})
        message = recv_frame(sock)
    if message is None:
        raise FormatError("server closed the connection without responding")
    if message.get("type") == MSG_ERROR:
        raise PalmError(f"server error: {message.get('error')}")
    if message.get("type") != MSG_RESPONSE or "body" not in message:
        raise FormatError(f"unexpected frame type {message.get('type')!r}")
    return AttestationResponse.from_json(message["body"])
