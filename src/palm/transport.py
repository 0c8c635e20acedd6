"""Networked deployment of the protocol: length-prefixed JSON over TCP.

Every frame is a 4-byte little-endian length followed by one UTF-8 JSON
object with a "type" of REQUEST, RESPONSE, or ERROR. A connection may
carry any number of frames; a frame the server cannot understand gets an
ERROR frame back, and the connection stays open if the frame was read
whole (one over MAX_FRAME is not, so it closes). Transport adds nothing
to the trust story: responses are byte-identical to in-process calls,
and their integrity rests on the quote, not the channel.
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
from .protocol import AttestationRequest, AttestationResponse, TdContext, prover_handle

MAX_FRAME = 64 * 1024 * 1024

_log = logging.getLogger(__name__)

MSG_REQUEST = "REQUEST"
MSG_RESPONSE = "RESPONSE"
MSG_ERROR = "ERROR"


class _OutOfStep(FormatError):
    """A frame whose body was not read whole; the stream cannot go on."""


def _recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None  # peer closed
        buf += chunk
    return bytes(buf)


def send_frame(sock: socket.socket, message: dict) -> None:
    body = json.dumps(message, sort_keys=True, separators=(",", ":")).encode()
    sock.sendall(struct.pack("<I", len(body)) + body)


def recv_frame(sock: socket.socket) -> Optional[dict]:
    """One frame, or None on clean end-of-stream."""
    header = _recv_exact(sock, 4)
    if header is None:
        return None
    (length,) = struct.unpack("<I", header)
    if length > MAX_FRAME:
        raise _OutOfStep(f"frame of {length} bytes exceeds limit")
    body = _recv_exact(sock, length)
    if body is None:
        raise _OutOfStep("stream ended mid-frame")
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise FormatError("frame body must be a JSON object")
    return message


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        while True:
            try:
                message = recv_frame(self.request)
            except FormatError as exc:
                # Unparseable frame: report it; serve on if the stream is in step.
                try:
                    send_frame(self.request, {"type": MSG_ERROR, "error": str(exc)})
                except OSError:
                    return
                if isinstance(exc, _OutOfStep):
                    return
                continue
            except OSError:
                return
            if message is None:
                return
            send_frame(self.request, self._respond(message))

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
        return {"type": MSG_RESPONSE, "body": response.to_json()}


class AttestationServer(socketserver.ThreadingTCPServer):
    """Serves prover_handle over TCP; one thread per connection.

    The server owns an MshPool that hashes mapped epochs on every core. It
    proves with a copy of the given context that carries the pool, so the
    caller's context keeps the in-process path. The pool starts its workers
    on the first mapped request; shutdown and server_close stop them. The
    workers import the main module again, so a script that serves must do
    so under `if __name__ == "__main__":`."""

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
    """Send one request and wait for its response frame."""
    with socket.create_connection(endpoint, timeout=timeout) as sock:
        send_frame(sock, {"type": MSG_REQUEST, "body": request.to_json()})
        message = recv_frame(sock)
    if message is None:
        raise FormatError("server closed the connection without responding")
    if message.get("type") == MSG_ERROR:
        raise PalmError(f"server error: {message.get('error')}")
    if message.get("type") != MSG_RESPONSE or "body" not in message:
        raise FormatError(f"unexpected frame type {message.get('type')!r}")
    return AttestationResponse.from_json(message["body"])
