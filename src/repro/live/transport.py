"""Framed TCP transport for the live runtime.

One message = one TCP connection carrying one frame::

    u32 length | body

where ``body`` is, for registered control messages, a compact live
body::

    u8 magic (0xB7) | u16 protocol length | protocol utf8 | compact frame

for data-registered messages the same shape with the data magic::

    u8 magic (0xD7) | u16 protocol length | protocol utf8 | stream frame

and for everything else the legacy form ``gzip(pickle((protocol,
payload)))``.  The leading byte discriminates: neither 0xB7 nor 0xD7
ever begins a gzip stream (0x1f) or a protocol-4 pickle (0x80).  The
embedded frames are byte-identical to the ones the simulated network
charges for, so sim and live stay wire-compatible and one set of golden
vectors covers both.

A :class:`LiveEndpoint` owns a listening socket plus an accept thread;
each accepted connection is served by a short-lived worker thread that
reads the single frame and dispatches it to the protocol handler.
Handlers therefore run concurrently — callers guard their own state.
Malformed bodies raise a typed :class:`~repro.errors.WireDecodeError`
inside :func:`read_frame`; the serve loop drops the message and counts
it in :attr:`LiveEndpoint.decode_errors` instead of dying.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
from typing import Any, Callable

from repro.errors import NetworkError, WireDecodeError
from repro.net import datacodec
from repro.net.codec import (
    FRAME_MAGIC,
    decode_message,
    load_registrations,
    try_encode,
)
from repro.util.compression import DEFAULT_CODEC, Codec
from repro.util.randomness import derive_rng
from repro.util.retry import RetryPolicy
from repro.util.serialization import deserialize, serialize

#: (host, port) of a live peer
LiveAddress = tuple[str, int]

_LEN = struct.Struct("<I")
_PROTO_LEN = struct.Struct(">H")
_COMPACT_TAG = bytes([FRAME_MAGIC])
_DATA_TAG = bytes([datacodec.FRAME_MAGIC])
#: refuse absurd frames rather than allocating unbounded buffers
MAX_FRAME_BYTES = 64 * 1024 * 1024


def encode_frame(protocol: str, payload: Any, codec: Codec) -> bytes:
    body = _encode_body(protocol, payload, codec)
    if len(body) > MAX_FRAME_BYTES:
        raise NetworkError(f"frame of {len(body)} bytes exceeds the limit")
    return _LEN.pack(len(body)) + body


def _encode_body(protocol: str, payload: Any, codec: Codec) -> bytes:
    name = protocol.encode("utf-8")
    if len(name) <= 0xFFFF:
        frame = try_encode(payload)
        if frame is not None:
            return _COMPACT_TAG + _PROTO_LEN.pack(len(name)) + name + frame
        frame = datacodec.try_encode(payload)
        if frame is not None:
            return _DATA_TAG + _PROTO_LEN.pack(len(name)) + name + frame
    return codec.compress(serialize((protocol, payload)))


def _split_protocol(body: bytes) -> tuple[str, bytes]:
    """Split a tagged live body into (protocol name, embedded frame)."""
    header_end = 1 + _PROTO_LEN.size
    if len(body) < header_end:
        raise WireDecodeError("live frame truncated inside the protocol header")
    (name_len,) = _PROTO_LEN.unpack_from(body, 1)
    frame_start = header_end + name_len
    if frame_start > len(body):
        raise WireDecodeError("live frame truncated inside the protocol name")
    try:
        protocol = body[header_end:frame_start].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise WireDecodeError(f"invalid utf-8 protocol name: {exc}") from exc
    return protocol, body[frame_start:]


def _decode_body(body: bytes, codec: Codec) -> tuple[str, Any]:
    if body[:1] == _COMPACT_TAG:
        protocol, frame = _split_protocol(body)
        return protocol, decode_message(frame)
    if body[:1] == _DATA_TAG:
        protocol, frame = _split_protocol(body)
        return protocol, datacodec.decode_message(frame)
    try:
        protocol, payload = deserialize(codec.decompress(body))
    except Exception as exc:
        raise WireDecodeError(f"corrupt pickle live frame: {exc}") from exc
    return protocol, payload


def read_frame(sock: socket.socket, codec: Codec) -> tuple[str, Any] | None:
    """Read one frame; None on a cleanly closed connection."""
    header = _read_exactly(sock, _LEN.size)
    if header is None:
        return None
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise NetworkError(f"incoming frame of {length} bytes exceeds the limit")
    body = _read_exactly(sock, length)
    if body is None:
        raise NetworkError("connection closed between header and body")
    return _decode_body(body, codec)


def _read_exactly(sock: socket.socket, count: int) -> bytes | None:
    """Read exactly ``count`` bytes; None on EOF *before* the first byte,
    :class:`NetworkError` on EOF mid-read."""
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if remaining == count:
                return None
            raise NetworkError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


class LiveEndpoint:
    """One node's network presence: a listener plus connect-per-send."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        codec: Codec | None = None,
        loss_probability: float = 0.0,
        loss_seed: int = 0,
    ):
        if not 0.0 <= loss_probability <= 1.0:
            raise NetworkError(
                f"loss_probability must be in [0, 1], got {loss_probability}"
            )
        self.codec = codec if codec is not None else DEFAULT_CODEC
        # Fault injection: drop this fraction of *incoming* messages after
        # the frame is read (the bytes crossed the wire; delivery failed).
        # The stream is seed-derived so live fault batteries replay the
        # same drop decisions in the same arrival order.
        self.loss_probability = loss_probability
        self._loss_rng = derive_rng(loss_seed, "live-loss", host, port)
        self._loss_lock = threading.Lock()
        # Incoming frames may name message types this process has not
        # constructed yet; resolve every registered type id up front,
        # on both planes.
        load_registrations()
        datacodec.load_registrations()
        self._handlers: dict[str, Callable[[LiveAddress, Any], None]] = {}
        self._handlers_lock = threading.Lock()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(32)
        self.address: LiveAddress = self._listener.getsockname()
        self._closed = threading.Event()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"live-accept-{self.address[1]}", daemon=True
        )
        self._accept_thread.start()
        #: counters (informational; written by worker threads)
        self.messages_sent = 0
        self.messages_received = 0
        self.decode_errors = 0
        self.loss_drops = 0
        self.send_retries = 0

    # -- binding -----------------------------------------------------------------

    def bind(self, protocol: str, handler: Callable[[LiveAddress, Any], None]) -> None:
        """Register ``handler(reply_address, payload)`` for one protocol."""
        with self._handlers_lock:
            if protocol in self._handlers:
                raise NetworkError(f"protocol {protocol!r} already bound")
            self._handlers[protocol] = handler

    # -- sending ------------------------------------------------------------------

    def send(self, dst: LiveAddress, protocol: str, payload: Any) -> None:
        """Deliver one message (connect, write frame, close).

        Raises :class:`NetworkError` if the destination is unreachable —
        live callers handle peer death explicitly.
        """
        frame = encode_frame(protocol, payload, self.codec)
        try:
            with socket.create_connection(dst, timeout=5.0) as sock:
                # Tell the receiver where replies should go (our listener,
                # not this ephemeral outgoing port).
                sock.sendall(
                    encode_frame("_reply_to", self.address, self.codec)
                )
                sock.sendall(frame)
        except OSError as exc:
            raise NetworkError(f"cannot deliver to {dst}: {exc}") from exc
        self.messages_sent += 1

    def try_send(self, dst: LiveAddress, protocol: str, payload: Any) -> bool:
        """Best-effort send; False instead of raising on dead peers."""
        try:
            self.send(dst, protocol, payload)
            return True
        except NetworkError:
            return False

    def send_with_retry(
        self,
        dst: LiveAddress,
        protocol: str,
        payload: Any,
        policy: RetryPolicy,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> None:
        """Send, retrying connection failures per ``policy``'s backoff.

        Raises :class:`~repro.errors.RetryExhaustedError` once attempts
        run out.  Counts re-sends in :attr:`send_retries`.
        """
        from repro.util.retry import retry_call

        failures_before = [0]

        def attempt() -> None:
            if failures_before[0] > 0:
                self.send_retries += 1
            failures_before[0] += 1
            self.send(dst, protocol, payload)

        retry_call(attempt, policy, rng=rng, sleep=sleep, retry_on=(NetworkError,))

    # -- receiving ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _peer = self._listener.accept()
            except OSError:
                return  # listener closed
            worker = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            worker.start()

    def _serve_connection(self, conn: socket.socket) -> None:
        reply_to: LiveAddress | None = None
        try:
            with conn:
                conn.settimeout(5.0)
                first = read_frame(conn, self.codec)
                if first is None:
                    return
                protocol, payload = first
                if protocol == "_reply_to":
                    reply_to = tuple(payload)
                    frame = read_frame(conn, self.codec)
                    if frame is None:
                        return
                    protocol, payload = frame
                if self.loss_probability > 0.0:
                    with self._loss_lock:
                        lost = self._loss_rng.random() < self.loss_probability
                    if lost:
                        self.loss_drops += 1
                        return
                self.messages_received += 1
                with self._handlers_lock:
                    handler = self._handlers.get(protocol)
                if handler is not None and not self._closed.is_set():
                    handler(reply_to or ("0.0.0.0", 0), payload)
        except WireDecodeError:
            # Corrupt frame: drop the message, count it, keep serving.
            self.decode_errors += 1
            return
        except (NetworkError, OSError):
            return  # a broken/peer-closed connection is not our problem

    def close(self) -> None:
        """Stop accepting and release the port (idempotent)."""
        if self._closed.is_set():
            return
        self._closed.set()
        try:
            self._listener.close()
        except OSError:
            pass
