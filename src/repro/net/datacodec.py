"""Streaming wire codec for the data plane.

PR 3 gave the 18 small control-message types compact struct-packed
frames, but the bytes that *dominate* at scale — answers flowing back to
initiators, fetch/active/data replies carrying object payloads, and
sourced agent envelopes shipping class text — still rode pickle+gzip.
This module gives those a versioned, **length-prefixed** streaming frame::

    u8 magic (0xD7) | u8 version | u16 type id | u32 body length | body

The length prefix makes the format stream-friendly: a receiver can split
a byte stream into frames without decoding bodies, and a decoder can
defer body work entirely.  :class:`~repro.agents.messages.BatchedAnswers`
exploits that: its body is a sequence of length-prefixed answer records,
and decoding returns a *lazy* batch holding zero-copy memoryview slices
into the frame — records are materialized on first access, exactly like
PR 1's lazy :class:`~repro.net.message.Packet` decode, so dropped or
never-read packets pay nothing.

Like the control codec, the charged wire size of a data-registered
message is the real stream-frame size.  The golden frame vectors in
``tests/net/vectors/data_frames.json`` pin the layout, and the golden
observables in ``tests/eval/goldens/`` (checked by
``tests/eval/test_fastpath_determinism.py``) pin the series, byte counts
and hop counts it produces.

Field codecs are shared with :mod:`repro.net.codec`; this module adds
one data-plane-specific codec: a zlib-compressed class-source field
whose compression work is cached per source digest (the same sha256
digest :mod:`repro.agents.codeship` keys its compile cache with), so a
class's source text is compressed once per process no matter how many
sourced envelopes carry it.

Decoding is strict: bad magic, unsupported version, unknown type id,
length mismatches, truncation, value overruns, oversized frames and
trailing garbage all raise a typed
:class:`~repro.errors.WireDecodeError` — never an arbitrary exception —
so both the simulated delivery loop and the live transport can
drop-and-count corrupt data frames without crashing.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import WireCodecError, WireDecodeError, WireEncodeError
from repro.net.codec import (
    STR,
    U16,
    U32,
    FieldCodec,
    _take,
)

#: Bump on ANY layout change (field added/removed/reordered/retyped, type
#: id reassigned).  The decoder rejects every other version, and the
#: golden vectors in ``tests/net/vectors/`` must be regenerated.
WIRE_FORMAT_VERSION = 1

#: First byte of every data frame.  Distinct from the control codec's
#: 0xB7, a gzip stream's 0x1f, and a protocol-4 pickle's 0x80, so every
#: transport can tell all four formats apart from the leading byte alone.
FRAME_MAGIC = 0xD7

_HEADER = struct.Struct(">BBHI")
#: magic + version + type id + u32 body length
HEADER_SIZE = _HEADER.size

#: Data frames carry payloads, so the cap is generous — but a peer's
#: whole sharable store at paper scale is ~1 MiB, so anything past this
#: is corrupt (or must take the pickle+gzip fallback).
MAX_FRAME_BYTES = 8 << 20

#: Packet/EncodedPayload codec tag for stream-framed payloads.
CODEC_STREAM = "stream"

#: zlib level for the compressed-source field; fixed so encoded frames
#: are deterministic across processes and interpreter versions.
_SOURCE_ZLIB_LEVEL = 6


# ---------------------------------------------------------------------------
# Data-plane field codecs
# ---------------------------------------------------------------------------


class _CompressedSource(FieldCodec):
    """Class source text, zlib-compressed inside the frame.

    Layout: ``u32 raw length | u32 compressed length | zlib bytes``.
    Source text is large and highly compressible — the one reason the
    sourced envelope previously stayed on pickle+gzip.  Compressing just
    this field keeps the frame small *and* keeps the rest of the message
    on the cheap struct path; the compression work itself is cached per
    sha256 digest of the source (the same digest the codeship compile
    cache is keyed by), so each class's source is deflated once per
    process however many envelopes carry it.
    """

    name = "zsource"

    #: sha256 hexdigest of the source -> its zlib bytes
    _cache: dict[str, bytes] = {}
    _CACHE_CAPACITY = 64

    def pack(self, value: Any, out: bytearray) -> None:
        if not isinstance(value, str):
            raise WireEncodeError(f"{value!r} is not a source string")
        raw = value.encode("utf-8")
        if len(raw) > MAX_FRAME_BYTES:
            raise WireEncodeError(f"source of {len(raw)} bytes exceeds the frame cap")
        digest = hashlib.sha256(raw).hexdigest()
        blob = self._cache.get(digest)
        if blob is None:
            blob = zlib.compress(raw, _SOURCE_ZLIB_LEVEL)
            if len(self._cache) >= self._CACHE_CAPACITY:
                self._cache.pop(next(iter(self._cache)))
            self._cache[digest] = blob
        out += U32._struct.pack(len(raw))  # type: ignore[attr-defined]
        out += U32._struct.pack(len(blob))  # type: ignore[attr-defined]
        out += blob

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        raw_len, offset = U32.unpack(data, offset)
        blob_len, offset = U32.unpack(data, offset)
        if raw_len > MAX_FRAME_BYTES:
            raise WireDecodeError(
                f"declared source of {raw_len} bytes exceeds the frame cap"
            )
        chunk, offset = _take(data, offset, blob_len)
        try:
            raw = zlib.decompress(bytes(chunk))
        except zlib.error as exc:
            raise WireDecodeError(f"corrupt compressed source: {exc}") from exc
        if len(raw) != raw_len:
            raise WireDecodeError(
                f"source inflated to {len(raw)} bytes, header declared {raw_len}"
            )
        try:
            return raw.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise WireDecodeError(f"invalid utf-8 in source field: {exc}") from exc


COMPRESSED_SOURCE = _CompressedSource()


class _WireAddress(FieldCodec):
    """A transport address: sim :class:`IPAddress` or live ``(host, port)``.

    Data-plane messages travel over both runtimes — the simulated
    network addresses hosts with :class:`~repro.net.address.IPAddress`,
    the live TCP transport with ``(host, port)`` tuples — so their
    address fields are a tagged union::

        u8 0 | str value         (simulated address)
        u8 1 | str host | u16 port   (live TCP address)
    """

    name = "address"

    def pack(self, value: Any, out: bytearray) -> None:
        from repro.net.address import IPAddress

        if isinstance(value, IPAddress):
            out += b"\x00"
            STR.pack(value.value, out)
            return
        if (
            isinstance(value, tuple)
            and len(value) == 2
            and isinstance(value[0], str)
            and isinstance(value[1], int)
            and not isinstance(value[1], bool)
            and 0 <= value[1] <= 0xFFFF
        ):
            out += b"\x01"
            STR.pack(value[0], out)
            out += U16._struct.pack(value[1])  # type: ignore[attr-defined]
            return
        raise WireEncodeError(f"{value!r} is not a transport address")

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        from repro.net.address import IPAddress

        chunk, offset = _take(data, offset, 1)
        tag = chunk[0]
        if tag == 0:
            value, offset = STR.unpack(data, offset)
            return IPAddress(value), offset
        if tag == 1:
            host, offset = STR.unpack(data, offset)
            port, offset = U16.unpack(data, offset)
            return (host, port), offset
        raise WireDecodeError(f"address tag must be 0 or 1, got {tag}")


ADDRESS_CODEC = _WireAddress()


# ---------------------------------------------------------------------------
# Message registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DataMessageSpec:
    """One registered data-plane message type: identity plus body layout.

    Bodies are usually described by an ordered field list, like control
    messages; a type needing a custom body (batched answers with their
    per-record length prefixes and lazy decode) supplies ``pack_body`` /
    ``unpack_body`` instead.
    """

    type_id: int
    cls: type
    fields: tuple[tuple[str, FieldCodec], ...]
    #: canonical instance used for golden vectors and conformance tests
    sample: Callable[[], Any]
    #: value-level predicate: False routes this instance to the pickle
    #: fallback (e.g. agent envelopes that carry no class source)
    streamable: Callable[[Any], bool] | None = None
    #: custom body codec overriding ``fields`` (both or neither)
    pack_body: Callable[[Any, bytearray], None] | None = None
    unpack_body: Callable[[memoryview], Any] | None = None

    @property
    def name(self) -> str:
        return f"{self.cls.__module__}.{self.cls.__qualname__}"

    def accepts(self, message: Any) -> bool:
        """True when this instance can take the stream path."""
        if type(message) is not self.cls:
            return False
        if self.streamable is not None and not self.streamable(message):
            return False
        return True


_BY_ID: dict[int, DataMessageSpec] = {}
_BY_CLASS: dict[type, DataMessageSpec] = {}


def register(
    cls: type,
    type_id: int,
    fields: tuple[tuple[str, FieldCodec], ...],
    *,
    sample: Callable[[], Any],
    streamable: Callable[[Any], bool] | None = None,
    pack_body: Callable[[Any, bytearray], None] | None = None,
    unpack_body: Callable[[memoryview], Any] | None = None,
) -> DataMessageSpec:
    """Register a data-plane message type; called at import time by the
    module that defines the message (keeping this module dependency-free).
    """
    if not 0 < type_id <= 0xFFFF:
        raise WireCodecError(f"type id {type_id:#x} outside u16 range")
    if (pack_body is None) != (unpack_body is None):
        raise WireCodecError("pack_body and unpack_body must be given together")
    existing = _BY_ID.get(type_id)
    if existing is not None and existing.cls is not cls:
        raise WireCodecError(
            f"type id {type_id:#x} already registered for {existing.name}"
        )
    spec = DataMessageSpec(
        type_id, cls, tuple(fields), sample, streamable, pack_body, unpack_body
    )
    _BY_ID[type_id] = spec
    _BY_CLASS[cls] = spec
    return spec


def lookup(cls: type) -> DataMessageSpec | None:
    """The spec registered for ``cls`` (None when unregistered)."""
    return _BY_CLASS.get(cls)


def spec_for_id(type_id: int) -> DataMessageSpec | None:
    """The spec registered under ``type_id`` (None when unknown)."""
    return _BY_ID.get(type_id)


def registered_specs() -> tuple[DataMessageSpec, ...]:
    """Every registered spec, ordered by type id (stable for vectors)."""
    return tuple(spec for _, spec in sorted(_BY_ID.items()))


def load_registrations() -> None:
    """Import every module that registers data-plane messages.

    Senders register as a side effect of constructing their messages;
    decode-only processes (live endpoints, conformance tests) call this
    to make all type ids resolvable up front.
    """
    import repro.agents.envelope  # noqa: F401
    import repro.agents.messages  # noqa: F401
    import repro.agents.topk  # noqa: F401
    import repro.core.sharing  # noqa: F401
    import repro.core.shipping  # noqa: F401
    import repro.replication.messages  # noqa: F401


# ---------------------------------------------------------------------------
# Field-list helpers (shared with custom-body codecs like BatchedAnswers)
# ---------------------------------------------------------------------------


def pack_fields(
    fields: tuple[tuple[str, FieldCodec], ...], message: Any, out: bytearray
) -> None:
    """Append ``message``'s fields to ``out`` in declaration order."""
    for name, codec in fields:
        codec.pack(getattr(message, name), out)


def unpack_fields(
    fields: tuple[tuple[str, FieldCodec], ...], cls: type, data: bytes
) -> Any:
    """Build ``cls`` from a complete field-packed body (strict: the body
    must be consumed exactly)."""
    values: dict[str, Any] = {}
    offset = 0
    for name, codec in fields:
        values[name], offset = codec.unpack(data, offset)
    if offset != len(data):
        raise WireDecodeError(
            f"{len(data) - offset} trailing bytes after a complete "
            f"{cls.__qualname__} record"
        )
    try:
        return cls(**values)
    except Exception as exc:
        raise WireDecodeError(f"cannot build {cls.__qualname__}: {exc}") from exc


# ---------------------------------------------------------------------------
# Frame encode / decode
# ---------------------------------------------------------------------------


def encode_message(message: Any) -> bytes:
    """The stream frame for ``message``; :class:`WireEncodeError` when it
    is unregistered, not streamable, or a value overflows its field."""
    spec = _BY_CLASS.get(type(message))
    if spec is None:
        raise WireEncodeError(f"{type(message).__qualname__} is not data-registered")
    if spec.streamable is not None and not spec.streamable(message):
        raise WireEncodeError(f"{spec.name} instance is not streamable")
    body = bytearray()
    if spec.pack_body is not None:
        spec.pack_body(message, body)
    else:
        pack_fields(spec.fields, message, body)
    if HEADER_SIZE + len(body) > MAX_FRAME_BYTES:
        raise WireEncodeError(
            f"frame of {HEADER_SIZE + len(body)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    return (
        _HEADER.pack(FRAME_MAGIC, WIRE_FORMAT_VERSION, spec.type_id, len(body))
        + body
    )


def try_encode(message: Any) -> bytes | None:
    """The stream frame, or None when the message must take the pickle
    fallback.  The decision depends only on the message value, so the
    simulated and live wires agree on which path a message takes."""
    if type(message) not in _BY_CLASS:
        return None
    try:
        return encode_message(message)
    except WireEncodeError:
        return None


def decode_message(frame: bytes) -> Any:
    """Inverse of :func:`encode_message`; :class:`WireDecodeError` on any
    malformation (bad magic/version/type id, length mismatch, truncation,
    value overrun, oversize, trailing garbage).

    Types registered with a custom ``unpack_body`` may defer record
    decoding (:class:`~repro.agents.messages.BatchedAnswers` holds
    zero-copy memoryview slices into the frame); record-level corruption
    then surfaces as a :class:`WireDecodeError` at first materialization,
    inside the delivery loop's drop-and-count guard.
    """
    if len(frame) > MAX_FRAME_BYTES:
        raise WireDecodeError(
            f"oversized frame: {len(frame)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    if len(frame) < HEADER_SIZE:
        raise WireDecodeError(f"frame of {len(frame)} bytes is shorter than a header")
    magic, version, type_id, body_len = _HEADER.unpack_from(frame, 0)
    if magic != FRAME_MAGIC:
        raise WireDecodeError(f"bad magic byte {magic:#04x} (want {FRAME_MAGIC:#04x})")
    if version != WIRE_FORMAT_VERSION:
        raise WireDecodeError(
            f"unsupported data wire format version {version} "
            f"(this build speaks {WIRE_FORMAT_VERSION})"
        )
    if HEADER_SIZE + body_len > MAX_FRAME_BYTES:
        raise WireDecodeError(
            f"oversized frame: declared body of {body_len} bytes exceeds the cap"
        )
    spec = _BY_ID.get(type_id)
    if spec is None:
        raise WireDecodeError(f"unknown data message type id {type_id:#06x}")
    if len(frame) < HEADER_SIZE + body_len:
        raise WireDecodeError(
            f"frame truncated: header declares a {body_len}-byte body, "
            f"{len(frame) - HEADER_SIZE} present"
        )
    if len(frame) > HEADER_SIZE + body_len:
        raise WireDecodeError(
            f"{len(frame) - HEADER_SIZE - body_len} trailing bytes after a "
            f"complete {spec.name}"
        )
    body = memoryview(frame)[HEADER_SIZE:]
    if spec.unpack_body is not None:
        return spec.unpack_body(body)
    return unpack_fields(spec.fields, spec.cls, bytes(body))
