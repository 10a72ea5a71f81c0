"""Compact control-message wire codec.

The flood's wall-clock is dominated by pickle+gzip on *small* control
messages (LIGLO registration and validity checks, Gnutella descriptors,
fetch/data tokens, state-only agent-envelope hops).  This module gives
each such message a versioned, struct-packed binary frame::

    u8 magic (0xB7) | u8 version | u16 type id | field-by-field body

Messages opt in by registering a :class:`MessageSpec` (an ordered list
of ``(field name, field codec)`` pairs) in the module that defines them;
anything unregistered — or carrying values that do not fit the fixed
layout — falls back to the pickle+gzip path transparently.

The transmission-cost model charges the real encoded size of the compact
frame for every registered message, on the simulated and the live wire
alike.  The conformance battery in ``tests/net`` pins the layout with
golden frame vectors, property tests, and a malformed-frame fault
injector; the golden observables in ``tests/eval/goldens/`` pin the
series, byte counts and hop counts the frames produce.

Decoding is strict: bad magic, unsupported version, unknown type id,
truncation, value overruns, oversized frames and trailing garbage all
raise a typed :class:`~repro.errors.WireDecodeError` — never an
arbitrary exception — so delivery loops can drop-and-count corrupt
frames without crashing.
"""

from __future__ import annotations

import pickle
import struct
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import WireCodecError, WireDecodeError, WireEncodeError

#: Bump on ANY layout change (field added/removed/reordered/retyped, type
#: id reassigned).  The decoder rejects every other version, and the
#: golden vectors in ``tests/net/vectors/`` must be regenerated.
WIRE_FORMAT_VERSION = 1

#: First byte of every compact frame.  Chosen to collide with neither a
#: gzip stream (0x1f) nor a protocol-4 pickle (0x80) so transports can
#: tell the formats apart from the leading byte alone.
FRAME_MAGIC = 0xB7

_HEADER = struct.Struct(">BBH")
#: magic + version + type id
HEADER_SIZE = _HEADER.size

#: Control frames are small by definition; anything bigger is corrupt.
MAX_FRAME_BYTES = 1 << 20

#: Packet/EncodedPayload codec tags for compact frames and for the
#: pickle(+gzip) fallback.
CODEC_COMPACT = "compact"
CODEC_PICKLE = "pickle"

#: Pickle protocol for the embedded-blob field codec (matches
#: :data:`repro.util.serialization.PICKLE_PROTOCOL` for size stability).
_BLOB_PICKLE_PROTOCOL = 4


def _take(data: bytes, offset: int, count: int) -> tuple[bytes, int]:
    """Bounds-checked slice: the next ``count`` body bytes."""
    end = offset + count
    if end > len(data):
        raise WireDecodeError(
            f"frame truncated: need {count} bytes at offset {offset}, "
            f"have {len(data) - offset}"
        )
    return data[offset:end], end


# ---------------------------------------------------------------------------
# Field codecs
# ---------------------------------------------------------------------------


class FieldCodec:
    """Packs/unpacks one message field.  Encode-side value problems raise
    :class:`WireEncodeError` (the caller falls back to pickle); decode-side
    problems raise :class:`WireDecodeError` (the frame is corrupt)."""

    name = "field"

    def pack(self, value: Any, out: bytearray) -> None:
        raise NotImplementedError

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        raise NotImplementedError


class _Scalar(FieldCodec):
    """A fixed-width integer/float via one :mod:`struct` format."""

    def __init__(self, fmt: str, name: str):
        self._struct = struct.Struct(fmt)
        self.name = name

    def pack(self, value: Any, out: bytearray) -> None:
        try:
            out += self._struct.pack(value)
        except (struct.error, TypeError) as exc:
            raise WireEncodeError(f"{value!r} does not fit {self.name}: {exc}") from exc

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        chunk, offset = _take(data, offset, self._struct.size)
        return self._struct.unpack(chunk)[0], offset


class _Bool(FieldCodec):
    """One byte, strictly 0 or 1 (anything else marks a corrupt frame)."""

    name = "bool"

    def pack(self, value: Any, out: bytearray) -> None:
        if not isinstance(value, bool):
            raise WireEncodeError(f"{value!r} is not a bool")
        out.append(1 if value else 0)

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        chunk, offset = _take(data, offset, 1)
        if chunk[0] not in (0, 1):
            raise WireDecodeError(f"bool byte must be 0 or 1, got {chunk[0]}")
        return chunk[0] == 1, offset


class _Str(FieldCodec):
    """UTF-8 string, u16 length prefix (control strings are short)."""

    name = "str"

    def pack(self, value: Any, out: bytearray) -> None:
        if not isinstance(value, str):
            raise WireEncodeError(f"{value!r} is not a str")
        encoded = value.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise WireEncodeError(f"string of {len(encoded)} bytes exceeds u16 length")
        out += U16._struct.pack(len(encoded))  # type: ignore[attr-defined]
        out += encoded

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        length, offset = U16.unpack(data, offset)
        chunk, offset = _take(data, offset, length)
        try:
            return chunk.decode("utf-8"), offset
        except UnicodeDecodeError as exc:
            raise WireDecodeError(f"invalid utf-8 in string field: {exc}") from exc


class _Bytes(FieldCodec):
    """Raw byte string, u32 length prefix."""

    name = "bytes"

    def pack(self, value: Any, out: bytearray) -> None:
        if not isinstance(value, (bytes, bytearray)):
            raise WireEncodeError(f"{value!r} is not bytes")
        out += U32._struct.pack(len(value))  # type: ignore[attr-defined]
        out += value

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        length, offset = U32.unpack(data, offset)
        chunk, offset = _take(data, offset, length)
        return bytes(chunk), offset


class _PickleBlob(FieldCodec):
    """An embedded pickle for the rare variable-shape field (agent state).

    The blob skips gzip — that is the point of the compact path — but
    keeps pickle's generality for plain-data dicts.  Corrupt blobs raise
    :class:`WireDecodeError` like every other field.
    """

    name = "pickle-blob"

    def pack(self, value: Any, out: bytearray) -> None:
        try:
            blob = pickle.dumps(value, protocol=_BLOB_PICKLE_PROTOCOL)
        except Exception as exc:
            raise WireEncodeError(f"unpicklable blob field: {exc}") from exc
        out += U32._struct.pack(len(blob))  # type: ignore[attr-defined]
        out += blob

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        length, offset = U32.unpack(data, offset)
        chunk, offset = _take(data, offset, length)
        try:
            return pickle.loads(chunk), offset
        except Exception as exc:
            raise WireDecodeError(f"corrupt pickle blob: {exc}") from exc


class _Optional(FieldCodec):
    """Presence byte (strictly 0/1) followed by the inner field."""

    def __init__(self, inner: FieldCodec):
        self.inner = inner
        self.name = f"opt({inner.name})"

    def pack(self, value: Any, out: bytearray) -> None:
        if value is None:
            out.append(0)
            return
        out.append(1)
        self.inner.pack(value, out)

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        chunk, offset = _take(data, offset, 1)
        if chunk[0] == 0:
            return None, offset
        if chunk[0] != 1:
            raise WireDecodeError(f"presence byte must be 0 or 1, got {chunk[0]}")
        return self.inner.unpack(data, offset)


class _Seq(FieldCodec):
    """Homogeneous tuple, u16 count prefix."""

    def __init__(self, inner: FieldCodec):
        self.inner = inner
        self.name = f"seq({inner.name})"

    def pack(self, value: Any, out: bytearray) -> None:
        try:
            count = len(value)
        except TypeError as exc:
            raise WireEncodeError(f"{value!r} is not a sequence") from exc
        if count > 0xFFFF:
            raise WireEncodeError(f"sequence of {count} items exceeds u16 count")
        out += U16._struct.pack(count)  # type: ignore[attr-defined]
        for item in value:
            self.inner.pack(item, out)

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        count, offset = U16.unpack(data, offset)
        items = []
        for _ in range(count):
            item, offset = self.inner.unpack(data, offset)
            items.append(item)
        return tuple(items), offset


class _Pair(FieldCodec):
    """A 2-tuple of two inner fields (peer lists, keyword histograms)."""

    def __init__(self, first: FieldCodec, second: FieldCodec):
        self.first = first
        self.second = second
        self.name = f"pair({first.name},{second.name})"

    def pack(self, value: Any, out: bytearray) -> None:
        try:
            left, right = value
        except (TypeError, ValueError) as exc:
            raise WireEncodeError(f"{value!r} is not a 2-tuple") from exc
        self.first.pack(left, out)
        self.second.pack(right, out)

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        left, offset = self.first.unpack(data, offset)
        right, offset = self.second.unpack(data, offset)
        return (left, right), offset


class _Composite(FieldCodec):
    """A value object flattened to inner fields (BPID, ids, addresses)."""

    def __init__(
        self,
        name: str,
        attrs: tuple[tuple[str, FieldCodec], ...],
        build: Callable[..., Any],
    ):
        self.name = name
        self.attrs = attrs
        self.build = build

    def pack(self, value: Any, out: bytearray) -> None:
        for attr, codec in self.attrs:
            try:
                inner = getattr(value, attr)
            except AttributeError as exc:
                raise WireEncodeError(f"{value!r} has no attribute {attr!r}") from exc
            codec.pack(inner, out)

    def unpack(self, data: bytes, offset: int) -> tuple[Any, int]:
        values = []
        for _attr, codec in self.attrs:
            value, offset = codec.unpack(data, offset)
            values.append(value)
        try:
            return self.build(*values), offset
        except Exception as exc:
            raise WireDecodeError(f"cannot build {self.name}: {exc}") from exc


#: shared primitive instances (field codecs are stateless)
U8 = _Scalar(">B", "u8")
U16 = _Scalar(">H", "u16")
U32 = _Scalar(">I", "u32")
I32 = _Scalar(">i", "i32")
I64 = _Scalar(">q", "i64")
F64 = _Scalar(">d", "f64")
BOOL = _Bool()
STR = _Str()
BYTES = _Bytes()
PICKLE_BLOB = _PickleBlob()


def opt(inner: FieldCodec) -> FieldCodec:
    """Optional field: presence byte + inner."""
    return _Optional(inner)


def seq(inner: FieldCodec) -> FieldCodec:
    """Homogeneous tuple field: u16 count + items."""
    return _Seq(inner)


def pair(first: FieldCodec, second: FieldCodec) -> FieldCodec:
    """2-tuple field."""
    return _Pair(first, second)


def composite(
    name: str,
    attrs: tuple[tuple[str, FieldCodec], ...],
    build: Callable[..., Any],
) -> FieldCodec:
    """A value-object field flattened to inner fields (answer items, ids)."""
    return _Composite(name, attrs, build)


def _make_id_codecs():
    # Deferred so this module needs nothing beyond repro.errors at import
    # time (repro.ids / repro.net.address import cleanly, but keeping the
    # import inside the factory makes the no-cycle property obvious).
    from repro.ids import BPID, AgentId, QueryId
    from repro.net.address import IPAddress
    from repro.storm.heapfile import RecordId

    bpid = _Composite("bpid", (("liglo_id", STR), ("node_id", I64)), BPID)
    ipaddr = _Composite("ipaddr", (("value", STR),), IPAddress)
    agent_id = _Composite("agent-id", (("origin", bpid), ("serial", I64)), AgentId)
    query_id = _Composite("query-id", (("origin", bpid), ("serial", I64)), QueryId)
    record_id = _Composite("record-id", (("page_id", U32), ("slot", U16)), RecordId)
    return bpid, ipaddr, agent_id, query_id, record_id


BPID_CODEC, IPADDR_CODEC, AGENT_ID_CODEC, QUERY_ID_CODEC, RECORD_ID_CODEC = (
    _make_id_codecs()
)
#: Gnutella descriptor GUID: ``(origin name, serial)``.
GUID_CODEC = pair(STR, I64)


# ---------------------------------------------------------------------------
# Message registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MessageSpec:
    """One registered control-message type: identity plus field layout."""

    type_id: int
    cls: type
    fields: tuple[tuple[str, FieldCodec], ...]
    #: canonical instance used for golden vectors and conformance tests
    sample: Callable[[], Any]
    #: value-level predicate: False routes this instance to the pickle
    #: fallback (e.g. agent envelopes that carry class source)
    compactable: Callable[[Any], bool] | None = None

    @property
    def name(self) -> str:
        return f"{self.cls.__module__}.{self.cls.__qualname__}"

    def accepts(self, message: Any) -> bool:
        """True when this instance can take the compact path."""
        if type(message) is not self.cls:
            return False
        if self.compactable is not None and not self.compactable(message):
            return False
        return True


_BY_ID: dict[int, MessageSpec] = {}
_BY_CLASS: dict[type, MessageSpec] = {}


def register(
    cls: type,
    type_id: int,
    fields: tuple[tuple[str, FieldCodec], ...],
    *,
    sample: Callable[[], Any],
    compactable: Callable[[Any], bool] | None = None,
) -> MessageSpec:
    """Register a control-message type; called at import time by the
    module that defines the message (keeping this module dependency-free).
    """
    if not 0 < type_id <= 0xFFFF:
        raise WireCodecError(f"type id {type_id:#x} outside u16 range")
    existing = _BY_ID.get(type_id)
    if existing is not None and existing.cls is not cls:
        raise WireCodecError(
            f"type id {type_id:#x} already registered for {existing.name}"
        )
    spec = MessageSpec(type_id, cls, tuple(fields), sample, compactable)
    _BY_ID[type_id] = spec
    _BY_CLASS[cls] = spec
    return spec


def lookup(cls: type) -> MessageSpec | None:
    """The spec registered for ``cls`` (None when unregistered)."""
    return _BY_CLASS.get(cls)


def spec_for_id(type_id: int) -> MessageSpec | None:
    """The spec registered under ``type_id`` (None when unknown)."""
    return _BY_ID.get(type_id)


def registered_specs() -> tuple[MessageSpec, ...]:
    """Every registered spec, ordered by type id (stable for vectors)."""
    return tuple(spec for _, spec in sorted(_BY_ID.items()))


def load_registrations() -> None:
    """Import every module that registers control messages.

    Senders register as a side effect of constructing their messages;
    decode-only processes (live endpoints, conformance tests) call this
    to make all type ids resolvable up front.
    """
    import repro.agents.envelope  # noqa: F401
    import repro.baselines.client_server  # noqa: F401
    import repro.baselines.gnutella  # noqa: F401
    import repro.core.discovery  # noqa: F401
    import repro.core.sharing  # noqa: F401
    import repro.core.shipping  # noqa: F401
    import repro.liglo.messages  # noqa: F401
    import repro.replication.messages  # noqa: F401


# ---------------------------------------------------------------------------
# Frame encode / decode
# ---------------------------------------------------------------------------


def encode_message(message: Any) -> bytes:
    """The compact frame for ``message``; :class:`WireEncodeError` when it
    is unregistered, not compactable, or a value overflows its field."""
    spec = _BY_CLASS.get(type(message))
    if spec is None:
        raise WireEncodeError(f"{type(message).__qualname__} is not registered")
    if spec.compactable is not None and not spec.compactable(message):
        raise WireEncodeError(f"{spec.name} instance is not compactable")
    out = bytearray(_HEADER.pack(FRAME_MAGIC, WIRE_FORMAT_VERSION, spec.type_id))
    for name, codec in spec.fields:
        codec.pack(getattr(message, name), out)
    if len(out) > MAX_FRAME_BYTES:
        raise WireEncodeError(f"frame of {len(out)} bytes exceeds {MAX_FRAME_BYTES}")
    return bytes(out)


def try_encode(message: Any) -> bytes | None:
    """The compact frame, or None when the message must take the pickle
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
    malformation (bad magic/version/type id, truncation, value overrun,
    oversize, trailing garbage)."""
    if len(frame) > MAX_FRAME_BYTES:
        raise WireDecodeError(
            f"oversized frame: {len(frame)} bytes exceeds {MAX_FRAME_BYTES}"
        )
    if len(frame) < HEADER_SIZE:
        raise WireDecodeError(f"frame of {len(frame)} bytes is shorter than a header")
    magic, version, type_id = _HEADER.unpack_from(frame, 0)
    if magic != FRAME_MAGIC:
        raise WireDecodeError(f"bad magic byte {magic:#04x} (want {FRAME_MAGIC:#04x})")
    if version != WIRE_FORMAT_VERSION:
        raise WireDecodeError(
            f"unsupported wire format version {version} "
            f"(this build speaks {WIRE_FORMAT_VERSION})"
        )
    spec = _BY_ID.get(type_id)
    if spec is None:
        raise WireDecodeError(f"unknown message type id {type_id:#06x}")
    values: dict[str, Any] = {}
    offset = HEADER_SIZE
    for name, codec in spec.fields:
        values[name], offset = codec.unpack(frame, offset)
    if offset != len(frame):
        raise WireDecodeError(
            f"{len(frame) - offset} trailing bytes after a complete {spec.name}"
        )
    try:
        return spec.cls(**values)
    except Exception as exc:
        raise WireDecodeError(f"cannot construct {spec.name}: {exc}") from exc
