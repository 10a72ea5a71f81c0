"""Payload serialization.

Agents, answers, and control messages are serialized with :mod:`pickle`
(the Python analogue of the Java serialization the prototype used) so that
the *real* byte size of each message feeds the simulated transmission-cost
model.  The simulation is single-process and the payloads are produced by
this library itself, so pickle's trust model is acceptable here; shipping
of agent *code* goes through the explicit source-shipping path in
:mod:`repro.agents.codeship` instead of pickled classes.

Small fixed-shape control messages additionally register with the compact
wire codec (:mod:`repro.net.codec`): those skip pickle+gzip entirely and
travel as struct-packed binary frames, charged at the frame size.

Payload-carrying data-plane messages (answers, fetch/active/data
replies, sourced agent envelopes) register with the streaming data codec
(:mod:`repro.net.datacodec`) instead and travel as length-prefixed
stream frames.  Anything unregistered falls back to pickle+gzip.
Per-plane counters (`control`/`data`/`fallback`) record where the bytes
actually go; the golden frame vectors in ``tests/net/vectors/`` and the
golden observables in ``tests/eval/goldens/`` pin the result.
"""

from __future__ import annotations

import pickle
from collections import OrderedDict
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.util.compression import Codec
    from repro.util.tracing import Tracer

#: Protocol pinned for deterministic sizes across interpreter versions.
PICKLE_PROTOCOL = 4

#: Default number of payload objects a :class:`WireEncoder` memoizes.
#: Fan-out sends (agent floods, CS broadcasts, Gnutella relays) reuse one
#: payload object within a handful of simulator events, so a small cache
#: captures nearly all repeats.  Set to 0 to disable encoding caches
#: globally (the determinism regression tests do exactly that).
WIRE_CACHE_CAPACITY = 128

#: Lazily bound :mod:`repro.net.codec` (imported on first encode to keep
#: ``repro.util`` importable before ``repro.net`` finishes initialising).
_wire_codec_module = None


def _wire_codec():
    global _wire_codec_module
    if _wire_codec_module is None:
        from repro.net import codec

        _wire_codec_module = codec
    return _wire_codec_module


#: Lazily bound :mod:`repro.net.datacodec`, same rationale as above.
_data_codec_module = None


def _data_codec():
    global _data_codec_module
    if _data_codec_module is None:
        from repro.net import datacodec

        _data_codec_module = datacodec
    return _data_codec_module


def serialize(obj: Any) -> bytes:
    """Serialize ``obj`` to bytes."""
    return pickle.dumps(obj, protocol=PICKLE_PROTOCOL)


def deserialize(data: bytes) -> Any:
    """Inverse of :func:`serialize`."""
    return pickle.loads(data)


def serialized_size(obj: Any) -> int:
    """Size in bytes of ``obj``'s serialized form (uncompressed)."""
    return len(serialize(obj))


class EncodedPayload:
    """One payload's wire form: transport bytes plus charged size.

    ``raw`` is what the receiver decodes — a compact control frame, a
    stream data frame, or an uncompressed pickle; ``codec`` tags which
    (it travels into :class:`~repro.net.message.Packet` so lazy decode
    picks the right inverse).  ``compressed_size`` is what the
    transmission model charges (framing overhead excluded): the frame
    length for registered messages, the gzip size of the pickle for
    everything else.
    """

    __slots__ = ("raw", "compressed_size", "codec")

    def __init__(self, raw: bytes, compressed_size: int, codec: str = "pickle"):
        self.raw = raw
        self.compressed_size = compressed_size
        self.codec = codec


class WireEncoder:
    """Serialize+compress payloads once per object, not once per recipient.

    Encoding is memoized on *payload identity*: a fan-out loop that
    sends the same envelope object to N peers pays one encoding instead
    of N.  Each cache entry keeps a strong reference to its payload so
    an ``id()`` can never be reused while the entry is live; the ``is``
    check on lookup makes a stale hit impossible.

    The cache assumes payloads are not mutated between sends — true for
    every protocol message in this library (frozen dataclasses, tuples,
    bytes).  Encoded bytes are deterministic, so a hit returns exactly
    what re-encoding would; wire sizes are bit-identical either way.
    """

    def __init__(
        self,
        codec: "Codec",
        capacity: int | None = None,
        tracer: "Tracer | None" = None,
    ):
        self.codec = codec
        self.capacity = WIRE_CACHE_CAPACITY if capacity is None else capacity
        self.tracer = tracer
        self.hits = 0
        self.misses = 0
        #: payloads that took the compact control path / the streaming
        #: data path / the pickle(+gzip) fallback
        self.compact_frames = 0
        self.data_frames = 0
        self.pickle_payloads = 0
        #: charged bytes per plane (counted once per distinct encoding,
        #: i.e. on cache misses — the per-send totals live in Network)
        self.control_bytes = 0
        self.data_bytes = 0
        self.fallback_bytes = 0
        #: id(payload) -> (payload, encoded)
        self._cache: OrderedDict[int, tuple[Any, EncodedPayload]] = OrderedDict()

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total

    def encode(self, payload: Any) -> EncodedPayload:
        """Wire form of ``payload``, memoized per object identity."""
        key = id(payload)
        entry = self._cache.get(key)
        if entry is not None and entry[0] is payload:
            self.hits += 1
            self._cache.move_to_end(key)
            if self.tracer is not None:
                self.tracer.bump("net", "encode-hit")
            return entry[1]
        self.misses += 1
        if self.tracer is not None:
            self.tracer.bump("net", "encode-miss")
        encoded = self._encode(payload)
        if self.capacity > 0:
            self._cache[key] = (payload, encoded)
            self._cache.move_to_end(key)
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)
        return encoded

    def _encode(self, payload: Any) -> EncodedPayload:
        wire = _wire_codec()
        frame = wire.try_encode(payload)
        if frame is not None:
            self.compact_frames += 1
            self.control_bytes += len(frame)
            if self.tracer is not None:
                self.tracer.bump("net", "encode-compact")
            return EncodedPayload(frame, len(frame), wire.CODEC_COMPACT)
        data = _data_codec()
        frame = data.try_encode(payload)
        if frame is not None:
            self.data_frames += 1
            self.data_bytes += len(frame)
            if self.tracer is not None:
                self.tracer.bump("net", "encode-stream")
            return EncodedPayload(frame, len(frame), data.CODEC_STREAM)
        self.pickle_payloads += 1
        raw = serialize(payload)
        encoded = EncodedPayload(raw, len(self.codec.compress(raw)), wire.CODEC_PICKLE)
        self.fallback_bytes += encoded.compressed_size
        return encoded

    def clear(self) -> None:
        """Drop all cached encodings (counters are kept)."""
        self._cache.clear()
