"""Packet codec tagging, lazy decode, the pickle fallback, and the
drop-and-count behaviour of the delivery loop on corrupt frames —
on both the control and the data plane."""

from __future__ import annotations

import pytest

from repro.agents.messages import BatchedAnswers, _sample_answer
from repro.errors import WireDecodeError
from repro.ids import BPID
from repro.liglo.messages import PROTO_PING, Ping, Pong
from repro.net import datacodec
from repro.net.codec import CODEC_COMPACT, CODEC_PICKLE, encode_message
from repro.net.datacodec import CODEC_STREAM
from repro.net.faults import FrameFaultInjector
from repro.net.message import PACKET_OVERHEAD_BYTES, Packet
from repro.net.network import Network
from repro.sim import Simulator
from repro.util.compression import DEFAULT_CODEC
from repro.util.serialization import WireEncoder, serialize
from repro.util.tracing import Tracer


def _pair():
    sim = Simulator()
    network = Network(sim, tracer=Tracer())
    alice = network.create_host("alice")
    bob = network.create_host("bob")
    return sim, network, alice, bob


def _deliver_one(payload, protocol=PROTO_PING):
    """Send one payload alice->bob; returns (network, packet, wire_size)."""
    sim, network, alice, bob = _pair()
    received = []
    bob.bind(protocol, received.append)
    wire_size = alice.send(bob.address, protocol, payload)
    sim.run()
    assert len(received) == 1
    return network, received[0], wire_size


# ---------------------------------------------------------------------------
# Compact path
# ---------------------------------------------------------------------------


def test_registered_message_travels_as_compact_frame():
    ping = Ping(token=7)
    network, packet, wire_size = _deliver_one(ping)
    frame = encode_message(ping)
    assert packet.codec == CODEC_COMPACT
    assert packet.raw == frame
    assert packet.wire_size == len(frame) + PACKET_OVERHEAD_BYTES
    assert wire_size == packet.wire_size
    assert packet.payload == ping
    assert network.encoder.compact_frames == 1


def test_decoded_payload_is_an_independent_copy():
    pong = Pong(token=3, bpid=BPID("s", 1))
    _network, packet, _size = _deliver_one(pong)
    assert packet.payload == pong
    assert packet.payload is not pong  # hosts are separate machines


def test_lazy_decode_happens_once_and_is_cached():
    _network, packet, _size = _deliver_one(Ping(token=1))
    first = packet.payload
    assert packet.payload is first  # second access returns the memo


# ---------------------------------------------------------------------------
# Pickle fallback: unregistered payloads
# ---------------------------------------------------------------------------


def test_unregistered_payload_takes_gzip_pickle():
    payload = {"keyword": "music", "blob": b"x" * 400}
    raw = serialize(payload)
    charged = len(DEFAULT_CODEC.compress(raw))

    network, packet, wire_size = _deliver_one(payload)
    assert packet.codec == CODEC_PICKLE
    assert packet.raw == raw
    assert wire_size == charged + PACKET_OVERHEAD_BYTES
    assert packet.payload == payload
    assert network.encoder.pickle_payloads == 1


def test_decode_never_needs_decompression():
    # Regression: the charged size uses gzip, but the transport bytes are
    # the *uncompressed* pickle — lazy decode must work on ``raw`` directly,
    # independent of the compression bypass that sized the packet.
    payload = {"blob": b"y" * 4096}  # very compressible: sizes diverge
    _network, packet, wire_size = _deliver_one(payload)
    assert wire_size < len(packet.raw)  # charged gzip size, shipped pickle
    assert packet.payload == payload  # plain deserialize, no decompress


# ---------------------------------------------------------------------------
# WireEncoder: cache keyed on payload identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make", [lambda: Ping(token=9), _sample_answer], ids=["control", "data"]
)
def test_encoder_cache_is_keyed_on_payload_identity(make):
    encoder = WireEncoder(DEFAULT_CODEC)
    payload = make()

    first = encoder.encode(payload)
    assert encoder.encode(payload) is first
    assert encoder.misses == 1 and encoder.hits == 1

    # An equal but distinct object is a fresh entry with the same bytes.
    twin = encoder.encode(make())
    assert twin is not first
    assert (twin.raw, twin.codec) == (first.raw, first.codec)
    assert encoder.misses == 2 and encoder.hits == 1


def test_encoder_cache_capacity_zero_disables_memoization():
    encoder = WireEncoder(DEFAULT_CODEC, capacity=0)
    ping = Ping(token=9)
    first = encoder.encode(ping)
    second = encoder.encode(ping)
    assert first is not second
    assert first.raw == second.raw
    assert encoder.hits == 0 and encoder.misses == 2


# ---------------------------------------------------------------------------
# Corrupt frames in the delivery loop
# ---------------------------------------------------------------------------


def test_unknown_packet_codec_tag_raises():
    packet = Packet(
        src=None,
        dst=None,
        protocol="p",
        wire_size=1,
        sent_at=0.0,
        raw=b"",
        codec="zstd",
    )
    with pytest.raises(WireDecodeError, match="zstd"):
        packet.payload


@pytest.mark.parametrize("fault", ["truncated", "bit-flipped", "wrong-version"])
def test_corrupt_frame_is_dropped_counted_and_does_not_kill_the_host(fault):
    sim, network, alice, bob = _pair()
    received = []
    bob.bind(PROTO_PING, lambda packet: received.append(packet.payload))

    frame = encode_message(Ping(token=1))
    corrupted = FrameFaultInjector(seed=1).faults()[fault](frame)
    if fault == "bit-flipped":
        corrupted = bytes([frame[0] ^ 0x01]) + frame[1:]  # guaranteed-bad magic
    packet = Packet(
        src=alice.address,
        dst=bob.address,
        protocol=PROTO_PING,
        wire_size=len(corrupted) + PACKET_OVERHEAD_BYTES,
        sent_at=sim.now,
        raw=bytes(corrupted),
        codec=CODEC_COMPACT,
    )
    bob._receive(packet)
    sim.run()

    assert received == []  # the corrupt packet never reached the handler
    assert network.decode_errors == 1
    assert network.tracer.counter("net", "decode-error") == 1
    drops = [e for e in network.tracer.select("net", "drop")]
    assert any(e.get("reason") == "decode-error" for e in drops)

    # The host keeps serving: a well-formed message still goes through.
    alice.send(bob.address, PROTO_PING, Ping(token=2))
    sim.run()
    assert received == [Ping(token=2)]
    assert network.decode_errors == 1  # no new errors


def test_corrupt_pickle_payload_is_also_dropped_and_counted():
    sim, network, alice, bob = _pair()
    received = []
    bob.bind("blob", lambda packet: received.append(packet.payload))
    raw = serialize({"k": "v"})
    packet = Packet(
        src=alice.address,
        dst=bob.address,
        protocol="blob",
        wire_size=len(raw) + PACKET_OVERHEAD_BYTES,
        sent_at=sim.now,
        raw=raw,
        codec="no-such-codec",
    )
    bob._receive(packet)
    sim.run()
    assert received == []
    assert network.decode_errors == 1


def test_corrupt_pickle_bytes_raise_a_typed_decode_error():
    """Garbage under the pickle tag must surface as WireDecodeError (the
    delivery loop only counts typed errors), never a raw pickle exception."""
    packet = Packet(
        src=None,
        dst=None,
        protocol="blob",
        wire_size=10,
        sent_at=0.0,
        raw=b"\x02not a pickle at all",
        codec=CODEC_PICKLE,
    )
    with pytest.raises(WireDecodeError, match="corrupt pickle"):
        packet.payload


# ---------------------------------------------------------------------------
# Data plane: stream frames, per-plane counters, drop-and-count
# ---------------------------------------------------------------------------


def test_data_registered_message_travels_as_stream_frame():
    answer = _sample_answer()
    network, packet, wire_size = _deliver_one(answer, protocol="answer")
    frame = datacodec.encode_message(answer)
    assert packet.codec == CODEC_STREAM
    assert packet.raw == frame
    assert packet.wire_size == len(frame) + PACKET_OVERHEAD_BYTES
    assert wire_size == packet.wire_size
    assert packet.payload == answer
    assert network.encoder.data_frames == 1
    assert network.encoder.compact_frames == 0
    assert network.encoder.data_bytes == len(frame)


@pytest.mark.parametrize("fault", ["truncated", "bit-flipped", "wrong-version"])
def test_corrupt_data_frame_is_dropped_and_counted(fault):
    sim, network, alice, bob = _pair()
    received = []
    bob.bind("answer", lambda packet: received.append(packet.payload))

    frame = datacodec.encode_message(_sample_answer())
    injector = FrameFaultInjector(seed=1, max_frame_bytes=datacodec.MAX_FRAME_BYTES)
    corrupted = injector.faults()[fault](frame)
    if fault == "bit-flipped":
        corrupted = bytes([frame[0] ^ 0x01]) + frame[1:]  # guaranteed-bad magic
    packet = Packet(
        src=alice.address,
        dst=bob.address,
        protocol="answer",
        wire_size=len(corrupted) + PACKET_OVERHEAD_BYTES,
        sent_at=sim.now,
        raw=bytes(corrupted),
        codec=CODEC_STREAM,
    )
    bob._receive(packet)
    sim.run()

    assert received == []
    assert network.decode_errors == 1
    assert network.tracer.counter("net", "decode-error") == 1

    # The host keeps serving data frames afterwards.
    alice.send(bob.address, "answer", _sample_answer(2))
    sim.run()
    assert received == [_sample_answer(2)]
    assert network.decode_errors == 1


def test_lazy_batch_corruption_is_counted_when_the_handler_reads_it():
    """Record-level corruption passes decode_message (boundaries are
    fine) and must still land in decode_errors when the handler
    materializes the batch — the deferred half of drop-don't-crash."""
    sim, network, alice, bob = _pair()
    received = []
    bob.bind("answer", lambda packet: received.append(packet.payload.answers))

    frame = bytearray(
        datacodec.encode_message(BatchedAnswers([_sample_answer(1)]))
    )
    frame[-1] = 2  # the sample's trailing opt-presence byte: must be 0/1
    packet = Packet(
        src=alice.address,
        dst=bob.address,
        protocol="answer",
        wire_size=len(frame) + PACKET_OVERHEAD_BYTES,
        sent_at=sim.now,
        raw=bytes(frame),
        codec=CODEC_STREAM,
    )
    bob._receive(packet)
    sim.run()
    assert received == []
    assert network.decode_errors == 1
