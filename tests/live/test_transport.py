"""Tests for the live TCP transport."""

import threading
import time

import pytest

from repro.errors import NetworkError
from repro.live.transport import LiveEndpoint


@pytest.fixture
def endpoints():
    created = []

    def make():
        endpoint = LiveEndpoint()
        created.append(endpoint)
        return endpoint

    yield make
    for endpoint in created:
        endpoint.close()


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestLiveEndpoint:
    def test_send_and_receive(self, endpoints):
        a, b = endpoints(), endpoints()
        received = []
        b.bind("greet", lambda src, payload: received.append((src, payload)))
        a.send(b.address, "greet", {"hello": "world"})
        assert wait_until(lambda: received)
        src, payload = received[0]
        assert payload == {"hello": "world"}
        # The reply-to address is a's *listener*, usable for replies.
        assert tuple(src) == a.address

    def test_reply_round_trip(self, endpoints):
        a, b = endpoints(), endpoints()
        got_reply = []
        a.bind("pong", lambda src, payload: got_reply.append(payload))
        b.bind("ping", lambda src, payload: b.send(tuple(src), "pong", payload + 1))
        a.send(b.address, "ping", 41)
        assert wait_until(lambda: got_reply)
        assert got_reply[0] == 42

    def test_concurrent_senders(self, endpoints):
        sink = endpoints()
        received = []
        lock = threading.Lock()

        def collect(src, payload):
            with lock:
                received.append(payload)

        sink.bind("n", collect)
        senders = [endpoints() for _ in range(4)]
        threads = [
            threading.Thread(
                target=lambda s=s, i=i: [
                    s.send(sink.address, "n", (i, j)) for j in range(10)
                ]
            )
            for i, s in enumerate(senders)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert wait_until(lambda: len(received) == 40)
        assert set(received) == {(i, j) for i in range(4) for j in range(10)}

    def test_send_to_dead_peer_never_breaks_sender(self, endpoints):
        """Sends to a closed peer either fail cleanly (NetworkError /
        False) or vanish into a dead socket — depending on the kernel's
        connection handling — but must never corrupt the sender."""
        a = endpoints()
        dead = LiveEndpoint()
        address = dead.address
        dead.close()
        try:
            a.try_send(address, "x", None)
        except NetworkError:
            pass  # also acceptable: refusal surfaced despite try_send
        # The sender remains fully usable afterwards.
        b = endpoints()
        received = []
        b.bind("ok", lambda src, payload: received.append(payload))
        a.send(b.address, "ok", 1)
        assert wait_until(lambda: received)

    def test_unknown_protocol_dropped_silently(self, endpoints):
        a, b = endpoints(), endpoints()
        a.send(b.address, "nobody-listens", "data")
        time.sleep(0.05)  # must not crash the accept loop
        received = []
        b.bind("real", lambda src, payload: received.append(payload))
        a.send(b.address, "real", 1)
        assert wait_until(lambda: received)

    def test_double_bind_rejected(self, endpoints):
        a = endpoints()
        a.bind("p", lambda src, payload: None)
        with pytest.raises(NetworkError):
            a.bind("p", lambda src, payload: None)

    def test_close_is_idempotent(self, endpoints):
        a = endpoints()
        a.close()
        a.close()

    def test_large_payload(self, endpoints):
        a, b = endpoints(), endpoints()
        received = []
        b.bind("big", lambda src, payload: received.append(payload))
        blob = bytes(range(256)) * 4000  # ~1MB
        a.send(b.address, "big", blob)
        assert wait_until(lambda: received)
        assert received[0] == blob


class TestCompactLiveFraming:
    """Registered control messages cross the live wire as compact frames."""

    def test_registered_message_round_trips(self, endpoints):
        from repro.liglo.messages import PROTO_PING, Ping

        a, b = endpoints(), endpoints()
        received = []
        b.bind(PROTO_PING, lambda src, payload: received.append(payload))
        a.send(b.address, PROTO_PING, Ping(token=7))
        assert wait_until(lambda: received)
        assert received[0] == Ping(token=7)

    def test_compact_body_discriminates_from_legacy(self):
        from repro.liglo.messages import Ping
        from repro.net.codec import FRAME_MAGIC
        from repro.live.transport import _decode_body, _encode_body
        from repro.util.compression import DEFAULT_CODEC

        compact = _encode_body("liglo.ping", Ping(token=7), DEFAULT_CODEC)
        assert compact[0] == FRAME_MAGIC
        legacy = _encode_body("blob", {"k": "v"}, DEFAULT_CODEC)
        assert legacy[0] != FRAME_MAGIC  # gzip stream starts 0x1f
        assert _decode_body(compact, DEFAULT_CODEC) == ("liglo.ping", Ping(token=7))
        assert _decode_body(legacy, DEFAULT_CODEC) == ("blob", {"k": "v"})

    def test_corrupt_frame_counted_and_does_not_kill_the_serve_loop(
        self, endpoints
    ):
        import socket
        import struct

        from repro.liglo.messages import PROTO_PING, Ping
        from repro.net.codec import encode_message
        from repro.net.faults import FrameFaultInjector
        from repro.live.transport import _PROTO_LEN

        b = endpoints()
        received = []
        b.bind(PROTO_PING, lambda src, payload: received.append(payload))

        # Hand-build a compact live body around a truncated frame and
        # push it straight down a socket (no _reply_to preamble needed).
        frame = FrameFaultInjector(seed=2).truncate(
            encode_message(Ping(token=1)), keep=6
        )
        name = PROTO_PING.encode()
        body = b"\xb7" + _PROTO_LEN.pack(len(name)) + name + frame
        with socket.create_connection(b.address, timeout=5.0) as sock:
            sock.sendall(struct.pack("<I", len(body)) + body)
        assert wait_until(lambda: b.decode_errors == 1)
        assert received == []

        # The endpoint keeps serving well-formed traffic afterwards.
        a = endpoints()
        a.send(b.address, PROTO_PING, Ping(token=2))
        assert wait_until(lambda: received)
        assert received == [Ping(token=2)]
        assert b.decode_errors == 1

    def test_corrupt_legacy_body_also_counted(self, endpoints):
        import socket
        import struct

        b = endpoints()
        body = b"\x1f\x8b" + b"\x00" * 16  # gzip magic, garbage stream
        with socket.create_connection(b.address, timeout=5.0) as sock:
            sock.sendall(struct.pack("<I", len(body)) + body)
        assert wait_until(lambda: b.decode_errors == 1)


class TestDataLiveFraming:
    """Data-registered messages cross the live wire as stream frames."""

    def test_answer_round_trips_as_stream_frame(self, endpoints):
        from repro.agents.messages import _sample_answer
        from repro.net import datacodec
        from repro.live.transport import _encode_body
        from repro.util.compression import DEFAULT_CODEC

        body = _encode_body("live.answer", _sample_answer(), DEFAULT_CODEC)
        assert body[0] == datacodec.FRAME_MAGIC

        a, b = endpoints(), endpoints()
        received = []
        b.bind("live.answer", lambda src, payload: received.append(payload))
        a.send(b.address, "live.answer", _sample_answer())
        assert wait_until(lambda: received)
        assert received[0] == _sample_answer()

    def test_batch_round_trips_and_stays_a_batch(self, endpoints):
        from repro.agents.messages import BatchedAnswers, _sample_answer

        batch = BatchedAnswers([_sample_answer(1), _sample_answer(2)])
        a, b = endpoints(), endpoints()
        received = []
        b.bind("live.answer", lambda src, payload: received.append(payload))
        a.send(b.address, "live.answer", batch)
        assert wait_until(lambda: received)
        assert isinstance(received[0], BatchedAnswers)
        assert received[0] == batch

    def test_corrupt_data_frame_counted_and_serve_loop_survives(self, endpoints):
        import socket
        import struct

        from repro.agents.messages import _sample_answer
        from repro.net import datacodec
        from repro.net.faults import FrameFaultInjector
        from repro.live.transport import _PROTO_LEN

        b = endpoints()
        received = []
        b.bind("live.answer", lambda src, payload: received.append(payload))

        injector = FrameFaultInjector(
            seed=2, max_frame_bytes=datacodec.MAX_FRAME_BYTES
        )
        frame = injector.truncate(
            datacodec.encode_message(_sample_answer()), keep=10
        )
        name = b"live.answer"
        body = b"\xd7" + _PROTO_LEN.pack(len(name)) + name + frame
        with socket.create_connection(b.address, timeout=5.0) as sock:
            sock.sendall(struct.pack("<I", len(body)) + body)
        assert wait_until(lambda: b.decode_errors == 1)
        assert received == []

        a = endpoints()
        a.send(b.address, "live.answer", _sample_answer(2))
        assert wait_until(lambda: received)
        assert received == [_sample_answer(2)]
        assert b.decode_errors == 1

    def test_lazy_batch_corruption_counted_in_serve_loop(self, endpoints):
        import socket
        import struct

        from repro.agents.messages import BatchedAnswers, _sample_answer
        from repro.net import datacodec
        from repro.live.transport import _PROTO_LEN

        b = endpoints()
        received = []
        # The handler materializes the batch — inside the serve loop's
        # decode-error guard, so deferred corruption is still counted.
        b.bind(
            "live.answer",
            lambda src, payload: received.append(tuple(payload.answers)),
        )

        frame = bytearray(
            datacodec.encode_message(BatchedAnswers([_sample_answer(1)]))
        )
        frame[-1] = 2  # trailing opt-presence byte: must be 0 or 1
        name = b"live.answer"
        body = b"\xd7" + _PROTO_LEN.pack(len(name)) + name + bytes(frame)
        with socket.create_connection(b.address, timeout=5.0) as sock:
            sock.sendall(struct.pack("<I", len(body)) + body)
        assert wait_until(lambda: b.decode_errors == 1)
        assert received == []
