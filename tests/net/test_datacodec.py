"""Data-plane streaming codec: registry, framing, batching, laziness.

The conformance battery from ``conformance.py`` runs here against
``repro.net.datacodec`` — same fault classes, larger frames, plus the
lazy-materialization twist: a :class:`BatchedAnswers` frame with corrupt
record *contents* decodes cleanly (the boundaries are checked eagerly)
and must surface its :class:`WireDecodeError` at first materialization.
"""

from __future__ import annotations

import zlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.agents.envelope import AgentEnvelope
from repro.agents.messages import (
    ANSWER_FIELDS,
    AnswerItem,
    AnswerMessage,
    BatchedAnswers,
    _sample_answer,
)
from repro.core.sharing import FetchReply
from repro.errors import WireCodecError, WireDecodeError, WireEncodeError
from repro.ids import BPID, QueryId
from repro.net import codec as wire
from repro.net import datacodec as data
from repro.net.address import IPAddress
from repro.storm.heapfile import RecordId

from .conformance import CodecConformance, _spec_id
from .test_codec import _strategy_for

data.load_registrations()


class TestDataCodecConformance(CodecConformance):
    """The full truncation/bit-flip/fuzz battery over every data frame."""

    codec = data

    @pytest.fixture(params=data.registered_specs(), ids=_spec_id)
    def spec(self, request):
        return request.param

    def _force(self, decoded):
        if isinstance(decoded, BatchedAnswers):
            decoded.answers  # deferred record corruption raises here
        return decoded


# ---------------------------------------------------------------------------
# Registry / streamable gating
# ---------------------------------------------------------------------------


def test_unregistered_type_is_not_encodable():
    assert data.try_encode(("not", "registered")) is None
    with pytest.raises(WireEncodeError, match="not data-registered"):
        data.encode_message(("not", "registered"))


def test_stateonly_envelope_is_not_streamable():
    """Envelopes without source stay on the compact control codec."""
    spec = data.lookup(AgentEnvelope)
    sourced = spec.sample()
    stateonly = sourced.with_source(None)
    assert spec.accepts(sourced)
    assert not spec.accepts(stateonly)
    assert data.try_encode(stateonly) is None
    with pytest.raises(WireEncodeError, match="not streamable"):
        data.encode_message(stateonly)


def test_oversized_value_falls_back_not_raises():
    """A by-value oversize routes to pickle+gzip via try_encode -> None;
    the decision reads only the message, so both modes agree on it."""
    huge = FetchReply(
        token=1,
        rid=RecordId(0, 0),
        payload=b"\x00" * (data.MAX_FRAME_BYTES + 1),
        found=True,
    )
    assert data.try_encode(huge) is None
    with pytest.raises(WireEncodeError):
        data.encode_message(huge)


def test_type_id_collision_rejected():
    with pytest.raises(WireCodecError, match="already registered"):
        data.register(
            FetchReply, 0x1001, (), sample=lambda: None
        )  # 0x1001 is AnswerMessage's


def test_pack_body_requires_unpack_body():
    with pytest.raises(WireCodecError, match="together"):
        data.register(
            tuple, 0x1FFF, (), sample=tuple, pack_body=lambda m, out: None
        )


# ---------------------------------------------------------------------------
# Compressed-source field
# ---------------------------------------------------------------------------


def test_compressed_source_round_trips_and_caches():
    source = "class CacheProbe:\n    marker = 'x' * 40\n"
    before = dict(data._CompressedSource._cache)
    out = bytearray()
    data.COMPRESSED_SOURCE.pack(source, out)
    out2 = bytearray()
    data.COMPRESSED_SOURCE.pack(source, out2)
    assert bytes(out) == bytes(out2)
    value, offset = data.COMPRESSED_SOURCE.unpack(bytes(out), 0)
    assert value == source
    assert offset == len(out)
    added = {
        k: v for k, v in data._CompressedSource._cache.items() if k not in before
    }
    assert len(added) == 1  # one digest entry for one distinct source


def test_compressed_source_rejects_corrupt_zlib():
    out = bytearray()
    data.COMPRESSED_SOURCE.pack("class X:\n    pass\n", out)
    corrupted = bytearray(out)
    corrupted[-1] ^= 0xFF
    with pytest.raises(WireDecodeError):
        data.COMPRESSED_SOURCE.unpack(bytes(corrupted), 0)


def test_compressed_source_rejects_length_lie():
    source = "class Y:\n    pass\n"
    blob = zlib.compress(source.encode(), 6)
    lying = bytearray()
    lying += wire.U32._struct.pack(len(source.encode()) + 1)  # wrong raw len
    lying += wire.U32._struct.pack(len(blob))
    lying += blob
    with pytest.raises(WireDecodeError, match="inflated"):
        data.COMPRESSED_SOURCE.unpack(bytes(lying), 0)


def test_sourced_envelope_frame_beats_naive_source_bytes():
    """The whole point of COMPRESSED_SOURCE: class text travels deflated."""
    spec = data.lookup(AgentEnvelope)
    envelope = spec.sample().with_source("def run(self, node):\n    pass\n" * 50)
    frame = data.encode_message(envelope)
    assert len(frame) < len(envelope.source.encode())


# ---------------------------------------------------------------------------
# BatchedAnswers: value semantics + lazy decode
# ---------------------------------------------------------------------------


def _answer(serial: int, items: int = 1) -> AnswerMessage:
    origin = BPID("10.0.0.1", 7)
    return AnswerMessage(
        query_id=QueryId(origin, serial),
        responder=BPID("10.0.0.2", 9),
        responder_address=IPAddress("10.0.4.9"),
        hops=1,
        items=tuple(
            AnswerItem(
                rid=RecordId(serial, i), keywords=("k",), size=4, payload=b"data"
            )
            for i in range(items)
        ),
    )


@pytest.mark.parametrize("count", [0, 1, 2, 7])
def test_batch_round_trips(count):
    batch = BatchedAnswers([_answer(i) for i in range(count)])
    decoded = data.decode_message(data.encode_message(batch))
    assert isinstance(decoded, BatchedAnswers)
    assert decoded == batch
    assert len(decoded) == count
    assert list(decoded) == list(batch.answers)


def test_decoded_batch_is_lazy_until_read():
    frame = data.encode_message(BatchedAnswers([_answer(1), _answer(2)]))
    decoded = data.decode_message(frame)
    assert not decoded.materialized
    assert len(decoded) == 2  # record count comes from the boundaries
    assert not decoded.materialized
    decoded.answers
    assert decoded.materialized


def test_corrupt_record_contents_raise_at_materialization():
    frame = bytearray(data.encode_message(BatchedAnswers([_answer(1)])))
    # The last item's opt(BYTES) payload field ends the record: presence
    # byte, u32 length, then b"data".  An invalid presence byte corrupts
    # the record *contents* while every boundary stays intact.
    frame[-9] = 2
    decoded = data.decode_message(bytes(frame))
    assert isinstance(decoded, BatchedAnswers)  # boundaries were fine
    with pytest.raises(WireDecodeError):
        decoded.answers


def test_corrupt_record_boundary_raises_at_decode():
    frame = bytearray(data.encode_message(BatchedAnswers([_answer(1)])))
    # The u32 record length sits right after the header's u16 count.
    offset = data.HEADER_SIZE + 2
    frame[offset:offset + 4] = (0xFFFF).to_bytes(4, "big")
    with pytest.raises(WireDecodeError, match="overruns"):
        data.decode_message(bytes(frame))


def test_batch_pickles_by_value():
    import pickle

    batch = data.decode_message(
        data.encode_message(BatchedAnswers([_answer(1), _answer(2)]))
    )
    clone = pickle.loads(pickle.dumps(batch))
    assert clone == batch
    assert clone.materialized  # pickle ships values, not memoryviews


def _field_strategy(field_codec) -> st.SearchStrategy:
    """Like test_codec._strategy_for, plus the data-plane address union."""
    if field_codec is data.ADDRESS_CODEC:
        return st.builds(IPAddress, st.text(max_size=16)) | st.tuples(
            st.text(max_size=16), st.integers(0, 0xFFFF)
        )
    return _strategy_for(field_codec)


def test_address_codec_round_trips_both_shapes():
    for value in (IPAddress("10.0.4.9"), ("127.0.0.1", 45301)):
        out = bytearray()
        data.ADDRESS_CODEC.pack(value, out)
        decoded, offset = data.ADDRESS_CODEC.unpack(bytes(out), 0)
        assert decoded == value and offset == len(out)


def test_live_shaped_answer_streams():
    """Answers built by the live runtime (tuple addresses) must stream."""
    answer = AnswerMessage(
        query_id=QueryId(BPID("live", 0), 1),
        responder=BPID("live", 1),
        responder_address=("127.0.0.1", 45301),
        hops=1,
        items=(AnswerItem(rid=RecordId(0, 0), keywords=("k",), size=1, payload=b"x"),),
    )
    frame = data.try_encode(answer)
    assert frame is not None
    assert data.decode_message(frame) == answer


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data_=st.data())
def test_batch_round_trip_property(data_):
    """0, 1 and many items, arbitrary field values, byte-exact round trip."""
    fields = {name: _field_strategy(codec) for name, codec in ANSWER_FIELDS}
    answer = st.fixed_dictionaries(fields).map(lambda kw: AnswerMessage(**kw))
    batch = BatchedAnswers(data_.draw(st.lists(answer, max_size=5), label="answers"))
    frame = data.encode_message(batch)
    assert frame[0] == data.FRAME_MAGIC
    decoded = data.decode_message(frame)
    assert decoded == batch
    assert data.encode_message(batch) == frame


# ---------------------------------------------------------------------------
# Top-k frames (0x1007 ScoredAnswer, 0x1008 TopKDigest)
# ---------------------------------------------------------------------------


def test_topk_frames_registered():
    from repro.agents.topk import ScoredAnswer, TopKDigest

    assert data.spec_for_id(0x1007).cls is ScoredAnswer
    assert data.spec_for_id(0x1008).cls is TopKDigest


def test_topk_frames_round_trip_scores_exactly():
    """TF scores are small-integer ratios; the F64 field must round-trip
    them bit-exactly or merge tie-breaks would drift across the wire."""
    from repro.agents.topk import _sample_scored_answer, _sample_topk_digest

    for sample in (_sample_scored_answer(), _sample_topk_digest()):
        frame = data.encode_message(sample)
        assert frame[0] == data.FRAME_MAGIC
        decoded = data.decode_message(frame)
        assert decoded == sample
        assert data.encode_message(decoded) == frame


def test_scored_answer_live_address_streams():
    from repro.agents.topk import ScoredAnswer, ScoredItem

    answer = ScoredAnswer(
        query_id=QueryId(BPID("live", 0), 1),
        responder=BPID("live", 1),
        responder_address=("127.0.0.1", 45302),
        hops=1,
        items=(
            ScoredItem(
                rid=RecordId(0, 0), keywords=("k",), size=1, score=1.0, payload=b"x"
            ),
        ),
        dominated_dropped=3,
    )
    frame = data.try_encode(answer)
    assert frame is not None
    assert data.decode_message(frame) == answer
