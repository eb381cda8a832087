"""Binary wire plane: codec round trips, decoder hardening, equivalence.

Three layers of evidence that the binary codec can replace the JSON wire
image without changing what the protocol agrees on:

1. property-based round trips — every message the runtime can send decodes
   back to an equal message under BOTH codecs, for arbitrary canonical
   payload data (Hypothesis generates the JSON value space);
2. decoder hardening — truncated frames wait, oversized length prefixes
   raise before buffering, garbage version bytes and undecodable envelopes
   raise :class:`ValueError`, and a frame stream chopped at *every* byte
   boundary still decodes to the same items;
3. cross-codec equivalence — the same cluster scenario under ``codec="json"``
   and ``codec="binary"`` produces byte-different frames but identical
   delivered orders and payloads (the differential-oracle argument).
"""

import asyncio
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Backward,
    Batch,
    Broadcast,
    FailureNotice,
    Forward,
    Request,
)
from repro.graphs import gs_digraph
from repro.runtime import (
    BinaryCodec,
    JsonCodec,
    LocalCluster,
    get_codec,
)
from repro.runtime.framing import canonical_payload
from repro.runtime.wire import WIRE_VERSION, CODECS

CODEC_NAMES = sorted(CODECS)

# Canonical JSON values — exactly what survives the submit boundary
# (canonical_payload), so exactly what a wire codec must carry.
json_values = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-2 ** 53, max_value=2 ** 53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12)


@st.composite
def requests(draw):
    return Request(
        origin=draw(st.integers(0, 31)),
        seq=draw(st.integers(0, 2 ** 20)),
        nbytes=draw(st.integers(0, 4096)),
        submit_time=draw(st.floats(0, 1e6, allow_nan=False)),
        data=draw(json_values),
        client=draw(st.none() | st.text(min_size=1, max_size=12)))


@st.composite
def messages(draw):
    kind = draw(st.sampled_from(["bcast", "fail", "fwd", "bwd"]))
    rnd = draw(st.integers(0, 2 ** 20))
    if kind == "bcast":
        reqs = draw(st.lists(requests(), max_size=5))
        payload = Batch.of(reqs) if reqs else Batch(count=0, nbytes=0)
        return Broadcast(round=rnd, origin=draw(st.integers(0, 31)),
                         payload=payload)
    if kind == "fail":
        failed = draw(st.integers(0, 31))
        reporter = draw(st.integers(0, 31).filter(lambda r: r != failed))
        return FailureNotice(round=rnd, failed=failed, reporter=reporter)
    if kind == "fwd":
        return Forward(round=rnd, origin=draw(st.integers(0, 31)))
    return Backward(round=rnd, origin=draw(st.integers(0, 31)))


class TestCodecRoundTrip:
    @pytest.mark.parametrize("name", CODEC_NAMES)
    @given(message=messages(), sender=st.integers(0, 31))
    @settings(max_examples=120, deadline=None)
    def test_message_roundtrip(self, name, message, sender):
        codec = get_codec(name)
        frame = codec.encode_message(sender, message)
        items = codec.decoder().feed(frame)
        assert items == [(sender, message)]

    @pytest.mark.parametrize("name", CODEC_NAMES)
    @given(message=messages(), sender=st.integers(0, 31),
           cut=st.integers(0, 200))
    @settings(max_examples=60, deadline=None)
    def test_split_feed_roundtrip(self, name, message, sender, cut):
        """A frame fed in two arbitrary pieces decodes identically."""
        codec = get_codec(name)
        frame = codec.encode_message(sender, message)
        cut = min(cut, len(frame))
        decoder = codec.decoder()
        items = decoder.feed(frame[:cut]) + decoder.feed(frame[cut:])
        assert items == [(sender, message)]
        assert decoder.pending_bytes == 0

    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_control_roundtrip(self, name):
        codec = get_codec(name)
        frame = codec.encode_control({"type": "heartbeat", "from": 5})
        assert codec.decoder().feed(frame) == [
            {"type": "heartbeat", "from": 5}]

    @pytest.mark.parametrize("name", CODEC_NAMES)
    def test_interleaved_stream(self, name):
        """Messages and control frames interleave on one connection."""
        codec = get_codec(name)
        batch = Batch.of([Request(origin=1, seq=0, nbytes=8, data={"k": 1})])
        stream = (codec.encode_control({"type": "heartbeat", "from": 1})
                  + codec.encode_message(1, Broadcast(round=0, origin=1,
                                                      payload=batch))
                  + codec.encode_message(2, Forward(round=0, origin=1)))
        items = codec.decoder().feed(stream)
        assert items[0] == {"type": "heartbeat", "from": 1}
        assert items[1][0] == 1 and isinstance(items[1][1], Broadcast)
        assert items[2] == (2, Forward(round=0, origin=1))

    def test_codecs_differ_on_the_wire(self):
        """Same message, different bytes — the codecs are not aliases."""
        message = Broadcast(round=1, origin=0, payload=Batch(
            count=0, nbytes=0))
        assert (JsonCodec().encode_message(0, message)
                != BinaryCodec().encode_message(0, message))

    def test_get_codec_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown wire codec"):
            get_codec("protobuf")

    def test_get_codec_passes_instances_through(self):
        codec = BinaryCodec()
        assert get_codec(codec) is codec

    @given(message=messages(), sender=st.integers(0, 31))
    @settings(max_examples=60, deadline=None)
    def test_cross_codec_decode_equivalence(self, message, sender):
        """Both codecs decode their own frames to the SAME message object —
        the frame bytes differ, the meaning cannot."""
        decoded = {}
        for name in CODEC_NAMES:
            codec = get_codec(name)
            frame = codec.encode_message(sender, message)
            (decoded[name],) = codec.decoder().feed(frame)
        assert decoded["binary"] == decoded["json"]


class TestBinaryDecoderHardening:
    def frame(self, message=None):
        codec = BinaryCodec()
        if message is None:
            message = Broadcast(round=0, origin=0, payload=Batch.of(
                [Request(origin=0, seq=0, nbytes=8, data=[1, "x", None])]))
        return codec.encode_message(3, message)

    def test_truncated_frame_waits(self):
        frame = self.frame()
        decoder = BinaryCodec().decoder()
        assert decoder.feed(frame[:-1]) == []
        assert decoder.pending_bytes == len(frame) - 1
        assert len(decoder.feed(frame[-1:])) == 1
        assert decoder.pending_bytes == 0

    def test_every_byte_boundary(self):
        """The stream chopped at every single byte boundary still decodes
        to the same two items."""
        stream = self.frame() + self.frame(Forward(round=7, origin=2))
        whole = BinaryCodec().decoder().feed(stream)
        assert len(whole) == 2
        for cut in range(len(stream) + 1):
            decoder = BinaryCodec().decoder()
            items = decoder.feed(stream[:cut]) + decoder.feed(stream[cut:])
            assert items == whole
            assert decoder.pending_bytes == 0

    def test_oversized_length_prefix_raises_before_buffering(self):
        decoder = BinaryCodec().decoder(max_frame_bytes=1024)
        bogus = (1 << 30).to_bytes(4, "big") + b"x"
        with pytest.raises(ValueError, match="exceeds limit"):
            decoder.feed(bogus)

    def test_oversized_encode_rejected(self):
        codec = BinaryCodec()
        huge = Broadcast(round=0, origin=0, payload=Batch.of(
            [Request(origin=0, seq=0, nbytes=1, data="y" * (17 << 20))]))
        with pytest.raises(ValueError, match="frame too large"):
            codec.encode_message(0, huge)

    def test_garbage_version_byte(self):
        frame = bytearray(self.frame())
        frame[4] = WIRE_VERSION + 9       # corrupt the version byte
        with pytest.raises(ValueError, match="unsupported wire version"):
            BinaryCodec().decoder().feed(bytes(frame))

    def test_empty_body_rejected(self):
        with pytest.raises(ValueError, match="empty frame body"):
            BinaryCodec().decoder().feed((0).to_bytes(4, "big"))

    def test_undecodable_envelope(self):
        body = bytes([WIRE_VERSION, 2]) + b"\xff\xfe\xfd garbage"
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(ValueError, match="binary envelope"):
            BinaryCodec().decoder().feed(frame)

    def test_unknown_envelope_kind(self):
        import marshal
        body = bytes([WIRE_VERSION, 99]) + marshal.dumps((1, 2))
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(ValueError, match="unknown envelope kind"):
            BinaryCodec().decoder().feed(frame)

    def test_malformed_control_frame(self):
        import marshal
        body = bytes([WIRE_VERSION, 4]) + marshal.dumps(("not-a-dict",))
        frame = len(body).to_bytes(4, "big") + body
        with pytest.raises(ValueError, match="control frame"):
            BinaryCodec().decoder().feed(frame)

    def test_json_decoder_rejects_non_object_frame(self):
        from repro.runtime.framing import encode_frame
        import struct
        body = json.dumps([1, 2, 3]).encode()
        frame = struct.pack(">I", len(body)) + body
        with pytest.raises(ValueError, match="not an object"):
            JsonCodec().decoder().feed(frame)


class TestCanonicalPayloadFastPath:
    @given(data=json_values)
    @settings(max_examples=100, deadline=None)
    def test_canonical_values_pass_through_unchanged(self, data):
        result = canonical_payload(data)
        assert result == json.loads(json.dumps(data))

    def test_already_canonical_is_identity(self):
        """The common case — payloads built canonical by construction —
        must skip the serialise/parse round trip entirely."""
        data = {"op": "set", "key": "a/b", "value": [1, 2.5, None, True]}
        assert canonical_payload(data) is data

    def test_tuple_still_normalised(self):
        assert canonical_payload((1, 2)) == [1, 2]

    def test_nested_tuple_still_normalised(self):
        assert canonical_payload({"k": (1, 2)}) == {"k": [1, 2]}

    def test_int_enum_normalised_to_plain_int(self):
        import enum

        class Colour(enum.IntEnum):
            RED = 1

        result = canonical_payload([Colour.RED])
        assert result == [1]
        assert type(result[0]) is int

    def test_non_string_dict_keys_normalised(self):
        assert canonical_payload({1: "a"}) == {"1": "a"}

    def test_uncodable_payload_raises(self):
        with pytest.raises(TypeError):
            canonical_payload({"x": object()})


class TestCrossCodecClusterEquivalence:
    """The differential-oracle argument: one scenario, both codecs,
    identical agreed outcome."""

    def run_scenario(self, codec: str):
        async def scenario():
            graph = gs_digraph(6, 3)
            async with LocalCluster(graph, codec=codec,
                                    enable_failure_detector=False) as cluster:
                await cluster.submit(0, {"op": "set", "k": "a", "v": 1})
                await cluster.submit(3, ["x", 2.5, None])
                await cluster.run_rounds(1)
                await cluster.fail(5)
                await cluster.submit(1, "after-failure")
                await cluster.run_rounds(2)
                assert cluster.agreement_holds()
                node = cluster.nodes[0]
                return [
                    (rec.round, rec.removed,
                     [(origin, [(r.origin, r.seq, r.data)
                                for r in batch.requests])
                      for origin, batch in rec.messages])
                    for rec in node.delivered]
        return asyncio.run(scenario())

    def test_same_delivered_history_under_both_codecs(self):
        histories = {name: self.run_scenario(name) for name in CODEC_NAMES}
        assert histories["binary"] == histories["json"]
        # sanity: the scenario actually delivered payloads
        assert any(reqs for _rnd, _rm, msgs in histories["binary"]
                   for _o, reqs in msgs)
