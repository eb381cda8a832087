"""Pluggable wire codecs for the TCP runtime — the binary wire plane.

The original runtime spoke length-prefixed JSON (:mod:`.framing`), which is
simple and debuggable but dominated the hot path of a real deployment: every
``<BCAST>`` carrying a batch of requests was dict-ified, string-encoded and
re-parsed on every overlay hop.  This module makes the wire image pluggable
and adds a binary codec that is several times faster in both directions.

Two codecs are registered:

``"binary"`` (default)
    Frame layout::

        4-byte big-endian body length | 1-byte wire version | 1-byte kind
            | envelope

    The envelope is a flat tuple — ``(sender, round, ...)`` — serialised
    with :mod:`marshal`, CPython's C-speed codec for exactly the value
    shapes the runtime carries (payload ``data`` is always a canonical
    JSON value, enforced at the submit boundary by
    :func:`.framing.canonical_payload`).  ``<BCAST>`` frames, the only ones
    that carry a payload, put a fixed ``struct`` routing header ``(sender,
    round, origin)`` ahead of the marshal envelope ``(count, nbytes,
    rows)`` (rows are ``(origin, seq, nbytes, submit_time, data, client)``
    request tuples): a decoder built with an ``accept(sender, round,
    origin)`` predicate answers from those 12 bytes and skips a refused
    frame without unmarshalling it.  In a GS(n,d) overlay d−1 of the d
    copies of every message are duplicates the core would discard anyway,
    so that is most of the inbound payload bytes.

    The envelope idiom follows msgpack-style consensus transports (flat
    tagged tuples, one length-prefixed frame per message); msgpack itself
    is not a dependency of this repository, and marshal is both faster and
    already in the standard library.  Both ends of every connection are
    CPython processes on one host (the deployment model of this runtime),
    so marshal's same-interpreter format assumption holds; the version
    byte exists to fail loudly if that ever changes.

``"json"``
    The original length-prefixed JSON image, byte-identical to what the
    runtime spoke before the binary plane existed.  Kept as the
    differential oracle: the cross-codec equivalence tests run the same
    cluster scenario under both codecs and assert identical delivered
    orders and application end states.

Decoded items are either ``(sender, Message)`` tuples (protocol traffic)
or plain dicts (control frames — heartbeats).  Decoders are incremental
and hardened: truncated frames wait for more bytes, an oversized length
prefix raises before any body is buffered, and a garbage version byte, a
frame cut short inside its header or an undecodable envelope raises
:class:`ValueError` — the one exception a connection handler has to
expect from :meth:`feed`.
"""

from __future__ import annotations

import marshal
import struct
from typing import Any, Callable, Optional, Union, cast

from ..core.batching import Batch, Request
from ..core.messages import Backward, Broadcast, FailureNotice, Forward, Message
from .framing import (
    MAX_FRAME_BYTES,
    FrameDecoder,
    decode_message,
    encode_frame,
    encode_message,
)

__all__ = ["WIRE_VERSION", "WireCodec", "JsonCodec", "BinaryCodec",
           "get_codec", "CODECS", "DecodedFrame", "AcceptBroadcast"]

#: Version byte leading every binary frame body.  Bumped whenever the
#: envelope layout changes; a decoder that sees any other value raises.
WIRE_VERSION = 2

_LEN = struct.Struct(">I")
#: Frame head: body length, then the first two body bytes (version, kind).
_HEAD = struct.Struct(">IBB")
#: ``<BCAST>`` routing header ``(sender, round, origin)``, between the
#: head and the marshal envelope.
_BCAST_HEADER = struct.Struct(">HQH")

# Envelope kind tags (the kind byte of every binary frame).
_K_BCAST = 0
_K_FAIL = 1
_K_FWD = 2
_K_BWD = 3
_K_CONTROL = 4

#: JSON ``"type"`` discriminators that are protocol messages; anything
#: else (``"heartbeat"``) is a control frame and passes through as a dict.
_JSON_PROTOCOL_KINDS = frozenset({"bcast", "fail", "fwd", "bwd"})

#: One decoded frame: protocol traffic or a control dict.
DecodedFrame = Union[tuple[int, Message], dict[str, Any]]

#: ``accept(sender, round, origin)`` — asked per ``<BCAST>`` frame before
#: its payload is decoded; ``False`` drops the frame.
AcceptBroadcast = Callable[[int, int, int], bool]


class WireCodec:
    """Interface every wire codec implements.

    A codec owns the full frame image (length prefix included) for both
    protocol messages and control frames, plus an incremental per-connection
    decoder.  Codecs are stateless singletons; all per-connection state
    lives in the decoder.
    """

    name: str = "?"

    def encode_message(self, sender: int, message: Message) -> bytes:
        """One protocol message as a complete frame."""
        raise NotImplementedError

    def encode_control(self, obj: dict[str, Any]) -> bytes:
        """One control frame (e.g. a heartbeat) as a complete frame."""
        raise NotImplementedError

    def decoder(self, *, max_frame_bytes: int = MAX_FRAME_BYTES,
                accept: Optional[AcceptBroadcast] = None) -> "Any":
        """A fresh incremental decoder for one connection.

        *accept* lets the receiver refuse ``<BCAST>`` frames by their
        routing fields alone; a codec that cannot answer without a full
        decode may ignore it (dropping is an optimisation — the protocol
        core discards the same frames itself)."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


# --------------------------------------------------------------------- #
# JSON codec (the differential oracle — the pre-binary wire image)
# --------------------------------------------------------------------- #

class _JsonMessageDecoder:
    """Incremental decoder yielding ``(sender, Message)`` / control dicts."""

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self._frames = FrameDecoder(max_frame_bytes=max_frame_bytes)

    def feed(self, data: bytes) -> list[DecodedFrame]:
        items: list[DecodedFrame] = []
        for obj in self._frames.feed(data):
            if isinstance(obj, dict) and obj.get("type") in _JSON_PROTOCOL_KINDS:
                items.append(decode_message(obj))
            elif isinstance(obj, dict):
                items.append(obj)
            else:
                raise ValueError(f"frame is not an object: {obj!r}")
        return items

    @property
    def pending_bytes(self) -> int:
        return self._frames.pending_bytes


class JsonCodec(WireCodec):
    """Length-prefixed JSON frames — byte-identical to the original wire."""

    name = "json"

    def encode_message(self, sender: int, message: Message) -> bytes:
        return encode_frame(encode_message(sender, message))

    def encode_control(self, obj: dict[str, Any]) -> bytes:
        return encode_frame(obj)

    def decoder(self, *, max_frame_bytes: int = MAX_FRAME_BYTES,
                accept: Optional[AcceptBroadcast] = None
                ) -> _JsonMessageDecoder:
        # the oracle decodes everything: *accept* is ignored
        return _JsonMessageDecoder(max_frame_bytes=max_frame_bytes)


# --------------------------------------------------------------------- #
# Binary codec
# --------------------------------------------------------------------- #

class _BinaryMessageDecoder:
    """Incremental decoder for version-tagged binary frames."""

    def __init__(self, *, max_frame_bytes: int = MAX_FRAME_BYTES,
                 accept: Optional[AcceptBroadcast] = None) -> None:
        #: the unconsumed tail of the stream (a partial frame)
        self._buffer = bytearray()
        self.max_frame_bytes = max_frame_bytes
        self._accept = accept

    def feed(self, data: bytes) -> list[DecodedFrame]:
        # Complete frames are parsed in place — straight out of *data*
        # when nothing is pending — and the buffer is trimmed once at the
        # end; a ValueError leaves the decoder unusable (the caller closes
        # the connection).
        buf = self._buffer
        view: Union[bytes, bytearray] = data
        if buf:
            buf += data
            view = buf
        items: list[DecodedFrame] = []
        accept = self._accept
        pos = 0
        end = len(view)
        while end - pos >= _LEN.size:
            (length,) = _LEN.unpack_from(view, pos)
            if length > self.max_frame_bytes:
                raise ValueError(f"frame length {length} exceeds limit")
            start = pos + _LEN.size
            stop = start + length
            if stop > end:
                break
            if not length:
                raise ValueError("empty frame body")
            if view[start] != WIRE_VERSION:
                raise ValueError(f"unsupported wire version {view[start]} "
                                 f"(expected {WIRE_VERSION})")
            if length < 2:
                raise ValueError("frame body ends before the kind byte")
            item = _decode_frame(view[start + 1], view, start + 2, stop,
                                 accept)
            if item is not None:
                items.append(item)
            pos = stop
        if view is buf:
            del buf[:pos]
        elif pos < end:
            buf += data[pos:]
        return items

    @property
    def pending_bytes(self) -> int:
        return len(self._buffer)


def _loads(blob: Union[bytes, bytearray]) -> Any:
    try:
        return marshal.loads(blob)
    except (ValueError, EOFError, TypeError) as exc:
        raise ValueError(f"undecodable binary envelope: {exc}") from None


def _decode_frame(kind: int, view: Union[bytes, bytearray], start: int,
                  stop: int, accept: Optional[AcceptBroadcast]
                  ) -> Optional[DecodedFrame]:
    """Decode the frame body ``view[start:stop]`` (past version and kind);
    None for a ``<BCAST>`` that *accept* refused."""
    try:
        if kind == _K_BCAST:
            if stop - start < _BCAST_HEADER.size:
                raise ValueError("frame body ends inside the <BCAST> header")
            sender, rnd, origin = _BCAST_HEADER.unpack_from(view, start)
            if accept is not None and not accept(sender, rnd, origin):
                return None
            count, nbytes, rows = _loads(
                view[start + _BCAST_HEADER.size:stop])
            new = object.__new__
            requests: tuple[Request, ...]
            if rows:
                decoded: list[Request] = []
                append = decoded.append
                for o, s, nb, st, d, c in rows:
                    request = new(Request)
                    request.__dict__.update(
                        origin=o, seq=s, nbytes=nb, submit_time=st,
                        data=d, client=c)
                    append(request)
                requests = tuple(decoded)
            else:
                requests = ()
            batch = new(Batch)
            batch.__dict__.update(count=count, nbytes=nbytes,
                                  requests=requests)
            return sender, Broadcast(round=rnd, origin=origin, payload=batch)
        if kind == _K_FAIL:
            sender, rnd, failed, reporter = _loads(view[start:stop])
            return sender, FailureNotice(round=rnd, failed=failed,
                                         reporter=reporter)
        if kind == _K_FWD:
            sender, rnd, origin = _loads(view[start:stop])
            return sender, Forward(round=rnd, origin=origin)
        if kind == _K_BWD:
            sender, rnd, origin = _loads(view[start:stop])
            return sender, Backward(round=rnd, origin=origin)
        if kind == _K_CONTROL:
            (obj,) = _loads(view[start:stop])
            if not isinstance(obj, dict):
                raise ValueError(f"control frame is not an object: {obj!r}")
            return obj
    except (TypeError, IndexError, KeyError) as exc:
        raise ValueError(f"malformed binary envelope: {exc}") from None
    raise ValueError(f"unknown envelope kind {kind!r}")


def _frame(kind: int, envelope: tuple[Any, ...], header: bytes = b"") -> bytes:
    payload = marshal.dumps(envelope)
    length = 2 + len(header) + len(payload)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame too large ({length} bytes)")
    return _HEAD.pack(length, WIRE_VERSION, kind) + header + payload


class BinaryCodec(WireCodec):
    """Length-prefixed, version-tagged binary frames (see module doc).

    Several times faster than :class:`JsonCodec` in both directions: the
    encoder packs flat tuples straight from the message objects (no
    intermediate dict tree, no number-to-string conversion) and the
    decoder rebuilds :class:`~repro.core.batching.Request` rows through a
    fast-construction path that bypasses the frozen-dataclass ``__init__``
    (the wire already carries the batch's ``count``/``nbytes``, so the
    ``__post_init__`` re-aggregation is skipped too).
    """

    name = "binary"

    def encode_message(self, sender: int, message: Message) -> bytes:
        # exact-type dispatch through one type() lookup; the casts mirror
        # what each branch established (mypy cannot narrow through `t`)
        t = type(message)
        if t is Broadcast:
            bcast = cast(Broadcast, message)
            batch = bcast.payload
            rows = tuple(
                (r.origin, r.seq, r.nbytes, r.submit_time, r.data, r.client)
                for r in batch.requests)
            return _frame(_K_BCAST, (batch.count, batch.nbytes, rows),
                          _BCAST_HEADER.pack(sender, bcast.round,
                                             bcast.origin))
        if t is FailureNotice:
            fail = cast(FailureNotice, message)
            return _frame(_K_FAIL, (sender, fail.round, fail.failed,
                                    fail.reporter))
        if t is Forward:
            fwd = cast(Forward, message)
            return _frame(_K_FWD, (sender, fwd.round, fwd.origin))
        if t is Backward:
            bwd = cast(Backward, message)
            return _frame(_K_BWD, (sender, bwd.round, bwd.origin))
        raise TypeError(f"cannot encode {type(message)!r}")

    def encode_control(self, obj: dict[str, Any]) -> bytes:
        return _frame(_K_CONTROL, (obj,))

    def decoder(self, *, max_frame_bytes: int = MAX_FRAME_BYTES,
                accept: Optional[AcceptBroadcast] = None
                ) -> _BinaryMessageDecoder:
        return _BinaryMessageDecoder(max_frame_bytes=max_frame_bytes,
                                     accept=accept)


# --------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------- #

#: Stateless codec singletons, keyed by name.
CODECS: dict[str, WireCodec] = {
    JsonCodec.name: JsonCodec(),
    BinaryCodec.name: BinaryCodec(),
}


def get_codec(codec: Union[str, WireCodec]) -> WireCodec:
    """Resolve a codec name (or pass a codec instance through)."""
    if isinstance(codec, WireCodec):
        return codec
    try:
        return CODECS[codec]
    except KeyError:
        raise ValueError(f"unknown wire codec {codec!r} "
                         f"(available: {sorted(CODECS)})") from None
