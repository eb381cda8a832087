"""Real asyncio/TCP deployment of the AllConcur protocol core.

Demonstrates that the same sans-IO core used by the simulator runs over real
sockets: length-prefixed frames through a pluggable wire codec (binary by
default, JSON as the differential oracle — :mod:`repro.runtime.wire`), one
TCP connection per overlay edge, heartbeat failure detection.  Clusters come
in two shapes: :class:`LocalCluster` hosts every node in the current event
loop, :class:`ProcessCluster` gives each node its own OS process (and event
loop) behind the same async driving surface.
"""

from .cluster import LocalCluster
from .framing import (
    FrameDecoder,
    decode_message,
    encode_frame,
    encode_message,
)
from .node import DeliveredRound, NodeAddress, RoundTimeout, RuntimeNode
from .proc import ProcessCluster
from .wire import BinaryCodec, JsonCodec, WireCodec, get_codec

__all__ = [
    "LocalCluster",
    "ProcessCluster",
    "RuntimeNode",
    "NodeAddress",
    "DeliveredRound",
    "RoundTimeout",
    "FrameDecoder",
    "encode_frame",
    "encode_message",
    "decode_message",
    "WireCodec",
    "JsonCodec",
    "BinaryCodec",
    "get_codec",
]
