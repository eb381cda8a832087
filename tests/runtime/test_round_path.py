"""The runtime's round path: completion wake-up, coalesced sends, the
header-first duplicate drop, malformed input and the typed round timeout.
"""

import asyncio
import json
import logging
import struct

import pytest

from repro.core import AllConcurConfig, Batch, Broadcast, Forward, Request
from repro.graphs import gs_digraph
from repro.runtime import (
    BinaryCodec,
    LocalCluster,
    NodeAddress,
    RoundTimeout,
    RuntimeNode,
    WireCodec,
)
from repro.runtime.wire import WIRE_VERSION


def run(coro):
    return asyncio.run(coro)


def history(node):
    """A node's delivered ``(round, origin, count, data)`` sequence."""
    return [(rec.round, origin, batch.count,
             tuple(req.data for req in batch.requests))
            for rec in node.delivered for origin, batch in rec.messages]


# --------------------------------------------------------------------- #
# Typed round timeout
# --------------------------------------------------------------------- #

class TestRoundTimeout:
    def test_message_says_what_the_round_waits_for(self):
        exc = RoundTimeout(3, 17, missing=[5], suspected=[],
                           unsent={6: 212}, waited=30.0)
        assert str(exc) == ("p3 round 17: waiting on origin 5, suspected {}, "
                            "peer 6 unsent 212 B (after 30s)")
        assert isinstance(exc, TimeoutError)
        again = RoundTimeout(**json.loads(json.dumps(vars(exc))))
        assert str(again) == str(exc) and again.unsent == {6: 212}

    def test_stuck_round_names_the_silent_origin(self):
        """A server that went silent without anyone being told: the round
        cannot complete, and the timeout names that origin, the peer the
        frames are stuck behind, and keeps ``except TimeoutError`` working."""
        async def scenario():
            graph = gs_digraph(6, 3)
            async with LocalCluster(
                    graph, enable_failure_detector=False) as cluster:
                await cluster.run_rounds(1)
                await cluster.nodes[5].stop()        # not cluster.fail()
                with pytest.raises(TimeoutError) as caught:
                    await cluster.run_rounds(1, timeout=0.4)
                exc = caught.value
                assert isinstance(exc, RoundTimeout)
                assert (exc.node_id, exc.round) == (0, 1)
                assert exc.missing == (5,)
                assert exc.suspected == ()
                assert "p0 round 1: waiting on origin 5" in str(exc)
                # a predecessor of the silent server still holds its frames
                pred = graph.predecessors(5)[0]
                with pytest.raises(RoundTimeout) as caught:
                    await cluster.nodes[pred].wait_for_round(1, timeout=0.2)
                assert caught.value.unsent.get(5, 0) > 0
                assert "peer 5 unsent" in str(caught.value)
        run(scenario())


# --------------------------------------------------------------------- #
# Malformed inbound bytes
# --------------------------------------------------------------------- #

class TestMalformedInbound:
    def test_bad_bytes_cost_one_connection_and_nothing_else(self, caplog):
        frame = BinaryCodec().encode_message(1, Broadcast(
            round=0, origin=1, payload=Batch.of(
                [Request(origin=1, seq=0, nbytes=8, data="x")])))
        bad_version = bytearray(frame)
        bad_version[4] = WIRE_VERSION + 1
        attacks = {
            "garbage": b"\x00\x00\x00\x09not-a-frame-at-all",
            # the length prefix ends the body right after (version, kind):
            # a <BCAST> with no routing header
            "truncated at the header boundary":
                struct.pack(">I", 2) + frame[4:6],
            "bad version byte": bytes(bad_version),
            "oversized length prefix": struct.pack(">I", 1 << 31) + b"x",
        }

        async def attack(port, payload):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(payload)
            # the node answers malformed bytes by closing the connection
            assert await asyncio.wait_for(reader.read(), 2.0) == b""
            writer.close()

        async def scenario():
            graph = gs_digraph(6, 3)
            async with LocalCluster(
                    graph, enable_failure_detector=False) as cluster:
                await cluster.submit(0, "before")
                await cluster.run_rounds(2)
                node = cluster.nodes[0]
                for payload in attacks.values():
                    await attack(node.address.port, payload)
                    await cluster.submit(3, "between")
                    await cluster.run_rounds(1, timeout=10)
                assert node.malformed_frames == len(attacks)
                await cluster.submit(0, "after")
                rounds = await cluster.run_rounds(2, timeout=10)
                assert cluster.agreement_holds()
                assert node.delivered_rounds == 2 + len(attacks) + 2
                assert "after" in [req.data for _o, batch
                                   in rounds[0][0].messages
                                   for req in batch.requests]

        with caplog.at_level(logging.DEBUG):
            run(scenario())
        assert "never retrieved" not in caplog.text
        assert "Fatal error" not in caplog.text


# --------------------------------------------------------------------- #
# Duplicate drop is invisible to the protocol
# --------------------------------------------------------------------- #

class UnfilteredCodec(WireCodec):
    """The binary codec minus the ``accept`` predicate: every copy of
    every message reaches the core, as before the header-first drop."""

    name = "binary"

    def __init__(self):
        self._inner = BinaryCodec()
        self.encode_message = self._inner.encode_message
        self.encode_control = self._inner.encode_control

    def decoder(self, *, accept=None, **kwargs):
        return self._inner.decoder(**kwargs)


def cluster_of(graph, filtered, **kwargs):
    """A LocalCluster whose *filtered* servers keep the ``accept``
    predicate while the others decode every copy."""
    cluster = LocalCluster(graph, enable_failure_detector=False, **kwargs)
    for pid, node in cluster.nodes.items():
        if pid not in filtered:
            node.codec = UnfilteredCodec()
    return cluster


def histories(cluster):
    return {pid: history(cluster.nodes[pid]) for pid in cluster.alive_members}


async def clean_scenario(filtered):
    async with cluster_of(gs_digraph(8, 3), filtered) as cluster:
        for rnd in range(6):
            for origin in (rnd % 8, (3 * rnd + 1) % 8):
                await cluster.submit(origin, ["w", rnd, origin])
            await cluster.run_rounds(1)
        assert cluster.agreement_holds()
        return histories(cluster)


async def crash_scenario(filtered):
    """f = 2 at GS(8,3): one server fails between rounds, one mid-round —
    after its submit, with its own broadcast partly on the wire (whether
    that message is agreed depends on timing; that every server agrees
    does not)."""
    async with cluster_of(gs_digraph(8, 3), filtered) as cluster:
        await cluster.submit(1, "r0")
        await cluster.run_rounds(1)
        await cluster.fail(6)
        await cluster.submit(2, "r1")
        await cluster.run_rounds(2)
        await cluster.submit(4, "from the victim")
        await cluster.submit(0, "r3")
        await cluster.nodes[4].start_round()
        await asyncio.sleep(0)         # flushed to its successors ...
        await asyncio.sleep(0)         # ... who may have begun relaying
        await cluster.fail(4)
        await cluster.run_rounds(3)
        assert cluster.agreement_holds()
        assert cluster.alive_members == (0, 1, 2, 3, 5, 7)
        assert cluster.nodes[0].server.members == (0, 1, 2, 3, 5, 7)
        return histories(cluster)


async def pipelined_scenario(filtered):
    """pipeline_depth=4 across the epoch barrier a failure raises."""
    graph = gs_digraph(8, 3)
    config = AllConcurConfig(graph=graph, auto_advance=False,
                             pipeline_depth=4)
    async with cluster_of(graph, filtered, config=config) as cluster:
        for origin in range(8):
            await cluster.submit(origin, ["pre", origin])
        await cluster.run_rounds(3)
        await cluster.fail(2)
        for origin in (0, 5):
            await cluster.submit(origin, ["post", origin])
        await cluster.run_rounds(8)
        assert cluster.agreement_holds()
        assert cluster.nodes[0].server.members == (0, 1, 3, 4, 5, 6, 7)
        return histories(cluster)


ALL, NONE, HALF = frozenset(range(8)), frozenset(), frozenset({0, 3, 4, 6})


class TestDuplicateDropIsInvisible:
    @pytest.mark.parametrize("scenario", [
        clean_scenario, crash_scenario, pipelined_scenario])
    def test_filtering_and_unfiltered_servers_agree(self, scenario):
        """One cluster, half its servers dropping duplicates on the header
        and half decoding every copy: identical delivered sequences."""
        per_node = run(scenario(HALF))
        reference = per_node[min(per_node)]
        assert any(data for _r, _o, _c, data in reference)
        for pid, delivered in per_node.items():
            assert delivered == reference, f"server {pid} diverged"

    @pytest.mark.parametrize("scenario", [clean_scenario, pipelined_scenario])
    def test_same_deliveries_with_and_without_the_filter(self, scenario):
        """The deterministic scenarios, all-filtering vs. none-filtering."""
        assert run(scenario(ALL)) == run(scenario(NONE))

    def test_core_sees_each_broadcast_once(self):
        """Crash-free GS(8,3): of the n·d <BCAST> arrivals per origin and
        round the core is handed exactly the n−1 first copies."""
        async def scenario():
            graph = gs_digraph(8, 3)
            handed = []
            async with LocalCluster(
                    graph, enable_failure_detector=False) as cluster:
                for node in cluster.nodes.values():
                    inner = node.server.handle_message

                    def counting(src, message, inner=inner):
                        handed.append(type(message))
                        return inner(src, message)
                    # per instance, after start — like bench_e2e's tracer
                    node.server.handle_message = counting
                rounds = 5
                for _ in range(rounds):
                    await cluster.submit(0, "x")
                    await cluster.run_rounds(1)
                assert cluster.agreement_holds()
            assert handed.count(Broadcast) == rounds * 8 * 7
            assert len(handed) == rounds * 8 * 7
        run(scenario())


# --------------------------------------------------------------------- #
# Send path and wake-up
# --------------------------------------------------------------------- #

class Sink:
    """A raw listener standing in for a peer: records what arrives."""

    def __init__(self):
        self.received = bytearray()
        self.connections = 0
        self._writers = []

    async def __aenter__(self):
        self.server = await asyncio.start_server(self._serve, "127.0.0.1", 0)
        self.port = self.server.sockets[0].getsockname()[1]
        return self

    async def __aexit__(self, *exc):
        self.drop_connections()
        self.server.close()
        await self.server.wait_closed()

    async def _serve(self, reader, writer):
        self.connections += 1
        self._writers.append(writer)
        while data := await reader.read(65536):
            self.received += data

    def drop_connections(self):
        for writer in self._writers:
            writer.close()
        self._writers.clear()

    async def wait_for(self, nbytes):
        for _ in range(200):
            if len(self.received) >= nbytes:
                return
            await asyncio.sleep(0.01)
        raise AssertionError(f"sink got {len(self.received)} of {nbytes} B")


def lone_node(sink_port, peer=1):
    graph = gs_digraph(6, 3)
    addresses = {0: NodeAddress(0, "127.0.0.1", 0),
                 peer: NodeAddress(peer, "127.0.0.1", sink_port)}
    config = AllConcurConfig(graph=graph, auto_advance=False)
    return RuntimeNode(0, config, addresses, enable_failure_detector=False)


class TestSendPath:
    def test_per_peer_fifo_survives_coalescing_and_a_reconnect(self):
        codec = BinaryCodec()
        frames = [codec.encode_message(0, Forward(round=i, origin=0))
                  for i in range(7)]

        async def scenario():
            async with Sink() as sink:
                node = lone_node(sink.port)
                await node.start_listening()
                try:
                    for frame in frames[:3]:         # one tick, no dial yet
                        node._enqueue(1, frame)
                    await sink.wait_for(sum(map(len, frames[:3])))
                    node._enqueue(1, frames[3])      # a tick of its own
                    await sink.wait_for(sum(map(len, frames[:4])))
                    assert sink.connections == 1

                    sink.drop_connections()          # peer resets the link
                    for _ in range(100):
                        if node._transports[1].is_closing():
                            break
                        await asyncio.sleep(0.01)
                    node._enqueue(1, frames[4])      # queued behind a redial
                    node._enqueue(1, frames[5])
                    await asyncio.sleep(0)
                    node._enqueue(1, frames[6])
                    await sink.wait_for(sum(map(len, frames)))
                    assert sink.connections == 2
                finally:
                    await node.stop()
                assert bytes(sink.received) == b"".join(frames)
                decoded = codec.decoder().feed(bytes(sink.received))
                assert [m.round for _s, m in decoded] == list(range(7))
        run(scenario())

    def test_frames_for_a_peer_marked_down_are_dropped(self):
        async def scenario():
            async with Sink() as sink:
                node = lone_node(sink.port)
                await node.start_listening()
                try:
                    node._enqueue(1, b"never sent")
                    node.mark_down(1)                # flush still pending
                    await asyncio.sleep(0.05)
                    node._enqueue(1, b"nor this")
                    await asyncio.sleep(0.05)
                    assert not node._pending.get(1)
                    assert node.unsent_bytes() == {}
                finally:
                    await node.stop()
                assert sink.received == b"" and sink.connections == 0
        run(scenario())

    def test_fail_with_frames_in_flight_does_not_raise(self):
        async def scenario():
            graph = gs_digraph(6, 3)
            async with LocalCluster(
                    graph, enable_failure_detector=False) as cluster:
                await cluster.run_rounds(1)
                # every node queues its round-1 <BCAST>; no flush has run
                for node in cluster.nodes.values():
                    await node.start_round()
                assert any(cluster.nodes[0]._pending.values())
                await cluster.fail(graph.successors(0)[0])
                await cluster.run_rounds(2, timeout=10)
                assert cluster.agreement_holds()
        run(scenario())


class TestWakeUp:
    def test_fifty_rounds_never_sleep(self, monkeypatch):
        """The round path is event-driven end to end: no positive-delay
        sleep is reached from run_rounds / wait_for_round (the detector
        is off, so nothing else on the loop may sleep either)."""
        real_sleep = asyncio.sleep

        async def no_sleep(delay, result=None):
            assert delay <= 0, f"asyncio.sleep({delay}) on the round path"
            return await real_sleep(delay, result)

        async def scenario():
            graph = gs_digraph(8, 3)
            async with LocalCluster(
                    graph, enable_failure_detector=False) as cluster:
                monkeypatch.setattr(asyncio, "sleep", no_sleep)
                try:
                    for rnd in range(25):
                        await cluster.submit(rnd % 8, rnd)
                        await cluster.run_rounds(1)
                    await cluster.run_rounds(25)
                    record = await cluster.nodes[3].wait_for_round(49)
                    assert record.round == 49
                    assert cluster.agreement_holds()
                finally:
                    monkeypatch.setattr(asyncio, "sleep", real_sleep)
        run(scenario())

    def test_waiter_on_a_failed_node_is_released_at_once(self):
        async def scenario():
            graph = gs_digraph(6, 3)
            async with LocalCluster(
                    graph, enable_failure_detector=False) as cluster:
                node = cluster.nodes[4]
                by_round = asyncio.ensure_future(
                    node.wait_for_round(3, timeout=30))
                by_count = asyncio.ensure_future(
                    node.wait_delivered(4, timeout=30))
                await asyncio.sleep(0)               # both parked
                await cluster.fail(4)
                assert await asyncio.wait_for(by_count, 1.0) is False
                with pytest.raises(ConnectionError, match="stopped"):
                    await asyncio.wait_for(by_round, 1.0)
                # and a fresh wait on the dead node does not park at all
                assert await node.wait_delivered(4, timeout=30) is False
        run(scenario())

    def test_run_rounds_survives_a_node_failing_mid_wait(self):
        async def scenario():
            graph = gs_digraph(8, 3)
            async with LocalCluster(
                    graph, enable_failure_detector=False) as cluster:
                await cluster.run_rounds(1)
                # server 0 is awaited first: fail it while run_rounds is
                # parked on it
                running = asyncio.ensure_future(
                    cluster.run_rounds(1, timeout=10))
                await asyncio.sleep(0)
                await cluster.fail(0)
                (per_node,) = await asyncio.wait_for(running, 10)
                assert set(per_node) == set(cluster.alive_members)
                assert 0 not in per_node
                assert cluster.agreement_holds()
        run(scenario())
