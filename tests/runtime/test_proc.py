"""Multi-process runtime: one OS process per server, same agreement.

The scenarios mirror the LocalCluster suite where it matters (agreement,
fail-stop, payload delivery) plus the process-specific surface: control
RPCs, the parent-side delivery archive and its waiters, start-method
selection, and the ``TcpDeployment`` facade's ``runtime="process"`` knob.
"""

import asyncio
import multiprocessing
import os
import signal

import pytest

from repro.api import create_deployment
from repro.core import Request
from repro.graphs import gs_digraph
from repro.runtime import ProcessCluster, RoundTimeout, get_codec


def run(coro):
    return asyncio.run(coro)


class TestProcessCluster:
    def test_multi_round_agreement(self):
        async def scenario():
            graph = gs_digraph(6, 3)
            async with ProcessCluster(
                    graph, enable_failure_detector=False) as cluster:
                await cluster.submit(0, {"op": "set", "k": "a"})
                await cluster.submit(4, [1, 2, 3])
                rounds = await cluster.run_rounds(3, timeout=20.0)
                assert len(rounds) == 3
                first = rounds[0]
                assert set(first) == set(cluster.members)
                for rec in first.values():
                    delivered = {origin: [r.data for r in batch.requests]
                                 for origin, batch in rec.messages
                                 if batch.count}
                    assert delivered == {0: [{"op": "set", "k": "a"}],
                                         4: [[1, 2, 3]]}
                assert cluster.agreement_holds()
        run(scenario())

    def test_every_server_is_a_separate_process(self):
        async def scenario():
            async with ProcessCluster(
                    gs_digraph(6, 3),
                    enable_failure_detector=False) as cluster:
                pids = {proc.pid for proc in cluster._procs.values()}
                assert len(pids) == len(cluster.members)
                assert all(pid is not None for pid in pids)
                import os
                assert os.getpid() not in pids
                # kernel-assigned, distinct node listener ports
                ports = [port for _h, port in cluster.endpoints().values()]
                assert len(set(ports)) == len(ports)
                assert all(port > 0 for port in ports)
        run(scenario())

    def test_fail_stop_continues_with_survivors(self):
        async def scenario():
            graph = gs_digraph(6, 3)
            async with ProcessCluster(
                    graph, enable_failure_detector=False) as cluster:
                await cluster.submit(0, "pre")
                await cluster.run_rounds(1, timeout=20.0)
                await cluster.fail(2)
                assert cluster.alive_members == (0, 1, 3, 4, 5)
                assert not cluster._procs[2].is_alive()
                await cluster.submit(1, "post")
                rounds = await cluster.run_rounds(2, timeout=20.0)
                assert set(rounds[0]) == {0, 1, 3, 4, 5}
                removed = {rm for rec in rounds[0].values()
                           for rm in rec.removed}
                assert removed == {2}
                assert cluster.agreement_holds()
        run(scenario())

    def test_round_timeout_crosses_the_control_channel_typed(self):
        """A child that times out ships its RoundTimeout to the parent with
        every field intact: same type, same detail as on a LocalCluster."""
        async def scenario():
            async with ProcessCluster(
                    gs_digraph(6, 3),
                    enable_failure_detector=False) as cluster:
                await cluster.run_rounds(1, timeout=20.0)
                frozen = cluster._procs[4].pid
                os.kill(frozen, signal.SIGSTOP)     # silent, not failed
                try:
                    with pytest.raises(TimeoutError) as caught:
                        await cluster.run_rounds(1, timeout=1.0)
                finally:
                    os.kill(frozen, signal.SIGCONT)
                exc = caught.value
                assert isinstance(exc, RoundTimeout)
                assert exc.node_id != 4 and exc.round == 1
                assert exc.missing == (4,)
                assert f"p{exc.node_id} round 1: waiting on origin 4" \
                    in str(exc)
                # parent-side waits raise the same type (without the
                # child's round state)
                with pytest.raises(RoundTimeout) as caught:
                    await cluster.nodes[0].wait_for_round(7, timeout=0.1)
                assert caught.value.missing is None
        run(scenario())

    def test_archived_delivery_releases_a_parked_waiter(self, monkeypatch):
        """wait_for_round parks on the node's progress event against its one
        deadline: a deliver frame archived mid-wait wakes it, and no wait is
        a polling quantum."""
        async def scenario():
            # never started: only the parent-side archive is exercised
            cluster = ProcessCluster(gs_digraph(6, 3))
            timeouts = []
            wait_for = asyncio.wait_for

            async def recording_wait_for(awaitable, timeout):
                timeouts.append(timeout)
                return await wait_for(awaitable, timeout)

            monkeypatch.setattr(asyncio, "wait_for", recording_wait_for)
            waiter = asyncio.create_task(
                cluster.nodes[0].wait_for_round(0, timeout=20.0))
            await asyncio.sleep(0)
            assert not waiter.done()
            cluster._archive_delivery(
                {"type": "deliver", "id": 0, "round": 0, "removed": [],
                 "wall": 0.0, "messages": []})
            assert (await waiter).round == 0
            assert len(timeouts) == 1 and timeouts[0] > 1.0
        run(scenario())

    def test_prebuilt_requests_advance_the_sequencer(self):
        async def scenario():
            async with ProcessCluster(
                    gs_digraph(6, 3),
                    enable_failure_detector=False) as cluster:
                for i in range(10):
                    await cluster.submit_request(
                        Request(origin=3, seq=i, nbytes=8, data=i))
                assert cluster.next_seq(3) == 10
                rounds = await cluster.run_rounds(1, timeout=20.0)
                rec = rounds[0][0]
                (origin, batch), = [(o, b) for o, b in rec.messages
                                    if b.count]
                assert origin == 3
                assert [r.data for r in batch.requests] == list(range(10))
        run(scenario())

    def test_spawn_start_method(self):
        """The spawn context works too (children re-import everything)."""
        if "spawn" not in multiprocessing.get_all_start_methods():
            pytest.skip("spawn start method unavailable")

        async def scenario():
            async with ProcessCluster(
                    gs_digraph(6, 3), mp_context="spawn",
                    enable_failure_detector=False) as cluster:
                await cluster.submit(0, "spawned")
                rounds = await cluster.run_rounds(1, timeout=60.0)
                assert any(b.count for _o, b in rounds[0][0].messages)
                assert cluster.agreement_holds()
        run(scenario())

    def test_json_codec_selectable(self):
        """The wire codec knob reaches the children."""
        async def scenario():
            async with ProcessCluster(
                    gs_digraph(6, 3), codec="json",
                    enable_failure_detector=False) as cluster:
                await cluster.submit(0, {"via": "json"})
                rounds = await cluster.run_rounds(1, timeout=20.0)
                delivered = {o: [r.data for r in b.requests]
                             for o, b in rounds[0][0].messages if b.count}
                assert delivered == {0: [{"via": "json"}]}
                assert cluster.agreement_holds()
        run(scenario())


class TestProcessFacade:
    def test_deployment_runtime_knob(self):
        with create_deployment("tcp", gs_digraph(6, 3),
                               runtime="process") as dep:
            handle = dep.submit({"op": "noop"}, at=0)
            dep.run_rounds(2)
            assert handle.done
            assert handle.delivery is not None
            assert dep.check_agreement()

    def test_facade_failover_path(self):
        with create_deployment("tcp", gs_digraph(6, 3),
                               runtime="process") as dep:
            first = dep.submit("pre", at=0)
            dep.run_rounds(1)
            assert first.done
            dep.fail(3)
            assert dep.alive_members == (0, 1, 2, 4, 5)
            second = dep.submit("post", at=1)
            dep.run_rounds(2)
            assert second.done
            assert dep.check_agreement()

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValueError, match="unknown runtime"):
            create_deployment("tcp", gs_digraph(6, 3), runtime="threads")

    def test_codec_instance_cannot_cross_the_process_boundary(self):
        with pytest.raises(TypeError, match="codec name"):
            create_deployment("tcp", gs_digraph(6, 3), runtime="process",
                              codec=get_codec("binary"))
