"""Client ingress API: sessions, per-round batching, flow control, origin
failover, reads — and the cross-backend acceptance scenario.

The simulator carries the detailed semantics (virtual time makes every
case cheap); TCP runs the failover and the acceptance population to prove
the ingress layer is genuinely transport-agnostic.
"""

import pytest

from repro.api import (
    Client,
    ClientRequestHandle,
    Overloaded,
    RateLimited,
    ReplicatedKVStore,
    ReplicatedStateMachine,
    RequestCancelled,
    ShardedService,
    create_deployment,
    list_backends,
)
from repro.core.batching import (
    ClientRequest,
    decode_client_batch,
    encode_client_batch,
    is_client_batch,
)
from repro.graphs import gs_digraph
from repro.workloads import ClosedLoopPopulation


def make(backend="sim", n=8, d=3, **kwargs):
    return create_deployment(backend, gs_digraph(n, d), **kwargs)


def make_client(dep, **kwargs):
    rsm = ReplicatedStateMachine(dep, ReplicatedKVStore)
    return Client(dep, rsm=rsm, **kwargs), rsm


def envelopes_of(event):
    """The protocol-level batch messages of a round that are client
    envelopes, as (origin, decoded entries) pairs."""
    out = []
    for origin, batch in event.messages:
        for request in batch.requests:
            if is_client_batch(request.data):
                out.append((origin, decode_client_batch(request.data)))
    return out


# --------------------------------------------------------------------- #
# Wire image
# --------------------------------------------------------------------- #
class TestWireImage:
    def test_encode_decode_roundtrip(self):
        entries = (ClientRequest("alice", 0, ("set", "k", 1), 16),
                   ClientRequest("bob", 3, None, 1, noop=True))
        payload = encode_client_batch(entries)
        assert is_client_batch(payload)
        decoded = decode_client_batch(payload)
        assert decoded[0].key == ("alice", 0)
        assert decoded[0].nbytes == 16
        assert decoded[1].noop and decoded[1].key == ("bob", 3)

    def test_json_image_survives(self):
        # the TCP framing round-trips payloads through JSON; the envelope
        # must decode identically afterwards
        import json

        payload = encode_client_batch(
            (ClientRequest("c", 7, {"a": (1, 2)}, 8),))
        image = json.loads(json.dumps(payload))
        assert is_client_batch(image)
        entry = decode_client_batch(image)[0]
        assert entry.key == ("c", 7) and entry.data == {"a": [1, 2]}

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            encode_client_batch(())

    def test_non_envelope_rejected(self):
        assert not is_client_batch(["set", "k", 1])
        with pytest.raises(ValueError):
            decode_client_batch({"reqs": []})


# --------------------------------------------------------------------- #
# Batching semantics (simulator — virtual time)
# --------------------------------------------------------------------- #
class TestBatching:
    def test_one_message_per_origin_per_round(self):
        dep = make()
        client = Client(dep)
        s1 = client.session("a", origin=0)
        s2 = client.session("b", origin=0)
        s3 = client.session("c", origin=5)
        for _ in range(3):
            s1.submit("x")
            s2.submit("y")
            s3.submit("z")
        events = dep.run_rounds(1)
        envelopes = envelopes_of(events[0])
        # 9 submissions, but exactly two batch messages: origins 0 and 5
        assert [origin for origin, _ in envelopes] == [0, 5]
        assert sum(len(e) for _o, e in envelopes) == 9
        # within a batch: session creation order, then per-session seq
        assert [e.key for e in envelopes[0][1]] == [
            ("a", 0), ("a", 1), ("a", 2), ("b", 0), ("b", 1), ("b", 2)]

    def test_round_cost_is_per_message_not_per_request(self):
        """The Fig 10 shape through the client surface: 16 requests per
        origin ride the round's one message, so the round's virtual time
        stays far below 16x (and below 2x) that of 1 request per origin."""
        def round_time(per_origin):
            dep = make()
            client = Client(dep, default_nbytes=8)
            sessions = [client.session(f"s{pid}", origin=pid)
                        for pid in dep.members]
            handles = [s.submit(i) for s in sessions
                       for i in range(per_origin)]
            dep.run_rounds(1)
            assert all(h.done for h in handles)
            return dep.sim.now

        assert round_time(16) < 2 * round_time(1)

    def test_max_batch_requests_spills_to_next_round(self):
        dep = make()
        client = Client(dep, max_batch_requests=2)
        s = client.session("a", origin=0)
        handles = [s.submit(i) for i in range(5)]
        dep.run_rounds(1)
        assert [h.done for h in handles] == [True, True, False, False,
                                             False]
        dep.run_rounds(1)
        assert [h.done for h in handles] == [True] * 4 + [False]
        dep.run_rounds(1)
        assert all(h.done for h in handles)
        # rounds carried 2, 2, 1 — in submission order
        sizes = [sum(len(e) for _o, e in envelopes_of(ev))
                 for ev in dep.deliveries()]
        assert sizes == [2, 2, 1]

    def test_max_batch_bytes_caps_but_never_starves(self):
        dep = make()
        client = Client(dep, max_batch_bytes=100)
        s = client.session("a", origin=0)
        big = s.submit("big", nbytes=300)     # exceeds the cap alone
        small = s.submit("small", nbytes=50)
        dep.run_rounds(1)
        # the oversize head still went (alone); the next entry waited
        assert big.done and not small.done
        dep.run_rounds(1)
        assert small.done

    def test_byte_cap_never_reorders_a_session(self):
        # regression: skipping only the oversize entry and packing a
        # later, smaller one would invert per-session submission order
        dep = make()
        client = Client(dep, max_batch_bytes=100)
        s = client.session("a", origin=0)
        h0 = s.submit(("set", "k", 0), nbytes=60)
        h1 = s.submit(("set", "k", 1), nbytes=90)   # closes the batch
        h2 = s.submit(("set", "k", 2), nbytes=10)   # must NOT jump ahead
        dep.run_rounds(1)
        assert h0.done and not h1.done and not h2.done
        dep.run_rounds(1)
        assert h1.done and h2.done
        order = [r.seq for ev in dep.deliveries()
                 for r in ev.client_requests()]
        assert order == [0, 1, 2]

    def test_submit_race_requeues_instead_of_dropping(self):
        # regression: a ValueError from the backend submit (origin died
        # between routing and entry) must re-buffer the taken entries,
        # not strand their handles forever
        dep = make()
        client = Client(dep)
        s = client.session("a", origin=0)
        h = s.submit("x")
        real_submit = dep.submit
        calls = {"n": 0}

        def flaky_submit(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise ValueError("server 0 is not an alive member")
            return real_submit(*args, **kwargs)

        dep.submit = flaky_submit
        client.flush()               # first attempt fails mid-submit
        assert s.pending == 1 and not h.done
        dep.run_rounds(1)            # next round boundary reroutes it
        assert h.done

    def test_handles_resolve_from_unpacked_batch(self):
        dep = make()
        client, rsm = make_client(dep)
        s = client.session("alice", origin=2)
        h1 = s.submit(("set", "k", 1))
        h2 = s.submit(("set", "k", 2))
        dep.run_rounds(1)
        assert h1.done and h2.done and h1.round == h2.round == 0
        # the RSM saw individual requests with (client, seq) identity
        assert h1.value() is None        # previous value of k
        assert h2.value() == 1
        event = dep.deliveries()[0]
        unpacked = [(r.client, r.seq, r.data)
                    for r in event.client_requests()]
        assert unpacked == [("alice", 0, ["set", "k", 1]),
                            ("alice", 1, ["set", "k", 2])]

    def test_explicit_flush_packs_now(self):
        dep = make()
        client = Client(dep)
        s = client.session("a", origin=0)
        s.submit(1)
        assert client.in_flight == 1 and s.pending == 1
        s.flush()
        assert s.pending == 0 and client.batches_flushed == 1
        dep.run_rounds(1)
        assert client.in_flight == 0

    def test_done_callback_and_result(self):
        dep = make()
        client = Client(dep)
        s = client.session("a", origin=0)
        h = s.submit("x")
        seen = []
        h.add_done_callback(lambda hd: seen.append(hd.key))
        event = h.result()              # drives the deployment itself
        assert seen == [("a", 0)] and h.delivery is event
        h.add_done_callback(lambda hd: seen.append("late"))
        assert seen == [("a", 0), "late"]

    def test_session_ids_unique_and_autonamed(self):
        dep = make()
        client = Client(dep)
        assert client.session().client_id == "c0"
        assert client.session().client_id == "c1"
        client.session("mine")
        with pytest.raises(ValueError, match="already in use"):
            client.session("mine")

    def test_session_ids_unique_across_clients_on_one_target(self):
        # two Clients on one deployment share the (client, seq) namespace
        # at the RSM dedup layer, so a shared id would silently drop
        # writes — it must be rejected at session creation
        dep = make()
        Client(dep).session("shared")
        with pytest.raises(ValueError, match="already in use"):
            Client(dep).session("shared")

    def test_session_origin_validation(self):
        dep = make()
        client = Client(dep)
        with pytest.raises(ValueError, match="not an alive member"):
            client.session("a", origin=99)


# --------------------------------------------------------------------- #
# Flow control
# --------------------------------------------------------------------- #
class TestFlowControl:
    def test_reject_raises_overloaded(self):
        dep = make()
        client = Client(dep, max_in_flight=2, admission="reject")
        s = client.session("a", origin=0)
        s.submit(1)
        s.submit(2)
        with pytest.raises(Overloaded, match="max_in_flight=2"):
            s.submit(3)

    def test_block_drives_rounds_until_capacity(self):
        dep = make()
        client = Client(dep, max_in_flight=2)
        s = client.session("a", origin=0)
        h1 = s.submit(1)
        h2 = s.submit(2)
        h3 = s.submit(3)             # blocks: must drive a round to fit
        assert h1.done and h2.done and not h3.done
        assert client.in_flight == 1
        dep.run_rounds(1)
        assert h3.done

    def test_block_raises_when_no_progress_possible(self):
        dep = make(n=6)
        client = Client(dep, max_in_flight=1)
        s = client.session("a", origin=0)
        s.submit(1)
        for pid in dep.members:
            dep.fail(pid)
        with pytest.raises((Overloaded, RequestCancelled)):
            s.submit(2)

    def test_budget_counts_buffered_and_inflight(self):
        dep = make()
        client = Client(dep, max_in_flight=3, admission="reject")
        s = client.session("a", origin=0)
        s.submit(1)
        s.flush()                    # moves to in-flight, still budgeted
        s.submit(2)
        s.submit(3)
        assert client.in_flight == 3
        with pytest.raises(Overloaded):
            s.submit(4)

    def test_validation(self):
        dep = make()
        with pytest.raises(ValueError):
            Client(dep, max_in_flight=0)
        with pytest.raises(ValueError):
            Client(dep, max_batch_requests=0)
        with pytest.raises(ValueError):
            Client(dep, admission="drop")


# --------------------------------------------------------------------- #
# Reads
# --------------------------------------------------------------------- #
class TestReads:
    def test_agreed_read_sees_own_buffered_write(self):
        dep = make()
        client, _rsm = make_client(dep)
        s = client.session("a", origin=0)
        s.submit(("set", "k", 41))
        s.submit(("set", "k", 42))
        # nothing flushed yet: the agreed read rides the same round as the
        # buffered writes and linearises after them
        assert s.read("k") == 42

    def test_local_read_is_replica_snapshot(self):
        dep = make()
        client, _rsm = make_client(dep)
        s = client.session("a", origin=0)
        assert s.read("k", consistency="local") is None
        s.submit(("set", "k", 7))
        assert s.read("k", consistency="local") is None  # not yet agreed
        dep.run_rounds(1)
        assert s.read("k", consistency="local") == 7

    def test_read_requires_rsm(self):
        dep = make()
        client = Client(dep)         # no rsm
        s = client.session("a", origin=0)
        with pytest.raises(ValueError, match="no state machine"):
            s.read("k")

    def test_unknown_consistency(self):
        dep = make()
        client, _ = make_client(dep)
        s = client.session("a", origin=0)
        with pytest.raises(ValueError, match="unknown consistency"):
            s.read("k", consistency="monotonic")


# --------------------------------------------------------------------- #
# Failover (parametrised over both backends)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["sim", "tcp"])
class TestFailover:
    def test_unacked_requests_resubmitted_exactly_once(self, backend):
        with make(backend) as dep:
            client, rsm = make_client(dep)
            s = client.session("alice", origin=0)
            h = s.submit(("set", "k", "v"))
            client.flush()           # envelope now in flight at origin 0
            dep.fail(0)
            dep.run_rounds(2)
            assert h.done and h.attempts == 2
            assert h.origin is not None and h.origin != 0
            assert client.resubmitted == 1 and s.resubmissions == 1
            # exactly-once: identical dedup verdicts on every replica
            assert set(rsm.duplicates_skipped.values()) == {0}
            assert rsm.assert_convergence() == (("k", "v"),)
            assert dep.check_agreement()

    def test_buffered_requests_reroute_without_resubmission(self, backend):
        with make(backend) as dep:
            client, rsm = make_client(dep)
            s = client.session("alice", origin=0)
            h = s.submit(("set", "k", 1))     # still buffered
            dep.fail(0)
            dep.run_rounds(1)
            assert h.done and h.attempts == 1 and h.origin != 0
            assert client.resubmitted == 0
            assert s.origin != 0              # session moved for good

    def test_protocol_handle_cancels_but_client_handle_survives(
            self, backend):
        with make(backend) as dep:
            # protocol-level handle: hard-cancelled on origin failure
            raw = dep.submit("raw", at=0)
            client, _rsm = make_client(dep)
            s = client.session("alice", origin=0)
            managed = s.submit(("set", "k", 1))
            client.flush()
            dep.fail(0)
            assert raw.cancelled
            with pytest.raises(RequestCancelled):
                raw.result()
            dep.run_rounds(2)
            assert managed.done and not managed.cancelled

    def test_whole_group_death_cancels_client_handles(self, backend):
        with make(backend, n=6) as dep:
            client, _rsm = make_client(dep)
            s = client.session("alice", origin=0)
            h = s.submit(("set", "k", 1))
            for pid in dep.members:
                dep.fail(pid)
            client.flush()
            assert h.cancelled
            with pytest.raises(RequestCancelled, match="no surviving"):
                h.result()


# --------------------------------------------------------------------- #
# Exactly-once dedup at the RSM layer
# --------------------------------------------------------------------- #
class TestExactlyOnceDedup:
    def test_duplicate_entry_applies_once_on_every_replica(self):
        # the failover race the dedup table exists for: the original
        # envelope WAS agreed, but the client could not know and
        # resubmitted the entry through another server
        dep = make()
        rsm = ReplicatedStateMachine(dep, ReplicatedKVStore)
        entry = ClientRequest("alice", 0, ("set", "k", 1), 8)
        dep.submit(encode_client_batch((entry,)), at=0)
        dep.submit(encode_client_batch((entry,)), at=3)   # the retry
        dep.run_rounds(1)
        assert set(rsm.duplicates_skipped.values()) == {1}
        assert rsm.assert_convergence() == (("k", 1),)
        assert rsm.results() == (None,)          # applied exactly once
        assert rsm.has_applied("alice", 0)
        assert rsm.client_result("alice", 0) is None

    def test_noop_entries_never_touch_the_state_machine(self):
        dep = make()
        rsm = ReplicatedStateMachine(dep, ReplicatedKVStore)
        entries = (ClientRequest("a", 0, ("set", "k", 5), 8),
                   ClientRequest("a", 1, None, 1, noop=True))
        dep.submit(encode_client_batch(entries), at=0)
        dep.run_rounds(1)
        assert rsm.results() == (None,)          # only the write applied
        assert rsm.assert_convergence() == (("k", 5),)
        assert not rsm.has_applied("a", 1)


# --------------------------------------------------------------------- #
# Sharded service targets
# --------------------------------------------------------------------- #
class TestServiceSessions:
    def make_service(self, backend="sim", shards=2, n=6):
        return ShardedService(backend,
                              [gs_digraph(n, 3) for _ in range(shards)],
                              state_machine=ReplicatedKVStore)

    def test_keyed_submissions_route_through_partitioner(self):
        svc = self.make_service()
        client = Client(svc)
        s = client.session("alice")
        keys = [f"k{i}" for i in range(16)]
        handles = [s.submit(("set", k, i), key=k)
                   for i, k in enumerate(keys)]
        svc.run_rounds(1)
        assert all(h.done for h in handles)
        for k, h in zip(keys, handles):
            assert h.shard == svc.shard_of(k)
        assert {h.shard for h in handles} == {0, 1}
        # within one shard: one envelope per (key-sticky) origin
        for delivery in svc.deliveries():
            for origin, entries in envelopes_of(delivery.event):
                for e in entries:
                    _shard, expected = svc.origin_of(
                        # entry data is ["set", key, i]
                        e.data[1])
                    assert origin == expected

    def test_key_required_and_origin_rejected(self):
        svc = self.make_service()
        client = Client(svc)
        with pytest.raises(ValueError, match="route by key"):
            client.session("a", origin=0)
        s = client.session("a")
        with pytest.raises(ValueError, match="need a key"):
            s.submit("data")

    def test_reads_route_to_owning_shard(self):
        svc = self.make_service()
        client = Client(svc)
        s = client.session("alice")
        s.submit(("set", "hot", 9), key="hot")
        assert s.read("hot") == 9
        assert s.read("hot", consistency="local") == 9
        assert s.read("missing-key", consistency="local") is None

    def test_two_shard_failover_confined_to_owning_group(self):
        svc = self.make_service()
        client = Client(svc)
        s = client.session("alice")
        keys = [f"k{i}" for i in range(12)]
        handles = [s.submit(("set", k, i), key=k)
                   for i, k in enumerate(keys)]
        client.flush()
        # kill one victim origin that actually owns in-flight requests
        victim = next(h for h in handles if h.shard == 0)
        svc.fail(0, victim.origin)
        svc.run_rounds(2)
        assert all(h.done for h in handles)
        moved = [h for h in handles if h.attempts > 1]
        assert moved and all(h.shard == 0 for h in moved)
        assert svc.check_agreement()
        # every shard's replicas converge and dedup saw no duplicates
        assert all(set(rsm.duplicates_skipped.values()) == {0}
                   for rsm in svc.machines.values())
        svc.snapshot()

    def test_service_handle_cancelled_when_shard_dies(self):
        svc = self.make_service(shards=1)
        handle = svc.submit("k", ("set", "k", 1))
        for pid in range(6):
            svc.fail(0, pid)
        assert handle.cancelled
        # and new submissions surface the normalised error (satellite)
        with pytest.raises(RequestCancelled, match="shard 0"):
            svc.submit("k", ("set", "k", 2))

    def test_service_on_deliver_stream(self):
        svc = self.make_service()
        seen = []
        svc.on_deliver(lambda d: seen.append((d.shard, d.round)))
        svc.run_rounds(2)
        assert sorted(seen) == [(0, 0), (0, 1), (1, 0), (1, 1)]


# --------------------------------------------------------------------- #
# Backend registry helper (satellite)
# --------------------------------------------------------------------- #
class TestListBackends:
    def test_names_and_capabilities(self):
        listed = list_backends()
        assert set(listed) >= {"sim", "tcp"}
        assert listed["sim"] == ("join", "shared-engine", "time")
        assert listed["tcp"] == ()

    def test_unknown_backend_error_names_capabilities(self):
        with pytest.raises(ValueError, match=r"sim \(join"):
            create_deployment("warp", gs_digraph(6, 3))


# --------------------------------------------------------------------- #
# Closed-loop population + the cross-backend acceptance scenario
# --------------------------------------------------------------------- #
class TestClosedLoopPopulation:
    def test_window_is_respected_and_deterministic(self):
        def run():
            dep = make()
            client, rsm = make_client(dep)
            pop = ClosedLoopPopulation(client, 6, window=3, num_keys=4)
            pop.run(4)
            assert pop.outstanding <= 6 * 3
            return ([(r.client, r.seq, tuple(r.data))
                     for ev in dep.deliveries()
                     for r in ev.client_requests()],
                    rsm.assert_convergence())

        first, second = run(), run()
        assert first == second
        order, snap = first
        assert order and snap

    def test_validation(self):
        dep = make()
        client = Client(dep)
        with pytest.raises(ValueError):
            ClosedLoopPopulation(client, 0)
        with pytest.raises(ValueError):
            ClosedLoopPopulation(client, 1, window=0)


class TestCrossBackendAcceptance:
    """The ISSUE acceptance bar: the same seeded client population on sim
    and TCP — identical per-request delivery order and KV end state,
    including one origin failover mid-run, with no duplicate applies."""

    def run_population(self, backend, **kwargs):
        with make(backend, **kwargs) as dep:
            client, rsm = make_client(dep, max_batch_requests=8)
            pop = ClosedLoopPopulation(client, 10, window=2, num_keys=4)
            pop.run(2)
            pop.top_up()
            client.flush()           # in-flight envelopes at every origin
            dep.fail(0)              # one origin dies mid-run
            pop.run(3)
            order = [(ev.round,) + tuple(
                        (r.client, r.seq) for r in ev.client_requests())
                     for ev in dep.deliveries()]
            assert dep.check_agreement()
            duplicates = set(rsm.duplicates_skipped.values())
            return (order, rsm.assert_convergence(), duplicates,
                    client.resubmitted, pop.resolved)

    def test_identical_order_state_and_no_duplicate_applies(self):
        sim = self.run_population("sim")
        tcp = self.run_population("tcp")
        sim_order, sim_snap, sim_dupes, sim_resub, sim_resolved = sim
        tcp_order, tcp_snap, tcp_dupes, tcp_resub, tcp_resolved = tcp
        assert sim_order == tcp_order
        assert sim_snap == tcp_snap
        assert sim_dupes == tcp_dupes == {0}
        assert sim_resub == tcp_resub and sim_resub > 0
        assert sim_resolved == tcp_resolved > 0

    def test_json_codec_matches_binary_wire(self):
        """Differential oracle at the acceptance level: the same population
        over TCP under the original JSON wire image and the binary codec —
        byte-different frames, identical agreed outcome."""
        binary = self.run_population("tcp")             # codec="binary"
        json_ = self.run_population("tcp", codec="json")
        assert binary == json_

    def test_process_runtime_matches_inproc(self):
        """The acceptance population through one-OS-process-per-server:
        the same order, state, failover and dedup behaviour as in-process
        TCP and the simulator."""
        inproc = self.run_population("tcp")
        proc = self.run_population("tcp", runtime="process")
        assert inproc == proc


# --------------------------------------------------------------------- #
# Per-session rate limits
# --------------------------------------------------------------------- #
class TestRateLimits:
    def test_reject_when_bucket_empty(self):
        dep = make()
        client = Client(dep, admission="reject")
        s = client.session("a", rate_limit=2, burst=2)
        s.submit(1)
        s.submit(2)
        with pytest.raises(RateLimited):
            s.submit(3)

    def test_bucket_refills_per_delivered_round(self):
        dep = make()
        client = Client(dep, admission="reject")
        s = client.session("a", rate_limit=2, burst=2)
        s.submit(1)
        s.submit(2)
        dep.run_rounds(1)            # flushes + refills (+2, capped at 2)
        s.submit(3)
        s.submit(4)
        with pytest.raises(RateLimited):
            s.submit(5)

    def test_burst_caps_accumulation(self):
        dep = make()
        client = Client(dep, admission="reject")
        s = client.session("a", rate_limit=5, burst=1)
        dep.run_rounds(3)            # idle rounds must not stockpile tokens
        s.submit(1)
        with pytest.raises(RateLimited):
            s.submit(2)

    def test_block_mode_drives_rounds_until_refill(self):
        dep = make()
        client = Client(dep)         # admission="block"
        s = client.session("a", rate_limit=1)
        h1 = s.submit(1)
        h2 = s.submit(2)             # blocks: drives a round, bucket refills
        assert h1.done               # the driven round agreed the first
        dep.run_rounds(1)
        assert h2.done

    def test_rate_limited_is_overloaded(self):
        # callers guarding on Overloaded keep working
        assert issubclass(RateLimited, Overloaded)

    def test_unlimited_sessions_unaffected(self):
        dep = make()
        client = Client(dep, admission="reject")
        limited = client.session("a", rate_limit=1)
        free = client.session("b")
        limited.submit(1)
        with pytest.raises(RateLimited):
            limited.submit(2)
        for i in range(10):          # no bucket on the free session
            free.submit(i)

    def test_validation(self):
        dep = make()
        client = Client(dep)
        with pytest.raises(ValueError, match="rate_limit"):
            client.session("a", rate_limit=0)
        with pytest.raises(ValueError, match="burst needs"):
            client.session("b", burst=4)
        with pytest.raises(ValueError, match="burst must"):
            client.session("c", rate_limit=1, burst=0.5)


# --------------------------------------------------------------------- #
# Read-your-writes local reads
# --------------------------------------------------------------------- #
class TestReadYourWrites:
    def test_local_read_served_once_replica_caught_up(self):
        dep = make()
        client, rsm = make_client(dep)
        s = client.session("a", origin=0)
        s.submit(("set", "k", 7))
        dep.run_rounds(1)
        assert s.high_water_round == rsm.applied_marker()
        assert s.read("k", consistency="local") == 7
        assert client.local_reads_served == 1
        assert client.local_reads_escalated == 0

    def test_local_read_escalates_when_replica_lags(self):
        dep = make()
        client, rsm = make_client(dep)
        s = client.session("a", origin=0)
        s.submit(("set", "k", 7))
        dep.run_rounds(1)
        # pretend the session was acknowledged at a round no replica has
        # applied yet (the lagging-replica case that must not serve stale
        # state): the read escalates to an agreed read and still answers
        client._col_hw_round[s.slot] = 10 ** 6
        assert s.read("k", consistency="local") == 7
        assert client.local_reads_escalated == 1
        # the escalation rode a no-op round through agreement
        assert rsm.applied_marker()[1] > 0

    def test_explicit_pid_bypasses_the_gate(self):
        dep = make()
        client, _rsm = make_client(dep)
        s = client.session("a", origin=0)
        s.submit(("set", "k", 7))
        dep.run_rounds(1)
        client._col_hw_round[s.slot] = 10 ** 6   # would force escalation
        before = client.local_reads_escalated
        assert s.read("k", consistency="local", pid=1) == 7
        assert client.local_reads_escalated == before

    def test_fresh_session_reads_locally(self):
        # no writes -> high water (-1, -1) -> any replica qualifies
        dep = make()
        client, _rsm = make_client(dep)
        s = client.session("a", origin=0)
        assert s.read("k", consistency="local") is None
        assert client.local_reads_served == 1


# --------------------------------------------------------------------- #
# Awaitable handles
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ["sim", "tcp"])
class TestAwaitableHandles:
    def test_future_resolves_with_delivery(self, backend):
        with make(backend) as dep:
            client, _rsm = make_client(dep)
            s = client.session("a", origin=0)
            h = s.submit(("set", "k", 1))
            future = h.future()
            assert not future.done()
            dep.run_rounds(1)
            assert future.done()
            assert future.result() is h.delivery

    def test_future_survives_origin_failover(self, backend):
        with make(backend) as dep:
            client, _rsm = make_client(dep)
            s = client.session("alice", origin=0)
            h = s.submit(("set", "k", 1))
            future = h.future()
            client.flush()
            dep.fail(0)
            dep.run_rounds(2)
            assert h.done and h.attempts == 2
            assert future.done() and future.result() is h.delivery

    def test_future_rejects_on_whole_group_death(self, backend):
        with make(backend, n=6) as dep:
            client, _rsm = make_client(dep)
            s = client.session("alice", origin=0)
            h = s.submit(("set", "k", 1))
            future = h.future()
            for pid in dep.members:
                dep.fail(pid)
            client.flush()
            assert h.cancelled and future.done()
            with pytest.raises(RequestCancelled):
                future.result()
