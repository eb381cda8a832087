"""Sharded service: partitioners, backend registry, multi-group facade,
and the cross-backend end-state equality contract."""

import collections

import pytest

from repro.api import (
    BACKENDS,
    ConsistentHashPartitioner,
    Deployment,
    ExplicitPartitioner,
    ReplicatedKVStore,
    ServiceHandle,
    ShardedService,
    SimDeployment,
    backend_class,
    create_deployment,
    register_backend,
)
from repro.api.service import stable_key_hash
from repro.graphs import gs_digraph
from repro.workloads import KeyedWorkload


def make_service(backend="sim", num_shards=2, n=6, degree=3, **kwargs):
    graphs = [gs_digraph(n, degree) for _ in range(num_shards)]
    return ShardedService(backend, graphs, **kwargs)


# --------------------------------------------------------------------- #
# Partitioners
# --------------------------------------------------------------------- #
class TestStableKeyHash:
    def test_deterministic_and_64_bit(self):
        assert stable_key_hash("user42") == stable_key_hash("user42")
        assert 0 <= stable_key_hash("user42") < 2 ** 64

    def test_distinct_keys_differ(self):
        hashes = {stable_key_hash(f"k{i}") for i in range(1000)}
        assert len(hashes) == 1000


class TestConsistentHashPartitioner:
    def test_routes_into_range_and_uses_every_shard(self):
        part = ConsistentHashPartitioner(4)
        shards = {part.shard_of(f"key{i}") for i in range(500)}
        assert shards == {0, 1, 2, 3}

    def test_deterministic_across_instances(self):
        a = ConsistentHashPartitioner(3)
        b = ConsistentHashPartitioner(3)
        assert [a.shard_of(f"k{i}") for i in range(200)] == \
               [b.shard_of(f"k{i}") for i in range(200)]

    def test_near_even_split(self):
        part = ConsistentHashPartitioner(4, vnodes=128)
        counts = collections.Counter(
            part.shard_of(f"key{i}") for i in range(8000))
        for shard in range(4):
            assert counts[shard] == pytest.approx(2000, rel=0.5)

    def test_resharding_moves_a_minority_of_keys(self):
        # The reason for a ring over hash % G: growing G=3 -> 4 must
        # remap only ~1/4 of the keyspace, not almost all of it.
        keys = [f"key{i}" for i in range(2000)]
        before = ConsistentHashPartitioner(3)
        after = ConsistentHashPartitioner(4)
        moved = sum(before.shard_of(k) != after.shard_of(k) for k in keys)
        assert moved / len(keys) < 0.5
        # modulo hashing moves ~3/4 on the same transition
        mod_moved = sum((stable_key_hash(k) % 3) != (stable_key_hash(k) % 4)
                        for k in keys)
        assert moved < mod_moved

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashPartitioner(0)
        with pytest.raises(ValueError):
            ConsistentHashPartitioner(2, vnodes=0)


class TestExplicitPartitioner:
    def test_mapping_and_default(self):
        part = ExplicitPartitioner({"vip": 1}, 2, default=0)
        assert part.shard_of("vip") == 1
        assert part.shard_of("anyone-else") == 0

    def test_unmapped_without_default_raises(self):
        part = ExplicitPartitioner({"vip": 0}, 2)
        with pytest.raises(KeyError):
            part.shard_of("stranger")

    def test_out_of_range_mapping_rejected(self):
        with pytest.raises(ValueError):
            ExplicitPartitioner({"k": 5}, 2)
        with pytest.raises(ValueError):
            ExplicitPartitioner({}, 2, default=2)
        with pytest.raises(ValueError):
            ExplicitPartitioner({}, 0)


# --------------------------------------------------------------------- #
# Backend registry
# --------------------------------------------------------------------- #
class TestBackendRegistry:
    def test_unknown_backend_name(self):
        with pytest.raises(ValueError, match="unknown backend"):
            create_deployment("carrier-pigeon", gs_digraph(6, 3))
        with pytest.raises(ValueError, match="unknown backend"):
            backend_class("carrier-pigeon")

    def test_reregistration_rejected(self):
        class Impostor(SimDeployment):
            pass

        with pytest.raises(ValueError, match="already registered"):
            register_backend("sim", Impostor)
        assert BACKENDS["sim"] is SimDeployment

    def test_same_class_reregistration_is_idempotent(self):
        register_backend("sim", SimDeployment)   # no-op, no error
        assert BACKENDS["sim"] is SimDeployment

    def test_invalid_name_and_class(self):
        with pytest.raises(ValueError):
            register_backend("", SimDeployment)
        with pytest.raises(TypeError):
            register_backend("notadeployment", dict)

    def test_registered_backend_plugs_into_sharded_service(self):
        class RecordingSim(SimDeployment):
            name = "recording-sim"
            instances: list = []

            def __init__(self, graph, **kwargs):
                super().__init__(graph, **kwargs)
                RecordingSim.instances.append(self)

        register_backend("recording-sim", RecordingSim)
        try:
            svc = make_service("recording-sim")
            handle = svc.submit("user1", ("set", "user1", 1))
            svc.run_rounds(1)
            assert handle.done and svc.check_agreement()
            # the service constructed its groups through the registry
            assert len(RecordingSim.instances) == 2
            assert all(isinstance(g, RecordingSim) for g in svc.groups)
            # shared-engine capability honoured for the subclass too
            assert svc.group(0).sim is svc.group(1).sim
        finally:
            del BACKENDS["recording-sim"]

    def test_replace_allows_explicit_override(self):
        class Custom(SimDeployment):
            pass

        register_backend("override-test", SimDeployment)
        try:
            with pytest.raises(ValueError):
                register_backend("override-test", Custom)
            register_backend("override-test", Custom, replace=True)
            assert BACKENDS["override-test"] is Custom
        finally:
            del BACKENDS["override-test"]


# --------------------------------------------------------------------- #
# ShardedService facade (sim backend)
# --------------------------------------------------------------------- #
class TestShardedServiceSim:
    def test_construction_validations(self):
        with pytest.raises(ValueError, match="at least one shard"):
            ShardedService("sim", [])
        with pytest.raises(ValueError, match="partitioner covers"):
            make_service(partitioner=ConsistentHashPartitioner(3))

    def test_groups_share_one_engine_and_clock(self):
        svc = make_service(num_shards=3)
        engines = {id(group.sim) for group in svc.groups}
        assert len(engines) == 1
        assert svc.group(0).sim is svc.engine
        svc.run_rounds(1)
        assert svc.engine.now > 0.0

    def test_keyed_submit_routes_by_partitioner(self):
        svc = make_service()
        for i in range(20):
            key = f"user{i}"
            handle = svc.submit(key, ("set", key, i))
            assert handle.shard == svc.partitioner.shard_of(key)
            assert handle.origin in svc.group(handle.shard).alive_members
        svc.run_rounds(1)
        assert svc.check_agreement()

    def test_origin_is_sticky_per_key(self):
        svc = make_service()
        assert svc.origin_of("user7") == svc.origin_of("user7")

    def test_explicit_partitioner_pins_keys(self):
        part = ExplicitPartitioner({"pinned": 1}, 2, default=0)
        svc = make_service(partitioner=part)
        assert svc.submit("pinned", ("set", "pinned", 1)).shard == 1
        assert svc.submit("other", ("set", "other", 2)).shard == 0

    def test_run_rounds_advances_all_groups(self):
        svc = make_service(num_shards=3)
        out = svc.run_rounds(2)
        per_shard = collections.Counter(d.shard for d in out)
        assert per_shard == {0: 2, 1: 2, 2: 2}

    def test_groups_progress_in_parallel_on_one_clock(self):
        """Groups share a clock but no resources: two groups agree on
        twice the requests in the virtual time one group needs."""
        finished = {}
        for num_shards in (1, 2):
            svc = make_service(num_shards=num_shards)
            stream = KeyedWorkload(num_keys=256, seed=1)
            for key, command in stream.requests(48 * num_shards):
                svc.submit(key, command)
            svc.run_rounds(4)
            assert svc.check_agreement()
            assert sum(d.request_count for d in svc.deliveries()) == \
                48 * num_shards
            finished[num_shards] = svc.engine.now
        assert finished[2] == pytest.approx(finished[1], rel=0.1)

    def test_deliveries_merged_with_shard_tags(self):
        svc = make_service()
        svc.submit("user1", ("set", "user1", 1))
        svc.run_rounds(2)
        merged = svc.deliveries()
        assert [(d.epoch, d.round, d.shard) for d in merged] == \
            sorted((d.epoch, d.round, d.shard) for d in merged)
        # every shard contributed every round
        assert {(d.shard, d.round) for d in merged} == \
            {(s, r) for s in range(2) for r in range(2)}

    def test_deliveries_stay_sorted_across_staggered_merges(self):
        # handle.result() drives only the owning group; a later
        # service-wide round must not leave the merged log unsorted
        # (regression: batches were append-only, sorted per batch).
        part = ExplicitPartitioner({"solo": 1}, 2, default=0)
        svc = make_service(partitioner=part)
        svc.submit("solo", ("set", "solo", 1)).result()
        assert [d.shard for d in svc.deliveries()] == [1]
        svc.run_rounds(1)
        merged = svc.deliveries()
        keys = [(d.epoch, d.round, d.shard) for d in merged]
        assert keys == sorted(keys)
        assert (0, 0, 0) in keys and (0, 0, 1) in keys

    def test_members_addressed_as_shard_pid(self):
        svc = make_service(num_shards=2, n=6)
        assert len(svc.members) == 12 and svc.n == 12
        assert ((0, 0) in svc.members and (1, 5) in svc.members)

    def test_fail_is_scoped_to_one_shard(self):
        svc = make_service()
        svc.run_rounds(1)
        svc.fail(0, 5)
        svc.run_rounds(1)
        assert len(svc.group(0).alive_members) == 5
        assert len(svc.group(1).alive_members) == 6
        assert svc.check_agreement()
        assert svc.agreement_by_shard() == {0: True, 1: True}

    def test_fail_cancels_handles_of_that_origin_only(self):
        part = ExplicitPartitioner({"doomed": 0, "fine": 1}, 2)
        svc = make_service(partitioner=part)
        doomed = svc.submit("doomed", ("set", "doomed", 1))
        fine = svc.submit("fine", ("set", "fine", 1))
        svc.fail(0, doomed.origin)
        svc.run_rounds(1)
        assert doomed.cancelled and not doomed.done
        assert fine.done and not fine.cancelled

    def test_join_addressed_by_shard(self):
        svc = make_service()
        svc.run_rounds(1)
        svc.fail(1, 2)
        svc.run_rounds(1)
        svc.join(1, 2)
        svc.run_rounds(1)
        assert len(svc.group(1).alive_members) == 6
        assert svc.group(1).epoch == 1
        assert svc.group(0).epoch == 0   # other shard unaffected
        assert svc.check_agreement()

    def test_snapshot_composes_shard_states(self):
        svc = make_service(state_machine=ReplicatedKVStore)
        handles = [svc.submit(f"user{i}", ("set", f"user{i}", i))
                   for i in range(12)]
        svc.run_rounds(1)
        snap = svc.snapshot()
        assert set(snap) == {0, 1}
        composed = dict(item for state in snap.values() for item in state)
        assert composed == {f"user{i}": i for i in range(12)}
        by_shard = {h.key: h.shard for h in handles}
        for shard, state in snap.items():
            assert all(by_shard[key] == shard for key, _v in state)

    def test_snapshot_without_state_machine_raises(self):
        svc = make_service()
        with pytest.raises(ValueError, match="no state machine"):
            svc.snapshot()

    def test_handle_result_drives_the_owning_group(self):
        svc = make_service()
        handle = svc.submit("user3", ("set", "user3", 3))
        assert isinstance(handle, ServiceHandle)
        event = handle.result()
        assert handle.done and event.round == handle.round
        assert handle.request_id == (handle.shard, handle.origin, 0)

    def test_capabilities_intersection(self):
        svc = make_service()
        assert "join" in svc.capabilities()
        assert "shared-engine" in svc.capabilities()

    def test_deterministic_across_runs(self):
        def run():
            svc = make_service(state_machine=ReplicatedKVStore, seed=5)
            wl = KeyedWorkload(num_keys=64, distribution="zipf", seed=5)
            for key, command in wl.requests(30):
                svc.submit(key, command)
            svc.run_rounds(2)
            return (svc.snapshot(),
                    [(d.shard, d.round, d.request_count)
                     for d in svc.deliveries()],
                    svc.engine.now)

        assert run() == run()


# --------------------------------------------------------------------- #
# TCP backend: disjoint port spaces + cross-backend equality
# --------------------------------------------------------------------- #
class TestShardedServiceTcp:
    def test_groups_occupy_disjoint_port_spaces(self):
        with make_service("tcp") as svc:
            assert svc.engine is None   # no virtual clock over TCP
            ports = [set(p for _h, p in g.endpoints().values())
                     for g in svc.groups]
            assert len(ports[0]) == 6 and len(ports[1]) == 6
            assert not ports[0] & ports[1]
            svc.submit("user1", ("set", "user1", 1))
            svc.run_rounds(1)
            assert svc.check_agreement()

    def test_cross_backend_end_states_identical(self):
        # The same seeded keyed workload through a 2-shard service must
        # leave identical per-shard ReplicatedKVStore states on the
        # simulator and over real TCP sockets.
        workload = KeyedWorkload(num_keys=32, distribution="zipf",
                                 zipf_s=1.1, seed=11)
        states = {}
        routing = {}
        for backend in ("sim", "tcp"):
            with make_service(backend, n=6,
                              state_machine=ReplicatedKVStore) as svc:
                handles = [svc.submit(key, command)
                           for key, command in workload.requests(25)]
                svc.run_rounds(2)
                assert svc.check_agreement()
                assert all(h.done for h in handles)
                states[backend] = svc.snapshot()
                routing[backend] = [(h.key, h.shard, h.origin)
                                    for h in handles]
        assert states["sim"] == states["tcp"]
        assert routing["sim"] == routing["tcp"]
