"""``AllConcurServer.accepts_broadcast`` against ``_dispatch``.

The runtime asks the query on a frame's header and skips the payload when
it answers "drop", so it may say "drop" only where handling the decoded
message would have been a no-op: no effects, no state change.
"""

import copy

from repro.core import AllConcurConfig, AllConcurServer, Batch, Broadcast
from repro.core.interfaces import Send
from repro.graphs import gs_digraph

N, D = 8, 3
GRAPH = gs_digraph(N, D)


def make_server(pid=0, **config):
    return AllConcurServer(pid, AllConcurConfig(
        graph=GRAPH, auto_advance=False, **config))


def bcast(rnd, origin):
    return Broadcast(round=rnd, origin=origin,
                     payload=Batch.synthetic(1, 8))


def state_of(server):
    """Everything a <BCAST> can touch, as comparable values."""
    return (
        server.round, server.members, len(server.history),
        sorted(server.ignored_predecessors), sorted(server._dirty),
        {rnd: [(src, msg) for src, msg in held]
         for rnd, held in server._future.items()},
        {rnd: (ctx.known_mask, ctx.has_broadcast, sorted(ctx.known),
               repr(ctx.tracker.pending_targets()))
         for rnd, ctx in server._contexts.items()},
        len(server.queue),
    )


def assert_drop_means_noop(server):
    """For every (src, round, origin): a "drop" answer implies
    handle_message returns no effects and leaves the state as it was."""
    drops = 0
    for src in GRAPH.predecessors(server.id):
        for rnd in range(server.round - 1 if server.round else 0,
                         server.round + server.pipeline_depth + 2):
            for origin in range(N + 2):        # N, N+1: not members
                before = state_of(server)
                verdict = server.accepts_broadcast(src, rnd, origin)
                assert state_of(server) == before, "the query is read-only"
                if verdict:
                    continue
                drops += 1
                clone = copy.deepcopy(server)
                assert clone.handle_message(src, bcast(rnd, origin)) == []
                assert state_of(clone) == before
    return drops


def deliver_round(server, rnd):
    """Hand *server* every other member's round-*rnd* message once."""
    src = GRAPH.predecessors(server.id)[0]
    effects = []
    for origin in server.members:
        if origin != server.id:
            effects += server.handle_message(src, bcast(rnd, origin))
    return effects


class TestDropImpliesNoop:
    def test_before_own_broadcast_everything_passes(self):
        # any arrival triggers this server's own A-broadcast (line 15)
        server = make_server()
        assert assert_drop_means_noop(server) == 0
        src = GRAPH.predecessors(0)[0]
        assert server.accepts_broadcast(src, 0, 5)
        assert any(isinstance(e, Send) and e.message.origin == 0
                   for e in server.handle_message(src, bcast(0, 5)))

    def test_known_origin_is_dropped_first_copy_is_not(self):
        server = make_server()
        server.start_round()
        src, other = GRAPH.predecessors(0)[:2]
        assert server.accepts_broadcast(src, 0, 5)
        assert server.handle_message(src, bcast(0, 5))
        assert not server.accepts_broadcast(other, 0, 5)
        assert not server.accepts_broadcast(src, 0, 0)      # its own
        assert not server.accepts_broadcast(src, 0, N + 1)  # no member
        assert assert_drop_means_noop(server) > 0

    def test_stale_round_is_dropped(self):
        server = make_server()
        server.start_round()
        deliver_round(server, 0)
        assert server.round == 1
        src = GRAPH.predecessors(0)[0]
        assert not server.accepts_broadcast(src, 0, 5)
        assert server.accepts_broadcast(src, 1, 5)
        assert assert_drop_means_noop(server) > 0

    def test_ignored_predecessor_is_dropped(self):
        server = make_server()
        server.start_round()
        suspect, other = GRAPH.predecessors(0)[:2]
        server.notify_failure(suspect)
        assert not server.accepts_broadcast(suspect, 0, 5)
        assert server.accepts_broadcast(other, 0, 5)
        assert assert_drop_means_noop(server) > 0

    def test_beyond_the_window_always_passes(self):
        # buffered for later — by sender too: even an ignored predecessor's
        # copy is kept until its round is admitted
        server = make_server(pipeline_depth=2)
        server.fill_window()
        src = GRAPH.predecessors(0)[0]
        server.notify_failure(src)
        assert server.accepts_broadcast(src, 2, 5)
        assert server.accepts_broadcast(src, 2, 5)          # a copy too
        assert not server.accepts_broadcast(src, 1, 5)      # in window
        assert assert_drop_means_noop(server) > 0

    def test_pipelined_slot_not_yet_broadcast_passes(self):
        server = make_server(pipeline_depth=3)
        server.start_round()                    # slot 0 only
        src, other = GRAPH.predecessors(0)[:2]
        server.handle_message(src, bcast(0, 5))
        assert not server.accepts_broadcast(other, 0, 5)
        assert server.accepts_broadcast(other, 1, 5)        # slot 1 open
        assert assert_drop_means_noop(server) > 0

    def test_across_an_epoch_barrier(self):
        # a round delivered without a suspected member's message engages
        # the barrier; the query must stay a no-op predictor through it
        server = make_server(pipeline_depth=2)
        server.fill_window()
        suspect = GRAPH.predecessors(0)[0]
        src = GRAPH.predecessors(0)[1]
        for origin in server.members:
            if origin not in (0, suspect):
                server.handle_message(src, bcast(0, origin))
        assert assert_drop_means_noop(server) > 0
        server.notify_failure(suspect)
        assert assert_drop_means_noop(server) > 0

    def test_crashed_server_drops_everything(self):
        server = make_server()
        server.crash()
        src = GRAPH.predecessors(0)[0]
        assert not server.accepts_broadcast(src, 0, 5)
        assert not server.accepts_broadcast(src, 7, 5)
        assert assert_drop_means_noop(server) > 0
