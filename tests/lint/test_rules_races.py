"""R701: cross-thread races between the event loop and the facade."""

from .conftest import rule_ids


def r701(findings):
    return [f for f in findings if f.rule_id == "R701"]


def lint_runtime(lint, source):
    # R701 gates repro.runtime / repro.api; the default fixture module
    # (repro.sim.*) is out of scope
    return lint(source, module="repro.runtime.fixture")


class TestRace:
    SOURCE = """
        class Hub:
            def mark_down(self, peer):
                self._writers.pop(peer, None)

            async def _sender(self, peer, writer):
                self._writers[peer] = writer
    """

    def test_unlocked_writes_on_both_sides_race(self, lint):
        findings = lint_runtime(lint, self.SOURCE)
        assert rule_ids(findings) == ["R701"]
        (finding,) = findings
        assert "Hub._writers" in finding.message
        assert "mark_down()" in finding.message
        assert "_sender()" in finding.message
        assert "call_soon_threadsafe" in finding.message

    def test_out_of_scope_module_is_not_gated(self, lint):
        # the simulator is single-threaded: no facade thread exists
        findings = lint(self.SOURCE, module="repro.sim.fixture")
        assert r701(findings) == []

    def test_disjoint_locks_do_not_serialise(self, lint):
        # holding *some* lock is not enough: it must be the same one
        findings = lint_runtime(lint, """
            class Hub:
                def mark_down(self, peer):
                    with self._facade_lock:
                        self._writers.pop(peer, None)

                async def _sender(self, peer, writer):
                    async with self._loop_lock:
                        self._writers[peer] = writer
        """)
        assert rule_ids(r701(findings)) == ["R701"]

    def test_sync_helper_called_from_a_coroutine_is_loop_side(
            self, lint):
        # the loop side includes sync functions a coroutine calls
        findings = lint_runtime(lint, """
            class Hub:
                def mark_down(self, peer):
                    self._writers.pop(peer, None)

                def _store(self, peer, writer):
                    self._writers[peer] = writer

                async def _sender(self, peer, writer):
                    self._store(peer, writer)
        """)
        assert rule_ids(r701(findings)) == ["R701"]
        assert "_store()" in r701(findings)[0].message


class TestSerialised:
    def test_common_lock_is_clean(self, lint):
        findings = lint_runtime(lint, """
            class Hub:
                def mark_down(self, peer):
                    with self._lock:
                        self._writers.pop(peer, None)

                async def _sender(self, peer, writer):
                    async with self._lock:
                        self._writers[peer] = writer
        """)
        assert r701(findings) == []

    def test_same_entry_point_on_both_sides_is_clean(self, lint):
        # a public sync method also invoked from coroutines runs on one
        # thread at a time per call: only a *different* loop-side writer
        # makes it race
        findings = lint_runtime(lint, """
            class Hub:
                def mark_down(self, peer):
                    self._writers.pop(peer, None)

                async def _watchdog(self, peer):
                    self.mark_down(peer)
        """)
        assert r701(findings) == []

    def test_init_writes_are_exempt(self, lint):
        # construction happens-before publication to either side
        findings = lint_runtime(lint, """
            class Hub:
                def __init__(self):
                    self._writers = {}

                async def _sender(self, peer, writer):
                    self._writers[peer] = writer
        """)
        assert r701(findings) == []

    def test_private_sync_method_is_not_a_facade_entry(self, lint):
        findings = lint_runtime(lint, """
            class Hub:
                def _evict(self, peer):
                    self._writers.pop(peer, None)

                async def _sender(self, peer, writer):
                    self._writers[peer] = writer
        """)
        assert r701(findings) == []

    def test_loop_only_writes_are_clean(self, lint):
        findings = lint_runtime(lint, """
            class Hub:
                async def _sender(self, peer, writer):
                    self._writers[peer] = writer

                async def _closer(self, peer):
                    self._writers.pop(peer, None)
        """)
        assert r701(findings) == []

    def test_asyncio_protocol_callbacks_are_loop_side(self, lint):
        # data_received is public and sync, but the event loop is its
        # only caller: a write it shares with a coroutine is no race
        source = """
            import asyncio

            class Receiver({base}):
                def data_received(self, data):
                    self._buffered += len(data)

                async def drain(self):
                    self._buffered = 0
        """
        assert r701(lint_runtime(
            lint, source.format(base="asyncio.Protocol"))) == []
        # the same shape on a plain class is still a facade entry point
        assert rule_ids(r701(lint_runtime(
            lint, source.format(base="object")))) == ["R701"]
