"""A/F-rule fixtures: the task-leak class, blocking calls in async
code, and frozen-dataclass bypass outside the whitelisted codec path."""

from .conftest import rule_ids


# --------------------------------------------------------------------- #
# A201 untracked tasks (PR 3 incident class)
# --------------------------------------------------------------------- #

class TestA201UntrackedTask:
    def test_fires_on_discarded_create_task(self, lint):
        findings = lint("""
            import asyncio

            async def go():
                asyncio.create_task(pump())
        """, module="repro.runtime.fixture")
        assert rule_ids(findings) == ["A201"]
        assert "PR 3" in findings[0].message

    def test_fires_on_discarded_ensure_future(self, lint):
        findings = lint("""
            import asyncio

            async def go():
                asyncio.ensure_future(pump())
        """, module="repro.runtime.fixture")
        assert rule_ids(findings) == ["A201"]

    def test_fires_on_loop_create_task(self, lint):
        findings = lint("""
            import asyncio

            async def go():
                loop = asyncio.get_running_loop()
                loop.create_task(pump())
        """, module="repro.runtime.fixture")
        assert rule_ids(findings) == ["A201"]

    def test_fires_anywhere_in_repro(self, lint):
        findings = lint("""
            import asyncio

            async def go():
                asyncio.create_task(pump())
        """, module="repro.api.fixture")
        assert rule_ids(findings) == ["A201"]

    def test_assigned_task_is_clean(self, lint):
        findings = lint("""
            import asyncio

            async def go(tasks):
                task = asyncio.create_task(pump())
                tasks.append(task)
        """, module="repro.runtime.fixture")
        assert findings == []

    def test_appended_task_is_clean(self, lint):
        # the repo idiom: self._tasks.append(asyncio.create_task(...))
        findings = lint("""
            import asyncio

            class Node:
                async def go(self):
                    self._tasks.append(asyncio.create_task(pump()))
        """, module="repro.runtime.fixture")
        assert findings == []

    def test_awaited_task_is_clean(self, lint):
        findings = lint("""
            import asyncio

            async def go():
                await asyncio.create_task(pump())
        """, module="repro.runtime.fixture")
        assert findings == []

    def test_suppression_with_reason_honored(self, lint):
        findings = lint("""
            import asyncio

            async def go():
                asyncio.create_task(pump())  # lint: ignore[A201] daemon; process exits with loop
        """, module="repro.runtime.fixture")
        assert findings == []


# --------------------------------------------------------------------- #
# A202 blocking calls in async def
# --------------------------------------------------------------------- #

class TestA202BlockingInAsync:
    def test_fires_on_time_sleep(self, lint):
        findings = lint("""
            import time

            async def pump():
                time.sleep(1)
        """, module="repro.runtime.fixture")
        assert rule_ids(findings) == ["A202"]

    def test_fires_on_subprocess_and_open(self, lint):
        findings = lint("""
            import subprocess

            async def pump():
                subprocess.run(["true"])
                with open("/tmp/x") as fh:
                    return fh.read()
        """, module="repro.runtime.fixture")
        assert rule_ids(findings) == ["A202", "A202"]

    def test_async_sleep_is_clean(self, lint):
        findings = lint("""
            import asyncio

            async def pump():
                await asyncio.sleep(1)
        """, module="repro.runtime.fixture")
        assert findings == []

    def test_sync_function_is_clean(self, lint):
        findings = lint("""
            import time

            def warmup():
                time.sleep(1)
        """, module="repro.runtime.fixture")
        assert findings == []

    def test_scoped_to_runtime_only(self, lint):
        findings = lint("""
            import time

            async def pump():
                time.sleep(1)
        """, module="repro.bench.fixture")
        assert findings == []


# --------------------------------------------------------------------- #
# F401 frozen-dataclass bypass
# --------------------------------------------------------------------- #

class TestF401FrozenBypass:
    def test_fires_on_object_new_and_dict_update(self, lint):
        findings = lint("""
            def decode(payload):
                req = object.__new__(Request)
                req.__dict__.update(origin=1, seq=2)
                return req
        """, module="repro.api.fixture")
        assert rule_ids(findings) == ["F401", "F401"]

    def test_fires_on_dict_subscript_assignment(self, lint):
        findings = lint("""
            def patch(req):
                req.__dict__["seq"] = 7
        """, module="repro.core.fixture")
        assert rule_ids(findings) == ["F401"]

    def test_wire_module_exempt_by_policy(self, lint):
        # the codec fast path is whitelisted in DEFAULT_POLICY, not via
        # per-line suppressions
        findings = lint("""
            def decode(payload):
                req = object.__new__(Request)
                req.__dict__.update(origin=1, seq=2)
                return req
        """, module="repro.runtime.wire")
        assert findings == []

    def test_normal_construction_is_clean(self, lint):
        findings = lint("""
            def decode(payload):
                return Request(origin=1, seq=2)
        """, module="repro.api.fixture")
        assert findings == []
