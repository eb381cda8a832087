"""D201 / A301 fixtures: the whole-program dataflow rules.

All snippets lint under ``repro.runtime`` module paths — D201 gates the
runtime (where D101's lexical wall-clock ban does *not* apply, so each
finding here is attributable to the taint engine alone), and A301 only
gates the runtime.
"""

from .conftest import rule_ids

RUNTIME = "repro.runtime.fixture"


class TestD201Positives:
    def test_wall_clock_into_envelope_payload(self, lint):
        findings = lint("""
            import time

            def send():
                return Broadcast(1, 2, payload=str(time.time()).encode())
        """, module=RUNTIME)
        assert rule_ids(findings) == ["D201"]
        assert "time.time" in findings[0].message

    def test_taint_through_helper_return(self, lint):
        findings = lint("""
            import time

            def stamp():
                return time.time()

            def send():
                payload = stamp()
                return Broadcast(1, 2, payload)
        """, module=RUNTIME)
        assert rule_ids(findings) == ["D201"]

    def test_tainted_argument_to_param_sinking_callee(self, lint):
        findings = lint("""
            import time

            class RoundContext:
                pass

            def record(ctx: RoundContext, value):
                ctx.known = value

            def on_timeout(ctx):
                record(ctx, time.monotonic())
        """, module=RUNTIME)
        assert rule_ids(findings) == ["D201"]
        assert "record" in findings[0].message

    def test_round_context_field_store(self, lint):
        findings = lint("""
            import os

            class RoundContext:
                pass

            def seed_round(ctx: RoundContext):
                ctx.nonce = os.urandom(8)
        """, module=RUNTIME)
        assert rule_ids(findings) == ["D201"]
        assert "RoundContext.nonce" in findings[0].message

    def test_id_into_apply_result(self, lint):
        findings = lint("""
            class Machine:
                def snapshot(self):
                    return b""

                def apply(self, cmd):
                    return id(cmd)
        """, module=RUNTIME)
        assert rule_ids(findings) == ["D201"]
        assert "apply" in findings[0].message

    def test_list_over_set_returning_helper(self, lint):
        # the interprocedural set-order escape D104's per-scope
        # inference cannot see: the set literal is in another function
        findings = lint("""
            def peers():
                return {3, 1, 2}

            def send():
                order = list(peers())
                return Broadcast(1, 2, order)
        """, module=RUNTIME)
        assert rule_ids(findings) == ["D201"]
        assert "set-order" in findings[0].message


class TestD201Negatives:
    def test_sorted_over_set_returning_helper_is_clean(self, lint):
        findings = lint("""
            def peers():
                return {3, 1, 2}

            def send():
                order = sorted(peers())
                return Broadcast(1, 2, order)
        """, module=RUNTIME)
        assert findings == []

    def test_wall_clock_not_reaching_a_sink_is_clean(self, lint):
        # runtime code may time things — only agreed state is gated
        findings = lint("""
            import time

            def measure():
                start = time.monotonic()
                return time.monotonic() - start
        """, module=RUNTIME)
        assert findings == []

    def test_seeded_rng_into_envelope_is_clean(self, lint):
        findings = lint("""
            import random

            def send(seed):
                rng = random.Random(seed)
                return Broadcast(1, 2, rng.random())
        """, module=RUNTIME)
        assert findings == []

    def test_benches_are_exempt_by_policy(self, lint):
        # latency benches legitimately timestamp payloads
        findings = lint("""
            import time

            def send():
                return Broadcast(1, 2, payload=str(time.time()).encode())
        """, module="repro.bench.fixture")
        assert findings == []


class TestA301:
    def test_blocking_one_helper_deep(self, lint):
        findings = lint("""
            import time

            def backoff():
                time.sleep(1)

            class Node:
                async def pump(self):
                    backoff()
        """, module=RUNTIME)
        assert rule_ids(findings) == ["A301"]
        assert "time.sleep" in findings[0].message

    def test_blocking_two_helpers_deep_names_the_chain(self, lint):
        findings = lint("""
            import time

            def leaf():
                time.sleep(1)

            def middle():
                leaf()

            async def pump():
                middle()
        """, module=RUNTIME)
        assert rule_ids(findings) == ["A301"]
        assert "middle -> leaf" in findings[0].message

    def test_direct_blocking_is_a202_not_a301(self, lint):
        # the lexical rule keeps the direct case; A301 adds only depth
        findings = lint("""
            import time

            async def pump():
                time.sleep(1)
        """, module=RUNTIME)
        assert rule_ids(findings) == ["A202"]

    def test_async_chain_to_asyncio_sleep_is_clean(self, lint):
        findings = lint("""
            import asyncio

            async def pause():
                await asyncio.sleep(0)

            async def pump():
                await pause()
        """, module=RUNTIME)
        assert findings == []

    def test_sync_caller_of_blocking_helper_is_clean(self, lint):
        findings = lint("""
            import time

            def backoff():
                time.sleep(1)

            def shutdown():
                backoff()
        """, module=RUNTIME)
        assert findings == []
