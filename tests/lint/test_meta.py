"""The gate itself: ``python -m repro.lint src/`` is clean, every
suppression in the tree is explained, and deliberately reintroducing
the task-leak incident pattern or a whole-program defect makes the
analyzer fail."""

import pathlib
import re
import shutil
import textwrap
import time

from repro.lint import DEFAULT_POLICY, lint_paths, lint_source
from repro.lint.analyzer import iter_python_files

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"


class TestSrcTreeIsClean:
    def test_lint_src_is_clean(self):
        findings = lint_paths([str(SRC)])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_every_suppression_in_src_has_a_reason(self):
        # belt and braces on top of S901: grep the raw text too, so even
        # a comment the tokenizer misses cannot smuggle in a bare ignore
        pattern = re.compile(r"#\s*lint:\s*ignore\[[^\]]*\]\s*(\S?)")
        for path in iter_python_files([str(SRC)]):
            for line_no, line in enumerate(
                    pathlib.Path(path).read_text().splitlines(), 1):
                match = pattern.search(line)
                if match:
                    assert match.group(1), (
                        f"{path}:{line_no}: suppression without a reason")

    def test_wire_fast_path_is_policy_encoded_not_suppressed(self):
        # the F401 exemption for the codec fast path must come from the
        # policy table, not per-line ignores in wire.py
        wire = SRC / "repro" / "runtime" / "wire.py"
        text = wire.read_text()
        assert "object.__new__" in text         # fast path still there
        assert "lint: ignore" not in text
        assert not DEFAULT_POLICY.applies("F401", "repro.runtime.wire")
        assert DEFAULT_POLICY.applies("F401", "repro.runtime.node")


def _lint_runtime_snippet(source):
    return lint_source(textwrap.dedent(source),
                       "src/repro/runtime/scratch.py")


class TestIncidentRegressions:
    """Reintroducing the shipped-and-fixed task-leak class must fail the
    gate (and hence the CI lint job)."""

    def test_pr3_task_leak_fails_the_gate(self):
        # PR 3: conn-handler tasks spawned and dropped, leaking across
        # stop() — the exact class A201 encodes
        findings = _lint_runtime_snippet("""
            import asyncio

            class Node:
                async def connect_peers(self):
                    asyncio.create_task(self._heartbeat_loop())
                    asyncio.create_task(self._timeout_loop())
        """)
        assert [f.rule_id for f in findings] == ["A201", "A201"]

    def test_current_runtime_does_not_regress(self):
        # the real node.py/proc.py stay clean under the same rules
        findings = lint_paths([str(SRC / "repro" / "runtime")])
        assert findings == [], "\n".join(f.render() for f in findings)


def _runtime_tree_copy(tmp_path):
    """A private copy of ``src/repro/runtime`` to seed regressions into
    (the package is self-contained enough for the whole-program pass).
    The ``repro`` path component is kept so policy scoping sees the
    same ``repro.runtime.*`` modules as the real tree."""
    dst = tmp_path / "repro" / "runtime"
    shutil.copytree(SRC / "repro" / "runtime", dst)
    return dst


class TestWholeProgramRegressions:
    """The interprocedural bug classes the lexical rules provably miss:
    seeding one into a copy of the real runtime tree must fail the gate
    — with the whole-program rule, not its lexical cousin."""

    def test_new_wire_kind_without_dispatch_arm_fails_the_gate(
            self, tmp_path):
        # add an envelope kind constant but no dispatcher arm: every
        # codec dispatch site is now non-exhaustive
        tree = _runtime_tree_copy(tmp_path)
        wire = tree / "wire.py"
        wire.write_text(wire.read_text().replace(
            "_K_CONTROL = 4", "_K_CONTROL = 4\n_K_PING = 5"))
        findings = lint_paths([str(tmp_path)])
        assert findings, "seeded kind constant went undetected"
        assert {f.rule_id for f in findings} == {"X502"}
        assert all("_K_PING" in f.message for f in findings)

    def test_snapshot_gap_fails_the_gate_via_s601_alone(self, tmp_path):
        # an apply()-mutated attribute missing from snapshot() has no
        # lexical signature at all: only the S601 inclusion proof
        # catches it
        tree = _runtime_tree_copy(tmp_path)
        (tree / "scratch.py").write_text(textwrap.dedent("""
            class ShardStateMachine:
                def apply(self, command):
                    self._applied += 1
                    self._store[command.key] = command.value

                def snapshot(self):
                    return dict(self._store)
        """))
        findings = lint_paths([str(tmp_path)])
        assert {f.rule_id for f in findings} == {"S601"}
        (finding,) = findings
        assert "ShardStateMachine._applied" in finding.message
        assert finding.path.endswith("scratch.py")

    def test_field_add_without_version_bump_fails_the_gate(
            self, tmp_path):
        # thread a new `epoch` field through all four codec sites of
        # the FWD kind — both parities and the cross-plane join stay
        # green, so only the committed-lockfile drift gate can object
        tree = _runtime_tree_copy(tmp_path)
        wire = tree / "wire.py"
        wire.write_text(wire.read_text().replace(
            "return _frame(_K_FWD, (sender, fwd.round, fwd.origin))",
            "return _frame(_K_FWD, (sender, fwd.round, fwd.origin, "
            "fwd.epoch))"
        ).replace(
            "        if kind == _K_FWD:\n"
            "            sender, rnd, origin = _loads(view[start:stop])",
            "        if kind == _K_FWD:\n"
            "            sender, rnd, origin, epoch = "
            "_loads(view[start:stop])"))
        framing = tree / "framing.py"
        framing.write_text(framing.read_text().replace(
            '        return {"type": "fwd", "from": sender, '
            '"round": message.round,\n'
            '                "origin": message.origin}',
            '        return {"type": "fwd", "from": sender, '
            '"round": message.round,\n'
            '                "origin": message.origin, "epoch": 0}'
        ).replace(
            'return sender, Forward(round=rnd, origin=int(obj["origin"]))',
            'return sender, Forward(round=rnd, origin=int(obj["origin"]),\n'
            '                               epoch=obj["epoch"])'))
        findings = lint_paths([str(tmp_path)])
        assert {f.rule_id for f in findings} == {"W601"}
        (finding,) = findings
        assert "without a WIRE_VERSION bump" in finding.message
        assert "FWD" in finding.message

    def test_committed_lockfile_matches_extraction(self, tmp_path):
        # the lockfile in git is exactly what --regen-wire-lock emits
        # from today's tree: a stale commit cannot hide behind the gate
        from repro.lint.rules_wire_schema import regenerate_lockfile

        tree = _runtime_tree_copy(tmp_path)
        committed = (tree / "wire_schema.lock.json").read_text()
        lock_path = regenerate_lockfile([str(tmp_path)])
        assert lock_path is not None
        assert (tree / "wire_schema.lock.json").read_text() == committed


class TestWholeProgramPerf:
    def test_full_src_pass_stays_interactive(self):
        # the gate runs on every CI push and locally pre-commit: the
        # whole-program pass (parse + call graph + taint fixpoint +
        # exhaustiveness) must stay in single-digit seconds on src/
        start = time.perf_counter()
        findings = lint_paths([str(SRC)])
        elapsed = time.perf_counter() - start
        assert findings == []
        assert elapsed < 5.0, f"whole-program pass took {elapsed:.2f}s"
