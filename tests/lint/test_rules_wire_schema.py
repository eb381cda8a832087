"""W601: wire-schema parity across planes and the lockfile drift gate."""

import json
import textwrap

import pytest

from repro.lint import lint_paths
from repro.lint.cli import main
from repro.lint.rules_wire_schema import (LOCKFILE_NAME,
                                          regenerate_lockfile)

from .conftest import rule_ids


def w601(findings):
    return [f for f in findings if f.rule_id == "W601"]


def lint_wire(lint, source):
    # W601 anchors on the module assigning WIRE_VERSION; the fixture
    # path's basename is not wire.py, so the lockfile gate stays out of
    # scope and only the parity checks run
    return lint(source, module="repro.runtime.fixture")


class TestBinaryParity:
    def test_matching_envelope_is_clean(self, lint):
        # decode-side `rnd` normalises to `round`: spelling is not drift
        findings = lint_wire(lint, """
            WIRE_VERSION = 1

            _K_FWD = 7


            def _frame(kind, parts):
                return repr((kind, parts)).encode()


            def encode_forward(msg):
                return _frame(_K_FWD, (msg.sender, msg.round))


            def decode(kind, env):
                if kind == _K_FWD:
                    sender, rnd = env
                    return sender, rnd
                raise ValueError(env)
        """)
        assert w601(findings) == []

    def test_encode_decode_field_mismatch(self, lint):
        findings = lint_wire(lint, """
            WIRE_VERSION = 1

            _K_FWD = 7


            def _frame(kind, parts):
                return repr((kind, parts)).encode()


            def encode_forward(msg):
                return _frame(_K_FWD, (msg.sender, msg.round,
                                       msg.origin))


            def decode(kind, env):
                if kind == _K_FWD:
                    sender, rnd = env
                    return sender, rnd
                raise ValueError(env)
        """)
        assert rule_ids(findings) == ["W601"]
        (finding,) = findings
        assert "_K_FWD" in finding.message
        assert "encodes fields (sender, round, origin)" in finding.message
        assert "decodes (sender, round)" in finding.message

    HEADER_WIRE = """
        import struct

        WIRE_VERSION = 2

        _K_BCAST = 0
        _HEADER = struct.Struct(">HQH")


        def _frame(kind, parts, header=b""):
            return header + repr((kind, parts)).encode()


        def encode_broadcast(sender, msg, rows):
            return _frame(_K_BCAST, (msg.count, rows),
                          _HEADER.pack(sender, msg.round{enc}))


        def decode(kind, view, accept):
            if kind == _K_BCAST:
                sender, rnd{dec} = _HEADER.unpack_from(view, 0)
                if not accept(sender, rnd):
                    return None
                count, rows = loads(view[_HEADER.size:])
                return sender, rows
            raise ValueError(kind)
    """

    def test_struct_header_fields_ride_ahead_of_the_envelope(self, lint):
        # the fixed header's pack() arguments and unpack_from() targets
        # are schema fields like any other, in wire order
        findings = lint_wire(lint, self.HEADER_WIRE.format(
            enc=", msg.origin", dec=", origin"))
        assert w601(findings) == []

    def test_header_field_packed_but_not_unpacked(self, lint):
        findings = lint_wire(lint, self.HEADER_WIRE.format(
            enc=", msg.origin", dec=""))
        assert rule_ids(findings) == ["W601"]
        (finding,) = findings
        assert "encodes fields (sender, round, origin, count, rows)" \
            in finding.message
        assert "decodes (sender, round, count, rows)" in finding.message

    def test_header_field_unpacked_but_not_packed(self, lint):
        findings = lint_wire(lint, self.HEADER_WIRE.format(
            enc="", dec=", origin"))
        assert rule_ids(findings) == ["W601"]
        assert "_K_BCAST" in findings[0].message

    def test_kind_encoded_but_never_decoded(self, lint):
        findings = lint_wire(lint, """
            WIRE_VERSION = 1

            _K_FWD = 7


            def _frame(kind, parts):
                return repr((kind, parts)).encode()


            def encode_forward(msg):
                return _frame(_K_FWD, (msg.sender, msg.round))
        """)
        assert rule_ids(findings) == ["W601"]
        assert "encoded but not decoded" in findings[0].message

    def test_kind_decoded_but_never_encoded(self, lint):
        findings = lint_wire(lint, """
            WIRE_VERSION = 1

            _K_FWD = 7


            def decode(kind, env):
                if kind == _K_FWD:
                    sender, rnd = env
                    return sender, rnd
                raise ValueError(env)
        """)
        assert rule_ids(findings) == ["W601"]
        assert "decoded but not encoded" in findings[0].message

    def test_request_row_mismatch(self, lint):
        findings = lint_wire(lint, """
            WIRE_VERSION = 1

            _K_BATCH = 1


            def _frame(kind, parts):
                return repr((kind, parts)).encode()


            def encode_batch(batch):
                rows = tuple((r.origin, r.seq, r.data)
                             for r in batch.rows)
                return _frame(_K_BATCH, (batch.sender, rows))


            def decode(kind, env):
                if kind == _K_BATCH:
                    sender, rows = env
                    out = []
                    for row in rows:
                        req = Request()
                        req.__dict__.update(origin=row[0], seq=row[1])
                        out.append(req)
                    return sender, out
                raise ValueError(env)
        """)
        # (the fixture's __dict__.update also trips F401, correctly:
        # only the real wire.py is policy-whitelisted for the fast path)
        assert rule_ids(w601(findings)) == ["W601"]
        finding = w601(findings)[0]
        assert "request row encodes (origin, seq, data)" in finding.message
        assert "decodes (origin, seq)" in finding.message


def _tree(tmp_path, **files):
    """A tmp package tree under repro/runtime (so policy scoping sees
    repro.runtime.* modules) with one file per keyword."""
    pkg = tmp_path / "repro" / "runtime"
    pkg.mkdir(parents=True)
    for name, source in files.items():
        (pkg / (name + ".py")).write_text(textwrap.dedent(source))
    return tmp_path


CLEAN_WIRE = """
    WIRE_VERSION = 1

    _K_BCAST = 1


    def _frame(kind, parts):
        return repr((kind, parts)).encode()


    def encode_broadcast(msg, count, nbytes, rows):
        return _frame(_K_BCAST, (msg.sender, msg.round, count,
                                 nbytes, rows))


    def decode(kind, env):
        if kind == _K_BCAST:
            sender, rnd, count, nbytes, rows = env
            return 6, Broadcast(sender=sender, round=rnd, payload=rows)
        raise ValueError(env)
"""

CLEAN_FRAMING = """
    def encode_message(msg):
        if isinstance(msg, Broadcast):
            return {"type": "BCAST", "sender": msg.sender,
                    "round": msg.round, "payload": msg.payload}
        raise TypeError(msg)


    def decode_message(obj):
        kind = obj["type"]
        if kind == "BCAST":
            return 1, Broadcast(sender=obj["sender"],
                                round=obj["round"],
                                payload=obj["payload"])
        raise ValueError(kind)
"""


class TestJsonAndCrossPlane:
    def test_both_planes_matching_is_clean(self, tmp_path):
        # the binary batch fields count/nbytes/rows flatten to the JSON
        # payload envelope: carrying them is not cross-plane drift
        tree = _tree(tmp_path, fixwire=CLEAN_WIRE,
                     fixframing=CLEAN_FRAMING)
        assert lint_paths([str(tree)]) == []

    def test_json_encode_decode_mismatch(self, tmp_path):
        tree = _tree(tmp_path, fixwire="""
            WIRE_VERSION = 1

            _K_FWD = 1


            def _frame(kind, parts):
                return repr((kind, parts)).encode()


            def encode_forward(msg):
                return _frame(_K_FWD, (msg.sender, msg.round))


            def decode(kind, env):
                if kind == _K_FWD:
                    sender, rnd = env
                    return sender, rnd
                raise ValueError(env)
        """, fixframing="""
            def encode_message(msg):
                if isinstance(msg, Forward):
                    return {"type": "FWD", "sender": msg.sender,
                            "round": msg.round}
                raise TypeError(msg)


            def decode_message(obj):
                kind = obj["type"]
                if kind == "FWD":
                    return 1, Forward(sender=obj["sender"],
                                      round=obj["round"],
                                      origin=obj["origin"])
                raise ValueError(kind)
        """)
        findings = lint_paths([str(tree)])
        assert rule_ids(findings) == ["W601"]
        (finding,) = findings
        assert "JSON plane: Forward" in finding.message
        assert finding.path.endswith("fixframing.py")

    def test_field_on_one_plane_only_is_cross_plane_drift(
            self, tmp_path):
        # binary _K_FWD carries origin, the JSON Forward envelope does
        # not (consistently on both its sides): mixed-codec clusters
        # would lose the field crossing planes
        tree = _tree(tmp_path, fixwire="""
            WIRE_VERSION = 1

            _K_FWD = 1


            def _frame(kind, parts):
                return repr((kind, parts)).encode()


            def encode_forward(msg):
                return _frame(_K_FWD, (msg.sender, msg.round,
                                       msg.origin))


            def decode(kind, env):
                if kind == _K_FWD:
                    sender, rnd, origin = env
                    return 4, Forward(sender=sender, round=rnd,
                                      origin=origin)
                raise ValueError(env)
        """, fixframing="""
            def encode_message(msg):
                if isinstance(msg, Forward):
                    return {"type": "FWD", "sender": msg.sender,
                            "round": msg.round}
                raise TypeError(msg)


            def decode_message(obj):
                kind = obj["type"]
                if kind == "FWD":
                    return 1, Forward(sender=obj["sender"],
                                      round=obj["round"])
                raise ValueError(kind)
        """)
        findings = lint_paths([str(tree)])
        assert rule_ids(findings) == ["W601"]
        (finding,) = findings
        assert "cross-plane drift for Forward" in finding.message
        assert "origin" in finding.message


GATE_WIRE = """
    WIRE_VERSION = {version}

    _K_FWD = 1
    _K_BWD = 2


    def _frame(kind, parts):
        return repr((kind, parts)).encode()


    def encode_forward(msg):
        return _frame(_K_FWD, (msg.sender, msg.round{extra_enc}))


    def encode_backward(msg):
        return _frame(_K_BWD, (msg.sender, msg.round))


    def decode(kind, env):
        if kind == _K_FWD:
            sender, rnd{extra_dec} = env
            return sender, rnd
        if kind == _K_BWD:
            sender, rnd = env
            return sender, rnd
        raise ValueError(env)
"""


def _gate_tree(tmp_path, version=1, extra=False):
    """A tree whose binary module IS named wire.py, engaging the gate."""
    return _tree(tmp_path, wire=GATE_WIRE.format(
        version=version,
        extra_enc=", msg.origin" if extra else "",
        extra_dec=", origin" if extra else ""))


class TestLockfileGate:
    def test_missing_lockfile_is_flagged(self, tmp_path):
        findings = lint_paths([str(_gate_tree(tmp_path))])
        assert rule_ids(findings) == ["W601"]
        assert f"no committed {LOCKFILE_NAME}" in findings[0].message

    def test_regenerated_lockfile_passes_the_gate(self, tmp_path):
        tree = _gate_tree(tmp_path)
        lock_path = regenerate_lockfile([str(tree)])
        assert lock_path is not None and lock_path.endswith(LOCKFILE_NAME)
        locked = json.loads(
            (tree / "repro" / "runtime" / LOCKFILE_NAME).read_text())
        assert locked["wire_version"] == 1
        assert locked["binary"]["FWD"]["encode"] == ["sender", "round"]
        assert lint_paths([str(tree)]) == []

    def test_schema_change_without_version_bump_fails(self, tmp_path):
        tree = _gate_tree(tmp_path)
        regenerate_lockfile([str(tree)])
        # add a field to encode AND decode: both parities still hold,
        # only the drift gate can catch it
        wire = tree / "repro" / "runtime" / "wire.py"
        wire.write_text(textwrap.dedent(GATE_WIRE.format(
            version=1, extra_enc=", msg.origin", extra_dec=", origin")))
        findings = lint_paths([str(tree)])
        assert rule_ids(findings) == ["W601"]
        (finding,) = findings
        assert "without a WIRE_VERSION bump" in finding.message
        assert "FWD" in finding.message

    def test_version_bump_with_stale_lockfile_fails(self, tmp_path):
        tree = _gate_tree(tmp_path)
        regenerate_lockfile([str(tree)])
        wire = tree / "repro" / "runtime" / "wire.py"
        wire.write_text(textwrap.dedent(GATE_WIRE.format(
            version=2, extra_enc=", msg.origin", extra_dec=", origin")))
        findings = lint_paths([str(tree)])
        assert rule_ids(findings) == ["W601"]
        assert "stale" in findings[0].message

    def test_bump_plus_regen_is_clean_again(self, tmp_path):
        tree = _gate_tree(tmp_path)
        regenerate_lockfile([str(tree)])
        wire = tree / "repro" / "runtime" / "wire.py"
        wire.write_text(textwrap.dedent(GATE_WIRE.format(
            version=2, extra_enc=", msg.origin", extra_dec=", origin")))
        regenerate_lockfile([str(tree)])
        assert lint_paths([str(tree)]) == []


class TestRegenCli:
    def test_regen_flag_writes_and_reports_the_path(self, tmp_path,
                                                    capsys):
        tree = _gate_tree(tmp_path)
        code = main(["--regen-wire-lock", str(tree)])
        out = capsys.readouterr().out
        assert code == 0
        assert LOCKFILE_NAME in out
        assert (tree / "repro" / "runtime" / LOCKFILE_NAME).exists()

    def test_regen_without_a_wire_module_fails(self, tmp_path, capsys):
        (tmp_path / "plain.py").write_text("x = 1\n")
        code = main(["--regen-wire-lock", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1
        assert "no wire module" in err
