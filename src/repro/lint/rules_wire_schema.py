"""W601: wire-schema parity across planes + committed-lockfile drift gate.

The runtime speaks two wire planes that must carry identical per-kind
schemas: the binary frames of ``repro.runtime.wire`` (a ``_K_*`` kind
byte, an optional fixed ``struct`` header, a flat marshal envelope) and
the JSON envelopes of ``repro.runtime.framing`` (the differential
oracle).  A field added to one plane but not the other mis-decodes in
mixed-codec clusters; a field added to *both* without bumping ``WIRE_VERSION`` mis-decodes in mixed-**version**
clusters mid-reshard — exactly the deployment the elastic-sharding
roadmap item creates.  W601 extracts both schemas statically from the
AST and checks, in order:

1. **binary parity** — the fields each ``_frame(_K_X, (...), header)``
   call encodes (the ``struct`` header's ``pack(...)`` arguments, then
   the envelope tuple) against the tuple-unpacks of the decoder's
   ``_K_X`` branch (the header's ``unpack_from``, then the envelope) —
   positional, with ``rnd``→``round`` style spelling normalisation;
2. **JSON parity** — the per-``isinstance`` dict keys of
   ``encode_message`` against the constructor kwargs + preamble reads of
   ``decode_message`` (plus the request-row helpers);
3. **cross-plane parity** — binary kinds joined to JSON kinds via the
   message class each decoder constructs (batch fields ``count/nbytes/
   rows`` collapse to the JSON ``payload`` envelope);
4. **the drift gate** — the extracted schema against the committed
   ``wire_schema.lock.json`` next to the wire module: any difference at
   an unchanged ``WIRE_VERSION`` fails (bump the version), and a bumped
   version with a stale lockfile fails (run
   ``python -m repro.lint --regen-wire-lock``).

The lockfile checks only engage for the real ``wire.py`` (by basename),
so snippet fixtures exercise the parity logic without dragging the
repository lockfile into scope.
"""

from __future__ import annotations

import ast
import json
import os
from typing import Any, Iterable, Optional

from .callgraph import FunctionInfo, ModuleInfo, Program, _body_walk
from .findings import Finding
from .names import dotted_name
from .registry import ProgramContext, program_rule

__all__ = ["extract_schema", "lockfile_path_for", "regenerate_lockfile",
           "LOCKFILE_NAME"]

LOCKFILE_NAME = "wire_schema.lock.json"

#: decode-side local spellings -> canonical field names
_NORMALIZE = {"rnd": "round", "from": "sender", "r": "round"}

#: binary batch fields that the JSON plane nests under one envelope key
_BATCH_FLATTEN = {"count": "payload", "nbytes": "payload",
                  "rows": "payload", "requests": "payload"}


def _norm(name: str) -> str:
    return _NORMALIZE.get(name, name)


def _module_functions(program: Program,
                      module: str) -> list[FunctionInfo]:
    return [fn for fn in program.functions.values()
            if fn.module == module]


# --------------------------------------------------------------------- #
# Binary plane extraction
# --------------------------------------------------------------------- #

def _find_binary_module(
        program: Program) -> Optional[tuple[ModuleInfo, ast.Assign]]:
    """The module assigning ``WIRE_VERSION`` at top level, plus the
    assignment node (finding anchor + version value)."""
    for module in sorted(program.modules):
        info = program.modules[module]
        for node in info.tree.body:
            if isinstance(node, ast.Assign) \
                    and any(isinstance(t, ast.Name)
                            and t.id == "WIRE_VERSION"
                            for t in node.targets):
                return info, node
    return None


def _field_name(node: ast.AST, idx: int) -> str:
    if isinstance(node, ast.Name):
        return _norm(node.id)
    if isinstance(node, ast.Attribute):
        return _norm(node.attr)
    return f"?{idx}"


def _binary_encode_fields(program: Program,
                          module: str) -> tuple[dict[str, list[str]],
                                                Optional[list[str]]]:
    """Per-kind field lists from every ``_frame(_K_X, (...)[, header])``
    call — the arguments of the header's ``<struct>.pack(...)`` first,
    then the envelope tuple — and the request-row sub-schema from the
    tuple-of-attributes comprehension in the same function
    (``(r.origin, r.seq, ...) for r in ...``)."""
    kinds: dict[str, list[str]] = {}
    row: Optional[list[str]] = None
    for fn in _module_functions(program, module):
        has_frame = False
        for node in _body_walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.rsplit(".", 1)[-1] != "_frame":
                continue
            args = node.args + [kw.value for kw in node.keywords]
            if len(args) < 2 or not isinstance(args[0], ast.Name) \
                    or not args[0].id.startswith("_K_") \
                    or not isinstance(args[1], ast.Tuple):
                continue
            has_frame = True
            elts: list[ast.expr] = []
            for header in args[2:]:
                if isinstance(header, ast.Call) \
                        and isinstance(header.func, ast.Attribute) \
                        and header.func.attr == "pack":
                    elts.extend(header.args)
            elts.extend(args[1].elts)
            kinds[args[0].id[3:]] = [_field_name(elt, idx) for idx, elt
                                     in enumerate(elts, start=1)]
        if not has_frame:
            continue
        for node in _body_walk(fn.node):
            if not isinstance(node, (ast.GeneratorExp, ast.ListComp)):
                continue
            elt = node.elt
            if isinstance(elt, ast.Tuple) and len(elt.elts) >= 2 \
                    and all(isinstance(e, ast.Attribute)
                            for e in elt.elts):
                row = [_norm(e.attr) for e in elt.elts]  # type: ignore[union-attr]
    return kinds, row


def _binary_decode_fields(program: Program, module: str,
                          ) -> tuple[dict[str, list[str]],
                                     dict[str, str],
                                     Optional[list[str]]]:
    """Per-kind decode fields (every tuple-unpack of a ``_K_X`` branch in
    source order: the header's ``unpack_from``, then the envelope), the
    kind -> constructed message class map, and the request-row kwargs of
    the ``__dict__.update(origin=..., seq=...)`` fast path."""
    kinds: dict[str, list[str]] = {}
    classes: dict[str, str] = {}
    row: Optional[list[str]] = None
    for fn in _module_functions(program, module):
        tests = [node for node in _body_walk(fn.node)
                 if isinstance(node, ast.If)
                 and isinstance(node.test, ast.Compare)
                 and len(node.test.comparators) == 1
                 and isinstance(node.test.comparators[0], ast.Name)
                 and node.test.comparators[0].id.startswith("_K_")]
        for branch in tests:
            kind = branch.test.comparators[0].id[3:]  # type: ignore[attr-defined]
            unpacks: list[ast.Assign] = []
            for node in (n for stmt in branch.body
                         for n in ast.walk(stmt)):
                if isinstance(node, ast.Assign) \
                        and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Tuple) \
                        and all(isinstance(e, ast.Name)
                                for e in node.targets[0].elts):
                    unpacks.append(node)
                elif isinstance(node, ast.Return) \
                        and isinstance(node.value, ast.Tuple) \
                        and len(node.value.elts) == 2 \
                        and isinstance(node.value.elts[1], ast.Call):
                    cls = dotted_name(node.value.elts[1].func)
                    if cls is not None:
                        classes[kind] = cls.rsplit(".", 1)[-1]
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "update" \
                        and isinstance(node.func.value, ast.Attribute) \
                        and node.func.value.attr == "__dict__":
                    kwargs = [kw.arg for kw in node.keywords
                              if kw.arg is not None]
                    if "seq" in kwargs:
                        row = [_norm(k) for k in kwargs]
            if unpacks:
                unpacks.sort(key=lambda assign: assign.lineno)
                kinds[kind] = [
                    _norm(e.id) for assign in unpacks
                    for e in assign.targets[0].elts]  # type: ignore[attr-defined]
    return kinds, classes, row


# --------------------------------------------------------------------- #
# JSON plane extraction
# --------------------------------------------------------------------- #

def _dict_keys(node: ast.Dict) -> list[str]:
    """String keys of a dict literal, recursing into ``**{...}`` splats
    (including the conditional ``**({...} if cond else {})`` idiom)."""
    keys: list[str] = []
    for key, value in zip(node.keys, node.values):
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.append(key.value)
        elif key is None:           # ** splat: scan for nested dicts
            for sub in ast.walk(value):
                if isinstance(sub, ast.Dict):
                    keys.extend(_dict_keys(sub))
    return keys


def _find_json_encoder(program: Program, binary_module: str,
                       ) -> Optional[FunctionInfo]:
    for qname in sorted(program.functions):
        fn = program.functions[qname]
        if fn.name != "encode_message" or fn.module == binary_module:
            continue
        for node in _body_walk(fn.node):
            if isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Dict) \
                    and "type" in _dict_keys(node.value):
                return fn
    return None


def _json_encode_fields(fn: FunctionInfo) -> dict[str, list[str]]:
    """Per message-class field lists from the ``isinstance`` branches."""
    out: dict[str, list[str]] = {}
    for node in _body_walk(fn.node):
        if not isinstance(node, ast.If) \
                or not isinstance(node.test, ast.Call):
            continue
        test = node.test
        if not (isinstance(test.func, ast.Name)
                and test.func.id == "isinstance"
                and len(test.args) == 2):
            continue
        cls = dotted_name(test.args[1])
        if cls is None:
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Return) \
                    and isinstance(sub.value, ast.Dict):
                fields = [_norm(k) for k in _dict_keys(sub.value)
                          if k != "type"]
                out[cls.rsplit(".", 1)[-1]] = fields
    return out


def _json_decode_fields(program: Program,
                        module: str) -> dict[str, set[str]]:
    """Per message-class decode fields of ``decode_message``: the
    constructor kwargs of each kind branch plus the preamble's
    ``obj[...]`` reads (sender/round are unpacked before dispatch)."""
    fn = program.functions.get(f"{module}.decode_message")
    if fn is None:
        return {}
    args = fn.node.args
    params = args.posonlyargs + args.args
    obj_name = params[0].arg if params else None

    def obj_reads(root: ast.AST) -> set[str]:
        reads: set[str] = set()
        for node in ast.walk(root):
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == obj_name \
                    and isinstance(node.slice, ast.Constant) \
                    and isinstance(node.slice.value, str):
                reads.add(_norm(node.slice.value))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == obj_name \
                    and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                reads.add(_norm(node.args[0].value))
        return reads

    preamble: set[str] = set()
    out: dict[str, set[str]] = {}
    for stmt in fn.node.body:
        if isinstance(stmt, ast.If):
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Return) \
                        or not isinstance(node.value, ast.Tuple) \
                        or len(node.value.elts) != 2 \
                        or not isinstance(node.value.elts[1], ast.Call):
                    continue
                ctor = node.value.elts[1]
                cls = dotted_name(ctor.func)
                if cls is None:
                    continue
                fields = {_norm(kw.arg) for kw in ctor.keywords
                          if kw.arg is not None}
                fields |= obj_reads(node) | preamble
                fields.discard("type")   # the discriminator, not a field
                out[cls.rsplit(".", 1)[-1]] = fields
        else:
            preamble |= obj_reads(stmt)
    return out


def _json_row_fields(program: Program, module: str,
                     ) -> tuple[Optional[list[str]], Optional[set[str]]]:
    """Request-row fields of the JSON plane: the dict keys of
    ``request_to_json`` and the ``obj[...]``/``obj.get(...)`` reads of
    ``request_from_json``."""
    encode: Optional[list[str]] = None
    decode: Optional[set[str]] = None
    to_json = program.functions.get(f"{module}.request_to_json")
    if to_json is not None:
        for node in _body_walk(to_json.node):
            if isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Dict):
                encode = [_norm(k) for k in _dict_keys(node.value)]
    from_json = program.functions.get(f"{module}.request_from_json")
    if from_json is not None:
        params = (from_json.node.args.posonlyargs
                  + from_json.node.args.args)
        obj_name = params[0].arg if params else None
        decode = set()
        for node in _body_walk(from_json.node):
            if isinstance(node, ast.Subscript) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == obj_name \
                    and isinstance(node.slice, ast.Constant) \
                    and isinstance(node.slice.value, str):
                decode.add(_norm(node.slice.value))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr == "get" \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id == obj_name \
                    and node.args \
                    and isinstance(node.args[0], ast.Constant) \
                    and isinstance(node.args[0].value, str):
                decode.add(_norm(node.args[0].value))
    return encode, decode


# --------------------------------------------------------------------- #
# Schema assembly + lockfile
# --------------------------------------------------------------------- #

def extract_schema(program: Program) -> Optional[dict[str, Any]]:
    """The canonical wire schema of *program*, or None when no binary
    wire module (``WIRE_VERSION`` assignment) is present.

    Shape (what the lockfile commits)::

        {"wire_version": 1,
         "binary": {"BCAST": {"encode": [...], "decode": [...]}, ...,
                    "ROW": {...}},
         "json":   {"Broadcast": {"encode": [...], "decode": [...]}, ...,
                    "ROW": {...}}}
    """
    found = _find_binary_module(program)
    if found is None:
        return None
    info, version_node = found
    version = version_node.value.value \
        if isinstance(version_node.value, ast.Constant) else None
    enc_kinds, enc_row = _binary_encode_fields(program, info.module)
    dec_kinds, _classes, dec_row = _binary_decode_fields(
        program, info.module)

    binary: dict[str, Any] = {}
    for kind in sorted(set(enc_kinds) | set(dec_kinds)):
        entry: dict[str, Any] = {}
        if kind in enc_kinds:
            entry["encode"] = enc_kinds[kind]
        if kind in dec_kinds:
            entry["decode"] = dec_kinds[kind]
        binary[kind] = entry
    if enc_row is not None or dec_row is not None:
        row_entry: dict[str, Any] = {}
        if enc_row is not None:
            row_entry["encode"] = enc_row
        if dec_row is not None:
            row_entry["decode"] = dec_row
        binary["ROW"] = row_entry

    json_plane: dict[str, Any] = {}
    encoder = _find_json_encoder(program, info.module)
    if encoder is not None:
        json_enc = _json_encode_fields(encoder)
        json_dec = _json_decode_fields(program, encoder.module)
        for cls in sorted(set(json_enc) | set(json_dec)):
            entry = {}
            if cls in json_enc:
                entry["encode"] = json_enc[cls]
            if cls in json_dec:
                entry["decode"] = sorted(json_dec[cls])
            json_plane[cls] = entry
        row_enc, row_dec = _json_row_fields(program, encoder.module)
        if row_enc is not None or row_dec is not None:
            entry = {}
            if row_enc is not None:
                entry["encode"] = row_enc
            if row_dec is not None:
                entry["decode"] = sorted(row_dec)
            json_plane["ROW"] = entry

    return {"wire_version": version, "binary": binary,
            "json": json_plane}


def lockfile_path_for(program: Program) -> Optional[str]:
    """Where the lockfile lives: next to the binary wire module."""
    found = _find_binary_module(program)
    if found is None:
        return None
    return os.path.join(os.path.dirname(found[0].path), LOCKFILE_NAME)


def regenerate_lockfile(paths: Iterable[str]) -> Optional[str]:
    """Extract the schema from *paths* and (re)write the lockfile;
    returns its path, or None when no wire module was found."""
    from .analyzer import iter_python_files
    from .astcache import default_cache
    from .policy import module_of_path

    files = []
    for file_path in iter_python_files(list(paths)):
        try:
            parsed = default_cache().parse(file_path)
        except (SyntaxError, OSError, UnicodeDecodeError):
            continue
        files.append((module_of_path(file_path), parsed))
    program = Program.build(files)
    schema = extract_schema(program)
    lock_path = lockfile_path_for(program)
    if schema is None or lock_path is None:
        return None
    with open(lock_path, "w", encoding="utf-8") as handle:
        json.dump(schema, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return lock_path


# --------------------------------------------------------------------- #
# The rule
# --------------------------------------------------------------------- #

def _fields_match(a: list[str], b: list[str]) -> bool:
    """Positional comparison; positions extracted only by arity (``?i``)
    match any name at that position."""
    if len(a) != len(b):
        return False
    return all(x == y or x.startswith("?") or y.startswith("?")
               for x, y in zip(a, b))


def _flatten(fields: Iterable[str]) -> set[str]:
    return {_BATCH_FLATTEN.get(f, f) for f in fields}


@program_rule(
    "W601",
    summary="wire-schema drift: binary/JSON planes disagree on a "
            "kind's fields, or the schema changed without a "
            "WIRE_VERSION bump against wire_schema.lock.json (mixed-"
            "version clusters mid-reshard would mis-decode)",
    example="_frame(_K_FWD, (sender, fwd.round))   "
            "# decoder unpacks sender, rnd, origin")
def check_wire_schema(pctx: ProgramContext) -> Iterable[Finding]:
    program = pctx.program
    found = _find_binary_module(program)
    if found is None:
        return
    info, version_node = found
    schema = extract_schema(program)
    assert schema is not None

    binary = schema["binary"]
    for kind in sorted(binary):
        if kind == "ROW":
            continue
        entry = binary[kind]
        enc, dec = entry.get("encode"), entry.get("decode")
        if enc is None or dec is None:
            side = "encoded" if dec is None else "decoded"
            yield pctx.finding(
                "W601", info.path, version_node,
                f"binary kind _K_{kind} is {side} but not "
                f"{'decoded' if side == 'encoded' else 'encoded'}: "
                f"one direction of the wire cannot carry it")
        elif not _fields_match(enc, dec):
            yield pctx.finding(
                "W601", info.path, version_node,
                f"binary kind _K_{kind} encodes fields ({', '.join(enc)}) "
                f"but decodes ({', '.join(dec)}): envelope tuple and "
                f"unpack disagree")
    row = binary.get("ROW", {})
    if row.get("encode") is not None and row.get("decode") is not None \
            and not _fields_match(row["encode"], row["decode"]):
        yield pctx.finding(
            "W601", info.path, version_node,
            f"binary request row encodes ({', '.join(row['encode'])}) "
            f"but decodes ({', '.join(row['decode'])})")

    json_plane = schema["json"]
    json_info = None
    encoder = _find_json_encoder(program, info.module)
    if encoder is not None:
        json_info = program.modules.get(encoder.module)
    for cls in sorted(json_plane):
        entry = json_plane[cls]
        enc, dec = entry.get("encode"), entry.get("decode")
        if enc is None or dec is None:
            continue                # helper pair absent: nothing to diff
        if set(enc) != set(dec):
            anchor = encoder.node if encoder is not None else version_node
            path = json_info.path if json_info is not None else info.path
            yield pctx.finding(
                "W601", path, anchor,
                f"JSON plane: {cls} encodes fields "
                f"({', '.join(sorted(set(enc)))}) but decodes "
                f"({', '.join(sorted(set(dec)))})")

    # Cross-plane: join binary kinds to JSON classes via the message
    # class each binary decode branch constructs.
    _dec_kinds, kind_classes, _row = _binary_decode_fields(
        program, info.module)
    for kind in sorted(kind_classes):
        cls = kind_classes[kind]
        bin_entry = binary.get(kind, {})
        json_entry = json_plane.get(cls, {})
        bin_fields = bin_entry.get("decode") or bin_entry.get("encode")
        json_fields = json_entry.get("encode") \
            or json_entry.get("decode")
        if bin_fields is None or json_fields is None:
            continue
        if any(f.startswith("?") for f in bin_fields):
            continue                # positional-only: arity checked above
        if _flatten(bin_fields) != _flatten(json_fields):
            yield pctx.finding(
                "W601", info.path, version_node,
                f"cross-plane drift for {cls}: binary _K_{kind} carries "
                f"({', '.join(sorted(_flatten(bin_fields)))}) but the "
                f"JSON plane carries "
                f"({', '.join(sorted(_flatten(json_fields)))}); every "
                f"field must ride both planes or neither")
    bin_row = binary.get("ROW", {})
    json_row = json_plane.get("ROW", {})
    if bin_row.get("encode") and json_row.get("encode") \
            and set(bin_row["encode"]) != set(json_row["encode"]):
        yield pctx.finding(
            "W601", info.path, version_node,
            f"cross-plane drift for request rows: binary carries "
            f"({', '.join(sorted(bin_row['encode']))}) but JSON carries "
            f"({', '.join(sorted(json_row['encode']))})")

    # The lockfile gate — only for the real wire module, so snippet
    # fixtures (module='repro.runtime.fixture', path under a tmp dir or
    # the repo src/) never read or demand the repository lockfile.
    if os.path.basename(info.path) != "wire.py":
        return
    lock_path = os.path.join(os.path.dirname(info.path), LOCKFILE_NAME)
    if not os.path.exists(lock_path):
        yield pctx.finding(
            "W601", info.path, version_node,
            f"no committed {LOCKFILE_NAME} next to the wire module: "
            f"run `python -m repro.lint --regen-wire-lock` and commit "
            f"the result so schema drift is diffable")
        return
    try:
        with open(lock_path, "r", encoding="utf-8") as handle:
            locked = json.load(handle)
    except (OSError, ValueError) as exc:
        yield pctx.finding(
            "W601", info.path, version_node,
            f"unreadable {LOCKFILE_NAME}: {exc}; regenerate it with "
            f"`python -m repro.lint --regen-wire-lock`")
        return
    if locked == schema:
        return
    if locked.get("wire_version") == schema["wire_version"]:
        drifted = sorted(
            set(_drift_keys(locked.get("binary", {}), binary))
            | set(_drift_keys(locked.get("json", {}), json_plane)))
        yield pctx.finding(
            "W601", info.path, version_node,
            f"wire schema drifted from {LOCKFILE_NAME} without a "
            f"WIRE_VERSION bump (changed: {', '.join(drifted) or '?'}): "
            f"mixed-version clusters would mis-decode; bump "
            f"WIRE_VERSION and run "
            f"`python -m repro.lint --regen-wire-lock`")
    else:
        yield pctx.finding(
            "W601", info.path, version_node,
            f"WIRE_VERSION is {schema['wire_version']} but "
            f"{LOCKFILE_NAME} records "
            f"{locked.get('wire_version')}: the lockfile is stale; "
            f"run `python -m repro.lint --regen-wire-lock`")


def _drift_keys(old: dict[str, Any], new: dict[str, Any]) -> list[str]:
    return [k for k in sorted(set(old) | set(new))
            if old.get(k) != new.get(k)]
