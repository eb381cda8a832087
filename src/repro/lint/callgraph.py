"""Project-wide call graph over the linted file set.

The lexical rules (D101…F401) see one function at a time, but some bug
classes are *interprocedural*: a blocking call two helpers below an
``async def``, or hash-order set iteration leaking into agreed state
through helper functions.  :class:`Program` gives the whole-program
rules (D201, A301, X501/X502, S601, W601) the structure those analyses
need:

* every module parsed once (through the shared :class:`~repro.lint.
  astcache.ASTCache`) with an import map that also resolves *relative*
  imports against the module's dotted path;
* every module-level function and every method registered under its
  qualified name (``repro.runtime.node.RuntimeNode._connect``);
* call sites resolved module-qualified (``wire.get_codec`` through
  aliases), through ``self.``/``cls.`` method lookup with base-class
  resolution, through ``self.<attr>`` / local-variable instances whose
  class is inferable (constructor assignment or annotation), and through
  the repo's ``register_backend`` registry pattern (a factory that reads
  the registry gets edges to every registered class's ``__init__``).

Resolution is deliberately conservative: a call the graph cannot resolve
is recorded with its canonical dotted name (``external``) but gets no
edge, so whole-program rules under-approximate reachability rather than
hallucinate it.  Known blind spots, accepted for a repo-policy gate:
values smuggled through containers (``self._rounds[r].method()``),
nested ``def``s, and first-class function values.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence, Union

from .astcache import ParsedFile
from .names import ImportMap, dotted_name

__all__ = ["CallSite", "FunctionInfo", "ClassInfo", "ModuleInfo", "Program",
           "AttrWrite", "attr_writes"]

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]
_FUNC_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)


class ModuleImports(ImportMap):
    """Import map that also resolves relative imports.

    ``from ..core.server import AllConcurServer`` inside
    ``repro.runtime.node`` binds ``AllConcurServer`` to
    ``repro.core.server.AllConcurServer`` — the plain :class:`ImportMap`
    skips relative imports because the lexical rules only match stdlib
    names, but the call graph needs project-internal edges.
    """

    def __init__(self, tree: ast.Module, module: str,
                 *, is_package: bool = False) -> None:
        super().__init__(tree)
        parts = module.split(".") if module else []
        package = parts if is_package else parts[:-1]
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            up = node.level - 1
            if up > len(package):
                continue            # escapes the known root: unresolvable
            anchor = package[:len(package) - up] if up else list(package)
            if node.module:
                anchor = anchor + node.module.split(".")
            if not anchor:
                continue
            base = ".".join(anchor)
            for alias in node.names:
                local = alias.asname or alias.name
                self.aliases[local] = f"{base}.{alias.name}"


@dataclass
class CallSite:
    """One call expression inside a function body."""

    node: ast.Call
    #: qualified name of the in-program callee, when resolution succeeded
    callee: Optional[str] = None
    #: canonical dotted target for out-of-program calls (``time.sleep``)
    external: Optional[str] = None


@dataclass
class FunctionInfo:
    """One module-level function or method."""

    qname: str
    module: str
    path: str
    node: FunctionNode
    class_qname: Optional[str] = None
    is_async: bool = False
    #: call sites lexically inside this function (nested defs excluded —
    #: their calls run under *their* caller)
    calls: list[CallSite] = field(default_factory=list)
    #: local name -> class qname (ctor assignments + annotations), kept
    #: for rules that need instance types at sink sites (D201)
    local_classes: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.qname.rsplit(".", 1)[-1]


@dataclass
class ClassInfo:
    """One class definition."""

    qname: str
    module: str
    node: ast.ClassDef
    #: base-class qnames resolved inside the program (external bases dropped)
    bases: list[str] = field(default_factory=list)
    #: method name -> function qname
    methods: dict[str, str] = field(default_factory=dict)
    #: ``self.<attr>`` -> class qname, from ctor assignments / annotations
    attr_classes: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.qname.rsplit(".", 1)[-1]


@dataclass
class ModuleInfo:
    """One parsed module of the program."""

    module: str
    parsed: ParsedFile
    imports: ModuleImports

    @property
    def path(self) -> str:
        return self.parsed.path

    @property
    def tree(self) -> ast.Module:
        return self.parsed.tree


def _body_walk(root: FunctionNode) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/lambdas."""
    stack: list[ast.AST] = list(root.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (*_FUNC_TYPES, ast.Lambda, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class Program:
    """The whole-program view: modules, classes, functions and call edges."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: classes registered through the ``register_backend`` pattern
        self.registered_classes: list[str] = []
        #: call node -> resolved site, for rules that start from an AST node
        self._site_by_node: dict[ast.Call, CallSite] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, files: Sequence[tuple[str, ParsedFile]]) -> "Program":
        """Build the program from ``(module, parsed_file)`` pairs."""
        program = cls()
        for module, parsed in files:
            is_package = parsed.path.replace("\\", "/").endswith(
                "/__init__.py")
            program.modules[module] = ModuleInfo(
                module=module, parsed=parsed,
                imports=ModuleImports(parsed.tree, module,
                                      is_package=is_package))
        for info in program.modules.values():
            program._collect_definitions(info)
        for info in program.modules.values():
            program._resolve_bases(info)
        for info in program.modules.values():
            program._collect_class_attrs(info)
        for info in program.modules.values():
            program._resolve_calls(info)
        program._collect_registry()
        return program

    def _collect_definitions(self, info: ModuleInfo) -> None:
        for node in info.tree.body:
            if isinstance(node, _FUNC_TYPES):
                self._add_function(info, node, class_qname=None)
            elif isinstance(node, ast.ClassDef):
                cls_qname = f"{info.module}.{node.name}"
                self.classes[cls_qname] = ClassInfo(
                    qname=cls_qname, module=info.module, node=node)
                for item in node.body:
                    if isinstance(item, _FUNC_TYPES):
                        fn = self._add_function(info, item,
                                                class_qname=cls_qname)
                        self.classes[cls_qname].methods[item.name] = fn.qname

    def _add_function(self, info: ModuleInfo, node: FunctionNode,
                      *, class_qname: Optional[str]) -> FunctionInfo:
        scope = class_qname or info.module
        fn = FunctionInfo(
            qname=f"{scope}.{node.name}", module=info.module,
            path=info.path, node=node, class_qname=class_qname,
            is_async=isinstance(node, ast.AsyncFunctionDef))
        self.functions[fn.qname] = fn
        return fn

    def _resolve_bases(self, info: ModuleInfo) -> None:
        for cls_qname, cls in self.classes.items():
            if cls.module != info.module:
                continue
            for base in cls.node.bases:
                resolved = self._resolve_class_expr(base, info)
                if resolved is not None:
                    cls.bases.append(resolved)

    def _resolve_class_expr(self, node: ast.AST,
                            info: ModuleInfo) -> Optional[str]:
        """Class qname for a Name/Attribute expression, if in-program."""
        name = dotted_name(node)
        if name is None:
            return None
        return self._lookup_class(name, info)

    def _lookup_class(self, name: str, info: ModuleInfo) -> Optional[str]:
        local = f"{info.module}.{name}"
        if local in self.classes:
            return local
        resolved = info.imports.resolve(name)
        if resolved in self.classes:
            return resolved
        return None

    def _collect_class_attrs(self, info: ModuleInfo) -> None:
        """Infer ``self.<attr>`` classes from assignments/annotations in
        every method of every class of *info* (flow-insensitive union;
        a conflicting re-assignment drops the inference)."""
        for cls in self.classes.values():
            if cls.module != info.module:
                continue
            seen: dict[str, Optional[str]] = {}
            for method_qname in cls.methods.values():
                method = self.functions[method_qname]
                for node in _body_walk(method.node):
                    attr: Optional[str] = None
                    inferred: Optional[str] = None
                    if isinstance(node, ast.Assign):
                        for target in node.targets:
                            if self._is_self_attr(target):
                                attr = target.attr  # type: ignore[union-attr]
                                inferred = self._instance_class(
                                    node.value, info)
                    elif isinstance(node, ast.AnnAssign) \
                            and self._is_self_attr(node.target):
                        attr = node.target.attr  # type: ignore[union-attr]
                        inferred = self._resolve_class_expr(
                            _strip_annotation(node.annotation), info)
                        if inferred is None and node.value is not None:
                            inferred = self._instance_class(node.value, info)
                    if attr is None:
                        continue
                    if attr in seen and seen[attr] != inferred:
                        seen[attr] = None       # conflicting: unknown
                    else:
                        seen[attr] = inferred
            cls.attr_classes = {a: c for a, c in seen.items()
                                if c is not None}

    @staticmethod
    def _is_self_attr(node: ast.AST) -> bool:
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self")

    def _instance_class(self, value: ast.AST,
                        info: ModuleInfo) -> Optional[str]:
        """Class qname when *value* constructs an in-program instance:
        ``C(...)`` or the ``C.create(...)`` classmethod-factory idiom."""
        if not isinstance(value, ast.Call):
            return None
        name = dotted_name(value.func)
        if name is None:
            return None
        direct = self._lookup_class(name, info)
        if direct is not None:
            return direct
        if "." in name:
            head, _, method = name.rpartition(".")
            owner = self._lookup_class(head, info)
            if owner is not None and method in ("create", "of", "initial",
                                                "from_json"):
                return owner
        return None

    # ------------------------------------------------------------------ #
    # Call resolution
    # ------------------------------------------------------------------ #
    def _resolve_calls(self, info: ModuleInfo) -> None:
        for fn in self.functions.values():
            if fn.module != info.module:
                continue
            local_classes = self._local_instances(fn, info)
            fn.local_classes = local_classes
            for node in _body_walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                site = self._resolve_call(node, fn, info, local_classes)
                fn.calls.append(site)
                self._site_by_node[node] = site

    def _local_instances(self, fn: FunctionInfo,
                         info: ModuleInfo) -> dict[str, str]:
        """Local name -> class qname (ctor assignments + annotations)."""
        out: dict[str, str] = {}
        args = fn.node.args
        for arg in (args.posonlyargs + args.args + args.kwonlyargs):
            if arg.annotation is not None:
                resolved = self._resolve_class_expr(
                    _strip_annotation(arg.annotation), info)
                if resolved is not None:
                    out[arg.arg] = resolved
        for node in _body_walk(fn.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                inferred = self._instance_class(node.value, info)
                if inferred is not None:
                    out[node.targets[0].id] = inferred
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                inferred = self._resolve_class_expr(
                    _strip_annotation(node.annotation), info)
                if inferred is not None:
                    out[node.target.id] = inferred
        return out

    def _resolve_call(self, node: ast.Call, fn: FunctionInfo,
                      info: ModuleInfo,
                      local_classes: dict[str, str]) -> CallSite:
        name = dotted_name(node.func)
        if name is None:
            return CallSite(node=node)
        parts = name.split(".")

        # self.method() / self.attr.method() / cls.method()
        if parts[0] in ("self", "cls") and fn.class_qname is not None:
            if len(parts) == 2:
                target = self.resolve_method(fn.class_qname, parts[1])
                if target is not None:
                    return CallSite(node=node, callee=target)
            elif len(parts) == 3:
                owner = self.classes[fn.class_qname].attr_classes.get(
                    parts[1])
                if owner is not None:
                    target = self.resolve_method(owner, parts[2])
                    if target is not None:
                        return CallSite(node=node, callee=target)
            return CallSite(node=node)

        # local-variable instance: x = C(...); x.method()
        if len(parts) == 2 and parts[0] in local_classes:
            target = self.resolve_method(local_classes[parts[0]], parts[1])
            if target is not None:
                return CallSite(node=node, callee=target)

        # bare name: module-level function or class constructor
        if len(parts) == 1:
            local_fn = f"{info.module}.{name}"
            if local_fn in self.functions:
                return CallSite(node=node, callee=local_fn)
            cls_qname = self._lookup_class(name, info)
            if cls_qname is not None:
                init = self.resolve_method(cls_qname, "__init__")
                return CallSite(node=node, callee=init,
                                external=None if init else cls_qname)

        # dotted name through the import map
        resolved = info.imports.resolve(name)
        if resolved in self.functions:
            return CallSite(node=node, callee=resolved)
        if resolved in self.classes:
            init = self.resolve_method(resolved, "__init__")
            if init is not None:
                return CallSite(node=node, callee=init)
            return CallSite(node=node, external=resolved)
        # Class.method(...) (classmethods / explicit base calls)
        head, _, tail = resolved.rpartition(".")
        if head in self.classes:
            target = self.resolve_method(head, tail)
            if target is not None:
                return CallSite(node=node, callee=target)
        cls_qname = self._lookup_class(parts[0], info)
        if cls_qname is not None and len(parts) == 2:
            target = self.resolve_method(cls_qname, parts[1])
            if target is not None:
                return CallSite(node=node, callee=target)
        return CallSite(node=node, external=resolved)

    def resolve_method(self, cls_qname: str,
                       method: str) -> Optional[str]:
        """Method qname via the class then its in-program bases (BFS)."""
        queue = [cls_qname]
        seen = set(queue)
        while queue:
            current = queue.pop(0)
            cls = self.classes.get(current)
            if cls is None:
                continue
            target = cls.methods.get(method)
            if target is not None:
                return target
            for base in cls.bases:
                if base not in seen:
                    seen.add(base)
                    queue.append(base)
        return None

    # ------------------------------------------------------------------ #
    # Registry pattern
    # ------------------------------------------------------------------ #
    def _collect_registry(self) -> None:
        """``register_backend(name, Cls)`` registrations, and edges from
        factory call sites (``create_deployment``/``backend_class``) to
        every registered class's ``__init__`` — calls routed through the
        registry are otherwise invisible to static resolution."""
        registered: list[str] = []
        for fn in self.functions.values():
            info = self.modules[fn.module]
            for site in fn.calls:
                name = dotted_name(site.node.func)
                if name is None \
                        or name.rsplit(".", 1)[-1] != "register_backend":
                    continue
                args = list(site.node.args) + [
                    kw.value for kw in site.node.keywords]
                for arg in args:
                    resolved = self._resolve_class_expr(arg, info)
                    if resolved is not None:
                        registered.append(resolved)
        self.registered_classes = sorted(set(registered))
        if not self.registered_classes:
            return
        inits = [init for cls in self.registered_classes
                 if (init := self.resolve_method(cls, "__init__"))]
        for fn in self.functions.values():
            extra: list[CallSite] = []
            for site in fn.calls:
                name = dotted_name(site.node.func)
                if name is None:
                    continue
                if name.rsplit(".", 1)[-1] in ("create_deployment",
                                               "backend_class"):
                    for init in inits:
                        extra.append(CallSite(node=site.node, callee=init))
            fn.calls.extend(extra)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def site_for(self, node: ast.Call) -> Optional[CallSite]:
        return self._site_by_node.get(node)

    def callees(self, qname: str) -> Iterator[tuple[CallSite, str]]:
        fn = self.functions.get(qname)
        if fn is None:
            return
        for site in fn.calls:
            if site.callee is not None:
                yield site, site.callee

    def find_chain(self, start: str,
                   matches: Callable[[FunctionInfo], bool],
                   *, include_start: bool = True) -> Optional[list[str]]:
        """Shortest call chain ``[start, .., f]`` with ``matches(f)`` true.

        BFS over resolved call edges; deterministic (edges are visited in
        definition order).  Returns None when nothing matches.
        """
        if include_start:
            fn = self.functions.get(start)
            if fn is not None and matches(fn):
                return [start]
        queue: list[list[str]] = [[start]]
        seen = {start}
        while queue:
            path = queue.pop(0)
            for _site, callee in self.callees(path[-1]):
                if callee in seen:
                    continue
                seen.add(callee)
                fn = self.functions.get(callee)
                new_path = path + [callee]
                if fn is not None and matches(fn):
                    return new_path
                queue.append(new_path)
        return None


def _strip_annotation(node: ast.expr) -> ast.expr:
    """``Optional[C]`` / ``"C"`` / ``C`` -> the expression naming C."""
    if isinstance(node, ast.Subscript):
        name = dotted_name(node.value)
        if name in ("Optional", "typing.Optional"):
            return _strip_annotation(node.slice)  # type: ignore[arg-type]
        return node.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            parsed = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return node
        return _strip_annotation(parsed)
    return node


def single_file_program(parsed: ParsedFile, module: str) -> Program:
    """A one-module program (fixture tests lint snippets in isolation)."""
    return Program.build([(module, parsed)])


# --------------------------------------------------------------------- #
# Instance-attribute write summaries (S601 snapshot coverage)
# --------------------------------------------------------------------- #

#: method names whose call mutates the receiver in place — enough to
#: cover dict/set/list/deque plus the repo's own mutator verbs
#: (``_DedupTable.add``, ``StateMachine.apply``)
_MUTATOR_METHODS = frozenset({
    "add", "append", "appendleft", "apply", "clear", "discard", "extend",
    "insert", "pop", "popleft", "popitem", "push", "put_nowait", "remove",
    "setdefault", "sort", "update",
})


@dataclass(frozen=True)
class AttrWrite:
    """One ``self.<attr>`` mutation site inside a function body."""

    attr: str
    #: the statement/call node the mutation happens at (finding anchor)
    node: ast.AST


def _self_attr(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self":
        return node.attr
    return None


def _mutation_root(expr: ast.AST,
                   aliases: dict[str, str]) -> Optional[str]:
    """The ``self`` attribute ultimately mutated when *expr* — the object
    being subscripted / attributed / method-called — is stored through:
    ``self.X`` directly, a local alias of it (``a = self.X``), or any
    subscript/attribute chain rooted at either."""
    direct = _self_attr(expr)
    if direct is not None:
        return direct
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    if isinstance(expr, (ast.Subscript, ast.Attribute)):
        return _mutation_root(expr.value, aliases)
    return None


def _target_writes(target: ast.AST, aliases: dict[str, str],
                   *, is_delete: bool = False) -> Iterator[str]:
    """Attributes a store (or delete) target mutates.  A bare local name
    rebinds the local, mutating nothing."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_writes(elt, aliases, is_delete=is_delete)
        return
    if isinstance(target, ast.Starred):
        yield from _target_writes(target.value, aliases,
                                  is_delete=is_delete)
        return
    direct = _self_attr(target)
    if direct is not None:
        yield direct                  # self.X = ... / del self.X
        return
    if isinstance(target, (ast.Subscript, ast.Attribute)):
        root = _mutation_root(target.value, aliases)
        if root is not None:
            yield root                # self.X[k] = / a.field = (a = self.X)


def attr_writes(fn: FunctionInfo) -> list[AttrWrite]:
    """Every ``self.<attr>`` mutation lexically inside *fn*.

    Covers direct assignment/deletion, subscript and attribute stores
    rooted at the attribute, in-place mutator method calls
    (``self.X.add(k)``), and the same forms through single-name local
    aliases (``applied = self._applied[pid]; applied.add(key)`` — the
    exact shape of ``ReplicatedStateMachine._on_node_deliver``).  Alias
    collection is flow-insensitive; unresolvable mutations are dropped,
    so callers under-approximate (consistent with the call graph)."""
    aliases: dict[str, str] = {}
    for _ in range(2):                # converge alias-of-alias chains
        for node in _body_walk(fn.node):
            if not isinstance(node, ast.Assign):
                continue
            root = _mutation_root(node.value, aliases)
            if root is None:
                # `a = self.X = value`: the self-attr target aliases too
                for target in node.targets:
                    sub = _mutation_root(target, aliases)
                    if sub is not None:
                        root = sub
                        break
            if root is not None:
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        aliases[target.id] = root
    writes: list[AttrWrite] = []
    for node in _body_walk(fn.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for attr in _target_writes(target, aliases):
                    writes.append(AttrWrite(attr=attr, node=node))
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if isinstance(node, ast.AnnAssign) and node.value is None:
                continue              # bare annotation: no store
            for attr in _target_writes(node.target, aliases):
                writes.append(AttrWrite(attr=attr, node=node))
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                for attr in _target_writes(target, aliases,
                                           is_delete=True):
                    writes.append(AttrWrite(attr=attr, node=node))
        elif isinstance(node, ast.Call) \
                and isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATOR_METHODS:
            root = _mutation_root(node.func.value, aliases)
            if root is not None:
                writes.append(AttrWrite(attr=root, node=node))
    return writes
