"""Whole-program dataflow rules: D201 and A301.

Both rules walk the :class:`~repro.lint.callgraph.Program` built by
the analyzer, which is what separates them from their lexical cousins:

* **D201** is a conservative taint analysis.  *Sources* are the same
  non-determinism primitives D101–D103 match (wall clock, OS entropy,
  the process-global RNG, ``id()``) plus interprocedural set-order
  escapes (``list(f())`` where ``f`` returns a set — the shape D104's
  per-scope inference provably cannot see).  Taint propagates through
  assignments, arbitrary expressions, and calls via per-function
  summaries iterated to a fixpoint: a callee's return carries its
  ``ret_sources`` back to the caller, and a callee that stores a
  parameter into agreed state (``params_to_sink``) turns every call
  passing it a tainted argument into a finding.  *Sinks* are the places
  a value becomes agreed state: the return of a ``StateMachine.apply``
  method, ``RoundContext`` field stores and constructor arguments, and
  wire envelope constructors (``Broadcast``/``Request``/…).  A finding
  means "this run-dependent value ends up in state every server must
  agree on byte-for-byte".

* **A301** finds ``async def`` functions that *reach* a blocking
  primitive (A202's table) through any resolved call chain — A202 keeps
  the direct, in-function case; A301 reports at the call site that
  enters the chain, naming it.

Taint and reachability both under-approximate where the call graph
does (unresolved calls get no edges), so every finding is actionable.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .callgraph import FunctionInfo, CallSite, Program, _body_walk
from .findings import Finding
from .names import dotted_name
from .registry import ProgramContext, program_rule
from .rules_asyncio import _BLOCKING, _BLOCKING_BUILTINS
from .rules_determinism import _ENTROPY, _SEEDED_RNG, _WALL_CLOCK

__all__ = ["FunctionSummary", "TaintEngine", "attrs_into_return"]

#: wire/effect envelope constructors — positional or keyword payloads
#: of these become bytes every server must decode identically
_ENVELOPE_CLASSES = frozenset({
    "Request", "Batch", "Broadcast", "FailureNotice", "Forward",
    "Backward", "Send", "Deliver",
})

#: classes whose fields are agreed per-round state
_ROUND_STATE_CLASSES = frozenset({"RoundContext"})

_SET_CTORS = frozenset({"set", "frozenset"})
#: wrappers that freeze arbitrary set order into a sequence
_ORDER_FREEZERS = frozenset({"list", "tuple"})


# --------------------------------------------------------------------- #
# Return flow (S601: which attributes a snapshot actually captures)
# --------------------------------------------------------------------- #

def attrs_into_return(fn: FunctionInfo) -> set[str]:
    """``self.<attr>`` names whose values can flow into *fn*'s return.

    Lexical + local forward flow: a ``self.X`` read directly inside a
    ``return`` expression counts, and so does one routed through locals
    (``top = max(self.heights.values()); return {..: top}``) — iterated a
    few passes so short chains converge, exactly like the taint
    environments.  Over-approximates (any read of a carried local counts),
    which is the safe direction for a completeness check: an attribute is
    only reported *missing* when no read can reach the return."""
    carried: dict[str, set[str]] = {}

    def attrs_in(expr: ast.expr) -> set[str]:
        out: set[str] = set()
        for node in ast.walk(expr):
            if isinstance(node, ast.Attribute) \
                    and isinstance(node.value, ast.Name) \
                    and node.value.id == "self":
                out.add(node.attr)
            elif isinstance(node, ast.Name) and node.id in carried:
                out |= carried[node.id]
        return out

    bindings: list[tuple[tuple[str, ...], ast.expr]] = []
    returns: list[ast.expr] = []
    for node in _body_walk(fn.node):
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if node.value is not None:
                targets, value = [node.target], node.value
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets, value = [node.target], node.iter
        elif isinstance(node, ast.Return) and node.value is not None:
            returns.append(node.value)
        if value is None:
            continue
        binds = tuple(n for t in targets for n in _binding_names(t))
        if binds:
            bindings.append((binds, value))

    for _ in range(3):              # converge short assignment chains
        for binds, value in bindings:
            attrs = attrs_in(value)
            if attrs:
                for name in binds:
                    carried.setdefault(name, set()).update(attrs)

    captured: set[str] = set()
    for value in returns:
        captured |= attrs_in(value)
    return captured


# --------------------------------------------------------------------- #
# Sink sites (shared by the taint engine and the D201 reporter)
# --------------------------------------------------------------------- #

@dataclass
class SinkSite:
    """One place inside a function where a value becomes agreed state."""

    node: ast.AST                 #: node the finding anchors to
    exprs: tuple[ast.expr, ...]   #: the value expression(s) flowing in
    describe: str                 #: "stored into RoundContext.known" …


def _class_name_of(qname: Optional[str],
                   program: Program) -> Optional[str]:
    if qname is None:
        return None
    cls = program.classes.get(qname)
    return cls.name if cls is not None else None


def _attr_target_class(target: ast.Attribute, fn: FunctionInfo,
                       program: Program) -> Optional[str]:
    """Simple class name of the object a ``x.field = ...`` store hits."""
    base = target.value
    if isinstance(base, ast.Name):
        if base.id in ("self", "cls") and fn.class_qname is not None:
            return _class_name_of(fn.class_qname, program)
        return _class_name_of(fn.local_classes.get(base.id), program)
    if isinstance(base, ast.Attribute) \
            and isinstance(base.value, ast.Name) \
            and base.value.id == "self" and fn.class_qname is not None:
        cls = program.classes.get(fn.class_qname)
        if cls is not None:
            return _class_name_of(cls.attr_classes.get(base.attr),
                                  program)
    return None


def state_sinks(fn: FunctionInfo, program: Program) -> Iterator[SinkSite]:
    """Agreed-state sinks lexically inside *fn* (not counting calls to
    other sink-reaching functions — the engine handles those)."""
    for node in _body_walk(fn.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if not isinstance(target, ast.Attribute):
                    continue
                cls_name = _attr_target_class(target, fn, program)
                if cls_name in _ROUND_STATE_CLASSES:
                    yield SinkSite(
                        node=node, exprs=(node.value,),
                        describe=f"stored into {cls_name}."
                                 f"{target.attr} (round state must be "
                                 f"identical on every server)")
        elif isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                continue
            ctor = name.rsplit(".", 1)[-1]
            if ctor not in _ENVELOPE_CLASSES \
                    and ctor not in _ROUND_STATE_CLASSES:
                continue
            args = tuple(node.args) + tuple(
                kw.value for kw in node.keywords)
            if args:
                yield SinkSite(
                    node=node, exprs=args,
                    describe=f"passed to {ctor}(...) (envelope/round "
                             f"payloads are agreed state)")


def _is_apply_sink(fn: FunctionInfo, program: Program) -> bool:
    """True for ``apply`` methods of StateMachine-shaped classes (the
    class also defines ``snapshot`` — the repo's replicated-SM shape)."""
    if fn.name != "apply" or fn.class_qname is None:
        return False
    cls = program.classes.get(fn.class_qname)
    return cls is not None and "snapshot" in cls.methods


# --------------------------------------------------------------------- #
# Function summaries + taint evaluation
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class FunctionSummary:
    """What a caller needs to know about a callee, from its body alone."""

    #: source labels that reach the function's return value
    ret_sources: frozenset[str] = frozenset()
    #: True when the return value is (or may be) a set/frozenset
    returns_set: bool = False
    #: True when a parameter's value can reach an agreed-state sink
    #: inside this function or anything it calls
    params_to_sink: bool = False


def _direct_source(site: CallSite) -> Optional[str]:
    """Source label when *site* is a non-determinism primitive itself."""
    name = site.external
    if name is None:
        return None
    if name in _WALL_CLOCK:
        return name
    if name in _ENTROPY or name.startswith("secrets."):
        return name
    if name.startswith("random.") and name not in _SEEDED_RNG:
        return name
    return None


def _is_id_call(node: ast.Call) -> bool:
    return (isinstance(node.func, ast.Name) and node.func.id == "id"
            and len(node.args) == 1)


def _binding_names(target: ast.expr) -> Iterator[str]:
    """Local names an assignment target actually binds.  Attribute and
    subscript targets bind nothing locally — and a subscript *index*
    (``self._seen[key] = tainted``) must not taint ``key``."""
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _binding_names(elt)
    elif isinstance(target, ast.Starred):
        yield from _binding_names(target.value)


def _param_names(fn: FunctionInfo) -> set[str]:
    args = fn.node.args
    names = {a.arg for a in (args.posonlyargs + args.args
                             + args.kwonlyargs)}
    names.discard("self")
    names.discard("cls")
    return names


@dataclass
class _ExprFacts:
    """One expression, pre-walked: the names and calls taint can enter
    through.  Built once so the fixpoint never re-walks an AST."""

    expr: ast.expr
    names: tuple[str, ...]
    calls: tuple[ast.Call, ...]


def _expr_facts(expr: ast.expr) -> _ExprFacts:
    names: list[str] = []
    calls: list[ast.Call] = []
    for node in ast.walk(expr):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Call):
            calls.append(node)
    return _ExprFacts(expr=expr, names=tuple(names), calls=tuple(calls))


@dataclass
class _StmtFacts:
    """One binding statement (assign / for-target)."""

    binds: tuple[str, ...]
    value: _ExprFacts


@dataclass
class _FnFacts:
    """Everything the engine revisits per fixpoint round, walked once."""

    stmts: tuple[_StmtFacts, ...]
    returns: tuple[_ExprFacts, ...]
    sinks: tuple[tuple[SinkSite, tuple[_ExprFacts, ...]], ...]
    #: resolved call sites with per-argument facts (for params_to_sink
    #: propagation and the D201 call-argument sink)
    call_args: tuple[tuple[CallSite, tuple[_ExprFacts, ...]], ...]


def _build_facts(fn: FunctionInfo, program: Program) -> _FnFacts:
    stmts: list[_StmtFacts] = []
    returns: list[_ExprFacts] = []
    for node in _body_walk(fn.node):
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            if node.value is not None:
                targets, value = [node.target], node.value
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets, value = [node.target], node.iter
        elif isinstance(node, ast.Return) and node.value is not None:
            returns.append(_expr_facts(node.value))
        if value is None:
            continue
        binds = tuple(n for t in targets for n in _binding_names(t))
        if binds:
            stmts.append(_StmtFacts(binds=binds,
                                    value=_expr_facts(value)))
    sinks = tuple(
        (sink, tuple(_expr_facts(e) for e in sink.exprs))
        for sink in state_sinks(fn, program))
    call_args = tuple(
        (site, tuple(_expr_facts(a) for a in (
            list(site.node.args)
            + [kw.value for kw in site.node.keywords])))
        for site in fn.calls if site.callee is not None)
    return _FnFacts(stmts=tuple(stmts), returns=tuple(returns),
                    sinks=sinks, call_args=call_args)


class TaintEngine:
    """Per-function taint environments over whole-program summaries.

    Flow-insensitive on purpose: an environment maps each local name to
    the union of source labels any assignment gives it, iterated a few
    passes so chains (``a = t(); b = a``) converge.  Summaries are then
    driven to a fixpoint across the *program* with a worklist (a changed
    callee re-queues only its callers), so taint crosses call boundaries
    in both directions (return values out, arguments in).  The transfer
    function is monotone — summaries only grow — so the worklist
    terminates.
    """

    def __init__(self, program: Program) -> None:
        self.program = program
        self.summaries: dict[str, FunctionSummary] = {
            q: FunctionSummary() for q in program.functions}
        self._facts: dict[str, _FnFacts] = {
            q: _build_facts(fn, program)
            for q, fn in program.functions.items()}
        self._envs: dict[str, dict[str, set[str]]] = {}
        self._set_names: dict[str, set[str]] = {}
        self._fixpoint()

    # -- expression evaluation ---------------------------------------- #
    def _call_taint(self, node: ast.Call,
                    set_names: set[str]) -> set[str]:
        """Taint introduced *by the call itself* (args are walked by the
        generic expression walk, so only the return matters here)."""
        out: set[str] = set()
        site = self.program.site_for(node)
        if site is not None:
            label = _direct_source(site)
            if label is not None:
                out.add(label)
            if site.callee is not None:
                out |= self.summaries[site.callee].ret_sources
        if _is_id_call(node):
            out.add("id()")
        # list(f())/tuple(f()) over a set-returning callee: the wrapper
        # freezes hash order into a sequence — the interprocedural shape
        # D104 cannot see (sorted(f()) stays clean).
        if isinstance(node.func, ast.Name) \
                and node.func.id in _ORDER_FREEZERS \
                and len(node.args) == 1 \
                and self._expr_is_set(node.args[0], set_names):
            out.add(f"set-order[{node.func.id}() over a set]")
        return out

    def eval_expr(self, expr: ast.expr, env: dict[str, set[str]],
                  set_names: set[str]) -> set[str]:
        """Union of source labels reachable anywhere inside *expr*."""
        return self._eval_facts(_expr_facts(expr), env, set_names)

    def _eval_facts(self, facts: _ExprFacts, env: dict[str, set[str]],
                    set_names: set[str]) -> set[str]:
        out: set[str] = set()
        for name in facts.names:
            got = env.get(name)
            if got:
                out |= got
        for call in facts.calls:
            out |= self._call_taint(call, set_names)
        return out

    def _expr_is_set(self, expr: ast.expr, set_names: set[str]) -> bool:
        """Set-ness of *expr*, through call summaries (``returns_set``)."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) \
                    and expr.func.id in _SET_CTORS:
                return True
            site = self.program.site_for(expr)
            if site is not None and site.callee is not None:
                return self.summaries[site.callee].returns_set
            return False
        if isinstance(expr, ast.Name):
            return expr.id in set_names
        if isinstance(expr, ast.BinOp) and isinstance(
                expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self._expr_is_set(expr.left, set_names) \
                or self._expr_is_set(expr.right, set_names)
        return False

    # -- per-function environment ------------------------------------- #
    def _build_env(
        self, fn: FunctionInfo,
    ) -> tuple[dict[str, set[str]], set[str], set[str]]:
        """Taint env, set-typed names, and param-derived names for *fn*."""
        facts = self._facts[fn.qname]
        env: dict[str, set[str]] = {}
        set_names: set[str] = set()
        derived: set[str] = set(_param_names(fn))
        for _ in range(3):          # converge short assignment chains
            for stmt in facts.stmts:
                taint = self._eval_facts(stmt.value, env, set_names)
                is_set = self._expr_is_set(stmt.value.expr, set_names)
                from_param = any(n in derived for n in stmt.value.names)
                for name in stmt.binds:
                    if taint:
                        env.setdefault(name, set()).update(taint)
                    if is_set:
                        set_names.add(name)
                    if from_param:
                        derived.add(name)
        return env, set_names, derived

    def _summarise(self, fn: FunctionInfo) -> FunctionSummary:
        env, set_names, derived = self._build_env(fn)
        self._envs[fn.qname] = env
        self._set_names[fn.qname] = set_names
        facts = self._facts[fn.qname]

        def from_param(expr_facts: _ExprFacts) -> bool:
            return any(n in derived for n in expr_facts.names)

        ret_sources: set[str] = set()
        returns_set = False
        for ret in facts.returns:
            ret_sources |= self._eval_facts(ret, env, set_names)
            returns_set = returns_set \
                or self._expr_is_set(ret.expr, set_names)

        params_to_sink = any(
            from_param(expr_facts)
            for _sink, sink_facts in facts.sinks
            for expr_facts in sink_facts)
        if not params_to_sink:
            # transitively: a param forwarded to a callee that sinks it
            for site, arg_facts in facts.call_args:
                if site.callee is None \
                        or not self.summaries[site.callee].params_to_sink:
                    continue
                if any(from_param(a) for a in arg_facts):
                    params_to_sink = True
                    break
        return FunctionSummary(ret_sources=frozenset(ret_sources),
                               returns_set=returns_set,
                               params_to_sink=params_to_sink)

    def _fixpoint(self) -> None:
        callers_of: dict[str, set[str]] = {
            q: set() for q in self.program.functions}
        for qname, fn in self.program.functions.items():
            for site in fn.calls:
                if site.callee is not None:
                    callers_of.setdefault(site.callee, set()).add(qname)
        pending = list(sorted(self.program.functions))
        queued = set(pending)
        while pending:
            qname = pending.pop()
            queued.discard(qname)
            new = self._summarise(self.program.functions[qname])
            if new == self.summaries[qname]:
                continue
            self.summaries[qname] = new
            for caller in sorted(callers_of.get(qname, ())):
                if caller not in queued:
                    queued.add(caller)
                    pending.append(caller)
        # No final sweep needed: a caller is re-summarised (env rebuilt)
        # whenever any callee's summary changes, so at convergence every
        # cached environment reflects the converged summaries.

    def facts_of(self, fn: FunctionInfo) -> _FnFacts:
        return self._facts[fn.qname]

    def env_of(self, fn: FunctionInfo) -> dict[str, set[str]]:
        return self._envs.get(fn.qname, {})

    def set_names_of(self, fn: FunctionInfo) -> set[str]:
        return self._set_names.get(fn.qname, set())


# --------------------------------------------------------------------- #
# D201: determinism taint into agreed state
# --------------------------------------------------------------------- #

def _fmt_sources(sources: set[str]) -> str:
    return ", ".join(sorted(sources))


@program_rule(
    "D201",
    summary="run-dependent value (wall clock / entropy / id() / "
            "set-iteration order, through any call chain) flows into "
            "agreed state: StateMachine.apply results, RoundContext "
            "fields, or wire envelope payloads",
    example="Broadcast(o, sn, payload=str(time.time()).encode())")
def check_determinism_taint(pctx: ProgramContext) -> Iterable[Finding]:
    program = pctx.program
    engine = TaintEngine(program)
    for fn in program.functions.values():
        env = engine.env_of(fn)
        set_names = engine.set_names_of(fn)
        facts = engine.facts_of(fn)

        # sink: StateMachine.apply return value
        if _is_apply_sink(fn, program):
            for node in _body_walk(fn.node):
                if not isinstance(node, ast.Return) \
                        or node.value is None:
                    continue
                sources = engine.eval_expr(node.value, env, set_names)
                if sources:
                    yield pctx.finding(
                        "D201", fn.path, node,
                        f"value derived from {_fmt_sources(sources)} "
                        f"returned from {fn.qname}(): apply() results "
                        f"are agreed state and must be a pure function "
                        f"of the delivered command")

        # sinks: RoundContext stores + envelope/RoundContext ctor args
        for sink, sink_facts in facts.sinks:
            sources = set()
            for expr_facts in sink_facts:
                sources |= engine._eval_facts(expr_facts, env, set_names)
            if sources:
                yield pctx.finding(
                    "D201", fn.path, sink.node,
                    f"value derived from {_fmt_sources(sources)} "
                    f"{sink.describe}")

        # sink via call: tainted argument to a function that stores a
        # parameter into agreed state somewhere down its call chain
        for site, arg_facts in facts.call_args:
            if site.callee is None \
                    or not engine.summaries[site.callee].params_to_sink:
                continue
            sources = set()
            for expr_facts in arg_facts:
                sources |= engine._eval_facts(expr_facts, env, set_names)
            if sources:
                callee = program.functions[site.callee]
                yield pctx.finding(
                    "D201", fn.path, site.node,
                    f"value derived from {_fmt_sources(sources)} "
                    f"passed to {callee.qname}(), which stores a "
                    f"parameter into agreed state (RoundContext field "
                    f"or envelope payload) down its call chain")


# --------------------------------------------------------------------- #
# A301: transitive blocking from async def
# --------------------------------------------------------------------- #

def _direct_blocking(fn: FunctionInfo) -> Optional[str]:
    """Label of a blocking primitive *fn* calls directly, else None."""
    for site in fn.calls:
        if site.callee is not None or site.external is None:
            continue
        if site.external in _BLOCKING \
                or site.external in _BLOCKING_BUILTINS:
            return site.external
    return None


def _reaches(program: Program, predicate: "object") -> set[str]:
    """Qnames from which a *predicate*-satisfying function is reachable
    over call edges (including the satisfying functions themselves).
    One reverse BFS instead of a forward search per call site."""
    callers_of: dict[str, set[str]] = {}
    for qname, fn in program.functions.items():
        for site in fn.calls:
            if site.callee is not None:
                callers_of.setdefault(site.callee, set()).add(qname)
    frontier = [q for q, fn in program.functions.items()
                if predicate(fn)]
    reached = set(frontier)
    while frontier:
        for caller in callers_of.get(frontier.pop(), ()):
            if caller not in reached:
                reached.add(caller)
                frontier.append(caller)
    return reached


def _fmt_chain(chain: list[str], program: Program) -> str:
    def short(qname: str) -> str:
        fn = program.functions.get(qname)
        if fn is None or fn.class_qname is None:
            return qname.rsplit(".", 1)[-1]
        return ".".join(qname.rsplit(".", 2)[-2:])
    return " -> ".join(short(q) for q in chain)


@program_rule(
    "A301",
    summary="async def reaches a blocking primitive through a call "
            "chain (A202 catches the direct call; this catches it any "
            "number of helpers deep)",
    example="async def pump(self): self._helper()   "
            "# _helper() -> time.sleep(1)")
def check_transitive_blocking(pctx: ProgramContext) -> Iterable[Finding]:
    program = pctx.program
    blocking_reach = _reaches(
        program, lambda f: _direct_blocking(f) is not None)
    for fn in program.functions.values():
        if not fn.is_async:
            continue
        for site in fn.calls:
            if site.callee is None or site.callee not in blocking_reach:
                continue
            chain = program.find_chain(
                site.callee, lambda f: _direct_blocking(f) is not None)
            if chain is None:       # pragma: no cover — reach implies it
                continue
            label = _direct_blocking(program.functions[chain[-1]])
            yield pctx.finding(
                "A301", fn.path, site.node,
                f"async def {fn.name}() reaches blocking {label}() via "
                f"{_fmt_chain(chain, program)}: the event loop stalls "
                f"for the full call; use the asyncio equivalent at the "
                f"leaf")

