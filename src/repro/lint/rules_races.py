"""R701: cross-thread races between the event loop and the facade.

The blocking deployment facade (``TcpDeployment`` driving a loop with
``run_until_complete``, ``ProcessCluster``'s control channel) and the
asyncio runtime share objects: public **sync** methods are entry points
a non-loop thread may call while coroutines are live.  An instance
attribute written on both sides without a common lock is a data race —
the static generalisation of the PR 6 ``_connect`` hazard (the facade's
``mark_down`` popping a writer the loop-side sender was using).

Side classification, per function:

* **loop side** — every ``async def`` and every method of an
  ``asyncio`` protocol class (``data_received`` & co. are called by the
  event loop, by contract), plus every sync function forward-reachable
  from one over resolved call edges (a sync helper called by a coroutine
  runs on the loop);
* **facade side** — every public (non-underscore) sync method of any
  other class, plus sync functions reachable from those *without*
  traversing into coroutines (a sync method that merely schedules a
  coroutine does not run it on this thread).

A finding requires a loop-side write and a facade-side write of the same
``self.<attr>`` in **distinct** functions (a single public sync method
that is also invoked from coroutines — ``mark_down`` — races only if
some *other* loop-side function writes the attribute too) with no lock
held at both sites.  Constructors are exempt: ``__init__`` writes happen
before the object is published to either side.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .callgraph import ClassInfo, Program, attr_writes
from .findings import Finding
from .names import dotted_name
from .registry import ProgramContext, program_rule
from .rules_lock_order import function_lock_facts

__all__ = []

#: construction/teardown methods whose writes happen-before publication
_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__post_init__",
                             "__init_subclass__"})


#: transport-callback base classes: the event loop is the only caller
_LOOP_CALLED_BASES = frozenset({
    "asyncio.BaseProtocol", "asyncio.Protocol", "asyncio.BufferedProtocol",
    "asyncio.DatagramProtocol", "asyncio.SubprocessProtocol"})


def _is_loop_called(program: Program, cls: ClassInfo) -> bool:
    imports = program.modules[cls.module].imports
    return any(name is not None
               and imports.resolve(name) in _LOOP_CALLED_BASES
               for name in map(dotted_name, cls.node.bases))


def _loop_side(program: Program) -> set[str]:
    frontier = [q for q, fn in program.functions.items() if fn.is_async]
    for cls in program.classes.values():
        if _is_loop_called(program, cls):
            frontier.extend(cls.methods.values())
    reached = set(frontier)
    while frontier:
        qname = frontier.pop()
        for _site, callee in program.callees(qname):
            if callee not in reached:
                reached.add(callee)
                frontier.append(callee)
    return reached


def _facade_side(program: Program) -> set[str]:
    frontier: list[str] = []
    for cls in program.classes.values():
        if _is_loop_called(program, cls):
            continue
        for name, qname in cls.methods.items():
            fn = program.functions.get(qname)
            if fn is None or fn.is_async:
                continue
            if name.startswith("_"):
                continue
            frontier.append(qname)
    reached = set(frontier)
    while frontier:
        qname = frontier.pop()
        for _site, callee in program.callees(qname):
            target = program.functions.get(callee)
            if target is None or target.is_async:
                continue            # scheduling a coroutine != running it
            if callee not in reached:
                reached.add(callee)
                frontier.append(callee)
    return reached


@program_rule(
    "R701",
    summary="instance attribute written from both the event loop and "
            "the blocking facade thread (public sync entry point) with "
            "no common lock — a cross-thread data race (the PR 6 "
            "mark_down/_connect shape)",
    example="def mark_down(self, p): self._transports.pop(p)   "
            "# async _dial also writes self._transports")
def check_cross_thread_races(pctx: ProgramContext) -> Iterable[Finding]:
    program = pctx.program
    loop_side = _loop_side(program)
    facade_side = _facade_side(program)

    # (class, attr) -> per-side write sites (fn, node, held locks)
    Writes = dict[tuple[str, str], list]
    loop_writes: Writes = {}
    facade_writes: Writes = {}
    for qname in sorted(program.functions):
        fn = program.functions[qname]
        if fn.class_qname is None or fn.name in _EXEMPT_METHODS:
            continue
        on_loop = qname in loop_side or fn.is_async
        on_facade = qname in facade_side and not fn.is_async
        if not on_loop and not on_facade:
            continue
        writes = attr_writes(fn)
        if not writes:
            continue
        interest = {id(w.node) for w in writes}
        held_at = function_lock_facts(fn, interest).held_at
        for w in writes:
            key = (fn.class_qname, w.attr)
            site = (fn, w.node, frozenset(held_at.get(id(w.node), ())))
            if on_loop:
                loop_writes.setdefault(key, []).append(site)
            if on_facade:
                facade_writes.setdefault(key, []).append(site)

    for key in sorted(set(loop_writes) & set(facade_writes),
                      key=lambda k: (k[0], k[1])):
        cls_qname, attr = key
        hit = None
        for f_fn, f_node, f_locks in facade_writes[key]:
            for l_fn, l_node, l_locks in loop_writes[key]:
                if l_fn.qname == f_fn.qname:
                    continue        # same entry point: one thread at a time
                if f_locks & l_locks:
                    continue        # a common lock serialises the writes
                hit = (f_fn, f_node, l_fn)
                break
            if hit:
                break
        if hit is None:
            continue
        f_fn, f_node, l_fn = hit
        cls_name = cls_qname.rsplit(".", 1)[-1]
        yield pctx.finding(
            "R701", f_fn.path, f_node,
            f"{cls_name}.{attr} is written from the blocking facade "
            f"side in {f_fn.name}() and from the event-loop side in "
            f"{l_fn.name}() with no common lock: a facade thread and "
            f"the loop can interleave the writes (the PR 6 "
            f"mark_down/_connect hazard class); route the mutation "
            f"through the loop (call_soon_threadsafe) or guard both "
            f"sites with one lock")
