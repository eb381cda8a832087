"""A-rules: asyncio discipline in the TCP runtime.

A201 encodes the PR 3 incident: ``asyncio.create_task`` handlers whose
result was discarded kept running across ``stop()`` and died with
"event loop is closed" warnings — every spawned task must be held
somewhere so a lifecycle owner can cancel and await it.

A202 guards the runtime's event loop latency: a synchronous sleep,
subprocess, or blocking file/socket call inside ``async def`` stalls
every connection sharing the loop (and with the protocol lock held, the
node's own round driving).
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from .findings import Finding
from .names import ImportMap, resolve_call
from .registry import RuleContext, rule

_SPAWNERS = frozenset({"asyncio.create_task", "asyncio.ensure_future"})


def _is_task_spawn(node: ast.Call, imports: ImportMap) -> bool:
    name = resolve_call(node, imports)
    if name in _SPAWNERS:
        return True
    # loop.create_task(...) through any local name for a loop object
    return name is not None and name.endswith(".create_task")


@rule("A201",
      summary="asyncio task spawned and discarded (untracked tasks leak "
              "across stop() — the PR 3 incident class)",
      example="asyncio.create_task(pump())   "
              "# self._tasks.append(asyncio.create_task(pump()))")
def check_untracked_task(tree: ast.Module,
                         ctx: RuleContext) -> Iterable[Finding]:
    imports = ImportMap(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call) \
                and _is_task_spawn(node.value, imports):
            yield ctx.finding(
                "A201", node.value,
                "task handle discarded: store it (assign/append) so a "
                "lifecycle owner can cancel and await it on stop — "
                "untracked handlers outlive the loop (PR 3 leak)")


_BLOCKING = frozenset({
    "time.sleep",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "os.system", "os.popen", "os.waitpid",
    "socket.create_connection", "socket.getaddrinfo",
    "urllib.request.urlopen",
})

#: blocking builtins; ``open`` only flags the direct builtin call —
#: ``asyncio.open_connection`` etc. resolve to dotted names and miss this
_BLOCKING_BUILTINS = frozenset({"open", "input"})


def _enclosing_function(node: ast.AST,
                        ctx: RuleContext) -> Optional[ast.AST]:
    for anc in ctx.ancestors(node):
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef,
                            ast.Lambda)):
            return anc
    return None


@rule("A202",
      summary="blocking call inside async def on the runtime hot path "
              "(stalls every connection sharing the event loop)",
      example="async def pump(self): time.sleep(1)   "
              "# await asyncio.sleep(1)")
def check_blocking_in_async(tree: ast.Module,
                            ctx: RuleContext) -> Iterable[Finding]:
    imports = ImportMap(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = resolve_call(node, imports)
        blocking = name in _BLOCKING or (
            isinstance(node.func, ast.Name)
            and node.func.id in _BLOCKING_BUILTINS)
        if not blocking:
            continue
        fn = _enclosing_function(node, ctx)
        if isinstance(fn, ast.AsyncFunctionDef):
            label = name or node.func.id  # type: ignore[union-attr]
            yield ctx.finding(
                "A202", node,
                f"blocking call {label}() inside async def "
                f"{fn.name}(): use the asyncio equivalent")
