"""The protocol layers run on one event loop per server: no thread,
executor or lock may enter ``repro.core``, ``repro.runtime`` or
``repro.api``, so no lock-discipline or cross-thread-race rule is needed."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"
_MODULES = {"threading", "concurrent", "concurrent.futures", "_thread"}
_NAMES = {"Lock", "RLock", "Semaphore", "Condition", "Thread",
          "run_in_executor", "to_thread"}


@pytest.mark.parametrize("package", ["core", "runtime", "api"])
def test_no_threads_executors_or_locks(package):
    offences = []
    for path in sorted((SRC / package).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                used = {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                used = {node.module or ""} | {a.name for a in node.names}
            else:
                used = {getattr(node, "id", None),
                        getattr(node, "attr", None)}
            for name in sorted(used & (_MODULES | _NAMES)):
                where = f"{path.relative_to(SRC)}:{node.lineno}"
                offences.append(f"{where}: {name}")
    assert offences == []
