"""Every command and committed trajectory file the docs name exists.

``python -m repro.<module>`` and ``python <path>.py`` commands and root
``BENCH_*.json`` files mentioned in the README, the CI workflow and the
verify skill must resolve — checked by lookup only, nothing is executed.
A half-finished deletion (module gone, command still documented) fails
here.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", ".github/workflows/ci.yml",
        ".claude/skills/verify/SKILL.md")

MODULE = re.compile(r"python3? -m (repro(?:\.\w+)+)")
SCRIPT = re.compile(r"python3? ([\w./-]+\.py)\b")
BENCH_JSON = re.compile(r"\bBENCH_\w+\.json\b")


def _importable(module: str) -> bool:
    try:
        return importlib.util.find_spec(module) is not None
    except ModuleNotFoundError:     # a parent package is missing
        return False


@pytest.mark.parametrize("doc", DOCS)
def test_documented_commands_and_files_resolve(doc):
    text = (ROOT / doc).read_text()
    modules = set(MODULE.findall(text))
    scripts = set(SCRIPT.findall(text))
    bench_files = set(BENCH_JSON.findall(text))
    assert modules or scripts, f"{doc}: the extraction matched nothing"
    missing = [m for m in sorted(modules) if not _importable(m)]
    missing += [p for p in sorted(scripts | bench_files)
                if not (ROOT / p).exists()]
    assert not missing, f"{doc} names things that do not exist: {missing}"
