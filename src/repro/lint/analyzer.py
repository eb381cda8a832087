"""File walking, rule dispatch, and suppression filtering.

A lint pass now has two stages over one shared parse:

1. every file is parsed once through the :class:`ASTCache` and the
   per-file (lexical) rules run on it;
2. the parsed set is assembled into a :class:`Program` (call graph) and
   the whole-program rules run once, emitting findings into whatever
   file each defect lives in.

Suppressions are applied *after* both stages, per file, so a
``# lint: ignore[A301] reason`` works on whole-program findings exactly
like lexical ones and S903 staleness accounts for both.  Policy scoping
for program rules keys on the module of the file the *finding* lands
in, mirroring the per-file behaviour.
"""

from __future__ import annotations

import os
from typing import Container, Iterable, Optional, Sequence

from .astcache import ASTCache, ParsedFile, default_cache
from .callgraph import Program
from .findings import Finding
from .policy import DEFAULT_POLICY, Policy, module_of_path
from .registry import (ProgramContext, RuleContext, file_rules,
                       known_rule_ids, program_rules)
from .suppress import apply_suppressions, collect_suppressions

__all__ = ["lint_source", "lint_paths", "iter_python_files"]

_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis",
                        ".pytest_cache", "build", "dist"})


def _file_rule_findings(parsed: ParsedFile, module: str,
                        policy: Policy) -> list[Finding]:
    ctx = RuleContext(path=parsed.path, module=module,
                      source=parsed.source, parents=parsed.parents)
    raw: list[Finding] = []
    for rule in file_rules():
        if policy.applies(rule.id, module):
            raw.extend(rule.check(parsed.tree, ctx))
    return raw


def _program_rule_findings(files: Sequence[tuple[str, ParsedFile]],
                           policy: Policy) -> list[Finding]:
    program = Program.build(files)
    module_of = {parsed.path: module for module, parsed in files}
    pctx = ProgramContext(program=program, policy=policy)
    raw: list[Finding] = []
    for rule in program_rules():
        for finding in rule.check(pctx):
            module = module_of.get(finding.path, "")
            if policy.applies(rule.id, module):
                raw.append(finding)
    return raw


def _apply_file_suppressions(raw: Iterable[Finding], source: str,
                             path: str) -> list[Finding]:
    suppressions = collect_suppressions(source)
    return list(apply_suppressions(raw, suppressions,
                                   known_rule_ids(), path))


def lint_source(source: str, path: str, *,
                module: Optional[str] = None,
                policy: Policy = DEFAULT_POLICY) -> list[Finding]:
    """Lint one source text (whole-program rules see a one-module
    program); *path* is used for reporting and (unless *module*
    overrides it) for policy scoping."""
    if module is None:
        module = module_of_path(path)
    try:
        parsed = default_cache().parse_source(source, path)
    except SyntaxError as exc:
        return [Finding(path=path, line=exc.lineno or 1,
                        col=exc.offset or 0, rule_id="E000",
                        message=f"syntax error: {exc.msg}")]
    raw = _file_rule_findings(parsed, module, policy)
    raw.extend(_program_rule_findings([(module, parsed)], policy))
    findings = _apply_file_suppressions(raw, source, path)
    return sorted(findings, key=Finding.sort_key)


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Expand files/directories into a deterministic .py file list."""
    for path in paths:
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in _SKIP_DIRS)
            for name in sorted(filenames):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def lint_paths(paths: Sequence[str], *,
               policy: Policy = DEFAULT_POLICY,
               cache: Optional[ASTCache] = None,
               changed_only: Optional[Container[str]] = None,
               ) -> list[Finding]:
    """Lint every .py file under *paths* in one whole-program pass.

    ``changed_only`` restricts the *reported* findings to the given
    paths — the program (call graph, taint summaries) is still built
    over the full file set, so a change in a callee correctly surfaces
    findings at unchanged callers only when those callers are listed.
    """
    cache = cache if cache is not None else default_cache()
    findings: list[Finding] = []
    parsed_files: list[tuple[str, ParsedFile]] = []
    for file_path in iter_python_files(paths):
        try:
            parsed = cache.parse(file_path)
        except SyntaxError as exc:
            findings.append(Finding(path=file_path, line=exc.lineno or 1,
                                    col=exc.offset or 0, rule_id="E000",
                                    message=f"syntax error: {exc.msg}"))
            continue
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(Finding(path=file_path, line=1, col=0,
                                    rule_id="E001",
                                    message=f"unreadable: {exc}"))
            continue
        parsed_files.append((module_of_path(file_path), parsed))

    raw_by_path: dict[str, list[Finding]] = {
        parsed.path: [] for _module, parsed in parsed_files}
    for module, parsed in parsed_files:
        raw_by_path[parsed.path].extend(
            _file_rule_findings(parsed, module, policy))
    for finding in _program_rule_findings(parsed_files, policy):
        raw_by_path.setdefault(finding.path, []).append(finding)

    for _module, parsed in parsed_files:
        findings.extend(_apply_file_suppressions(
            raw_by_path[parsed.path], parsed.source, parsed.path))

    if changed_only is not None:
        findings = [f for f in findings if f.path in changed_only]
    return sorted(findings, key=Finding.sort_key)
