"""Rule registry: every rule self-describes for ``--list-rules``.

A rule is a pure function plus the catalog metadata (id, severity,
summary, example).  Two kinds exist:

* **file rules** (``kind == "file"``) — ``check(tree, ctx)`` sees one
  module at a time; registered via :func:`rule`.
* **program rules** (``kind == "program"``) — ``check(pctx)`` sees the
  whole-program :class:`~repro.lint.callgraph.Program` (call graph,
  every parsed module) and may emit findings in any file; registered via
  :func:`program_rule`.  The analyzer runs them once per lint pass, not
  once per file.

Rules register themselves at import time; the registry is the single
source of truth for the CLI catalog, the policy table, and the
suppression validator (S902 rejects ids that are not registered).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

from .callgraph import Program
from .findings import Finding, Severity
from .policy import DEFAULT_POLICY, Policy

__all__ = ["Rule", "RuleContext", "ProgramContext", "rule",
           "program_rule", "all_rules", "file_rules", "program_rules",
           "get_rule"]


@dataclass
class RuleContext:
    """Everything a rule may consult besides the AST itself."""

    path: str                     #: path as reported in findings
    module: str                   #: dotted module, e.g. ``repro.sim.engine``
    source: str                   #: full source text
    #: parent links for the whole tree (child node -> enclosing node),
    #: built once per file by the analyzer
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    def finding(self, rule_id: str, node: ast.AST, message: str,
                severity: Severity = Severity.ERROR) -> Finding:
        return Finding(path=self.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule_id=rule_id, message=message, severity=severity)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        cur: Optional[ast.AST] = self.parents.get(node)
        while cur is not None:
            yield cur
            cur = self.parents.get(cur)


@dataclass
class ProgramContext:
    """What a whole-program rule sees: the call graph plus helpers."""

    program: Program
    #: the active policy — rules that consult reviewed exemption tables
    #: (S601 volatile state) read it here instead of importing the default
    policy: Policy = field(default_factory=lambda: DEFAULT_POLICY)

    def finding(self, rule_id: str, path: str, node: ast.AST,
                message: str,
                severity: Severity = Severity.ERROR) -> Finding:
        return Finding(path=path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule_id=rule_id, message=message, severity=severity)


Checker = Callable[[ast.Module, RuleContext], Iterable[Finding]]
ProgramChecker = Callable[[ProgramContext], Iterable[Finding]]


@dataclass(frozen=True)
class Rule:
    """One registered lint rule (file- or program-scoped)."""

    id: str
    severity: Severity
    summary: str
    example: str
    check: Callable[..., Iterable[Finding]]
    kind: str = "file"            #: "file" | "program"


_REGISTRY: dict[str, Rule] = {}


def _register(rule_id: str, severity: Severity, summary: str,
              example: str, checker: Callable[..., Iterable[Finding]],
              kind: str) -> None:
    if rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule_id!r}")
    _REGISTRY[rule_id] = Rule(id=rule_id, severity=severity,
                              summary=summary, example=example,
                              check=checker, kind=kind)


def rule(rule_id: str, *, summary: str, example: str,
         severity: Severity = Severity.ERROR) -> Callable[[Checker], Checker]:
    """Register a per-file *checker* under *rule_id* (decorator)."""

    def decorate(checker: Checker) -> Checker:
        _register(rule_id, severity, summary, example, checker, "file")
        return checker

    return decorate


def program_rule(rule_id: str, *, summary: str, example: str,
                 severity: Severity = Severity.ERROR,
                 ) -> Callable[[ProgramChecker], ProgramChecker]:
    """Register a whole-program *checker* under *rule_id* (decorator)."""

    def decorate(checker: ProgramChecker) -> ProgramChecker:
        _register(rule_id, severity, summary, example, checker, "program")
        return checker

    return decorate


def _load_rules() -> None:
    # Importing the rule modules populates the registry via decorators.
    from . import rules_asyncio      # noqa: F401
    from . import rules_determinism  # noqa: F401
    from . import rules_frozen      # noqa: F401
    from . import dataflow          # noqa: F401  (D201/A301)
    from . import exhaustive        # noqa: F401  (X501/X502)
    from . import rules_state       # noqa: F401  (S601)
    from . import rules_wire_schema  # noqa: F401  (W601)
    from . import suppress          # noqa: F401  (registers S901-S903)


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule (both kinds), sorted by id."""
    _load_rules()
    return tuple(_REGISTRY[k] for k in sorted(_REGISTRY))


def file_rules() -> tuple[Rule, ...]:
    """Per-file rules only (``check(tree, ctx)``)."""
    return tuple(r for r in all_rules() if r.kind == "file")


def program_rules() -> tuple[Rule, ...]:
    """Whole-program rules only (``check(pctx)``)."""
    return tuple(r for r in all_rules() if r.kind == "program")


def get_rule(rule_id: str) -> Optional[Rule]:
    _load_rules()
    return _REGISTRY.get(rule_id)


def known_rule_ids() -> frozenset[str]:
    """Every registered rule id (the S-series registers itself from the
    suppression module so the catalog stays the single source of truth)."""
    _load_rules()
    return frozenset(_REGISTRY)
