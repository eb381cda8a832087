"""Determinism & concurrency static analysis for the AllConcur repro.

The whole correctness story of this reproduction rests on two properties
the test suite can only probe, never prove:

* **Determinism** — the differential oracles (bitmask vs set data plane,
  dirty-set vs full-scan ingress, binary vs JSON codec) demand
  byte-identical agreed logs across runs and backends, so nothing in the
  protocol core, the simulator, or the overlay-graph constructors may
  consult wall clocks, process-global RNGs, or allocation-dependent
  orderings.
* **Async discipline** — each server runs on one event loop with no
  lock or thread, so the recurring hazards are untracked
  ``asyncio.create_task`` handlers leaking across ``stop()`` and
  blocking calls that stall the loop under every peer.

This package encodes those repo-specific invariants as AST rules (stdlib
``ast`` only, no new runtime dependencies) so the *class* of each bug is
caught statically, not the instance by incident.  Run it with::

    python -m repro.lint src/            # text report, exit 1 on findings
    python -m repro.lint src/ --format=json
    python -m repro.lint --list-rules    # self-documenting rule catalog

Findings are suppressed per line with ``# lint: ignore[RULE-ID] reason``;
a suppression without a reason, naming an unknown rule, or matching no
finding is itself a finding (S901/S902/S903), so the suppression
inventory cannot rot.  Which rules apply to which modules — and the two
deliberate allowances (the simulator's seeded ``random.Random(seed)``
and the frozen-dataclass fast path in ``repro.runtime.wire``) — live in
:mod:`repro.lint.policy`, not in scattered suppressions.
"""

from .findings import Finding, Severity
from .policy import DEFAULT_POLICY, Policy
from .registry import Rule, all_rules, get_rule
from .analyzer import lint_paths, lint_source

__all__ = [
    "Finding",
    "Severity",
    "Policy",
    "DEFAULT_POLICY",
    "Rule",
    "all_rules",
    "get_rule",
    "lint_paths",
    "lint_source",
]
