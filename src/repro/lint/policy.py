"""Module-path -> rule-set policy.

The *policy* is where repo-wide decisions live, so they are reviewable
in one place instead of scattered across ``# lint: ignore`` comments:

* which packages each rule family gates (determinism rules bind the
  protocol core / simulator / graph constructors; asyncio rules bind
  the TCP runtime),
* which modules carry a deliberate, reviewed exemption — today only the
  frozen-dataclass fast path in :mod:`repro.runtime.wire` (F401), whose
  whole point is bypassing ``__init__`` validation on the decode hot
  path.

The seeded-RNG allowance (``random.Random(seed)`` is fine, module-level
``random.*`` functions are not) is encoded in the D102 checker itself:
it is a semantic distinction, not a path one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = ["Policy", "DEFAULT_POLICY", "module_of_path"]


def _in_scope(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == p or module.startswith(p + ".") for p in prefixes)


@dataclass(frozen=True)
class Policy:
    """Which rules apply where.

    ``scopes`` maps rule id -> module prefixes the rule gates; a rule
    absent from ``scopes`` applies everywhere.  ``exemptions`` maps rule
    id -> module prefixes that are whitelisted *out* with a recorded
    reason (shown when listing the policy).
    """

    scopes: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    exemptions: Mapping[str, tuple[tuple[str, str], ...]] = \
        field(default_factory=dict)
    #: S601 volatile state: class name (simple or qualified) ->
    #: ``((attr, reason), ...)`` — attributes ``apply()`` may mutate that
    #: are *deliberately* excluded from ``snapshot()`` (caches, metrics),
    #: recorded here so every exemption is reviewable in one place.
    volatile: Mapping[str, tuple[tuple[str, str], ...]] = \
        field(default_factory=dict)

    def applies(self, rule_id: str, module: str) -> bool:
        scope = self.scopes.get(rule_id)
        if scope is not None and not _in_scope(module, scope):
            return False
        for prefix, _reason in self.exemptions.get(rule_id, ()):
            if _in_scope(module, (prefix,)):
                return False
        return True

    def volatile_reason(self, class_qname: str, attr: str) -> Optional[str]:
        """The recorded reason when *attr* of *class_qname* is volatile
        (keys match on the full qname or the bare class name)."""
        simple = class_qname.rsplit(".", 1)[-1]
        for key in (class_qname, simple):
            for name, reason in self.volatile.get(key, ()):
                if name == attr:
                    return reason
        return None


#: Modules whose behaviour must be a pure function of explicit seeds and
#: inputs: the protocol core (differential data-plane oracles), the
#: discrete-event simulator (trace-equality tests), and the overlay
#: constructors (the same GS(n,d) digraph must come out on every host).
_DETERMINISTIC = ("repro.core", "repro.sim", "repro.graphs")

DEFAULT_POLICY = Policy(
    scopes={
        "D101": _DETERMINISTIC,
        "D102": _DETERMINISTIC,
        "D103": _DETERMINISTIC,
        "D104": _DETERMINISTIC,
        "A201": ("repro",),
        "A202": ("repro.runtime",),
        "F401": ("repro",),
        # Whole-program rules.  D201 additionally gates the runtime:
        # its sinks (envelope payloads, RoundContext stores) are agreed
        # state no matter which package constructs them — but not the
        # benches, which legitimately embed wall-clock timestamps in
        # payloads to measure latency.
        "D201": _DETERMINISTIC + ("repro.runtime",),
        "A301": ("repro.runtime",),
        "X501": ("repro",),
        "X502": ("repro",),
        # Protocol-state verifiers.  S601 gates every repro package
        # (state machines live in repro.api); W601 is anchored to the
        # wire planes.
        "S601": ("repro",),
        "W601": ("repro.runtime",),
    },
    exemptions={
        "F401": ((
            "repro.runtime.wire",
            "binary-codec decode fast path: frozen Request/Batch are "
            "constructed via object.__new__ + __dict__.update by design "
            "(5x the validated constructor; covered by cross-codec "
            "differential tests)",
        ),),
    },
)


def module_of_path(path: str) -> str:
    """Dotted module for a file path, anchored at the ``repro`` package.

    Files outside any ``repro`` package component (scratch files, test
    fixtures) resolve to their bare stem, so scoped rules do not apply
    unless the caller passes an explicit ``module=`` override.
    """
    parts = path.replace("\\", "/").split("/")
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "repro" in parts:
        parts = parts[parts.index("repro"):]
        return ".".join(parts) if parts else "repro"
    return parts[-1] if parts else ""
