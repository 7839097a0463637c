"""Rule protocol, finding model and rule registry of :mod:`repro.analysis`.

The linter mirrors the neighbour-backend registry of
:mod:`repro.core.neighbors.base`: a *rule* is a named, coded checker that
registers itself here (:func:`register_rule` / :func:`get_rule` /
:func:`available_rules`), and the runner resolves the requested codes
through the registry — adding a rule is one registration call, no layer
above needs to change.

Every rule receives one parsed file as a :class:`RuleContext` and returns
:class:`Finding` records.  Suppressions are inline comments of the form
``# repro-lint: disable=<CODE> reason=<why>`` on the offending line, and
may also stand alone on the line directly above it.
A suppression silences the finding but is *counted and reported*; a
suppression without a ``reason=`` is an **unexplained suppression**, which
the runner treats as a failure in its own right (the self-hosting tier-1
test demands zero of both).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.errors import ConfigurationError

#: Matches ``# repro-lint: disable=CODE1,CODE2 [reason=...]`` anywhere in a line.
SUPPRESSION_PATTERN = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<codes>[A-Z0-9]+(?:\s*,\s*[A-Z0-9]+)*)"
    r"(?:\s+reason=(?P<reason>.+?))?\s*$"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at a file location.

    ``suppressed`` and ``suppression_reason`` are filled in by the runner
    when an inline suppression matches the finding's code and line.
    """

    code: str
    message: str
    path: str
    line: int
    col: int = 0
    suppressed: bool = False
    suppression_reason: str | None = None

    def location(self) -> str:
        return "%s:%d:%d" % (self.path, self.line, self.col + 1)


@dataclass(frozen=True)
class Suppression:
    """One inline ``repro-lint: disable=`` comment.

    ``line`` is the line the suppression *applies to* (the comment's own
    line for trailing comments, the following line for standalone ones).
    """

    path: str
    line: int
    codes: tuple[str, ...]
    reason: str | None

    @property
    def explained(self) -> bool:
        return bool(self.reason and self.reason.strip())


@dataclass
class RuleContext:
    """Everything a rule may inspect about one source file."""

    path: str
    #: Dotted module name (``repro.core.engine_arena``); fixture tests override it.
    module: str
    source: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.source.splitlines()


@runtime_checkable
class Rule(Protocol):
    """Protocol implemented by every lint rule."""

    #: Registry key and finding prefix (``DET001``, ``SPEC001``, ...).
    code: str
    #: Short human name.
    name: str
    #: One-line statement of the contract the rule machine-checks.
    description: str

    def applies_to(self, module: str) -> bool:
        """Whether ``module`` is in this rule's scope."""
        ...  # pragma: no cover - protocol definition

    def check(self, context: RuleContext) -> list[Finding]:
        """Return every violation found in ``context``."""
        ...  # pragma: no cover - protocol definition


_REGISTRY: dict[str, Rule] = {}


def register_rule(rule: Rule) -> None:
    """Register ``rule`` under its ``code``.

    Re-registering an existing code raises
    :class:`~repro.errors.ConfigurationError` to avoid silent overrides.
    """
    code = str(getattr(rule, "code", "")).strip().upper()
    if not code:
        raise ConfigurationError("a lint rule must have a non-empty code")
    if code in _REGISTRY:
        raise ConfigurationError("lint rule %r is already registered" % code)
    _REGISTRY[code] = rule


def available_rules() -> list[str]:
    """Registered rule codes, in registration order."""
    return list(_REGISTRY)


def get_rule(code: str) -> Rule:
    """Resolve a rule by code (case-insensitive)."""
    key = str(code).strip().upper()
    try:
        return _REGISTRY[key]
    except KeyError:
        raise ConfigurationError(
            "unknown lint rule %r; expected one of %s"
            % (code, ", ".join(available_rules()))
        ) from None


def parse_suppressions(path: str, lines: list[str]) -> list[Suppression]:
    """Extract every ``repro-lint: disable=`` comment of a file.

    A trailing comment applies to its own line; a standalone comment line
    (nothing but the suppression) applies to the next line.
    """
    suppressions: list[Suppression] = []
    for number, text in enumerate(lines, start=1):
        match = SUPPRESSION_PATTERN.search(text)
        if match is None:
            continue
        codes = tuple(
            part.strip().upper() for part in match.group("codes").split(",")
        )
        reason = match.group("reason")
        standalone = text[: match.start()].strip() == ""
        suppressions.append(
            Suppression(
                path=path,
                line=number + 1 if standalone else number,
                codes=codes,
                reason=reason.strip() if reason else None,
            )
        )
    return suppressions
