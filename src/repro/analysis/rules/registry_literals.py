"""REG001: strategy/backend names live in their registries, not literals.

PR 4 removed the drifting copies of the neighbour-strategy name list from
the CLI and pipeline (they now enumerate the registry); this rule keeps it
that way for *every* name registry in the system.  A registered name
appearing as a string literal in a dispatch position — an ``==``/``in``
comparison, a dict-dispatch key, or a choices-style sequence of two or
more registered names — outside the module(s) that own the registry is a
finding: the literal will silently drift the next time a name is added or
renamed.

Docstrings, error-message strings and single names in non-dispatch
positions (e.g. a default parameter value in the owning module) are not
flagged.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.analysis.astutil import string_value
from repro.analysis.base import Finding, RuleContext, register_rule


@dataclass(frozen=True)
class NameRegistry:
    """One group of registered names and the modules allowed to spell them."""

    label: str
    names: frozenset
    home_prefixes: tuple[str, ...]

    def allows(self, module: str) -> bool:
        return module.startswith(self.home_prefixes)


#: The name registries of the system.  A module listed as a home may spell
#: its own names literally (that is where the canonical constant/registration
#: lives); everywhere else must import the registry's constants.
NAME_REGISTRIES: tuple[NameRegistry, ...] = (
    NameRegistry(
        label="neighbour backend",
        names=frozenset({"bruteforce", "blocked"}),
        home_prefixes=("repro.core.neighbors",),
    ),
    NameRegistry(
        label="shard strategy",
        names=frozenset({"round-robin", "contiguous", "hash"}),
        home_prefixes=("repro.core.sharding",),
    ),
    NameRegistry(
        label="shard executor",
        # Exactly the two pool classes; there is no "auto" executor (no
        # measured crossover backs a choice between them).
        names=frozenset({"thread", "process"}),
        home_prefixes=("repro.core.sharding",),
    ),
    NameRegistry(
        label="labeling strategy",
        names=frozenset({"sparse-matmul", "bruteforce"}),
        home_prefixes=("repro.core.labeling",),
    ),
    NameRegistry(
        label="agglomeration engine",
        names=frozenset({"reference", "arena"}),
        # "repro.core.engine" prefix-covers the registry (engines) and the
        # arena engine (engine_arena).
        home_prefixes=("repro.core.rock", "repro.core.engine"),
    ),
    NameRegistry(
        label="similarity measure",
        names=frozenset({"jaccard", "dice", "overlap-coefficient", "set-cosine"}),
        home_prefixes=("repro.similarity",),
    ),
)


class RegistryLiteralRule:
    """REG001: no registered-name string literals outside their registries."""

    code = "REG001"
    name = "no-drifting-registry-literals"
    description = (
        "Strategy/backend/engine/measure name literals in dispatch positions "
        "(comparisons, dict keys, choice tables) outside their owning "
        "registry modules must come from the registry constants"
    )

    def __init__(self, registries: tuple[NameRegistry, ...] | None = None) -> None:
        self.registries = NAME_REGISTRIES if registries is None else registries

    def applies_to(self, module: str) -> bool:
        # The analysis package itself hosts this rule's name tables.
        return not module.startswith("repro.analysis")

    def check(self, context: RuleContext) -> list[Finding]:
        foreign = [r for r in self.registries if not r.allows(context.module)]
        if not foreign:
            return []
        # Membership tuples (``x in ("a", "b")``) are handled by the
        # Compare branch; remember them so the choice-table branch does
        # not report the same literal twice.
        comparator_containers = {
            id(comparator)
            for node in ast.walk(context.tree)
            if isinstance(node, ast.Compare)
            for comparator in node.comparators
            if isinstance(comparator, (ast.Tuple, ast.List, ast.Set))
        }
        findings: list[Finding] = []
        for node in ast.walk(context.tree):
            if isinstance(node, (ast.Tuple, ast.List)) and id(node) in comparator_containers:
                continue
            findings.extend(self._check_node(context, node, foreign))
        return findings

    # ------------------------------------------------------------------ #
    def _check_node(
        self, context: RuleContext, node: ast.AST, foreign: list[NameRegistry]
    ) -> list[Finding]:
        if isinstance(node, ast.Compare):
            literals = [node.comparators[0]] if len(node.comparators) == 1 else []
            found = []
            for literal in literals:
                if isinstance(literal, (ast.Tuple, ast.List, ast.Set)):
                    found.extend(self._registered(e, foreign) for e in literal.elts)
                else:
                    found.append(self._registered(literal, foreign))
            return [
                self._finding(context, node, name, registry, "comparison")
                for name, registry in filter(None, found)
            ]
        if isinstance(node, ast.Dict):
            hits = list(filter(None, (self._registered(k, foreign) for k in node.keys if k)))
            if len(hits) >= 2:
                return [
                    self._finding(context, node, name, registry, "dict-dispatch key")
                    for name, registry in hits
                ]
            return []
        if isinstance(node, (ast.Tuple, ast.List)):
            hits = list(filter(None, (self._registered(e, foreign) for e in node.elts)))
            if len(hits) >= 2:
                return [
                    self._finding(context, node, name, registry, "choice table")
                    for name, registry in hits
                ]
        return []

    def _registered(
        self, node: ast.expr | None, foreign: list[NameRegistry]
    ) -> tuple[str, NameRegistry] | None:
        if node is None:
            return None
        value = string_value(node)
        if value is None:
            return None
        # A name owned by several registries (e.g. "bruteforce" is both a
        # neighbour backend and a labelling strategy) is fine in any module
        # that is home to at least one of them.
        if any(value in r.names for r in self.registries if r not in foreign):
            return None
        for registry in foreign:
            if value in registry.names:
                return value, registry
        return None

    def _finding(
        self,
        context: RuleContext,
        node: ast.AST,
        name: str,
        registry: NameRegistry,
        where: str,
    ) -> Finding:
        return Finding(
            code=self.code,
            message=(
                "%s name %r spelled as a literal in a %s outside its "
                "registry (%s); import the registry constant so the name "
                "cannot drift" % (registry.label, name, where, registry.home_prefixes[0])
            ),
            path=context.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )


register_rule(RegistryLiteralRule())
