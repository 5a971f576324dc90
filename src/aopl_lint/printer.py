"""Canonical pretty-printer for policies and domains.

Printing then reparsing reproduces the same AST, and printing is a fixpoint:
``print(parse(print(x))) == print(x)``.  Declarations keep their original
order; each rule is followed by its text statement when one exists.
"""

from __future__ import annotations

from .model import (
    DomainSpec,
    Literal,
    Policy,
    PolicyRule,
    PredicateDecl,
    RuleKind,
)
from .parser import _STRING_ESCAPES

# The parser's escapes read backwards, so that printed strings parse back.
_ESCAPES = {value: "\\" + escape for escape, value in _STRING_ESCAPES.items()}


def _quote(text: str) -> str:
    return '"' + "".join(_ESCAPES.get(ch, ch) for ch in text) + '"'


def _literals(literals: tuple[Literal, ...]) -> str:
    return ", ".join(str(lit) for lit in literals)


def _rule_line(rule: PolicyRule) -> str:
    if rule.kind is RuleKind.PREFERENCE:
        return f"prefer {rule.label}: {rule.preferred} > {rule.dispreferred}."
    parts = [f"rule {rule.label}:"]
    if rule.kind is RuleKind.DEFEASIBLE:
        parts.append("normally")
    parts.append(str(rule.head))
    line = " ".join(parts)
    if rule.condition:
        line += f" if {_literals(rule.condition)}"
    if rule.where:
        entries = ", ".join(f"{var}: {sort}" for var, sort in rule.where)
        line += f" where {entries}"
    return line + "."


def _predicate_line(pred: PredicateDecl) -> str:
    if pred.arg_sorts:
        return f"{pred.kind.value} {pred.name}({', '.join(pred.arg_sorts)})."
    return f"{pred.kind.value} {pred.name}."


def print_domain(domain: DomainSpec) -> str:
    lines: list[str] = []
    for sort in domain.sorts:
        lines.append(f"sorts {sort.name}: {', '.join(sort.members)}.")
    for pred in domain.predicates:
        lines.append(_predicate_line(pred))
    for constraint in domain.state_constraints:
        if constraint.head is None:
            lines.append(f"impossible {_literals(constraint.body)}.")
        elif constraint.body:
            lines.append(f"constraint {constraint.head} if {_literals(constraint.body)}.")
        else:
            lines.append(f"constraint {constraint.head}.")
    for constraint in domain.exec_constraints:
        if constraint.condition:
            lines.append(
                f"impossible_exec {constraint.action} if {_literals(constraint.condition)}."
            )
        else:
            lines.append(f"impossible_exec {constraint.action}.")
    return "".join(line + "\n" for line in lines)


def print_policy(policy: Policy, domain: DomainSpec | None = None) -> str:
    """Render a policy (and optionally its domain first) as source text."""
    lines: list[str] = []
    if domain is not None:
        prefix = print_domain(domain)
        if prefix:
            lines.append(prefix.rstrip("\n"))
            if policy.rules:
                lines.append("")
    for rule in policy.rules:
        lines.append(_rule_line(rule))
        if rule.text is not None:
            lines.append(f"text {rule.label}: {_quote(rule.text)}.")
    return "".join(line + "\n" for line in lines) if lines else ""
