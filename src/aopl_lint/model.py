"""Abstract syntax for authorization and obligation policies.

A policy talks about one agent's elementary actions.  Rule heads are deontic
literals over those actions (permitted or obligated, possibly negated); rule
conditions are literals over statics, fluents, and sort membership atoms.
Deontic atoms never appear in conditions, which keeps every rule body a pure
test against the state.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Mapping

from .diagnostics import Diagnostic, Frozen, Severity, has_errors, set_field, sort_diagnostics

# Names claimed by the logic-program translation and the concrete syntax.
# Letting a sort, predicate, or rule label shadow one of these would make
# emitted programs and canonical holds-atoms ambiguous.
RESERVED_NAMES = frozenset(
    {
        "ab",
        "action",
        "b",
        "body",
        "constraint",
        "fluent",
        "head",
        "holds",
        "if",
        "impossible",
        "impossible_exec",
        "mbr",
        "neg",
        "normally",
        "not",
        "obl",
        "opp",
        "permitted",
        "prefer",
        "rule",
        "sorts",
        "static",
        "text",
        "type",
        "where",
    }
)


class PredicateKind(Enum):
    STATIC = "static"
    FLUENT = "fluent"
    ACTION = "action"


class RuleKind(Enum):
    STRICT = "strict"
    DEFEASIBLE = "defeasible"
    PREFERENCE = "prefer"


class Modality(Enum):
    PERMITTED = "permitted"
    OBL = "obl"


def is_variable(name: str) -> bool:
    """Identifiers starting with an upper-case letter are variables."""
    return bool(name) and name[0].isupper()


class Atom(Frozen):
    """A predicate applied to constant or variable arguments."""

    __slots__ = ("predicate", "args")

    def __init__(self, predicate: str, args: tuple[str, ...] = ()) -> None:
        set_field(self, "predicate", predicate)
        set_field(self, "args", args)

    # Atoms key the index and state lookups; a tuple display beats ``Frozen``'s attrgetter.
    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return (self.predicate, self.args) == (other.predicate, other.args)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.predicate, self.args))

    @property
    def is_ground(self) -> bool:
        return not any(is_variable(a) for a in self.args)

    def variables(self) -> tuple[str, ...]:
        """Variables in argument order, first occurrence only."""
        return variables_of((self,))

    def substitute(self, binding: Mapping[str, str]) -> "Atom":
        return Atom(self.predicate, tuple(binding.get(a, a) for a in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.predicate
        return f"{self.predicate}({','.join(self.args)})"


class Literal(Frozen):
    """An atom or its classical negation, written !atom in source text."""

    __slots__ = ("atom", "positive")

    def __init__(self, atom: Atom, positive: bool = True) -> None:
        set_field(self, "atom", atom)
        set_field(self, "positive", positive)

    def substitute(self, binding: Mapping[str, str]) -> "Literal":
        return Literal(self.atom.substitute(binding), self.positive)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"!{self.atom}"


class Happening(Frozen):
    """An action execution or non-execution: e or -e."""

    __slots__ = ("action", "positive")

    def __init__(self, action: Atom, positive: bool = True) -> None:
        set_field(self, "action", action)
        set_field(self, "positive", positive)

    def substitute(self, binding: Mapping[str, str]) -> "Happening":
        return Happening(self.action.substitute(binding), self.positive)

    def __str__(self) -> str:
        return str(self.action) if self.positive else f"-{self.action}"


class HeadLiteral(Frozen):
    """A deontic literal: [!] permitted(e) or [!] obl(h).

    Only obligations may talk about non-execution, so a permitted head
    always carries a positive happening.
    """

    __slots__ = ("modality", "happening", "positive")

    def __init__(self, modality: Modality, happening: Happening, positive: bool = True) -> None:
        set_field(self, "modality", modality)
        set_field(self, "happening", happening)
        set_field(self, "positive", positive)

    def opposite(self) -> "HeadLiteral":
        """The complementary deontic literal (classical negation flipped)."""
        return HeadLiteral(self.modality, self.happening, not self.positive)

    def substitute(self, binding: Mapping[str, str]) -> "HeadLiteral":
        return HeadLiteral(self.modality, self.happening.substitute(binding), self.positive)

    def __str__(self) -> str:
        sign = "" if self.positive else "!"
        return f"{sign}{self.modality.value}({self.happening})"


class PolicyRule(Frozen):
    """One policy statement.

    Strict and defeasible rules carry a head and a condition.  Preference
    statements carry the labels of two defeasible rules instead and never
    have a condition of their own.  ``text`` holds the natural-language
    statement the rule formalizes, used verbatim in explanations.
    ``where`` pins variable sorts that cannot be inferred from predicate
    positions.
    """

    __slots__ = (
        "label", "kind", "head", "condition", "preferred", "dispreferred", "text", "where"
    )

    def __init__(
        self, label: str, kind: RuleKind, head: HeadLiteral | None = None,
        condition: tuple[Literal, ...] = (), preferred: str | None = None,
        dispreferred: str | None = None, text: str | None = None,
        where: tuple[tuple[str, str], ...] = (),
    ) -> None:
        set_field(self, "label", label)
        set_field(self, "kind", kind)
        set_field(self, "head", head)
        set_field(self, "condition", condition)
        set_field(self, "preferred", preferred)
        set_field(self, "dispreferred", dispreferred)
        set_field(self, "text", text)
        set_field(self, "where", where)

    def atoms(self) -> tuple[Atom, ...]:
        """The head's action, then the condition atoms."""
        head = (self.head.happening.action,) if self.head is not None else ()
        return head + tuple(lit.atom for lit in self.condition)

    def variables(self) -> tuple[str, ...]:
        """Variables in first-occurrence order over head then condition."""
        return variables_of(self.atoms())


class Policy(Frozen):
    __slots__ = ("rules",)

    def __init__(self, rules: tuple[PolicyRule, ...] = ()) -> None:
        set_field(self, "rules", rules)

    def rule_map(self) -> dict[str, PolicyRule]:
        return {r.label: r for r in self.rules}


class SortDecl(Frozen):
    __slots__ = ("name", "members")

    def __init__(self, name: str, members: tuple[str, ...]) -> None:
        set_field(self, "name", name)
        set_field(self, "members", members)


class PredicateDecl(Frozen):
    __slots__ = ("name", "kind", "arg_sorts")

    def __init__(self, name: str, kind: PredicateKind, arg_sorts: tuple[str, ...] = ()) -> None:
        set_field(self, "name", name)
        set_field(self, "kind", kind)
        set_field(self, "arg_sorts", arg_sorts)


class StateConstraint(Frozen):
    """A state law: head holds whenever the body does.

    A constraint without a head forbids the body combination outright.
    """

    __slots__ = ("body", "head")

    def __init__(self, body: tuple[Literal, ...], head: Literal | None = None) -> None:
        set_field(self, "body", body)
        set_field(self, "head", head)

    def literals(self) -> tuple[Literal, ...]:
        """The body, then the head if there is one."""
        return self.body + ((self.head,) if self.head is not None else ())


class ExecConstraint(Frozen):
    """Marks an action non-executable in states satisfying the condition."""

    __slots__ = ("action", "condition")

    def __init__(self, action: Atom, condition: tuple[Literal, ...] = ()) -> None:
        set_field(self, "action", action)
        set_field(self, "condition", condition)


class DomainSpec(Frozen):
    __slots__ = ("sorts", "predicates", "state_constraints", "exec_constraints")

    def __init__(
        self, sorts: tuple[SortDecl, ...] = (), predicates: tuple[PredicateDecl, ...] = (),
        state_constraints: tuple[StateConstraint, ...] = (),
        exec_constraints: tuple[ExecConstraint, ...] = (),
    ) -> None:
        set_field(self, "sorts", sorts)
        set_field(self, "predicates", predicates)
        set_field(self, "state_constraints", state_constraints)
        set_field(self, "exec_constraints", exec_constraints)

    def sort_map(self) -> dict[str, SortDecl]:
        return {s.name: s for s in self.sorts}

    def predicate_map(self) -> dict[str, PredicateDecl]:
        return {p.name: p for p in self.predicates}


def variables_of(atoms: Iterable[Atom]) -> tuple[str, ...]:
    """Variables of the atoms in first-occurrence order."""
    return tuple(dict.fromkeys(a for atom in atoms for a in atom.args if is_variable(a)))


class _Scope:
    """Tracks variable sorts within one rule or constraint."""

    def __init__(self, domain: DomainSpec) -> None:
        self.pred_map = domain.predicate_map()
        self.sort_map = domain.sort_map()
        self.sorts: dict[str, str] = {}
        self.problems: list[str] = []

    def bind(self, var: str, sort: str) -> None:
        known = self.sorts.get(var)
        if known is None:
            self.sorts[var] = sort
        elif known != sort:
            self.problems.append(
                f"variable {var} has conflicting sorts {known} and {sort}"
            )

    def check_atom(self, atom: Atom) -> None:
        decl = self.pred_map.get(atom.predicate)
        if decl is not None:
            expected = decl.arg_sorts
        elif atom.predicate in self.sort_map:
            # Sort names double as unary membership predicates.
            expected = (atom.predicate,)
        else:
            self.problems.append(f"undeclared predicate: {atom.predicate}")
            return
        if len(expected) != len(atom.args):
            self.problems.append(
                f"{atom.predicate} expects {len(expected)} argument(s), got {len(atom.args)}"
            )
            return
        for arg, sort in zip(atom.args, expected):
            if sort not in self.sort_map:
                # The predicate declaration itself is reported elsewhere.
                continue
            if is_variable(arg):
                self.bind(arg, sort)
            elif arg not in self.sort_map[sort].members:
                self.problems.append(f"constant {arg} is not in sort {sort}")

    def check_condition(self, lit: Literal, role: str) -> None:
        """Condition literals range over statics, fluents, and sort atoms only."""
        self.check_atom(lit.atom)
        decl = self.pred_map.get(lit.atom.predicate)
        if decl is not None and decl.kind is PredicateKind.ACTION:
            self.problems.append(f"{role} literal {lit} must be a static, fluent, or sort atom")


def validate(policy: Policy, domain: DomainSpec) -> list[Diagnostic]:
    """Semantic checks over a parsed or hand-built policy and domain.

    Returns diagnostics sorted by (rule label, message); an empty list means
    the pair is well-formed and safe to ground.
    """
    out: list[Diagnostic] = []

    def err(message: str, label: str | None = None) -> None:
        out.append(Diagnostic(Severity.ERROR, message, rule_label=label))

    def warn(message: str, label: str | None = None) -> None:
        out.append(Diagnostic(Severity.WARNING, message, rule_label=label))

    sort_map = domain.sort_map()
    pred_map = domain.predicate_map()

    seen_sorts: set[str] = set()
    for sort in domain.sorts:
        if sort.name in seen_sorts:
            err(f"duplicate sort name: {sort.name}")
        seen_sorts.add(sort.name)
        if sort.name in RESERVED_NAMES:
            err(f"reserved name used as sort: {sort.name}")
        if not sort.members:
            err(f"sort {sort.name} has no members")
        seen_members: set[str] = set()
        for member in sort.members:
            if member in seen_members:
                err(f"duplicate constant {member} in sort {sort.name}")
            seen_members.add(member)

    seen_preds: set[str] = set()
    for pred in domain.predicates:
        if pred.name in seen_preds:
            err(f"duplicate predicate name: {pred.name}")
        seen_preds.add(pred.name)
        if pred.name in RESERVED_NAMES:
            err(f"reserved name used as predicate: {pred.name}")
        if pred.name in sort_map:
            err(f"predicate name collides with sort: {pred.name}")
        for sort in pred.arg_sorts:
            if sort not in sort_map:
                err(f"predicate {pred.name} uses undeclared sort {sort}")

    def check_scope(scope: _Scope, label: str | None) -> None:
        for problem in scope.problems:
            err(problem, label)

    for constraint in domain.state_constraints:
        scope = _Scope(domain)
        for lit in constraint.literals():
            scope.check_condition(lit, "state constraint")
        check_scope(scope, None)

    for constraint in domain.exec_constraints:
        scope = _Scope(domain)
        scope.check_atom(constraint.action)
        decl = pred_map.get(constraint.action.predicate)
        if decl is not None and decl.kind is not PredicateKind.ACTION:
            scope.problems.append(
                f"executability constraint target {constraint.action.predicate} is not an action"
            )
        for lit in constraint.condition:
            scope.check_condition(lit, "executability condition")
        check_scope(scope, None)

    rule_map: dict[str, PolicyRule] = {}
    seen_labels: set[str] = set()
    for rule in policy.rules:
        if rule.label in seen_labels:
            err(f"duplicate rule label: {rule.label}", rule.label)
        else:
            rule_map[rule.label] = rule
        seen_labels.add(rule.label)
        if rule.label in RESERVED_NAMES:
            err(f"reserved name used as rule label: {rule.label}", rule.label)
        if rule.label in pred_map or rule.label in sort_map:
            err(
                f"rule label {rule.label} collides with a declared predicate or sort",
                rule.label,
            )

    for rule in policy.rules:
        label = rule.label
        if rule.kind is RuleKind.PREFERENCE:
            if rule.head is not None or rule.condition:
                err("preference statements take no head or condition", label)
            if not rule.preferred or not rule.dispreferred:
                err("preference must name two rule labels", label)
                continue
            if rule.preferred == rule.dispreferred:
                err(f"preference targets must be distinct: {rule.preferred}", label)
            targets: list[PolicyRule] = []
            for target in (rule.preferred, rule.dispreferred):
                target_rule = rule_map.get(target)
                if target_rule is None:
                    err(f"preference target not found: {target}", label)
                elif target_rule.kind is not RuleKind.DEFEASIBLE:
                    err(f"preference target not defeasible: {target}", label)
                else:
                    targets.append(target_rule)
            # Same-named variables across the two targets ground together,
            # so their sorts must agree.
            if len(targets) == 2:
                first, second = (
                    variable_sorts(t.atoms(), domain, t.where) for t in targets
                )
                for var in sorted(set(first) & set(second)):
                    if first[var] != second[var]:
                        err(
                            f"preference targets disagree on sort of shared variable {var}",
                            label,
                        )
            continue

        if rule.head is None:
            err("rule requires a head", label)
            continue
        if rule.preferred or rule.dispreferred:
            err("only preference statements name other rules", label)

        scope = _Scope(domain)
        head = rule.head
        if head.modality is Modality.PERMITTED and not head.happening.positive:
            err("permitted heads cannot negate the action", label)
        action_decl = pred_map.get(head.happening.action.predicate)
        if action_decl is None or action_decl.kind is not PredicateKind.ACTION:
            err(
                f"head action {head.happening.action.predicate} is not a declared action",
                label,
            )
        else:
            scope.check_atom(head.happening.action)

        for lit in rule.condition:
            scope.check_condition(lit, "condition")

        variables = rule.variables()
        for i, (var, sort) in enumerate(rule.where):
            # Grounding binds only the rule's own variables, once each.
            if var not in variables:
                warn(
                    f"where-clause entry {var}: {sort} names a variable the rule does not use",
                    label,
                )
            if (var, sort) in rule.where[:i]:
                warn(f"where-clause repeats entry {var}: {sort}", label)
            if sort not in sort_map:
                scope.problems.append(f"where-clause names undeclared sort {sort}")
                continue
            inferred = scope.sorts.get(var)
            if inferred is not None and inferred != sort:
                scope.problems.append(
                    f"where-clause sort {sort} for {var} conflicts with inferred sort {inferred}"
                )
            else:
                scope.sorts[var] = sort

        for var in variables:
            if var not in scope.sorts:
                scope.problems.append(f"variable {var} has no inferable sort")
        check_scope(scope, label)

    # Mutual preferences disable both targets.  That is well-defined but
    # almost always a policy bug, so flag it without rejecting.
    pref_pairs = {
        (r.preferred, r.dispreferred)
        for r in policy.rules
        if r.kind is RuleKind.PREFERENCE and r.preferred and r.dispreferred
    }
    for a, b in sorted(pref_pairs):
        if a is not None and b is not None and a < b and (b, a) in pref_pairs:
            warn(f"mutual preference between {a} and {b} disables both rules")

    out = sort_diagnostics(out)
    if not has_errors(out):
        _passed[:] = policy, domain
    return out


# The last pair ``validate`` passed; holding it keeps other objects from taking its ids.
_passed: list = [None, None]


def passed_validation(policy: Policy, domain: DomainSpec) -> bool:
    """True when the last ``validate`` call without errors was on these objects."""
    return _passed[0] is policy and _passed[1] is domain


def variable_sorts(
    atoms: Iterable[Atom], domain: DomainSpec, where: Iterable[tuple[str, str]]
) -> dict[str, str]:
    """Sort of every variable of validated atoms and their where-clause.

    The first argument position a variable fills decides its sort; the
    where-clause adds sorts for variables no position types.
    """
    scope = _Scope(domain)
    for atom in atoms:
        scope.check_atom(atom)
    for var, sort in where:
        scope.sorts.setdefault(var, sort)
    return scope.sorts
