"""Instantiation of schematic rules and constraints over declared sorts.

Ground rule labels extend the schematic label with the binding in variable
order, ``d1[c,m]``; a rule without variables keeps its label.  A preference
statement grounds once per consistent binding of its targets' variables:
same-named variables across the two target rules ground together, all others
range independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import TYPE_CHECKING, Iterable, Mapping

from .diagnostics import has_errors
from .model import (
    Atom,
    DomainSpec,
    ExecConstraint,
    Happening,
    HeadLiteral,
    Literal,
    Modality,
    Policy,
    PredicateKind,
    RuleKind,
    StateConstraint,
    _positional_sorts,
    is_variable,
    rule_variable_sorts,
    validate,
)

if TYPE_CHECKING:
    from .reify import Index


class GroundingError(Exception):
    """Raised when a policy/domain pair cannot be grounded."""


@dataclass(frozen=True)
class GroundRule:
    """One ground instance of a policy statement."""

    label: str
    base_label: str
    kind: RuleKind
    head: HeadLiteral | None = None
    condition: tuple[Literal, ...] = ()
    preferred: str | None = None
    dispreferred: str | None = None
    text: str | None = None


@dataclass(frozen=True)
class GroundPolicy:
    """A fully instantiated policy together with its ground domain.

    ``state_atoms`` lists the ground static and fluent atoms in declaration
    order and defines the state space; ``action_atoms`` lists the ground
    actions in declaration order.  ``head_universe`` holds the six deontic
    literals per ground action.  ``sort_facts`` are the ground sort
    membership atoms referenced by rule or constraint conditions; they are
    true in every state.  ``index`` is the policy in integer form
    (``reify.Index``), built once on first use.
    """

    rules: tuple[GroundRule, ...]
    state_atoms: tuple[Atom, ...]
    action_atoms: tuple[Atom, ...]
    head_universe: tuple[HeadLiteral, ...]
    state_constraints: tuple[StateConstraint, ...] = ()
    exec_constraints: tuple[ExecConstraint, ...] = ()
    sort_facts: tuple[Atom, ...] = ()

    def rule_map(self) -> dict[str, GroundRule]:
        return {r.label: r for r in self.rules}

    @cached_property
    def index(self) -> Index:
        from .reify import _build_index  # reify imports this module

        return _build_index(self)


def _ground_label(base: str, variables: tuple[str, ...], binding: Mapping[str, str]) -> str:
    if not variables:
        return base
    return f"{base}[{','.join(binding[v] for v in variables)}]"


def _bindings(
    variables: tuple[str, ...],
    var_sorts: Mapping[str, str],
    domain: DomainSpec,
) -> Iterable[dict[str, str]]:
    sort_map = domain.sort_map()
    pools: list[tuple[str, ...]] = []
    for var in variables:
        sort = var_sorts.get(var)
        if sort is None or sort not in sort_map:
            raise GroundingError(f"variable {var} has no resolvable sort")
        members = sort_map[sort].members
        if not members:
            raise GroundingError(f"sort {sort} has no members")
        pools.append(members)
    for values in product(*pools):
        yield dict(zip(variables, values))


def _ground_atoms(domain: DomainSpec, kinds: tuple[PredicateKind, ...]) -> tuple[Atom, ...]:
    sort_map = domain.sort_map()
    atoms: list[Atom] = []
    for pred in domain.predicates:
        if pred.kind not in kinds:
            continue
        pools = [sort_map[s].members for s in pred.arg_sorts]
        for values in product(*pools):
            atoms.append(Atom(pred.name, tuple(values)))
    return tuple(atoms)


def _head_universe(action_atoms: tuple[Atom, ...]) -> tuple[HeadLiteral, ...]:
    heads: list[HeadLiteral] = []
    for action in action_atoms:
        does = Happening(action, True)
        does_not = Happening(action, False)
        heads.extend(
            [
                HeadLiteral(Modality.PERMITTED, does, True),
                HeadLiteral(Modality.PERMITTED, does, False),
                HeadLiteral(Modality.OBL, does, True),
                HeadLiteral(Modality.OBL, does, False),
                HeadLiteral(Modality.OBL, does_not, True),
                HeadLiteral(Modality.OBL, does_not, False),
            ]
        )
    return tuple(heads)


def _constraint_scope_sorts(
    literals: Iterable[Literal], domain: DomainSpec
) -> dict[str, str]:
    sorts: dict[str, str] = {}
    for lit in literals:
        expected = _positional_sorts(lit.atom, domain)
        if expected is None or len(expected) != len(lit.atom.args):
            raise GroundingError(f"cannot ground ill-formed literal {lit}")
        for arg, sort in zip(lit.atom.args, expected):
            if is_variable(arg):
                sorts.setdefault(arg, sort)
    return sorts


def _scope_variables(literals: Iterable[Literal]) -> tuple[str, ...]:
    seen: list[str] = []
    for lit in literals:
        for var in lit.atom.variables():
            if var not in seen:
                seen.append(var)
    return tuple(seen)


def ground(policy: Policy, domain: DomainSpec) -> GroundPolicy:
    """Instantiate a validated policy over its domain.

    Raises GroundingError when validation reports errors; run validate()
    first for the full diagnostic list.
    """
    diagnostics = validate(policy, domain)
    if has_errors(diagnostics):
        first = next(d for d in diagnostics if d.severity.value == "error")
        raise GroundingError(f"policy does not validate: {first.message}")

    state_atoms = _ground_atoms(domain, (PredicateKind.STATIC, PredicateKind.FLUENT))
    action_atoms = _ground_atoms(domain, (PredicateKind.ACTION,))

    ground_rules: list[GroundRule] = []
    rule_by_label = policy.rule_map()

    for rule in policy.rules:
        if rule.kind is RuleKind.PREFERENCE:
            preferred = rule_by_label[rule.preferred]
            dispreferred = rule_by_label[rule.dispreferred]
            pref_vars = preferred.variables()
            disp_vars = dispreferred.variables()
            variables = pref_vars + tuple(v for v in disp_vars if v not in pref_vars)
            var_sorts = rule_variable_sorts(preferred, policy, domain)
            for var, sort in rule_variable_sorts(dispreferred, policy, domain).items():
                var_sorts.setdefault(var, sort)
            for binding in _bindings(variables, var_sorts, domain):
                ground_rules.append(
                    GroundRule(
                        label=_ground_label(rule.label, variables, binding),
                        base_label=rule.label,
                        kind=RuleKind.PREFERENCE,
                        preferred=_ground_label(rule.preferred, pref_vars, binding),
                        dispreferred=_ground_label(rule.dispreferred, disp_vars, binding),
                        text=rule.text,
                    )
                )
            continue

        variables = rule.variables()
        var_sorts = rule_variable_sorts(rule, policy, domain)
        for binding in _bindings(variables, var_sorts, domain):
            ground_rules.append(
                GroundRule(
                    label=_ground_label(rule.label, variables, binding),
                    base_label=rule.label,
                    kind=rule.kind,
                    head=rule.head.substitute(binding),
                    condition=tuple(lit.substitute(binding) for lit in rule.condition),
                    text=rule.text,
                )
            )

    sort_names = set(domain.sort_map())
    sort_fact_set: set[Atom] = set()

    ground_state_constraints: list[StateConstraint] = []
    for constraint in domain.state_constraints:
        literals = list(constraint.body) + ([constraint.head] if constraint.head else [])
        variables = _scope_variables(literals)
        var_sorts = _constraint_scope_sorts(literals, domain)
        for binding in _bindings(variables, var_sorts, domain):
            ground_state_constraints.append(
                StateConstraint(
                    body=tuple(lit.substitute(binding) for lit in constraint.body),
                    head=constraint.head.substitute(binding) if constraint.head else None,
                )
            )

    ground_exec_constraints: list[ExecConstraint] = []
    for constraint in domain.exec_constraints:
        literals = list(constraint.condition) + [Literal(constraint.action)]
        variables = _scope_variables(literals)
        var_sorts = _constraint_scope_sorts(literals, domain)
        for binding in _bindings(variables, var_sorts, domain):
            ground_exec_constraints.append(
                ExecConstraint(
                    action=constraint.action.substitute(binding),
                    condition=tuple(lit.substitute(binding) for lit in constraint.condition),
                )
            )

    for rule in ground_rules:
        for lit in rule.condition:
            if lit.atom.predicate in sort_names:
                sort_fact_set.add(lit.atom)
    for constraint in ground_state_constraints:
        for lit in list(constraint.body) + ([constraint.head] if constraint.head else []):
            if lit.atom.predicate in sort_names:
                sort_fact_set.add(lit.atom)
    for constraint in ground_exec_constraints:
        for lit in constraint.condition:
            if lit.atom.predicate in sort_names:
                sort_fact_set.add(lit.atom)

    return GroundPolicy(
        rules=tuple(ground_rules),
        state_atoms=state_atoms,
        action_atoms=action_atoms,
        head_universe=_head_universe(action_atoms),
        state_constraints=tuple(ground_state_constraints),
        exec_constraints=tuple(ground_exec_constraints),
        sort_facts=tuple(sorted(sort_fact_set, key=str)),
    )
