"""Instantiation of schematic rules and constraints over declared sorts.

Ground rule labels extend the schematic label with the binding in variable
order, ``d1[c,m]``; a rule without variables keeps its label.  A preference
statement grounds once per consistent binding of its targets' variables:
same-named variables across the two target rules ground together, all others
range independently.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, product
from typing import Iterable, Iterator, Mapping

from .diagnostics import Frozen, has_errors, set_field
from .model import (
    Atom,
    DomainSpec,
    ExecConstraint,
    Happening,
    HeadLiteral,
    Literal,
    Policy,
    PolicyRule,
    PredicateKind,
    RuleKind,
    StateConstraint,
    passed_validation,
    validate,
    variable_sorts,
    variables_of,
)
from .reify import Index


class GroundingError(Exception):
    """Raised when a policy/domain pair cannot be grounded."""


class GroundPolicy(Frozen):
    """A fully instantiated policy together with its ground domain.

    ``rules`` holds the ground instances of the policy's statements in
    statement order, each a ``PolicyRule`` with no ``where`` and a label as
    the module docstring says.  ``state_atoms`` lists the ground static and
    fluent atoms in declaration order and defines the state space;
    ``action_atoms`` lists the ground actions in declaration order.
    ``sort_facts`` are the ground sort membership atoms referenced by rule or
    constraint conditions; they are true in every state.  Two views are built
    once, on first use: ``by_label`` maps each ground label to its rule, and
    ``index`` is the policy in integer form, ``reify.Index(self)``.
    """

    __slots__ = (
        "rules", "state_atoms", "action_atoms", "state_constraints", "exec_constraints",
        "sort_facts", "__dict__",
    )

    def __init__(
        self, rules: tuple[PolicyRule, ...], state_atoms: tuple[Atom, ...],
        action_atoms: tuple[Atom, ...], state_constraints: tuple[StateConstraint, ...] = (),
        exec_constraints: tuple[ExecConstraint, ...] = (), sort_facts: tuple[Atom, ...] = (),
    ) -> None:
        set_field(self, "rules", rules)
        set_field(self, "state_atoms", state_atoms)
        set_field(self, "action_atoms", action_atoms)
        set_field(self, "state_constraints", state_constraints)
        set_field(self, "exec_constraints", exec_constraints)
        set_field(self, "sort_facts", sort_facts)

    @cached_property
    def by_label(self) -> dict[str, PolicyRule]:
        return {rule.label: rule for rule in self.rules}

    @cached_property
    def index(self) -> Index:
        return Index(self)


def _ground_label(base: str, variables: tuple[str, ...], binding: Mapping[str, str]) -> str:
    if not variables:
        return base
    return f"{base}[{','.join(binding[v] for v in variables)}]"


def _bindings(
    atoms: tuple[Atom, ...], domain: DomainSpec, where: Iterable[tuple[str, str]]
) -> tuple[tuple[str, ...], Iterator[dict[str, str]]]:
    """The atoms' variables in first-occurrence order, and every binding of them.

    Bindings count up over the sorts' members with the last variable
    varying fastest.
    """
    variables = variables_of(atoms)
    var_sorts = variable_sorts(atoms, domain, where)
    sort_map = domain.sort_map()
    pools = [sort_map[var_sorts[var]].members for var in variables]
    return variables, (dict(zip(variables, values)) for values in product(*pools))


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


def ground(policy: Policy, domain: DomainSpec) -> GroundPolicy:
    """Instantiate a validated policy over its domain.

    Raises GroundingError when validation reports errors; run validate()
    first for the full diagnostic list.  A pair ``validate`` has just passed,
    such as the one ``parse_files`` returns, is not validated again.  Ground
    rules and constraints share the declared state and action atoms, with one
    Literal per sign of each, so the index matches them by identity.
    """
    if not passed_validation(policy, domain):
        diagnostics = validate(policy, domain)
        if has_errors(diagnostics):
            first = next(d for d in diagnostics if d.severity.value == "error")
            raise GroundingError(f"policy does not validate: {first.message}")

    state_atoms = _ground_atoms(domain, (PredicateKind.STATIC, PredicateKind.FLUENT))
    action_atoms = _ground_atoms(domain, (PredicateKind.ACTION,))
    # One Atom per ground atom, the declared ones, and one Literal per sign of each.
    shared: dict[tuple, object] = {(a.predicate, a.args): a for a in state_atoms + action_atoms}

    def ground_atom(atom: Atom, binding: Mapping[str, str]) -> Atom:
        key = atom.predicate, tuple([binding.get(a, a) for a in atom.args])
        return shared.get(key) or shared.setdefault(key, Atom(*key))

    def ground_literal(lit: Literal, binding: Mapping[str, str]) -> Literal:
        atom = ground_atom(lit.atom, binding)
        key = atom.predicate, atom.args, lit.positive
        return shared.get(key) or shared.setdefault(key, Literal(atom, lit.positive))

    ground_rules: list[PolicyRule] = []
    rule_by_label = policy.rule_map()

    for rule in policy.rules:
        if rule.kind is RuleKind.PREFERENCE:
            # Same-named variables across the two targets ground together.
            preferred = rule_by_label[rule.preferred]
            dispreferred = rule_by_label[rule.dispreferred]
            pref_vars, disp_vars = preferred.variables(), dispreferred.variables()
            variables, bindings = _bindings(
                preferred.atoms() + dispreferred.atoms(),
                domain,
                preferred.where + dispreferred.where,
            )
            for binding in bindings:
                ground_rules.append(
                    PolicyRule(
                        label=_ground_label(rule.label, variables, binding),
                        kind=RuleKind.PREFERENCE,
                        preferred=_ground_label(rule.preferred, pref_vars, binding),
                        dispreferred=_ground_label(rule.dispreferred, disp_vars, binding),
                        text=rule.text,
                    )
                )
            continue

        variables, bindings = _bindings(rule.atoms(), domain, rule.where)
        head, happening = rule.head, rule.head.happening
        for binding in bindings:
            action = Happening(ground_atom(happening.action, binding), happening.positive)
            ground_rules.append(
                PolicyRule(
                    label=_ground_label(rule.label, variables, binding),
                    kind=rule.kind,
                    head=HeadLiteral(head.modality, action, head.positive),
                    condition=tuple([ground_literal(lit, binding) for lit in rule.condition]),
                    text=rule.text,
                )
            )

    state_constraints: list[StateConstraint] = []
    for constraint in domain.state_constraints:
        _, bindings = _bindings(tuple(lit.atom for lit in constraint.literals()), domain, ())
        for binding in bindings:
            state_constraints.append(
                StateConstraint(
                    body=tuple([ground_literal(lit, binding) for lit in constraint.body]),
                    head=constraint.head and ground_literal(constraint.head, binding),
                )
            )

    exec_constraints: list[ExecConstraint] = []
    for constraint in domain.exec_constraints:
        atoms = tuple(lit.atom for lit in constraint.condition) + (constraint.action,)
        _, bindings = _bindings(atoms, domain, ())
        for binding in bindings:
            exec_constraints.append(
                ExecConstraint(
                    action=ground_atom(constraint.action, binding),
                    condition=tuple([ground_literal(lit, binding) for lit in constraint.condition]),
                )
            )

    sort_names = domain.sort_map()
    conditions = chain(
        (rule.condition for rule in ground_rules),
        (constraint.literals() for constraint in state_constraints),
        (constraint.condition for constraint in exec_constraints),
    )
    sort_facts = {
        lit.atom for lits in conditions for lit in lits if lit.atom.predicate in sort_names
    }

    return GroundPolicy(
        rules=tuple(ground_rules),
        state_atoms=state_atoms,
        action_atoms=action_atoms,
        state_constraints=tuple(state_constraints),
        exec_constraints=tuple(exec_constraints),
        sort_facts=tuple(sorted(sort_facts, key=str)),
    )
