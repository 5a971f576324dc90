"""Answer-set evaluation of a reified policy against one state.

Rule conditions never mention deontic atoms, so every body's truth value is
fixed by the state before any deontic reasoning starts.  That restriction
shapes the whole procedure:

1. evaluate every body against the state (sort membership atoms are true by
   construction),
2. derive the defeated-rule atoms: a preference defeats its weaker target
   whenever the stronger rule's body holds,
3. fire every strict rule whose body holds,
4. split the surviving applicable defeasible rules into groups by
   complementary head pair and enumerate each group's stable choices: a rule
   fires exactly when its complementary head is absent from the candidate.

Groups interact with strict conclusions but not with each other, so the
answer sets are the cross product of per-group choices.  Each is returned as
a structured view rather than a flat atom set; ``AnswerSet.atoms()`` recovers
the canonical holds-atoms when a flat view is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Union

from .model import Atom, HeadLiteral, Literal, RuleKind
from .reify import ReifiedBase


@dataclass(frozen=True)
class WorldState:
    """A complete truth assignment over the ground state atoms."""

    universe: tuple[Atom, ...]
    true_atoms: frozenset[Atom]

    def __post_init__(self) -> None:
        extra = self.true_atoms - set(self.universe)
        if extra:
            raise ValueError(f"state atoms outside the universe: {sorted(map(str, extra))}")

    def literals(self) -> tuple[Literal, ...]:
        return tuple(Literal(a, a in self.true_atoms) for a in self.universe)

    def satisfies(self, literal: Literal) -> bool:
        return (literal.atom in self.true_atoms) == literal.positive

    def positive_count(self) -> int:
        return len(self.true_atoms)

    def __str__(self) -> str:
        inside = ", ".join(str(a) for a in self.universe if a in self.true_atoms)
        return "{" + inside + "}"


@dataclass(frozen=True)
class AnswerSet:
    """One answer set, split into its natural layers.

    ``state_literals`` echoes the state plus the always-true sort facts;
    ``satisfied_bodies``, ``fired_rules``, and ``ab_rules`` hold rule labels;
    ``heads`` holds the deontic conclusions.
    """

    state_literals: frozenset[Literal]
    satisfied_bodies: frozenset[str]
    fired_rules: frozenset[str]
    heads: frozenset[HeadLiteral]
    ab_rules: frozenset[str]

    def atoms(self) -> frozenset[str]:
        """Canonical holds-atom strings, one per member of the answer set."""
        out: set[str] = set()
        out.update(f"holds({lit})" for lit in self.state_literals)
        out.update(f"holds(b({label}))" for label in self.satisfied_bodies)
        out.update(f"holds({label})" for label in self.fired_rules)
        out.update(f"holds({head})" for head in self.heads)
        out.update(f"holds(ab({label}))" for label in self.ab_rules)
        return frozenset(out)

    def sort_key(self) -> tuple[str, ...]:
        return tuple(sorted(self.atoms()))


Query = Union[HeadLiteral, Literal]


def _state_literals(base: ReifiedBase, state: WorldState) -> frozenset[Literal]:
    literals = set(state.literals())
    literals.update(Literal(atom, True) for atom in base.ground.sort_facts)
    return frozenset(literals)


def _body_satisfied(
    body: tuple[Literal, ...], state: WorldState, sort_facts: frozenset[Atom]
) -> bool:
    for lit in body:
        if lit.atom in sort_facts:
            if not lit.positive:
                return False
        elif not state.satisfies(lit):
            return False
    return True


def _pair_key(head: HeadLiteral) -> str:
    positive = head if head.positive else head.opposite()
    return str(positive)


def _group_choices(
    group: list[str], base: ReifiedBase, strict_heads: frozenset[HeadLiteral]
) -> list[tuple[str, ...]]:
    """Stable subsets of one complementary-head group of applicable rules.

    A candidate choice is stable when every rule in the group fires exactly
    if its complementary head is absent from the candidate's conclusions.
    """
    choices: list[tuple[str, ...]] = []
    for mask in range(1 << len(group)):
        chosen = tuple(label for i, label in enumerate(group) if mask >> i & 1)
        heads = set(strict_heads)
        heads.update(base.heads[label] for label in chosen)
        stable = True
        for i, label in enumerate(group):
            fires = bool(mask >> i & 1)
            blocked = base.heads[label].opposite() in heads
            if fires == blocked:
                stable = False
                break
        if stable:
            choices.append(chosen)
    return choices


def answer_sets(base: ReifiedBase, state: WorldState) -> list[AnswerSet]:
    """All answer sets of the reified policy joined with the state.

    At least one exists for every policy in the supported class; the list is
    sorted by canonical atom strings, so equal inputs give identical output.
    """
    sort_facts = frozenset(base.ground.sort_facts)
    body_sat = {
        label: _body_satisfied(base.bodies[label], state, sort_facts)
        for label in base.rules
    }
    satisfied = frozenset(label for label, ok in body_sat.items() if ok)
    ab_rules = frozenset(
        weaker for stronger, weaker in base.prefers if body_sat[stronger]
    )

    strict_fired = tuple(
        label
        for label in base.rules
        if base.types[label] is RuleKind.STRICT and body_sat[label]
    )
    strict_heads = frozenset(base.heads[label] for label in strict_fired)

    applicable = [
        label
        for label in base.rules
        if base.types[label] is RuleKind.DEFEASIBLE
        and body_sat[label]
        and label not in ab_rules
    ]
    groups: dict[str, list[str]] = {}
    for label in applicable:
        groups.setdefault(_pair_key(base.heads[label]), []).append(label)

    state_literals = _state_literals(base, state)
    per_group = [
        _group_choices(groups[key], base, strict_heads) for key in sorted(groups)
    ]

    models: list[AnswerSet] = []
    for combo in product(*per_group):
        defeasible_fired = tuple(label for chosen in combo for label in chosen)
        fired = frozenset(strict_fired + defeasible_fired)
        heads = frozenset(
            set(strict_heads) | {base.heads[label] for label in defeasible_fired}
        )
        models.append(
            AnswerSet(
                state_literals=state_literals,
                satisfied_bodies=satisfied,
                fired_rules=fired,
                heads=heads,
                ab_rules=ab_rules,
            )
        )
    models.sort(key=AnswerSet.sort_key)
    return models


def model_contains(model: AnswerSet, query: Query) -> bool:
    if isinstance(query, HeadLiteral):
        return query in model.heads
    if isinstance(query, Literal):
        return query in model.state_literals
    raise TypeError(f"unsupported query type: {type(query).__name__}")


def entails(
    base: ReifiedBase,
    state: WorldState,
    query: Query,
    models: list[AnswerSet] | None = None,
) -> bool:
    """Cautious entailment: the query holds in every answer set.

    Pass precomputed ``models`` to avoid re-evaluating the same state.
    """
    if models is None:
        models = answer_sets(base, state)
    return all(model_contains(m, query) for m in models)


@dataclass(frozen=True)
class AmbiguityStats:
    """Answer-set counts behind an ambiguity verdict for one action.

    ``n`` answer sets in total, ``n_p`` containing permitted(e) and ``n_np``
    containing its negation.
    """

    n: int
    n_p: int
    n_np: int


def ambiguity_stats(models: Iterable[AnswerSet], permitted: HeadLiteral) -> AmbiguityStats:
    """Count models deciding an action's permission each way."""
    negated = permitted.opposite()
    n = n_p = n_np = 0
    for model in models:
        n += 1
        if permitted in model.heads:
            n_p += 1
        if negated in model.heads:
            n_np += 1
    return AmbiguityStats(n=n, n_p=n_p, n_np=n_np)
