"""Answer-set evaluation of a reified policy against one state.

Rule conditions never mention deontic atoms, so every body's truth value is
fixed by the state before any deontic reasoning starts.  That restriction
shapes the whole procedure:

1. index the base once (``ReifiedBase.index``): states become int bitmasks
   over the state atoms and bodies become mask pairs (sort membership atoms
   are true by construction),
2. evaluate every body against the state and derive the defeated-rule
   atoms: a preference defeats its weaker target whenever the stronger
   rule's body holds,
3. fire every strict rule whose body holds,
4. split the surviving applicable defeasible rules into groups by
   complementary head pair and list each group's stable outcomes: a rule
   fires exactly when its complementary head is absent.

Groups interact with strict conclusions but not with each other, so the
answer sets are the cross product of per-group outcomes.  ``factor`` keeps
them in that factored form, which is what the detectors and the
classifiers read; ``answer_sets`` expands the product into structured
views, and ``AnswerSet.atoms()`` recovers the canonical holds-atoms when a
flat view is wanted.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Union

from .model import Atom, HeadLiteral, Literal
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

    def __hash__(self) -> int:
        # A sweep hashes each state once per finding it holds; hash it once.
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.universe, self.true_atoms)))
            return self._hash

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


# One outcome of a complementary head pair: the labels firing its positive
# head, then the labels firing its negative head, each in base rule order.
Outcome = tuple[tuple[str, ...], tuple[str, ...]]


def factor(
    base: ReifiedBase, state: int
) -> tuple[frozenset[str], dict[int, tuple[Outcome, ...]]]:
    """The defeated rules and the stable outcomes of each complementary pair.

    A pair appears when a strict rule fires or a defeasible rule applies on
    it; any other pair has the one empty outcome.  A defeasible rule fires
    exactly when its complementary head is absent, so rules sharing a head
    fire together, a strict conclusion blocks the opposite defeasible side,
    and two unblocked defeasible sides give two outcomes, one per side.  The
    answer sets are the cross product of the pairs' outcomes.  ``state`` is
    an int mask over the state atoms; see ``Index``.
    """
    index = base.index
    ab = frozenset(
        weaker
        for need, forbid, weaker in index.prefers
        if state & need == need and not state & forbid
    )
    found: dict[int, tuple[list[str], list[str], list[str], list[str]]] = {}
    for need, forbid, label, pair, positive, strict in index.rules:
        if state & need != need or state & forbid or (not strict and label in ab):
            continue
        lists = found.get(pair)
        if lists is None:
            lists = found[pair] = ([], [], [], [])  # positive, negative, strict of each
        side = 0 if positive else 1
        lists[side].append(label)
        if strict:
            lists[side + 2].append(label)
    groups: dict[int, tuple[Outcome, ...]] = {}
    for pair, (pos, neg, strict_pos, strict_neg) in found.items():
        if strict_pos and strict_neg:
            groups[pair] = ((tuple(strict_pos), tuple(strict_neg)),)
        elif strict_pos:
            groups[pair] = ((tuple(pos), ()),)
        elif strict_neg:
            groups[pair] = (((), tuple(neg)),)
        elif pos and neg:
            groups[pair] = ((tuple(pos), ()), ((), tuple(neg)))
        else:
            groups[pair] = ((tuple(pos), tuple(neg)),)
    return ab, groups


def answer_sets(base: ReifiedBase, state: WorldState) -> list[AnswerSet]:
    """All answer sets of the reified policy joined with the state.

    Expands the factored form into models.  At least one exists for every
    policy in the supported class; the list is sorted by canonical atom
    strings, so equal inputs give identical output.
    """
    index = base.index
    mask = index.mask(state)
    ab_rules, groups = factor(base, mask)
    satisfied = frozenset(
        label
        for label, (need, forbid) in index.bodies.items()
        if mask & need == need and not mask & forbid
    )
    state_literals = _state_literals(base, state)
    choices = [
        [(index.pairs[pair], outcome) for outcome in outcomes]
        for pair, outcomes in groups.items()
    ]
    models: list[AnswerSet] = []
    for combo in product(*choices):
        fired: set[str] = set()
        heads: set[HeadLiteral] = set()
        for head, (pos, neg) in combo:
            fired.update(pos, neg)
            if pos:
                heads.add(head)
            if neg:
                heads.add(head.opposite())
        models.append(
            AnswerSet(
                state_literals=state_literals,
                satisfied_bodies=satisfied,
                fired_rules=frozenset(fired),
                heads=frozenset(heads),
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
