"""Answer-set evaluation of a reified policy against one state.

Rule conditions never mention deontic atoms, so every body's truth value is
fixed by the state before any deontic reasoning starts.  That restriction
shapes the whole procedure:

1. index the ground policy once (``ReifiedBase.index``): states become int
   bitmasks over the state atoms and bodies become mask pairs (sort
   membership atoms are true by construction),
2. derive the defeated-rule atoms: a preference defeats its weaker target
   whenever the stronger rule's body holds in the state,
3. fire every strict rule whose body holds,
4. split the surviving applicable defeasible rules into groups by
   complementary head pair and list each group's stable outcomes: a rule
   fires exactly when its complementary head is absent.

Groups interact with strict conclusions but not with each other, so the
answer sets are the cross product of per-group outcomes.  ``factor`` keeps
them in that factored form and never expands the product: the detectors,
the classifiers and the sweep read each question off the outcomes of the
few pairs it concerns, and the number of answer sets is the product of the
group sizes.
An action's three pairs, their rules and the preferences defeating those
rules form a splitting set (Lifschitz & Turner, 1994), so ``factor_rules``
on the action's ``Index.slices`` entry gives those pairs' exact outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .model import Atom, Literal
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
        return self._text

    @cached_property
    def _text(self) -> str:
        # Witnesses tied on true atoms are ranked by text; build it once.
        inside = ", ".join(str(a) for a in self.universe if a in self.true_atoms)
        return "{" + inside + "}"


def state_literals(base: ReifiedBase, state: WorldState) -> tuple[Literal, ...]:
    """The state joined to the program: its literals, then the sort facts."""
    return state.literals() + tuple(Literal(atom, True) for atom in base.ground.sort_facts)


# One outcome of a complementary head pair: the labels firing its positive
# head, then the labels firing its negative head, each in base rule order.
Outcome = tuple[tuple[str, ...], tuple[str, ...]]
Factored = tuple[frozenset[str], dict[int, tuple[Outcome, ...]]]  # see ``factor``


def factor(base: ReifiedBase, state: int) -> Factored:
    """The defeated rules and the stable outcomes of each complementary pair.

    A pair appears when a strict rule fires or a defeasible rule applies on
    it; any other pair has the one empty outcome.  A defeasible rule fires
    exactly when its complementary head is absent, so rules sharing a head
    fire together, a strict conclusion blocks the opposite defeasible side,
    and two unblocked defeasible sides give two outcomes, one per side.  The
    answer sets are the cross product of the pairs' outcomes.  ``state`` is
    an int mask over the state atoms; see ``Index``.
    """
    return factor_rules(base.index.rules, base.index.prefers, state)


def factor_rules(rules: tuple, prefers: tuple, state: int) -> Factored:
    """``factor`` on some ``Index.rules`` and ``Index.prefers`` entries, such as a slice."""
    ab = frozenset(
        weaker for need, forbid, weaker in prefers if state & need == need and not state & forbid
    )
    found: dict[int, tuple[list[str], list[str], list[str], list[str]]] = {}
    for need, forbid, label, pair, positive, strict in rules:
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


@dataclass(frozen=True)
class AmbiguityStats:
    """Answer-set counts behind an ambiguity verdict for one action.

    ``n`` answer sets in total, ``n_p`` containing permitted(e) and ``n_np``
    containing its negation.
    """

    n: int
    n_p: int
    n_np: int
