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

from functools import cached_property

from .diagnostics import Frozen, set_field
from .model import Atom, Literal
from .reify import ReifiedBase, state_bits


class WorldState(Frozen):
    """A complete truth assignment over the ground state atoms: the fields
    ``universe`` and ``true_atoms``, and ``mask``, the same assignment as an
    int over ``universe`` in ``reify.Index``'s bit order.  A state built
    ``from_mask`` reads ``true_atoms`` and its text off the mask when first used.
    """

    __slots__ = ("universe", "mask", "__dict__")
    _fields = ("universe", "true_atoms")

    def __init__(self, universe: tuple[Atom, ...], true_atoms: frozenset[Atom]) -> None:
        bits = state_bits(universe)
        extra = true_atoms - bits.keys()
        if extra:
            raise ValueError(f"state atoms outside the universe: {sorted(map(str, extra))}")
        set_field(self, "universe", universe)
        set_field(self, "mask", sum(bits[atom] for atom in true_atoms))
        self.__dict__["true_atoms"] = true_atoms

    @classmethod
    def from_mask(cls, universe: tuple[Atom, ...], mask: int) -> WorldState:
        """The state whose true atoms are the set bits of ``mask`` over ``universe``."""
        state = _new(cls)
        _set_universe(state, universe)
        _set_mask(state, mask)
        return state

    def ordered_atoms(self) -> list[Atom]:
        """The true atoms in declaration order: the mask's set bits, highest first."""
        universe, mask, atoms = self.universe, self.mask, []
        n = len(universe)
        while mask:
            top = mask.bit_length()
            atoms.append(universe[n - top])
            mask ^= 1 << (top - 1)
        return atoms

    @cached_property
    def true_atoms(self) -> frozenset[Atom]:
        return frozenset(self.ordered_atoms())

    def literals(self) -> tuple[Literal, ...]:
        return tuple(Literal(a, a in self.true_atoms) for a in self.universe)

    def __str__(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        # Witnesses tied on true atoms are ranked by text; build it once.
        return "{" + ", ".join([str(a) for a in self.ordered_atoms()]) + "}"


# Per enumerated state, the slots' own setters beat ``set_field``'s lookup by name.
_new = object.__new__
_set_universe = WorldState.universe.__set__
_set_mask = WorldState.mask.__set__


def state_literals(base: ReifiedBase, state: WorldState) -> tuple[Literal, ...]:
    """The state joined to the program: its literals, then the sort facts."""
    return state.literals() + tuple(Literal(atom, True) for atom in base.ground.sort_facts)


# One outcome of a complementary head pair: the labels firing its positive
# head, then the labels firing its negative head, each in base rule order.
Outcome = tuple[tuple[str, ...], tuple[str, ...]]


def factor(base: ReifiedBase, state: int) -> dict[int, tuple[Outcome, ...]]:
    """The stable outcomes of each complementary pair.

    A pair appears when a strict rule fires or a defeasible rule applies on
    it; any other pair has the one empty outcome.  A defeasible rule fires
    exactly when its complementary head is absent, so rules sharing a head
    fire together, a strict conclusion blocks the opposite defeasible side,
    and two unblocked defeasible sides give two outcomes, one per side.  The
    answer sets are the cross product of the pairs' outcomes.  ``state`` is
    an int mask over the state atoms; see ``Index``.
    """
    return factor_rules(base.index.rules, base.index.prefers, state)


def factor_rules(rules: tuple, prefers: tuple, state: int) -> dict[int, tuple[Outcome, ...]]:
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
    return groups


class AmbiguityStats(Frozen):
    """Answer-set counts behind an ambiguity verdict for one action.

    ``n`` answer sets in total, ``n_p`` containing permitted(e) and ``n_np``
    containing its negation.
    """

    __slots__ = ("n", "n_p", "n_np")

    def __init__(self, n: int, n_p: int, n_np: int) -> None:
        set_field(self, "n", n)
        set_field(self, "n_p", n_p)
        set_field(self, "n_np", n_np)
