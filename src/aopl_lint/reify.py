"""Reification of a ground policy into a logic-program fact base.

Every ground statement becomes data: a ``rule`` fact, a ``type`` fact
(strict, defeasible, or prefer), a ``head`` fact for its deontic literal, one
``mbr`` fact per condition literal grouped under the body term ``b(label)``,
a ``prefer`` fact for preference statements, and a ``text`` fact when the
statement carries its natural-language source.  A fixed, policy-independent
rule set then evaluates any such fact base against a state, which is what
lets one engine answer questions about every policy instead of compiling
each policy into its own program.

The facts are the ground rules themselves; the emitters write them out,
and the engine reads them through the base's integer index, built once on
first evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from .grounding import GroundPolicy, GroundRule
from .model import Atom, Happening, HeadLiteral, Literal, Modality, RuleKind

if TYPE_CHECKING:
    from .engine import WorldState


@dataclass(frozen=True)
class Index:
    """A ground policy in integer form, shared across states.

    A state is an int with bit ``i`` set when ``state_atoms[i]`` is true.  A
    body is a (must-be-true, must-be-false) mask pair with sort facts folded
    in; a body that can never hold is left out of ``bodies``.  ``pairs``
    holds the positive member of every complementary head pair, ordered by
    ``str``.  ``rules`` holds (true mask, false mask, label, pair, positive
    head, strict) per strict or defeasible rule in base order, and
    ``prefers`` (the stronger body's masks, the weaker label) per
    preference.  ``actions`` holds, per ground action, its permitted,
    obl(a) and obl(-a) pair indexes, its authorization rules and the state
    bits their conditions mention; ``exec_conditions`` holds (masks, action
    index).  ``by_label`` maps each label to its ground rule.
    """

    bits: dict[Atom, int]
    bodies: dict[str, tuple[int, int]]
    pairs: tuple[HeadLiteral, ...]
    rules: tuple[tuple[int, int, str, int, bool, bool], ...]
    prefers: tuple[tuple[int, int, str], ...]
    actions: tuple[tuple[int, int, int, tuple[GroundRule, ...], int], ...]
    exec_conditions: tuple[tuple[int, int, int], ...]
    by_label: dict[str, GroundRule]

    def mask(self, state: WorldState) -> int:
        """The state as an int over ``state_atoms``."""
        bits = self.bits
        return sum(bits[atom] for atom in state.true_atoms)

    def executable(self, state: int) -> list[int]:
        """Indexes of the actions no executability condition blocks."""
        blocked = {
            action
            for need, forbid, action in self.exec_conditions
            if state & need == need and not state & forbid
        }
        return [a for a in range(len(self.actions)) if a not in blocked]


@dataclass(frozen=True)
class ReifiedBase:
    """Fact-level view of a ground policy.

    Treat instances as immutable: the analysis layer shares one base across
    states and may partition sweeps over it.  ``ground`` holds the rules,
    ``display`` every rule's text as reports quote it, and ``index`` the
    integer form the engine evaluates, built on first use.
    """

    display: dict[str, str]
    ground: GroundPolicy

    def text_or_print(self, label: str) -> str:
        """A rule's source text, falling back to the formal statement."""
        return self.display[label]

    @cached_property
    def index(self) -> Index:
        """The integer form of the policy; see ``Index``."""
        return _build_index(self.ground)


def _display_text(rule: GroundRule) -> str:
    if rule.text is not None:
        return rule.text
    if rule.kind is RuleKind.PREFERENCE:
        return f"prefer {rule.preferred} over {rule.dispreferred}"
    body = ", ".join(str(lit) for lit in rule.condition)
    return f"{rule.head} if {body}" if body else str(rule.head)


def reify(ground_policy: GroundPolicy) -> ReifiedBase:
    """Translate a ground policy into its fact base.

    The translation is injective on ground policies: labels, kinds, heads,
    body members, preference targets, and texts are all preserved as data.
    """
    return ReifiedBase(
        display={rule.label: _display_text(rule) for rule in ground_policy.rules},
        ground=ground_policy,
    )


def _body_masks(
    body: Iterable[Literal], bits: dict[Atom, int], sort_facts: frozenset[Atom]
) -> tuple[int, int] | None:
    need = forbid = 0
    for lit in body:
        if lit.atom in sort_facts:
            if not lit.positive:
                return None
        elif lit.atom in bits:
            if lit.positive:
                need |= bits[lit.atom]
            else:
                forbid |= bits[lit.atom]
        elif lit.positive:
            return None
    return need, forbid


def _build_index(gp: GroundPolicy) -> Index:
    bits = {atom: 1 << i for i, atom in enumerate(gp.state_atoms)}
    sort_facts = frozenset(gp.sort_facts)
    bodies = {
        rule.label: masks
        for rule in gp.rules
        if (masks := _body_masks(rule.condition, bits, sort_facts)) is not None
    }
    pairs = tuple(sorted({h if h.positive else h.opposite() for h in gp.head_universe}, key=str))
    pair_of = {head: i for i, head in enumerate(pairs)}
    rules = tuple(
        (
            *bodies[rule.label],
            rule.label,
            pair_of[rule.head if rule.head.positive else rule.head.opposite()],
            rule.head.positive,
            rule.kind is RuleKind.STRICT,
        )
        for rule in gp.rules
        if rule.head is not None and rule.label in bodies
    )
    prefers = tuple(
        (*bodies[rule.preferred], rule.dispreferred)
        for rule in gp.rules
        if rule.kind is RuleKind.PREFERENCE and rule.preferred in bodies
    )

    authorizations: dict[Atom, list[GroundRule]] = {action: [] for action in gp.action_atoms}
    for rule in gp.rules:
        if rule.head is not None and rule.head.modality is Modality.PERMITTED:
            authorizations[rule.head.happening.action].append(rule)
    actions = []
    for action, auth in authorizations.items():
        does = Happening(action, True)
        mentioned = {bits[lit.atom] for rule in auth for lit in rule.condition if lit.atom in bits}
        actions.append(
            (
                pair_of[HeadLiteral(Modality.PERMITTED, does, True)],
                pair_of[HeadLiteral(Modality.OBL, does, True)],
                pair_of[HeadLiteral(Modality.OBL, does.negated(), True)],
                tuple(auth),
                sum(mentioned),
            )
        )
    action_index = {action: i for i, action in enumerate(gp.action_atoms)}
    exec_conditions = tuple(
        (*masks, action_index[constraint.action])
        for constraint in gp.exec_constraints
        if (masks := _body_masks(constraint.condition, bits, sort_facts)) is not None
    )
    return Index(
        bits=bits,
        bodies=bodies,
        pairs=pairs,
        rules=rules,
        prefers=prefers,
        actions=tuple(actions),
        exec_conditions=exec_conditions,
        by_label={rule.label: rule for rule in gp.rules},
    )
