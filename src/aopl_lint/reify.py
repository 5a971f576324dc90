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
and the engine reads them through the ground policy's integer index, built
once on first use.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Iterable

from .diagnostics import Frozen, set_field
from .grounding import GroundPolicy, GroundRule
from .model import Atom, Literal, Modality, RuleKind

if TYPE_CHECKING:
    from .engine import WorldState


class Index(Frozen):
    """A ground policy in integer form, shared across states.

    A state is an int read as a binary numeral over ``state_atoms`` in
    declaration order: the first declared atom is the most significant bit
    and the last the least, so ``state_atoms[i]`` is bit ``n - 1 - i``.  A
    body is a (must-be-true, must-be-false) mask pair with sort facts folded
    in; a rule or preference whose body can never hold is left out.  A
    complementary head pair is an int: ground action ``a``'s permitted(a),
    obl(a) and obl(-a) pairs are ``3 * a`` to ``3 * a + 2``.  ``rules`` holds
    (true mask, false mask, label, pair, positive head, strict) per strict or
    defeasible rule in base order, and ``prefers`` (the stronger body's
    masks, the weaker label) per preference.  ``actions`` holds, per ground
    action, its permitted, obl(a) and obl(-a) pair indexes, its authorization
    rules and the state bits their conditions mention.  ``slices`` holds, per ground action, the
    ``rules`` on its three pairs and the ``prefers`` whose weaker rule is one
    of them; a pair has one action, so the slices partition both.
    ``relevant`` holds, per ground action, every state bit its findings
    read: the bodies in its slice and its authorization bits.
    ``exec_conditions`` holds (masks, action index).  ``constraints`` holds
    the state constraints whose body can hold and whose head can fail, split
    into ``components`` of the bits they read: per component, its mask and
    the sub-masks it accepts, as a frozenset for at most ``CHUNK_BITS`` bits
    and else as ``ConstraintChecks``, where a missing or unsatisfiable head
    needs a bit past the last state atom.  ``by_label`` maps each label to
    its ground rule.
    """

    __slots__ = (
        "bits", "rules", "prefers", "actions", "slices", "relevant",
        "exec_conditions", "constraints", "by_label", "sort_facts",
    )

    def __init__(
        self, bits: dict[Atom, int], rules: tuple[tuple[int, int, str, int, bool, bool], ...],
        prefers: tuple[tuple[int, int, str], ...],
        actions: tuple[tuple[int, int, int, tuple[GroundRule, ...], int], ...],
        slices: tuple[tuple[tuple, tuple], ...], relevant: tuple[int, ...],
        exec_conditions: tuple[tuple[int, int, int], ...],
        constraints: tuple[tuple[int, frozenset[int] | ConstraintChecks], ...],
        by_label: dict[str, GroundRule], sort_facts: frozenset[Atom],
    ) -> None:
        set_field(self, "bits", bits)
        set_field(self, "rules", rules)
        set_field(self, "prefers", prefers)
        set_field(self, "actions", actions)
        set_field(self, "slices", slices)
        set_field(self, "relevant", relevant)
        set_field(self, "exec_conditions", exec_conditions)
        set_field(self, "constraints", constraints)
        set_field(self, "by_label", by_label)
        set_field(self, "sort_facts", sort_facts)

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

    def failing(self, body: Iterable[Literal], state: int) -> tuple[Literal, ...]:
        """The literals of ``body`` that do not hold in ``state``."""
        out = []
        for lit in body:
            masks = _body_masks((lit,), self.bits, self.sort_facts)
            if masks is None or state & masks[0] != masks[0] or state & masks[1]:
                out.append(lit)
        return tuple(out)


class ReifiedBase(Frozen):
    """Fact-level view of a ground policy.

    Treat instances as immutable: the analysis layer shares one base across
    states and may partition sweeps over it.  ``ground`` holds the rules,
    ``display`` every rule's text as reports quote it, and ``index`` the
    integer form the engine evaluates, which the ground policy builds once.
    """

    __slots__ = ("display", "ground", "__dict__")

    def __init__(self, display: dict[str, str], ground: GroundPolicy) -> None:
        set_field(self, "display", display)
        set_field(self, "ground", ground)

    def text_or_print(self, label: str) -> str:
        """A rule's source text, falling back to the formal statement."""
        return self.display[label]

    @cached_property
    def index(self) -> Index:
        """The integer form of the policy; see ``Index``."""
        return self.ground.index


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
        if (bit := bits.get(lit.atom)) is None:
            # Any other atom is a sort fact, true in every state, or false in every state.
            if lit.positive != (lit.atom in sort_facts):
                return None
        elif lit.positive:
            need |= bit
        else:
            forbid |= bit
    return need, forbid


# Enumeration and the constraint tables take this many bits at a time.
CHUNK_BITS = 8
# A sweep table holds an entry per value of its bits, so wider components are split.
COMPONENT_BITS = 10


def components(masks: list[int]) -> list[int]:
    """Each mask's component: the union of the masks linked to it by shared bits, or 0."""
    owner: dict[int, int] = {}  # each bit's component so far
    for mask in dict.fromkeys(masks):
        joined = rest = mask
        while rest:
            joined |= owner.get(rest & -rest, 0)
            rest &= rest - 1
        rest = joined
        while rest:
            owner[rest & -rest] = joined
            rest &= rest - 1
    return [owner.get(mask & -mask, 0) for mask in masks]


class ConstraintChecks(tuple):
    """(body masks, head masks) per constraint: holds a state each body fails or head holds in."""

    def __contains__(self, state: object) -> bool:
        return all(
            state & need != need or state & forbid
            or (state & hneed == hneed and not state & hforbid)
            for need, forbid, hneed, hforbid in self
        )


def state_bits(universe: tuple[Atom, ...]) -> dict[Atom, int]:
    """Each state atom's bit in a state's int mask; see ``Index``."""
    return {atom: 1 << i for i, atom in enumerate(reversed(universe))}


def _build_index(gp: GroundPolicy) -> Index:
    bits = state_bits(gp.state_atoms)
    sort_facts = frozenset(gp.sort_facts)
    bodies = {
        rule.label: masks
        for rule in gp.rules
        if (masks := _body_masks(rule.condition, bits, sort_facts)) is not None
    }
    action_index = {action: i for i, action in enumerate(gp.action_atoms)}
    authorizations: list[list[GroundRule]] = [[] for _ in gp.action_atoms]
    slices: list[tuple[list, list]] = [([], []) for _ in gp.action_atoms]
    relevant = [0] * len(gp.action_atoms)
    action_of = {}
    rules = []
    for rule in gp.rules:
        if (head := rule.head) is None:
            continue
        a = action_index[head.happening.action]
        if head.modality is Modality.PERMITTED:
            slot = 0
            authorizations[a].append(rule)
        else:
            slot = 1 if head.happening.positive else 2
        if (masks := bodies.get(rule.label)) is not None:
            entry = (*masks, rule.label, 3 * a + slot, head.positive, rule.kind is RuleKind.STRICT)
            rules.append(entry)
            slices[a][0].append(entry)
            relevant[a] |= masks[0] | masks[1]
            action_of[rule.label] = a
    prefers = []
    for rule in gp.rules:
        if rule.kind is RuleKind.PREFERENCE and rule.preferred in bodies:
            prefers.append(entry := (*bodies[rule.preferred], rule.dispreferred))
            if (a := action_of.get(rule.dispreferred)) is not None:
                slices[a][1].append(entry)
                relevant[a] |= entry[0] | entry[1]
    actions = []
    for a, auth in enumerate(authorizations):
        mentioned = sum({bits.get(lit.atom, 0) for rule in auth for lit in rule.condition})
        relevant[a] |= mentioned
        actions.append((3 * a, 3 * a + 1, 3 * a + 2, tuple(auth), mentioned))
    exec_conditions = tuple(
        (*masks, action_index[constraint.action])
        for constraint in gp.exec_constraints
        if (masks := _body_masks(constraint.condition, bits, sort_facts)) is not None
    )
    never = 1 << len(bits)
    checks = []
    for constraint in gp.state_constraints:
        body = _body_masks(constraint.body, bits, sort_facts)
        head = constraint.head and _body_masks((constraint.head,), bits, sort_facts)
        if body is not None and head != (0, 0):
            checks.append((*body, *(head or (never, 0))))
    # The state bits each constraint reads: its masks without the never bit.
    component_of = components([(c[0] | c[1] | c[2] | c[3]) % never for c in checks])
    constraints = []
    for component in dict.fromkeys(component_of):
        group = ConstraintChecks(check for check, c in zip(checks, component_of) if c == component)
        if component.bit_count() <= CHUNK_BITS:
            subs = [0]  # every sub-mask, in increasing order
            while subs[-1] != component:
                subs.append((subs[-1] - component) & component)
            group = frozenset(sub for sub in subs if sub in group)
        constraints.append((component, group))
    return Index(
        bits=bits,
        rules=tuple(rules),
        prefers=tuple(prefers),
        actions=tuple(actions),
        slices=tuple((tuple(own), tuple(defeats)) for own, defeats in slices),
        relevant=tuple(relevant),
        exec_conditions=exec_conditions,
        constraints=tuple(constraints),
        by_label={rule.label: rule for rule in gp.rules},
        sort_facts=sort_facts,
    )
