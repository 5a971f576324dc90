"""Reification of a ground policy into a logic-program fact base.

Every ground statement becomes data: a ``rule`` fact, a ``type`` fact
(strict, defeasible, or prefer), a ``head`` fact for its deontic literal, one
``mbr`` fact per condition literal grouped under the body term ``b(label)``,
a ``prefer`` fact for preference statements, and a ``text`` fact when the
statement carries its natural-language source.  A fixed, policy-independent
rule set then evaluates any such fact base against a state, which is what
lets one engine answer questions about every policy instead of compiling
each policy into its own program.
"""

from __future__ import annotations

from dataclasses import dataclass

from .grounding import GroundPolicy, GroundRule
from .model import HeadLiteral, Literal, RuleKind


@dataclass(frozen=True)
class ReifiedBase:
    """Fact-level view of a ground policy.

    Treat instances as immutable: the analysis layer shares one base across
    states and may partition sweeps over it.  ``texts`` holds the source
    text of the rules that have one; ``display`` holds every rule's text as
    reports quote it.
    """

    rules: tuple[str, ...]
    types: dict[str, RuleKind]
    heads: dict[str, HeadLiteral]
    bodies: dict[str, tuple[Literal, ...]]
    prefers: tuple[tuple[str, str], ...]
    texts: dict[str, str]
    display: dict[str, str]
    ground: GroundPolicy

    def text_or_print(self, label: str) -> str:
        """A rule's source text, falling back to the formal statement."""
        return self.display[label]


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
    labels: list[str] = []
    types: dict[str, RuleKind] = {}
    heads: dict[str, HeadLiteral] = {}
    bodies: dict[str, tuple[Literal, ...]] = {}
    prefers: list[tuple[str, str]] = []
    texts: dict[str, str] = {}

    for rule in ground_policy.rules:
        labels.append(rule.label)
        types[rule.label] = rule.kind
        bodies[rule.label] = rule.condition
        if rule.head is not None:
            heads[rule.label] = rule.head
        if rule.kind is RuleKind.PREFERENCE:
            prefers.append((rule.preferred, rule.dispreferred))
        if rule.text is not None:
            texts[rule.label] = rule.text

    return ReifiedBase(
        rules=tuple(labels),
        types=types,
        heads=heads,
        bodies=bodies,
        prefers=tuple(prefers),
        texts=texts,
        display={rule.label: _display_text(rule) for rule in ground_policy.rules},
        ground=ground_policy,
    )
