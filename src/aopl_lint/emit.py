"""Emission of ground policies as solver-ready ASP text.

Two variants cover the two evaluation styles:

* ``lp`` compiles each ground rule directly: strict rules become plain
  rules, defeasible rules guard themselves with ``not ab(..)`` and the
  complementary head, preferences emit ``ab`` rules keyed on the stronger
  rule's condition.  Classical negation uses ``-``.
* ``rei`` emits the policy as facts (rule, type, head, mbr, prefer, text)
  plus a fixed policy-independent evaluation block.  Since every deontic or
  state literal appears there as a term argument, classical negation is
  spelled as a ``neg(..)`` function term instead of ``-``.

Ground labels like ``d1[c,m]`` are written as function terms ``d1(c,m)`` so
the output stays inside standard ASP syntax.  Output is deterministic byte
for byte: rules sort by ground label and states print in universe order.
"""

from __future__ import annotations

from .engine import WorldState, state_literals
from .model import Happening, HeadLiteral, Literal, RuleKind
from .reify import ReifiedBase

POLICY_INDEPENDENT_RULES = """\
body(R, b(R)) :- rule(R).
holds(R) :- type(R, strict), holds(b(R)).
holds(R) :- type(R, defeasible), holds(b(R)), opp(R, O), not holds(O), not holds(ab(R)).
holds(B) :- body(R, B), N = #count{ L : mbr(B, L) }, N = #count{ L : mbr(B, L), holds(L) }.
holds(ab(R2)) :- prefer(R1, R2), holds(b(R1)).
holds(H) :- rule(R), holds(R), head(R, H).
opp(R, permitted(E)) :- head(R, neg(permitted(E))).
opp(R, neg(permitted(E))) :- head(R, permitted(E)).
opp(R, obl(H)) :- head(R, neg(obl(H))).
opp(R, neg(obl(H))) :- head(R, obl(H)).
"""

_ASP_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n"}


def _asp_string(text: str) -> str:
    return '"' + "".join(_ASP_ESCAPES.get(ch, ch) for ch in text) + '"'


def mangle_label(label: str) -> str:
    """Rewrite a ground label ``d1[c,m]`` as the ASP term ``d1(c,m)``."""
    if label.endswith("]") and "[" in label:
        base, _, binding = label.partition("[")
        return f"{base}({binding[:-1]})"
    return label


# Classical negation as each variant spells it: ``rei`` writes literals as
# terms, ``lp`` as classical literals.
_TERM, _CLASSICAL = "neg({})", "-{}"


def _happening_term(happening: Happening) -> str:
    term = str(happening.action)
    return term if happening.positive else f"neg({term})"


def _head(head: HeadLiteral, negation: str) -> str:
    inner = f"{head.modality.value}({_happening_term(head.happening)})"
    return inner if head.positive else negation.format(inner)


def _literal(literal: Literal, negation: str) -> str:
    return str(literal.atom) if literal.positive else negation.format(literal.atom)


def _emit_lp(base: ReifiedBase, lines: list[str]) -> None:
    by_label = base.ground.rule_map()
    for rule in sorted(base.ground.rules, key=lambda r: r.label):
        lines.append(f"% {rule.label}")
        if rule.kind is RuleKind.PREFERENCE:
            stronger_body = by_label[rule.preferred].condition
            head = f"ab({mangle_label(rule.dispreferred)})"
            if stronger_body:
                body = ", ".join(_literal(lit, _CLASSICAL) for lit in stronger_body)
                lines.append(f"{head} :- {body}.")
            else:
                lines.append(f"{head}.")
            continue
        head = _head(rule.head, _CLASSICAL)
        parts = [_literal(lit, _CLASSICAL) for lit in rule.condition]
        if rule.kind is RuleKind.DEFEASIBLE:
            parts.append(f"not ab({mangle_label(rule.label)})")
            parts.append(f"not {_head(rule.head.opposite(), _CLASSICAL)}")
        if parts:
            lines.append(f"{head} :- {', '.join(parts)}.")
        else:
            lines.append(f"{head}.")


def _emit_rei(base: ReifiedBase, lines: list[str]) -> None:
    for rule in sorted(base.ground.rules, key=lambda r: r.label):
        label = mangle_label(rule.label)
        lines.append(f"% {rule.label}")
        lines.append(f"rule({label}).")
        lines.append(f"type({label}, {rule.kind.value}).")
        if rule.head is not None:
            lines.append(f"head({label}, {_head(rule.head, _TERM)}).")
        for member in rule.condition:
            lines.append(f"mbr(b({label}), {_literal(member, _TERM)}).")
        if rule.kind is RuleKind.PREFERENCE:
            lines.append(
                f"prefer({mangle_label(rule.preferred)}, {mangle_label(rule.dispreferred)})."
            )
        if rule.text is not None:
            lines.append(f"text({label}, {_asp_string(rule.text)}).")
    lines.append("")
    lines.append("% policy-independent evaluation rules")
    lines.append(POLICY_INDEPENDENT_RULES.rstrip("\n"))


def emit_asp(
    base: ReifiedBase, variant: str = "rei", state: WorldState | None = None
) -> str:
    """Render the policy (optionally joined with a state) as ASP text."""
    if variant not in ("lp", "rei"):
        raise ValueError(f"unknown emission variant: {variant!r}")
    lines = [
        f"% {variant} program for {len(base.ground.rules)} ground rule(s)",
    ]
    if base.ground.rules:
        lines.append("")
        if variant == "lp":
            _emit_lp(base, lines)
        else:
            _emit_rei(base, lines)

    if state is not None:
        lines.append("")
        lines.append("% state")
        for lit in state_literals(base, state):
            if variant == "lp":
                lines.append(f"{_literal(lit, _CLASSICAL)}.")
            else:
                lines.append(f"holds({_literal(lit, _TERM)}).")

    return "".join(line + "\n" for line in lines)
