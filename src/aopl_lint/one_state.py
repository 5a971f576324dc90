"""The one-state API: state files, per-state finding views and compliance classes.

``analyze`` never runs these, so the package loads this module on first use.
``load_state`` reads a state file into a ``WorldState``.  The ``detect_*``
functions are views of ``analysis.detect_state`` for one state, and the
``classify_*`` functions read the same factored answer sets.
"""

from __future__ import annotations

from typing import Iterable

from .analysis import (
    _AMBIGUITY, _INCONSISTENCY, _MODALITY, _OBLIGATION, _UNDECIDED, _UNDERSPECIFIED,
    AuthorizationClass, Compliance, IssueKind, IssueRecord, _identity, _record, _stats,
    detect_state,
)
from .diagnostics import Diagnostic, Severity
from .engine import AmbiguityStats, Outcome, WorldState, factor
from .grounding import GroundPolicy
from .model import Atom, Happening
from .parser import parse_ground_literal
from .reify import ReifiedBase
from .states import satisfies_constraints


def load_state(gp: GroundPolicy, text: str) -> tuple[WorldState | None, list[Diagnostic]]:
    """Read a state file: one ground literal per line, closed world.

    Atoms not listed are false.  Negative literals are allowed for
    documentation and checked for consistency with the positives.  A line
    is read without its ``%`` comment and surrounding blanks, so a literal
    spelled canonically, such as ``!colonel(c)``, takes one match; see
    ``parse_ground_literal``.
    """
    out: list[Diagnostic] = []
    bits = gp.index.bits
    positives: set[Atom] = set()
    explicit_negatives: set[Atom] = set()
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        try:
            literal = parse_ground_literal(line)
        except ValueError as exc:
            out.append(Diagnostic(Severity.ERROR, f"line {number}: {exc}"))
            continue
        if literal.atom not in bits:
            out.append(
                Diagnostic(
                    Severity.ERROR,
                    f"line {number}: {literal.atom} is not a state atom",
                )
            )
            continue
        if literal.positive:
            positives.add(literal.atom)
        else:
            explicit_negatives.add(literal.atom)

    for atom in sorted(positives & explicit_negatives, key=str):
        out.append(Diagnostic(Severity.ERROR, f"state lists {atom} as both true and false"))

    if any(d.severity is Severity.ERROR for d in out):
        return None, out

    if not satisfies_constraints(gp, sum(bits[atom] for atom in positives)):
        out.append(Diagnostic(Severity.ERROR, "state violates a domain constraint"))
        return None, out
    return WorldState(gp.state_atoms, frozenset(positives)), out


def _view(
    base: ReifiedBase, state: WorldState, kind: int, action: Atom | None = None
) -> list[IssueRecord]:
    """One kind of ``detect_state`` finding, as records sorted by key."""
    actions = base.ground.action_atoms
    if action is None:
        chosen: Iterable[int] = range(len(actions))
    elif action in actions:
        chosen = (actions.index(action),)
    elif kind == _UNDERSPECIFIED:  # no rule mentions an action outside the ground actions
        does = Happening(action, True)
        return [IssueRecord(kind=IssueKind.UNDERSPECIFIED, action=does, witness_state=state, case=1)]
    else:
        return []
    records = [
        _record(base, finding, _identity(base, finding), state)
        for finding in detect_state(base, base.index.mask(state), chosen)
        if finding[0] == kind
    ]
    return sorted(records, key=IssueRecord.key)


def detect_inconsistency(base: ReifiedBase, state: WorldState) -> list[IssueRecord]:
    """Rule pairs deriving a deontic literal and its negation together.

    One record per (action, firing rule pair) found in some answer set; the
    supports are the body literals of each side, all of which hold in the
    witness state.
    """
    return _view(base, state, _INCONSISTENCY)


def detect_underspecification(
    base: ReifiedBase, state: WorldState, action: Atom
) -> IssueRecord | None:
    """Authorization coverage gap for one action in one state.

    Case 1: the policy has no authorization rules about the action at all.
    Case 2: rules exist, but some answer set settles the action neither way;
    the record lists, per rule, the body literals that fail in this state.
    """
    found = _view(base, state, _UNDERSPECIFIED, action)
    return found[0] if found else None


def detect_ambiguity(
    base: ReifiedBase, state: WorldState, action: Atom
) -> tuple[IssueRecord | None, AmbiguityStats]:
    """Defeasible disagreement about an action's permission in one state.

    Ambiguous when neither permitted(e) nor its negation holds in every
    answer set, yet every answer set decides one way or the other: the
    model count splits as n = n_p + n_np with both sides present.  The
    record pairs each applicable permitting rule with each applicable
    forbidding one.
    """
    found = _view(base, state, _AMBIGUITY, action)
    if found:
        return found[0], found[0].stats
    actions = base.ground.action_atoms
    permitted = base.index.actions[actions.index(action)][0] if action in actions else None
    return None, _stats(base, state, permitted)


def detect_obligation_conflict(
    base: ReifiedBase, state: WorldState, action: Atom
) -> list[IssueRecord]:
    """Obligations to both do and not do the same action in one state.

    Fires when obl(e) and obl(-e) are each cautiously entailed; the records
    pair the rules that derive them within a single answer set.
    """
    return _view(base, state, _OBLIGATION, action)


def detect_modality_conflicts(base: ReifiedBase, state: WorldState) -> list[IssueRecord]:
    """Obligations colliding with authorizations, ranked by urgency.

    Urgency 1: obligated to do an action some rule forbids.  Urgency 2:
    obligated to refrain from an action some rule permits.  Urgency 3:
    obligated to do an action whose permission the answer set leaves open.
    Each record cites the obligating rule and, for 1 and 2, its opponent.
    """
    return _view(base, state, _MODALITY)


def _authorization(outcomes: tuple[Outcome, ...]) -> AuthorizationClass:
    """The class an action's permitted(a) pair outcomes give it.

    A side holds cautiously when every outcome has it; the action is
    underspecified when some outcome has neither side.
    """
    strongly = all(pos for pos, _ in outcomes)
    forbidden = all(neg for _, neg in outcomes)
    if strongly and forbidden:
        return AuthorizationClass.CONFLICTED
    if strongly:
        return AuthorizationClass.STRONGLY_COMPLIANT
    if forbidden:
        return AuthorizationClass.NON_COMPLIANT
    if any(not pos and not neg for pos, neg in outcomes):
        return AuthorizationClass.UNDERSPECIFIED
    return AuthorizationClass.AMBIGUOUS


def _action_pairs(
    base: ReifiedBase, state: WorldState
) -> dict[Atom, tuple[tuple[Outcome, ...], ...]]:
    """Per ground action, the outcomes of its permitted, obl(a) and obl(-a) pairs."""
    index = base.index
    groups = factor(base, index.mask(state))
    return {
        action: tuple(groups.get(pair, _UNDECIDED) for pair in entry[:3])
        for action, entry in zip(base.ground.action_atoms, index.actions)
    }


# The pairs of an action outside the ground actions: no rule decides them.
_NO_RULES = (_UNDECIDED,) * 3


def classify_action(base: ReifiedBase, state: WorldState, action: Atom) -> AuthorizationClass:
    """Classify one action's permission in one state."""
    return _authorization(_action_pairs(base, state).get(action, _NO_RULES)[0])


def classify_compliance(
    base: ReifiedBase, state: WorldState, event: tuple[Atom, ...]
) -> Compliance:
    """Classify an event against the policy in one state."""
    pairs = _action_pairs(base, state)
    permissions = [pairs.get(action, _NO_RULES)[0] for action in event]
    weakly = not any(all(neg for _, neg in outcomes) for outcomes in permissions)
    performed = set(event)
    # An action's cautious obl(-a) binds when it is performed, obl(a) when not.
    violated = any(
        all(pos for pos, _ in (refrain if action in performed else do))
        for action, (_, do, refrain) in pairs.items()
    )
    return Compliance(
        action_classes=tuple(
            (action, _authorization(outcomes)) for action, outcomes in zip(event, permissions)
        ),
        strongly_compliant=all(pos for outcomes in permissions for pos, _ in outcomes),
        weakly_compliant=weakly,
        non_compliant=not weakly,
        obligation_compliant=not violated,
    )
