"""The model-list detectors and sweep loop, kept as a differential reference.

These are the per-state detectors that loop over materialised answer sets,
their model counter ``ambiguity_stats``, and the sweep that ran them state
by state.  The package's ``sweep`` and
its ``detect_*`` views work on factored answer sets instead; the tests
require both to give the same findings, witnesses and state sets.
"""

from __future__ import annotations

from typing import Iterable

from aopl_lint.analysis import (
    IssueKind,
    IssueRecord,
    SweepOptions,
    SweepResult,
    _Accumulator,
    _accumulate,
    _result,
    _texts,
    _witness_rank,
)
from aopl_lint.engine import (
    AmbiguityStats,
    AnswerSet,
    WorldState,
    answer_sets,
    entails,
)
from aopl_lint.grounding import GroundRule
from aopl_lint.model import Atom, Happening, HeadLiteral, Literal, Modality, RuleKind
from aopl_lint.reify import ReifiedBase
from aopl_lint.states import check_state_space, enumerate_states, executable_actions


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


def _models(base: ReifiedBase, state: WorldState, models: list[AnswerSet] | None):
    return answer_sets(base, state) if models is None else models


def _fired_with_head(
    base: ReifiedBase, model: AnswerSet, head: HeadLiteral
) -> list[str]:
    return [
        label
        for label in base.rules
        if label in model.fired_rules and base.heads.get(label) == head
    ]


def _complementary_pairs(heads: Iterable[HeadLiteral]) -> list[HeadLiteral]:
    """The positive member of every complementary pair, in a fixed order."""
    return sorted({h if h.positive else h.opposite() for h in heads}, key=str)


def detect_inconsistency(
    base: ReifiedBase,
    state: WorldState,
    models: list[AnswerSet] | None = None,
) -> list[IssueRecord]:
    """Rule pairs deriving a deontic literal and its negation together.

    One record per (action, firing rule pair) found in some answer set; the
    supports are the body literals of each side, all of which hold in the
    witness state.
    """
    models = _models(base, state, models)
    pairs = _complementary_pairs(base.ground.head_universe)
    records: dict[tuple, IssueRecord] = {}
    for model in models:
        for positive in pairs:
            negative = positive.opposite()
            if positive not in model.heads or negative not in model.heads:
                continue
            for r1 in _fired_with_head(base, model, positive):
                for r2 in _fired_with_head(base, model, negative):
                    record = IssueRecord(
                        kind=IssueKind.INCONSISTENCY,
                        action=positive.happening,
                        witness_state=state,
                        rule_labels=(r1, r2),
                        rule_texts=_texts(base, (r1, r2)),
                        pos_support=base.bodies[r1],
                        neg_support=base.bodies[r2],
                    )
                    records.setdefault(record.key(), record)
    return [records[key] for key in sorted(records)]


def _authorization_rules(base: ReifiedBase, action: Atom) -> list[GroundRule]:
    return [
        rule
        for rule in base.ground.rules
        if rule.head is not None
        and rule.head.modality is Modality.PERMITTED
        and rule.head.happening.action == action
    ]


def detect_underspecification(
    base: ReifiedBase,
    state: WorldState,
    action: Atom,
    models: list[AnswerSet] | None = None,
) -> IssueRecord | None:
    """Authorization coverage gap for one action in one state.

    Case 1: the policy has no authorization rules about the action at all.
    Case 2: rules exist, but some answer set settles the action neither way;
    the record lists, per rule, the body literals that fail in this state.
    """
    auth_rules = _authorization_rules(base, action)
    happening = Happening(action, True)
    if not auth_rules:
        return IssueRecord(
            kind=IssueKind.UNDERSPECIFIED,
            action=happening,
            witness_state=state,
            case=1,
        )

    models = _models(base, state, models)
    permitted = HeadLiteral(Modality.PERMITTED, happening, True)
    negated = permitted.opposite()
    undecided = any(
        permitted not in m.heads and negated not in m.heads for m in models
    )
    if not undecided:
        return None

    missing: list[tuple[str, tuple[Literal, ...]]] = []
    for rule in auth_rules:
        failing = tuple(lit for lit in rule.condition if not _holds(base, state, lit))
        if failing:
            missing.append((rule.label, failing))
    labels = tuple(label for label, _ in missing)
    return IssueRecord(
        kind=IssueKind.UNDERSPECIFIED,
        action=happening,
        witness_state=state,
        rule_labels=labels,
        rule_texts=_texts(base, labels),
        missing=tuple(missing),
        case=2,
    )


def _holds(base: ReifiedBase, state: WorldState, literal: Literal) -> bool:
    if literal.atom in set(base.ground.sort_facts):
        return literal.positive
    return state.satisfies(literal)


def detect_ambiguity(
    base: ReifiedBase,
    state: WorldState,
    action: Atom,
    models: list[AnswerSet] | None = None,
) -> tuple[IssueRecord | None, AmbiguityStats]:
    """Defeasible disagreement about an action's permission in one state.

    Ambiguous when neither permitted(e) nor its negation holds in every
    answer set, yet every answer set decides one way or the other: the
    model count splits as n = n_p + n_np with both sides present.  The
    record pairs each applicable permitting rule with each applicable
    forbidding one.
    """
    models = _models(base, state, models)
    permitted = HeadLiteral(Modality.PERMITTED, Happening(action, True), True)
    stats = ambiguity_stats(models, permitted)
    ambiguous = (
        stats.n != stats.n_p
        and stats.n != stats.n_np
        and stats.n == stats.n_p + stats.n_np
    )
    if not ambiguous:
        return None, stats

    ab_rules = models[0].ab_rules
    def applicable_defeasible(head: HeadLiteral) -> list[str]:
        return [
            rule.label
            for rule in base.ground.rules
            if rule.kind is RuleKind.DEFEASIBLE
            and rule.head == head
            and rule.label not in ab_rules
            and all(_holds(base, state, lit) for lit in rule.condition)
        ]

    permitting = applicable_defeasible(permitted)
    forbidding = applicable_defeasible(permitted.opposite())
    pairs = tuple((p, f) for p in permitting for f in forbidding)
    labels = tuple(dict.fromkeys(permitting + forbidding))
    record = IssueRecord(
        kind=IssueKind.AMBIGUITY,
        action=Happening(action, True),
        witness_state=state,
        rule_labels=labels,
        rule_texts=_texts(base, labels),
        pairs=pairs,
        stats=stats,
    )
    return record, stats


def detect_obligation_conflict(
    base: ReifiedBase,
    state: WorldState,
    action: Atom,
    models: list[AnswerSet] | None = None,
) -> list[IssueRecord]:
    """Obligations to both do and not do the same action in one state.

    Fires when obl(e) and obl(-e) are each cautiously entailed; the records
    pair the rules that derive them within a single answer set.
    """
    models = _models(base, state, models)
    obl_do = HeadLiteral(Modality.OBL, Happening(action, True), True)
    obl_not = HeadLiteral(Modality.OBL, Happening(action, False), True)
    if not (
        entails(base, state, obl_do, models=models)
        and entails(base, state, obl_not, models=models)
    ):
        return []
    records: dict[tuple, IssueRecord] = {}
    for model in models:
        for r1 in _fired_with_head(base, model, obl_do):
            for r2 in _fired_with_head(base, model, obl_not):
                record = IssueRecord(
                    kind=IssueKind.OBLIGATION_CONFLICT,
                    action=Happening(action, True),
                    witness_state=state,
                    rule_labels=(r1, r2),
                    rule_texts=_texts(base, (r1, r2)),
                    pos_support=base.bodies[r1],
                    neg_support=base.bodies[r2],
                )
                records.setdefault(record.key(), record)
    return [records[key] for key in sorted(records)]


def detect_modality_conflicts(
    base: ReifiedBase,
    state: WorldState,
    models: list[AnswerSet] | None = None,
) -> list[IssueRecord]:
    """Obligations colliding with authorizations, ranked by urgency.

    Urgency 1: obligated to do an action some rule forbids.  Urgency 2:
    obligated to refrain from an action some rule permits.  Urgency 3:
    obligated to do an action whose permission the answer set leaves open.
    Each record cites the obligating rule and, for 1 and 2, its opponent.
    """
    models = _models(base, state, models)
    records: dict[tuple, IssueRecord] = {}

    def add(urgency: int, action: Atom, r1: str, r2: str | None) -> None:
        labels = (r1,) if r2 is None else (r1, r2)
        record = IssueRecord(
            kind=IssueKind.MODALITY_CONFLICT,
            action=Happening(action, True),
            witness_state=state,
            rule_labels=labels,
            rule_texts=_texts(base, labels),
            pos_support=base.bodies[r1],
            neg_support=base.bodies[r2] if r2 is not None else (),
            urgency=urgency,
        )
        records.setdefault(record.key(), record)

    for model in models:
        for action in base.ground.action_atoms:
            does = Happening(action, True)
            permitted = HeadLiteral(Modality.PERMITTED, does, True)
            forbidden = permitted.opposite()
            obl_do = HeadLiteral(Modality.OBL, does, True)
            obl_not = HeadLiteral(Modality.OBL, does.negated(), True)

            if obl_do in model.heads:
                for r1 in _fired_with_head(base, model, obl_do):
                    if forbidden in model.heads:
                        for r2 in _fired_with_head(base, model, forbidden):
                            add(1, action, r1, r2)
                    if permitted not in model.heads and forbidden not in model.heads:
                        add(3, action, r1, None)
            if obl_not in model.heads and permitted in model.heads:
                for r1 in _fired_with_head(base, model, obl_not):
                    for r2 in _fired_with_head(base, model, permitted):
                        add(2, action, r1, r2)

    return [records[key] for key in sorted(records)]


def sweep(base: ReifiedBase, options: SweepOptions = SweepOptions()) -> SweepResult:
    """Run every detector over the (pinned) state space and deduplicate.

    Sweeping a partition of the state space and merging the results equals
    sweeping the whole space, so callers may split the work freely.  Pinning
    every state atom sweeps exactly one state.
    """
    check_state_space(base.ground, options.pins, options.max_states)

    accum: _Accumulator = {}
    states_examined = 0
    for state in enumerate_states(base.ground, options.pins):
        states_examined += 1
        models = answer_sets(base, state)
        executable = set(executable_actions(base.ground, state))

        found: list[IssueRecord] = []
        found.extend(
            r
            for r in detect_inconsistency(base, state, models=models)
            if r.action.action in executable
        )
        for action in base.ground.action_atoms:
            if action not in executable:
                continue
            gap = detect_underspecification(base, state, action, models=models)
            if gap is not None:
                found.append(gap)
            ambiguity, _ = detect_ambiguity(base, state, action, models=models)
            if ambiguity is not None:
                found.append(ambiguity)
            found.extend(detect_obligation_conflict(base, state, action, models=models))
        found.extend(
            r
            for r in detect_modality_conflicts(base, state, models=models)
            if r.action.action in executable
        )

        if found:
            seen_in = (state,)
            rank = _witness_rank(state)
            for record in found:
                _accumulate(accum, record, seen_in, rank)

    return _result(accum, states_examined)
