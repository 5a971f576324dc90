"""The model-list detectors and sweep loop, kept as a differential reference.

These are the per-state detectors and compliance classifiers that loop over
materialised answer sets, their model counter ``ambiguity_stats``, the
state enumeration, constraint check and executability filter that test
``Literal`` objects against a ``WorldState``, the sweep that ran them state
by state with its record-keyed accumulator, and the family collapse that
grouped the sweep's instances.  The package's ``sweep``, its ``detect_*``
views and its ``classify_*`` functions work on factored answer sets
instead, its enumeration and filters on int masks, and the package keys one
accumulator by compact finding, record key or family key; the tests require
both to give the same states, findings, witnesses, state sets, families and
verdicts.  Nothing here reads a private name of the package.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from aopl_lint.analysis import (
    KIND_ORDER,
    AuthorizationClass,
    Compliance,
    FamilyRecord,
    InstanceRecord,
    IssueKind,
    IssueRecord,
    SweepOptions,
    SweepResult,
)
from aopl_lint.engine import (
    AmbiguityStats,
    AnswerSet,
    WorldState,
    answer_sets,
    entails,
)
from aopl_lint.grounding import GroundPolicy, GroundRule
from aopl_lint.model import Atom, Happening, HeadLiteral, Literal, Modality, RuleKind
from aopl_lint.reify import ReifiedBase
from aopl_lint.states import check_pins, check_state_space


def _satisfies(state: WorldState, literal: Literal, sort_facts: frozenset[Atom]) -> bool:
    if literal.atom in sort_facts:
        return literal.positive
    return state.satisfies(literal)


def satisfies_constraints(gp: GroundPolicy, state: WorldState) -> bool:
    """True when the state violates no state constraint."""
    sort_facts = frozenset(gp.sort_facts)
    for constraint in gp.state_constraints:
        body_holds = all(_satisfies(state, lit, sort_facts) for lit in constraint.body)
        if not body_holds:
            continue
        if constraint.head is None:
            return False
        if not _satisfies(state, constraint.head, sort_facts):
            return False
    return True


def enumerate_states(
    gp: GroundPolicy, pins: Iterable[Literal] = ()
) -> Iterator[WorldState]:
    """All constraint-satisfying states, respecting pinned literals.

    Deterministic order: the all-false assignment of unpinned atoms first,
    then counting up with the last declared atom varying fastest.
    Contradictory or unknown pins yield an empty stream; call check_pins to
    get the diagnostics.
    """
    pins = list(pins)
    if check_pins(gp, pins):
        return
    signs = {pin.atom: pin.positive for pin in pins}
    unpinned = [a for a in gp.state_atoms if a not in signs]
    pinned_true = frozenset(a for a, positive in signs.items() if positive)
    for values in product((False, True), repeat=len(unpinned)):
        true_atoms = pinned_true | {a for a, v in zip(unpinned, values) if v}
        state = WorldState(gp.state_atoms, frozenset(true_atoms))
        if satisfies_constraints(gp, state):
            yield state


def executable_actions(gp: GroundPolicy, state: WorldState) -> tuple[Atom, ...]:
    """Ground actions not ruled out by an executability constraint."""
    sort_facts = frozenset(gp.sort_facts)
    blocked: set[Atom] = set()
    for constraint in gp.exec_constraints:
        if all(_satisfies(state, lit, sort_facts) for lit in constraint.condition):
            blocked.add(constraint.action)
    return tuple(a for a in gp.action_atoms if a not in blocked)


def _texts(base: ReifiedBase, labels: Iterable[str]) -> tuple[str, ...]:
    return tuple(base.text_or_print(label) for label in labels)


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
        rule.label
        for rule in base.ground.rules
        if rule.label in model.fired_rules and rule.head == head
    ]


def _bodies(base: ReifiedBase) -> dict[str, tuple[Literal, ...]]:
    """Each ground rule's condition literals, by label."""
    return {rule.label: rule.condition for rule in base.ground.rules}


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
    bodies = _bodies(base)
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
                        pos_support=bodies[r1],
                        neg_support=bodies[r2],
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
    bodies = _bodies(base)
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
                    pos_support=bodies[r1],
                    neg_support=bodies[r2],
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
    bodies = _bodies(base)
    records: dict[tuple, IssueRecord] = {}

    def add(urgency: int, action: Atom, r1: str, r2: str | None) -> None:
        labels = (r1,) if r2 is None else (r1, r2)
        record = IssueRecord(
            kind=IssueKind.MODALITY_CONFLICT,
            action=Happening(action, True),
            witness_state=state,
            rule_labels=labels,
            rule_texts=_texts(base, labels),
            pos_support=bodies[r1],
            neg_support=bodies[r2] if r2 is not None else (),
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


def classify_action(
    base: ReifiedBase,
    state: WorldState,
    action: Atom,
    models: list[AnswerSet] | None = None,
) -> AuthorizationClass:
    models = _models(base, state, models)
    permitted = HeadLiteral(Modality.PERMITTED, Happening(action, True), True)
    negated = permitted.opposite()
    strongly = entails(base, state, permitted, models=models)
    forbidden = entails(base, state, negated, models=models)
    if strongly and forbidden:
        return AuthorizationClass.CONFLICTED
    if strongly:
        return AuthorizationClass.STRONGLY_COMPLIANT
    if forbidden:
        return AuthorizationClass.NON_COMPLIANT
    if any(permitted not in m.heads and negated not in m.heads for m in models):
        return AuthorizationClass.UNDERSPECIFIED
    return AuthorizationClass.AMBIGUOUS


def classify_compliance(
    base: ReifiedBase,
    state: WorldState,
    event: tuple[Atom, ...],
    models: list[AnswerSet] | None = None,
) -> Compliance:
    """Classify an event against the policy in one state."""
    models = _models(base, state, models)
    classes = tuple((action, classify_action(base, state, action, models)) for action in event)

    strongly = True
    weakly = True
    for action in event:
        permitted = HeadLiteral(Modality.PERMITTED, Happening(action, True), True)
        if not entails(base, state, permitted, models=models):
            strongly = False
        if entails(base, state, permitted.opposite(), models=models):
            weakly = False

    obligation_ok = True
    performed = set(event)
    for action in base.ground.action_atoms:
        obl_do = HeadLiteral(Modality.OBL, Happening(action, True), True)
        obl_not = HeadLiteral(Modality.OBL, Happening(action, False), True)
        if entails(base, state, obl_do, models=models) and action not in performed:
            obligation_ok = False
        if entails(base, state, obl_not, models=models) and action in performed:
            obligation_ok = False

    return Compliance(
        action_classes=classes,
        strongly_compliant=strongly,
        weakly_compliant=weakly,
        non_compliant=not weakly,
        obligation_compliant=obligation_ok,
    )


def _witness_rank(state: WorldState) -> tuple[int, str]:
    return (state.positive_count(), str(state))


# Accumulator entry per record key: [record, states seen, witness rank].
_Accumulator = dict[tuple, list]


def _accumulate(
    accum: _Accumulator,
    record: IssueRecord,
    states: Iterable[WorldState],
    rank: tuple[int, str],
) -> None:
    """Add a record seen in ``states``; the record whose witness ranks lower wins."""
    key = record.key()
    entry = accum.get(key)
    if entry is None:
        accum[key] = [record, set(states), rank]
        return
    entry[1].update(states)
    if rank < entry[2]:
        entry[0] = record
        entry[2] = rank


def _result(accum: _Accumulator, states_examined: int) -> SweepResult:
    instances = tuple(
        InstanceRecord(record=accum[key][0], states=frozenset(accum[key][1]))
        for key in sorted(accum)
    )
    return SweepResult(instances=instances, states_examined=states_examined)


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


def _strip_binding(label: str) -> str:
    return label.split("[", 1)[0]


def _literal_family(literal: Literal) -> str:
    sign = "" if literal.positive else "!"
    return f"{sign}{literal.atom.predicate}"


def _family_key(record: IssueRecord) -> tuple:
    action_sign = "" if record.action.positive else "-"
    return (
        record.kind.value,
        f"{action_sign}{record.action.action.predicate}",
        tuple(_strip_binding(l) for l in record.rule_labels),
        tuple(_literal_family(l) for l in record.pos_support),
        tuple(_literal_family(l) for l in record.neg_support),
        tuple(
            (_strip_binding(r), tuple(_literal_family(l) for l in lits))
            for r, lits in record.missing
        ),
        tuple((_strip_binding(a), _strip_binding(b)) for a, b in record.pairs),
        record.urgency if record.urgency is not None else 0,
        record.case if record.case is not None else 0,
    )


def collapse_families(result: SweepResult) -> tuple[FamilyRecord, ...]:
    """Group instance records into families and pick representatives."""
    groups: dict[tuple, list[InstanceRecord]] = {}
    for instance in result.instances:
        groups.setdefault(_family_key(instance.record), []).append(instance)

    families: list[FamilyRecord] = []
    for key, members in groups.items():
        representative = min(
            members, key=lambda m: _witness_rank(m.record.witness_state)
        )
        record = representative.record
        all_states: set[WorldState] = set()
        for member in members:
            all_states.update(member.states)
        families.append(
            FamilyRecord(
                kind=record.kind,
                action=str(record.action),
                base_labels=tuple(_strip_binding(l) for l in record.rule_labels),
                instance_labels=record.rule_labels,
                rule_texts=record.rule_texts,
                pos_support=tuple(str(l) for l in record.pos_support),
                neg_support=tuple(str(l) for l in record.neg_support),
                missing=tuple(
                    (r, tuple(str(l) for l in lits)) for r, lits in record.missing
                ),
                pairs=record.pairs,
                urgency=record.urgency,
                stats=(record.stats.n, record.stats.n_p, record.stats.n_np)
                if record.stats
                else None,
                case=record.case,
                witness_true_atoms=tuple(
                    str(a)
                    for a in record.witness_state.universe
                    if a in record.witness_state.true_atoms
                ),
                state_count=len(all_states),
                instance_count=len(members),
            )
        )
    families.sort(
        key=lambda f: (
            KIND_ORDER[f.kind],
            f.urgency if f.urgency is not None else 0,
            f.action,
            f.base_labels,
            f.pos_support,
            f.neg_support,
            f.missing,
        )
    )
    return tuple(families)
