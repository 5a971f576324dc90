"""Issue detectors, compliance classification, and the state-space sweep.

Detectors work per state and answer questions an author can act on: which
pairs of statements contradict each other here, which action has no
applicable authorization and why, where do defeasible rules pull in both
directions, and which obligations collide with authorizations.  Every record
names the ground rules involved and the condition literals that made them
fire or fail, so reports can quote the original statements.

One per-state detector, ``detect_state``, reads every finding off the
factored answer sets; the public ``detect_*`` functions are views of it for
one state.  The sweep compiles the base once, runs ``detect_state`` across
a whole state space, deduplicates the ground findings, and collapses
instances that differ only in constants into one family per schematic
cause.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .engine import (
    AmbiguityStats,
    AnswerSet,
    CompiledBase,
    Outcome,
    WorldState,
    answer_sets,
    compile_base,
    entails,
    factor,
)
from .model import Atom, Happening, HeadLiteral, Literal, Modality
from .reify import ReifiedBase
from .states import (
    DEFAULT_MAX_STATES,
    check_state_space,
    enumerate_states,
)


class IssueKind(Enum):
    INCONSISTENCY = "inconsistency"
    OBLIGATION_CONFLICT = "obligation_conflict"
    MODALITY_CONFLICT = "modality_conflict"
    AMBIGUITY = "ambiguity"
    UNDERSPECIFIED = "underspecified"


# Display order: contradictions first, coverage gaps last.
KIND_ORDER = {
    IssueKind.INCONSISTENCY: 0,
    IssueKind.OBLIGATION_CONFLICT: 1,
    IssueKind.MODALITY_CONFLICT: 2,
    IssueKind.AMBIGUITY: 3,
    IssueKind.UNDERSPECIFIED: 4,
}


@dataclass(frozen=True)
class IssueRecord:
    """One finding in one state.

    ``rule_labels`` are ground labels, first the rule supporting the
    positive or obligating side, then its opponent when there is one.
    ``pos_support`` and ``neg_support`` list the body literals that hold and
    make each side fire.  ``missing`` maps inapplicable rules to the body
    literals that fail, for coverage gaps.  ``pairs`` carries the opposing
    rule pairs behind an ambiguity.  ``urgency`` ranks modality conflicts,
    1 being the most pressing.
    """

    kind: IssueKind
    action: Happening
    witness_state: WorldState
    rule_labels: tuple[str, ...] = ()
    rule_texts: tuple[str, ...] = ()
    pos_support: tuple[Literal, ...] = ()
    neg_support: tuple[Literal, ...] = ()
    missing: tuple[tuple[str, tuple[Literal, ...]], ...] = ()
    pairs: tuple[tuple[str, str], ...] = ()
    urgency: int | None = None
    stats: AmbiguityStats | None = None
    case: int | None = None

    def key(self) -> tuple:
        """Identity of the finding independent of the witness state."""
        return (
            self.kind.value,
            str(self.action),
            self.rule_labels,
            tuple(str(l) for l in self.pos_support),
            tuple(str(l) for l in self.neg_support),
            tuple((r, tuple(str(l) for l in lits)) for r, lits in self.missing),
            self.pairs,
            self.urgency if self.urgency is not None else 0,
            self.case if self.case is not None else 0,
            (self.stats.n, self.stats.n_p, self.stats.n_np) if self.stats else (),
        )


def _texts(base: ReifiedBase, labels: Iterable[str]) -> tuple[str, ...]:
    return tuple(base.text_or_print(label) for label in labels)


def _models(base: ReifiedBase, state: WorldState, models: list[AnswerSet] | None):
    return answer_sets(base, state) if models is None else models


def _holds(base: ReifiedBase, state: WorldState, literal: Literal) -> bool:
    if literal.atom in set(base.ground.sort_facts):
        return literal.positive
    return state.satisfies(literal)


# A finding is a compact tuple led by its kind's index in _KINDS; with the
# state it fixes the IssueRecord, which _record builds only when needed.
_KINDS = tuple(KIND_ORDER)
_INCONSISTENCY, _OBLIGATION, _MODALITY, _AMBIGUITY, _UNDERSPECIFIED = range(5)
_UNDECIDED: tuple[Outcome, ...] = (((), ()),)


def detect_state(compiled: CompiledBase, state: int, actions: Iterable[int]) -> list[tuple]:
    """Every finding about the given actions in one state, as compact tuples.

    Every combination of pair outcomes is an answer set, so each question
    reads off the outcomes of the action's three pairs: permitted(a),
    obl(a) and obl(-a).  A label list is read across all outcomes of a pair
    when a finding combines it with another pair.
    """
    groups = factor(compiled, state)[1]
    findings: list[tuple] = []
    for action in actions:
        permitted, obl_do, obl_not, auth_rules, auth_mask = compiled.actions[action]
        for pair in (permitted, obl_do, obl_not):
            for pos, neg in groups.get(pair, ()):
                findings.extend((_INCONSISTENCY, pair, r1, r2) for r1 in pos for r2 in neg)
        perm = groups.get(permitted, _UNDECIDED)
        do = groups.get(obl_do, _UNDECIDED)
        refrain = groups.get(obl_not, _UNDECIDED)
        undecided = any(not pos and not neg for pos, neg in perm)

        if not auth_rules:
            findings.append((_UNDERSPECIFIED, action, 1, 0))
        elif undecided:
            findings.append((_UNDERSPECIFIED, action, 2, state & auth_mask))

        if len(perm) > 1:
            n, n_p, n_np = _counts(groups, perm)
            if n_p < n and n_np < n and n_p + n_np == n:
                # Only a pair's two one-sided outcomes split this way.
                permitting = tuple(r for pos, _ in perm for r in pos)
                forbidding = tuple(r for _, neg in perm for r in neg)
                findings.append((_AMBIGUITY, action, permitting, forbidding, n, n_p, n_np))

        obliging = [r for pos, _ in do for r in pos]
        refraining = [r for pos, _ in refrain for r in pos]
        if all(pos for pos, _ in do) and all(pos for pos, _ in refrain):
            findings.extend((_OBLIGATION, action, r1, r2) for r1 in obliging for r2 in refraining)
        for r1 in obliging:
            findings.extend((_MODALITY, action, 1, r1, r2) for _, neg in perm for r2 in neg)
            if undecided:
                findings.append((_MODALITY, action, 3, r1, None))
        for r1 in refraining:
            findings.extend((_MODALITY, action, 2, r1, r2) for pos, _ in perm for r2 in pos)
    return findings


def _counts(
    groups: dict[int, tuple[Outcome, ...]], outcomes: tuple[Outcome, ...]
) -> tuple[int, int, int]:
    """Answer sets in total, with the pair's positive head, with its negative."""
    n = 1
    for group in groups.values():
        n *= len(group)
    share = n // len(outcomes)
    return (
        n,
        share * sum(1 for pos, _ in outcomes if pos),
        share * sum(1 for _, neg in outcomes if neg),
    )


def _record(compiled: CompiledBase, finding: tuple, state: WorldState) -> IssueRecord:
    """The IssueRecord a compact finding stands for, witnessed by ``state``."""
    base = compiled.base
    tag = finding[0]
    kind = _KINDS[tag]
    if tag == _INCONSISTENCY:
        action = compiled.pairs[finding[1]].happening
    else:
        action = Happening(base.ground.action_atoms[finding[1]], True)

    if tag == _AMBIGUITY:
        _, _, permitting, forbidding, n, n_p, n_np = finding
        labels = tuple(dict.fromkeys(permitting + forbidding))
        return IssueRecord(
            kind=kind,
            action=action,
            witness_state=state,
            rule_labels=labels,
            rule_texts=_texts(base, labels),
            pairs=tuple((p, f) for p in permitting for f in forbidding),
            stats=AmbiguityStats(n=n, n_p=n_p, n_np=n_np),
        )
    if tag == _UNDERSPECIFIED:
        if finding[2] == 1:
            return IssueRecord(kind=kind, action=action, witness_state=state, case=1)
        missing: list[tuple[str, tuple[Literal, ...]]] = []
        for rule in compiled.actions[finding[1]][3]:
            failing = tuple(lit for lit in rule.condition if not _holds(base, state, lit))
            if failing:
                missing.append((rule.label, failing))
        labels = tuple(label for label, _ in missing)
        return IssueRecord(
            kind=kind,
            action=action,
            witness_state=state,
            rule_labels=labels,
            rule_texts=_texts(base, labels),
            missing=tuple(missing),
            case=2,
        )

    if tag == _MODALITY:
        _, _, urgency, r1, r2 = finding
    else:
        _, _, r1, r2 = finding
        urgency = None
    labels = (r1,) if r2 is None else (r1, r2)
    return IssueRecord(
        kind=kind,
        action=action,
        witness_state=state,
        rule_labels=labels,
        rule_texts=_texts(base, labels),
        pos_support=base.bodies[r1],
        neg_support=base.bodies[r2] if r2 is not None else (),
        urgency=urgency,
    )


def _view(
    base: ReifiedBase, state: WorldState, kind: int, action: Atom | None = None
) -> list[IssueRecord]:
    """One kind of ``detect_state`` finding, as records sorted by key."""
    compiled = compile_base(base)
    actions = base.ground.action_atoms
    chosen = range(len(actions)) if action is None else (actions.index(action),)
    records: dict[tuple, IssueRecord] = {}
    for finding in detect_state(compiled, compiled.mask(state), chosen):
        if finding[0] == kind:
            record = _record(compiled, finding, state)
            records.setdefault(record.key(), record)
    return [records[key] for key in sorted(records)]


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
    compiled = compile_base(base)
    groups = factor(compiled, compiled.mask(state))[1]
    permitted = compiled.actions[base.ground.action_atoms.index(action)][0]
    return None, AmbiguityStats(*_counts(groups, groups.get(permitted, _UNDECIDED)))


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


class AuthorizationClass(Enum):
    STRONGLY_COMPLIANT = "strongly compliant"
    NON_COMPLIANT = "non compliant"
    UNDERSPECIFIED = "underspecified"
    AMBIGUOUS = "ambiguous"
    CONFLICTED = "conflicted"


@dataclass(frozen=True)
class Compliance:
    """Authorization and obligation verdicts for one event in one state.

    ``action_classes`` classifies each action of the event on its own.  The
    event-level booleans follow the usual ladder: strongly compliant events
    are weakly compliant; non-compliance is the failure of weak compliance.
    ``obligation_compliant`` checks the event against every cautious
    obligation, including obligations about actions outside the event.
    """

    action_classes: tuple[tuple[Atom, AuthorizationClass], ...]
    strongly_compliant: bool
    weakly_compliant: bool
    non_compliant: bool
    obligation_compliant: bool


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


@dataclass(frozen=True)
class SweepOptions:
    pins: tuple[Literal, ...] = ()
    max_states: int = DEFAULT_MAX_STATES


@dataclass(frozen=True)
class InstanceRecord:
    """A deduplicated ground finding with the states it was seen in.

    The representative record keeps the witness state with the fewest true
    atoms, breaking ties by enumeration order.
    """

    record: IssueRecord
    states: frozenset[WorldState]

    @property
    def state_count(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class SweepResult:
    instances: tuple[InstanceRecord, ...]
    states_examined: int


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
    """Run ``detect_state`` over the (pinned) state space and deduplicate.

    Sweeping a partition of the state space and merging the results equals
    sweeping the whole space, so callers may split the work freely.  Pinning
    every state atom sweeps exactly one state.
    """
    check_state_space(base.ground, options.pins, options.max_states)
    compiled = compile_base(base)

    # Per compact finding: [states seen, witness state, witness rank].
    seen: dict[tuple, list] = {}
    states_examined = 0
    for state in enumerate_states(base.ground, options.pins):
        states_examined += 1
        mask = compiled.mask(state)
        findings = detect_state(compiled, mask, compiled.executable(mask))
        if not findings:
            continue
        rank = _witness_rank(state)
        for finding in findings:
            entry = seen.get(finding)
            if entry is None:
                seen[finding] = [{state}, state, rank]
                continue
            entry[0].add(state)
            if rank < entry[2]:
                entry[1] = state
                entry[2] = rank

    accum: _Accumulator = {}
    for finding, (states, witness, rank) in seen.items():
        _accumulate(accum, _record(compiled, finding, witness), states, rank)
    return _result(accum, states_examined)


def merge_sweeps(first: SweepResult, second: SweepResult) -> SweepResult:
    """Combine sweeps of disjoint state-space slices."""
    accum: _Accumulator = {}
    for instance in first.instances + second.instances:
        record = instance.record
        _accumulate(accum, record, instance.states, _witness_rank(record.witness_state))
    return _result(accum, first.states_examined + second.states_examined)


def _strip_binding(label: str) -> str:
    return label.split("[", 1)[0]


def _literal_family(literal: Literal) -> str:
    sign = "" if literal.positive else "!"
    return f"{sign}{literal.atom.predicate}"


@dataclass(frozen=True)
class FamilyRecord:
    """Instances of one finding that differ only in their constants.

    Display strings come from the representative instance, the one with the
    smallest witness state.  ``state_count`` counts distinct states across
    all instances; ``instance_count`` counts the ground instances.
    """

    kind: IssueKind
    action: str
    base_labels: tuple[str, ...]
    instance_labels: tuple[str, ...]
    rule_texts: tuple[str, ...]
    pos_support: tuple[str, ...]
    neg_support: tuple[str, ...]
    missing: tuple[tuple[str, tuple[str, ...]], ...]
    pairs: tuple[tuple[str, str], ...]
    urgency: int | None
    stats: tuple[int, int, int] | None
    case: int | None
    witness_true_atoms: tuple[str, ...]
    state_count: int
    instance_count: int


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
        (record.stats.n, record.stats.n_p, record.stats.n_np) if record.stats else (),
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
