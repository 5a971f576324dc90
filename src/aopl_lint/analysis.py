"""The issue detector, its records, and the state-space sweep.

Detection works per state and answers questions an author can act on: which
pairs of statements contradict each other here, which action has no
applicable authorization and why, where do defeasible rules pull in both
directions, and which obligations collide with authorizations.  Every record
names the ground rules involved and the condition literals that made them
fire or fail, so reports can quote the original statements.

One per-state detector, ``detect_state``, reads every finding off the
factored answer sets; the one-state views and classifiers built on it live
in ``one_state``, which ``analyze`` never loads.  The sweep runs
``detect_state`` across a whole state space, deduplicates the ground
findings, and collapses instances that differ only in constants into one
family per schematic cause.  All of them evaluate through the ground
policy's integer index, built once per ground policy.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import Iterable

from .diagnostics import Frozen, set_field
from .engine import AmbiguityStats, Outcome, WorldState, factor, factor_rules
from .model import Atom, Happening, Literal
from .reify import COMPONENT_BITS, ReifiedBase, components
from .states import DEFAULT_MAX_STATES, check_state_space, enumerate_states


class IssueKind(Enum):
    """The kinds of finding, in display order: contradictions first, coverage gaps last."""

    INCONSISTENCY = "inconsistency"
    OBLIGATION_CONFLICT = "obligation_conflict"
    MODALITY_CONFLICT = "modality_conflict"
    AMBIGUITY = "ambiguity"
    UNDERSPECIFIED = "underspecified"


KIND_ORDER = {kind: i for i, kind in enumerate(IssueKind)}


class IssueRecord(Frozen):
    """One finding in one state.

    ``rule_labels`` are ground labels, first the rule supporting the
    positive or obligating side, then its opponent when there is one.
    ``pos_support`` and ``neg_support`` list the body literals that hold and
    make each side fire.  ``missing`` maps inapplicable rules to the body
    literals that fail, for coverage gaps.  ``pairs`` carries the opposing
    rule pairs behind an ambiguity, and ``stats`` the witness state's answer
    set counts, which depend on other actions and so are not part of the
    finding's identity.  ``urgency`` ranks modality conflicts, 1 being the
    most pressing.
    """

    __slots__ = (
        "kind", "action", "witness_state", "rule_labels", "rule_texts", "pos_support",
        "neg_support", "missing", "pairs", "urgency", "stats", "case",
    )

    def __init__(
        self, kind: IssueKind, action: Happening, witness_state: WorldState,
        rule_labels: tuple[str, ...] = (), rule_texts: tuple[str, ...] = (),
        pos_support: tuple[Literal, ...] = (), neg_support: tuple[Literal, ...] = (),
        missing: tuple[tuple[str, tuple[Literal, ...]], ...] = (),
        pairs: tuple[tuple[str, str], ...] = (), urgency: int | None = None,
        stats: AmbiguityStats | None = None, case: int | None = None,
    ) -> None:
        set_field(self, "kind", kind)
        set_field(self, "action", action)
        set_field(self, "witness_state", witness_state)
        set_field(self, "rule_labels", rule_labels)
        set_field(self, "rule_texts", rule_texts)
        set_field(self, "pos_support", pos_support)
        set_field(self, "neg_support", neg_support)
        set_field(self, "missing", missing)
        set_field(self, "pairs", pairs)
        set_field(self, "urgency", urgency)
        set_field(self, "stats", stats)
        set_field(self, "case", case)

    def key(self) -> tuple:
        """Identity of the finding independent of the witness state."""
        return (
            self.kind.value,
            str(self.action),
            self.rule_labels,
            tuple(map(str, self.pos_support)),
            tuple(map(str, self.neg_support)),
            tuple([(r, tuple(map(str, lits))) for r, lits in self.missing]),
            self.pairs,
            self.urgency if self.urgency is not None else 0,
            self.case if self.case is not None else 0,
        )


# A finding is a compact tuple led by its kind's index in _KINDS; with the
# state it fixes the IssueRecord, which _record builds only when needed.
_KINDS = tuple(IssueKind)
_INCONSISTENCY, _OBLIGATION, _MODALITY, _AMBIGUITY, _UNDERSPECIFIED = range(5)
_UNDECIDED: tuple[Outcome, ...] = (((), ()),)


def detect_state(base: ReifiedBase, state: int, actions: Iterable[int]) -> list[tuple]:
    """Every finding about the given actions in one state, as compact tuples.

    Every combination of pair outcomes is an answer set, so each question
    reads off the outcomes of the action's three pairs: permitted(a),
    obl(a) and obl(-a), which factoring the action's slice of the index
    gives without the other actions' rules.  A pair has one outcome, or one
    per side of an unblocked defeasible split, so its first outcome holds its
    positive labels and its last its negative ones; only one outcome can hold both.
    """
    index = base.index
    findings: list[tuple] = []
    append = findings.append
    for action in actions:
        groups = factor_rules(*index.slices[action], state)
        permitted, obl_do, obl_not, auth_rules, auth_mask = index.actions[action]
        perm = groups.get(permitted, _UNDECIDED)
        do = groups.get(obl_do, _UNDECIDED)
        refrain = groups.get(obl_not, _UNDECIDED)
        for pair, outcomes in ((permitted, perm), (obl_do, do), (obl_not, refrain)):
            pos, neg = outcomes[0]
            for r1 in pos:
                for r2 in neg:
                    append((_INCONSISTENCY, pair, r1, r2))
        permitting, forbidding = perm[0][0], perm[-1][1]
        undecided = not permitting and not forbidding
        if not auth_rules:
            append((_UNDERSPECIFIED, action, 1, 0))
        elif undecided:
            append((_UNDERSPECIFIED, action, 2, state & auth_mask))
        if len(perm) > 1:
            append((_AMBIGUITY, action, permitting, forbidding))
        obliging, refraining = do[0][0], refrain[0][0]
        if len(do) == len(refrain) == 1:
            for r1 in obliging:
                for r2 in refraining:
                    append((_OBLIGATION, action, r1, r2))
        for r1 in obliging:
            for r2 in forbidding:
                append((_MODALITY, action, 1, r1, r2))
            if undecided:
                append((_MODALITY, action, 3, r1, None))
        for r1 in refraining:
            for r2 in permitting:
                append((_MODALITY, action, 2, r1, r2))
    return findings


def _stats(base: ReifiedBase, state: WorldState, permitted: int | None) -> AmbiguityStats:
    """Answer sets in ``state``: in total, with permitted(a), with its negation.

    ``permitted`` indexes a's permitted(a) pair; None when a is not a ground action.
    """
    index = base.index
    groups = factor(base, index.mask(state))
    outcomes = groups.get(permitted, _UNDECIDED)
    n = 1
    for group in groups.values():
        n *= len(group)
    share = n // len(outcomes)
    return AmbiguityStats(
        n=n,
        n_p=share * sum(1 for pos, _ in outcomes if pos),
        n_np=share * sum(1 for _, neg in outcomes if neg),
    )


def _identity(base: ReifiedBase, finding: tuple) -> tuple:
    """The fields of a finding's IssueRecord that its witness does not fix.

    They are, in ``IssueRecord`` order: kind, action, rule labels, supports,
    missing, pairs, urgency and case.
    """
    index = base.index
    tag = finding[0]
    if tag == _INCONSISTENCY:  # the pair of its first rule's head
        action = index.by_label[finding[2]].head.happening
    else:
        action = Happening(base.ground.action_atoms[finding[1]], True)
    pos_support = neg_support = missing = pairs = ()
    urgency = case = None
    if tag == _AMBIGUITY:
        _, _, permitting, forbidding = finding
        labels = tuple(dict.fromkeys(permitting + forbidding))
        pairs = tuple((p, f) for p in permitting for f in forbidding)
    elif tag == _UNDERSPECIFIED:
        case = finding[2]
        if case == 2:
            # The finding holds the state's authorization bits, all these rules read.
            missing = tuple(
                (rule.label, failing)
                for rule in index.actions[finding[1]][3]
                if (failing := index.failing(rule.condition, finding[3]))
            )
        labels = tuple(label for label, _ in missing)
    else:
        if tag == _MODALITY:
            _, _, urgency, r1, r2 = finding
        else:
            _, _, r1, r2 = finding
        labels = (r1,) if r2 is None else (r1, r2)
        pos_support = index.by_label[r1].condition
        neg_support = index.by_label[r2].condition if r2 is not None else ()
    return _KINDS[tag], action, labels, pos_support, neg_support, missing, pairs, urgency, case


def _record(base: ReifiedBase, finding: tuple, identity: tuple, state: WorldState) -> IssueRecord:
    """The IssueRecord of a finding and its ``_identity``, witnessed by ``state``."""
    kind, action, labels, *fields, case = identity
    stats = None
    if finding[0] == _AMBIGUITY:
        stats = _stats(base, state, base.index.actions[finding[1]][0])
    texts = tuple(base.text_or_print(label) for label in labels)
    return IssueRecord(kind, action, state, labels, texts, *fields, stats, case)


class AuthorizationClass(Enum):
    STRONGLY_COMPLIANT = "strongly compliant"
    NON_COMPLIANT = "non compliant"
    UNDERSPECIFIED = "underspecified"
    AMBIGUOUS = "ambiguous"
    CONFLICTED = "conflicted"


class Compliance(Frozen):
    """Authorization and obligation verdicts for one event in one state.

    ``action_classes`` classifies each action of the event on its own.  The
    event-level booleans follow the usual ladder: strongly compliant events
    are weakly compliant; non-compliance is the failure of weak compliance.
    ``obligation_compliant`` checks the event against every cautious
    obligation, including obligations about actions outside the event.
    """

    __slots__ = (
        "action_classes", "strongly_compliant", "weakly_compliant", "non_compliant",
        "obligation_compliant",
    )

    def __init__(
        self, action_classes: tuple[tuple[Atom, AuthorizationClass], ...],
        strongly_compliant: bool, weakly_compliant: bool, non_compliant: bool,
        obligation_compliant: bool,
    ) -> None:
        set_field(self, "action_classes", action_classes)
        set_field(self, "strongly_compliant", strongly_compliant)
        set_field(self, "weakly_compliant", weakly_compliant)
        set_field(self, "non_compliant", non_compliant)
        set_field(self, "obligation_compliant", obligation_compliant)


class SweepOptions(Frozen):
    __slots__ = ("pins", "max_states")

    def __init__(self, pins: tuple[Literal, ...] = (), max_states: int = DEFAULT_MAX_STATES) -> None:
        set_field(self, "pins", pins)
        set_field(self, "max_states", max_states)


class InstanceRecord(Frozen):
    """A deduplicated ground finding, the number of states it was seen in, and
    its family key, which ``sweep`` derives once and ``collapse_families`` groups by.

    The representative record keeps the witness state with the fewest true
    atoms, breaking ties by the state's text (``str(state)``).
    """

    __slots__ = ("record", "state_count", "family")

    def __init__(self, record: IssueRecord, state_count: int, family: tuple) -> None:
        set_field(self, "record", record)
        set_field(self, "state_count", state_count)
        set_field(self, "family", family)


class SweepResult(Frozen):
    """``family_counts`` pairs each family key with the number of states it fired in."""

    __slots__ = ("instances", "states_examined", "family_counts")

    def __init__(
        self, instances: tuple[InstanceRecord, ...], states_examined: int,
        family_counts: tuple[tuple[tuple, int], ...],
    ) -> None:
        set_field(self, "instances", instances)
        set_field(self, "states_examined", states_examined)
        set_field(self, "family_counts", family_counts)


# Accumulator entry per key: [witness, its state, states seen, additions].
_Accumulator = dict[tuple, list]


def _accumulate(
    accum: _Accumulator, key: tuple, witness: object, state: WorldState, states: int
) -> None:
    """Add ``witness`` seen in ``states`` states under ``key``; see ``InstanceRecord``."""
    entry = accum.get(key)
    if entry is None:
        accum[key] = [witness, state, states, 1]
        return
    entry[2] += states
    entry[3] += 1
    # Fewer true atoms win; only a tie builds the states' text.
    ours, theirs = state.mask.bit_count(), entry[1].mask.bit_count()
    if ours < theirs or (ours == theirs and str(state) < str(entry[1])):
        entry[0] = witness
        entry[1] = state


def sweep(base: ReifiedBase, options: SweepOptions = SweepOptions()) -> SweepResult:
    """Run ``detect_state`` over the (pinned) state space and deduplicate.

    An action's findings read only its ``Index.relevant`` bits, so they are
    memoised on those bits unless the bits cover every unpinned one.  Actions
    whose bits or exec conditions overlap share a table on their ``components``
    (split per action above ``COMPONENT_BITS`` bits); an entry holds their
    findings and counts and ranks its states.  A finding's ``_identity`` and
    family key are derived once, when the sweep first meets it.
    Sweeping a partition of the state space and merging the results equals
    sweeping the whole space, so callers may split the work freely.
    Pinning every state atom sweeps exactly one state.
    """
    free = check_state_space(base.ground, options.pins, options.max_states)
    index = base.index
    scopes = [relevant & free for relevant in index.relevant]
    conditions: dict[int, list[tuple[int, int]]] = {}  # per action, its exec conditions
    for need, forbid, action in index.exec_conditions:
        scopes[action] |= (need | forbid) & free
        conditions.setdefault(action, []).append((need, forbid))

    def executable(action: int, mask: int) -> bool:
        """True when none of the action's exec conditions holds in ``mask``."""
        for need, forbid in conditions.get(action, ()):
            if mask & need == need and not mask & forbid:
                return False
        return True

    memoised = [a for a, relevant in enumerate(index.relevant) if relevant & free != free]
    direct = [a for a, relevant in enumerate(index.relevant) if relevant & free == free]
    grouped: dict[int, list[int]] = {}
    for action, component in zip(memoised, components([scopes[a] for a in memoised])):
        if component.bit_count() > COMPONENT_BITS:
            component = scopes[action]
        grouped.setdefault(component, []).append(action)
    # Per table, with its actions: [family bitmask, rank, witness, states,
    # findings of the executable actions] per value of its bits.
    tables = [(bits, {}, actions) for bits, actions in grouped.items()]
    found: dict[tuple[int, int], tuple[list, int]] = {}  # findings, families per relevant bits
    accum: _Accumulator = {}  # keyed by compact finding; each is one record key
    family_ids: dict[tuple, int] = {}
    family_of: dict[tuple, tuple] = {}  # compact finding -> family id, identity, family key
    seen_counts: dict[int, int] = {}  # states per set of families fired, as a bitmask

    def families(findings: list[tuple]) -> int:
        """The findings' family ids as a bitmask."""
        fired = 0
        for finding in findings:
            entry = family_of.get(finding)
            if entry is None:
                identity = _identity(base, finding)
                key = _family_key(*identity)
                family = family_ids.setdefault(key, len(family_ids))
                entry = family_of[finding] = family, identity, key
            fired |= 1 << entry[0]
        return fired

    states_examined = 0
    for state in enumerate_states(base.ground, options.pins):
        states_examined += 1
        mask = state.mask
        rank = mask.bit_count()
        seen = 0
        for bits, table, actions in tables:
            entry = table.get(mask & bits)
            if entry is None:
                entry = table[mask & bits] = [0, rank, state, 0, []]
                for action in actions:
                    if not executable(action, mask):
                        continue
                    key = action, mask & index.relevant[action]
                    if key not in found:
                        findings = detect_state(base, mask, (action,))
                        found[key] = findings, families(findings)
                    findings, fired = found[key]
                    entry[0] |= fired
                    entry[4] += findings
            elif rank < entry[1] or (rank == entry[1] and str(state) < str(entry[2])):
                entry[1:3] = rank, state
            entry[3] += 1
            seen |= entry[0]
        if direct:
            actions = [a for a in direct if executable(a, mask)]
            if actions:
                findings = detect_state(base, mask, actions)
                for finding in findings:
                    _accumulate(accum, finding, state, state, 1)
                seen |= families(findings)
        seen_counts[seen] = seen_counts.get(seen, 0) + 1
    # The smallest witness over a partition of a finding's states is the smallest overall.
    for _, table, _ in tables:
        for _, _, witness, states, findings in table.values():
            for finding in findings:
                _accumulate(accum, finding, witness, witness, states)
    family_counts = [0] * len(family_ids)
    for seen, states in seen_counts.items():
        while seen:
            low = seen & -seen
            family_counts[low.bit_length() - 1] += states
            seen ^= low

    instances = sorted(
        (
            InstanceRecord(_record(base, finding, identity, witness), states, key)
            for finding, (witness, _, states, _) in accum.items()
            for _, identity, key in (family_of[finding],)
        ),
        key=lambda instance: instance.record.key(),
    )
    return SweepResult(
        instances=tuple(instances),
        states_examined=states_examined,
        family_counts=tuple(sorted((key, family_counts[i]) for key, i in family_ids.items())),
    )


def merge_sweeps(first: SweepResult, second: SweepResult) -> SweepResult:
    """Combine sweeps of disjoint state-space slices; their counts add up."""
    accum: _Accumulator = {}
    for instance in first.instances + second.instances:
        record = instance.record
        _accumulate(accum, record.key(), instance, record.witness_state, instance.state_count)
    instances = tuple(
        InstanceRecord(instance.record, states, instance.family)
        for _, (instance, _, states, _) in sorted(accum.items())
    )
    family_counts = Counter(dict(first.family_counts)) + Counter(dict(second.family_counts))
    return SweepResult(
        instances=instances,
        states_examined=first.states_examined + second.states_examined,
        family_counts=tuple(sorted(family_counts.items())),
    )


def _strip_binding(label: str) -> str:
    return label.split("[", 1)[0]


def _literal_family(literal: Literal) -> str:
    sign = "" if literal.positive else "!"
    return f"{sign}{literal.atom.predicate}"


class FamilyRecord(Frozen):
    """Instances of one finding that differ only in their constants.

    Display strings come from the representative instance, the one with the
    smallest witness state.  ``state_count`` counts distinct states across
    all instances; ``instance_count`` counts the ground instances.
    """

    __slots__ = (
        "kind", "action", "base_labels", "instance_labels", "rule_texts", "pos_support",
        "neg_support", "missing", "pairs", "urgency", "stats", "case", "witness_true_atoms",
        "state_count", "instance_count",
    )

    def __init__(
        self, kind: IssueKind, action: str, base_labels: tuple[str, ...],
        instance_labels: tuple[str, ...], rule_texts: tuple[str, ...],
        pos_support: tuple[str, ...], neg_support: tuple[str, ...],
        missing: tuple[tuple[str, tuple[str, ...]], ...], pairs: tuple[tuple[str, str], ...],
        urgency: int | None, stats: tuple[int, int, int] | None, case: int | None,
        witness_true_atoms: tuple[str, ...], state_count: int, instance_count: int,
    ) -> None:
        set_field(self, "kind", kind)
        set_field(self, "action", action)
        set_field(self, "base_labels", base_labels)
        set_field(self, "instance_labels", instance_labels)
        set_field(self, "rule_texts", rule_texts)
        set_field(self, "pos_support", pos_support)
        set_field(self, "neg_support", neg_support)
        set_field(self, "missing", missing)
        set_field(self, "pairs", pairs)
        set_field(self, "urgency", urgency)
        set_field(self, "stats", stats)
        set_field(self, "case", case)
        set_field(self, "witness_true_atoms", witness_true_atoms)
        set_field(self, "state_count", state_count)
        set_field(self, "instance_count", instance_count)


def _family_key(
    kind: IssueKind, action: Happening, labels: tuple[str, ...], pos_support: tuple[Literal, ...],
    neg_support: tuple[Literal, ...], missing: tuple, pairs: tuple, urgency: int | None,
    case: int | None,
) -> tuple:
    """The family of a finding, from its ``_identity``: its fields without constants."""
    action_sign = "" if action.positive else "-"
    return (
        kind.value,
        f"{action_sign}{action.action.predicate}",
        tuple(map(_strip_binding, labels)),
        tuple(map(_literal_family, pos_support)),
        tuple(map(_literal_family, neg_support)),
        tuple([(_strip_binding(r), tuple(map(_literal_family, lits))) for r, lits in missing]),
        tuple([(_strip_binding(a), _strip_binding(b)) for a, b in pairs]),
        urgency if urgency is not None else 0,
        case if case is not None else 0,
    )


def collapse_families(result: SweepResult) -> tuple[FamilyRecord, ...]:
    """Group instance records by their ``family`` key and pick representatives."""
    state_counts = dict(result.family_counts)
    accum: _Accumulator = {}
    for instance in result.instances:
        record = instance.record
        # A family's states may overlap across members; the sweep counted them.
        _accumulate(accum, instance.family, record, record.witness_state, 0)

    # The representative's strings are its record key's; its base labels, its family key's.
    families = [
        FamilyRecord(
            kind=record.kind,
            action=action,
            base_labels=key[2],
            instance_labels=record.rule_labels,
            rule_texts=record.rule_texts,
            pos_support=pos_support,
            neg_support=neg_support,
            missing=missing,
            pairs=record.pairs,
            urgency=record.urgency,
            stats=(record.stats.n, record.stats.n_p, record.stats.n_np)
            if record.stats
            else None,
            case=record.case,
            witness_true_atoms=tuple([str(a) for a in record.witness_state.ordered_atoms()]),
            state_count=state_counts[key],
            instance_count=count,
        )
        for key, (record, _, _, count) in accum.items()
        for _, action, _, pos_support, neg_support, missing, *_ in (record.key(),)
    ]
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
