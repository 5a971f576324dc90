"""The model-list detectors and sweep loop, kept as a differential reference.

``answer_sets`` expands the package's factored answer sets (``factor``)
into one ``AnswerSet`` per model, which ``entails`` and ``model_contains``
query; the package itself never materialises that cross product.  The
per-state detectors and compliance classifiers here loop over those
models.  With them come their model counter ``ambiguity_stats``, the
state enumeration, constraint check and executability filter that test
``Literal`` objects against a ``WorldState``, the sweep that ran them state
by state with its record-keyed accumulator, and the family collapse that
grouped the sweep's instances.  The package's ``sweep``, its ``detect_*``
views and its ``classify_*`` functions work on factored answer sets
instead, its enumeration and filters on int masks, and the package keys one
accumulator by compact finding, record key or family key and counts states
where this sweep keeps their sets; the tests require both to give the same
states, findings, witnesses, families and verdicts, and each package count
to equal the size of the matching set here.  The grounder at the end instantiates rules, preferences and
constraints in separate loops with their own sort inference and their own
substitution of constants for variables (``_substitute``); the package's
``ground`` must give an equal ground policy.

Three references work on the package's own integer forms instead: the
constraint check that tests one constraint's masks at a time, where the
package looks up per-component tables; ``per_action_sweep``, the
package's sweep before it memoised whole bit components, which keeps one
memo per action and reads the package's private finding helpers; and
``detect_state``, the package's per-state detector before it read each
pair's first and last outcome in one pass, which builds the package's
compact findings from its private tags.

``_tokenize`` at the end is the parser's character-at-a-time tokenizer,
which builds a ``Position`` for every token; the package's ``_tokenize``
reads the text with one compiled pattern instead, into tuples that carry an
offset, and must give the same tokens, with the positions its offsets give,
and diagnostics.  It shares the parser's token kinds, punctuation and
escape table.  After it comes the statement parser that wrote out each
statement's keyword, closing period and append in its own branch, with the
three ``_Parser`` methods that have since been folded into ``expect_ident``;
it runs on the package's ``_Parser`` and its error, and must give the same
statements and diagnostics as the package's ``_parse_statements``, which reads
the keyword and expects the period once for every form.  Nothing else here
reads a private name of the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Mapping

from aopl_lint import analysis
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
from aopl_lint.engine import AmbiguityStats, WorldState, factor, factor_rules, state_literals
from aopl_lint.diagnostics import Diagnostic, Position, Severity, has_errors
from aopl_lint.grounding import GroundingError, GroundPolicy, GroundRule
from aopl_lint.model import (
    Atom,
    DomainSpec,
    ExecConstraint,
    Happening,
    HeadLiteral,
    Literal,
    Modality,
    Policy,
    PolicyRule,
    PredicateDecl,
    PredicateKind,
    RuleKind,
    SortDecl,
    StateConstraint,
    is_variable,
    validate,
    variables_of,
)
from aopl_lint.parser import (
    _PREDICATE_KEYWORDS, _PUNCT, _STRING_ESCAPES, _ParseError, _Parser, _TokKind,
)
from aopl_lint.reify import ReifiedBase
from aopl_lint.states import check_pins, check_state_space

from helpers import executable as unblocked_actions, negated, satisfies


def _satisfies(state: WorldState, literal: Literal, sort_facts: frozenset[Atom]) -> bool:
    if literal.atom in sort_facts:
        return literal.positive
    return satisfies(state, literal)


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


def constraint_checks(gp: GroundPolicy) -> list[tuple[int, int, int, int]]:
    """(body masks, head masks) over ``gp.index.bits`` per state constraint.

    A body with a sort atom that is false, or a head with one that is true,
    drops the constraint; a missing or false head needs a bit past the last
    state atom, so it never holds.
    """
    bits, sort_facts = gp.index.bits, frozenset(gp.sort_facts)
    never = 1 << len(bits)

    def masks(literals: Iterable[Literal]) -> tuple[int, int] | None:
        need = forbid = 0
        for lit in literals:
            if lit.atom not in bits:
                if lit.positive != (lit.atom in sort_facts):
                    return None
            elif lit.positive:
                need |= bits[lit.atom]
            else:
                forbid |= bits[lit.atom]
        return need, forbid

    checks = []
    for constraint in gp.state_constraints:
        body = masks(constraint.body)
        head = masks((constraint.head,)) if constraint.head else None
        if body is not None and head != (0, 0):
            checks.append((*body, *(head or (never, 0))))
    return checks


def satisfies_constraint_checks(gp: GroundPolicy, state: int) -> bool:
    """The constraint check on an int mask, one constraint at a time."""
    for need, forbid, head_need, head_forbid in constraint_checks(gp):
        if state & need == need and not state & forbid:
            if state & head_need != head_need or state & head_forbid:
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


@dataclass(frozen=True)
class AnswerSet:
    """One answer set, split into its natural layers.

    ``state_literals`` echoes the state plus the always-true sort facts;
    ``satisfied_bodies``, ``fired_rules``, and ``ab_rules`` hold rule labels;
    ``heads`` holds the deontic conclusions.
    """

    state_literals: frozenset[Literal]
    satisfied_bodies: frozenset[str]
    fired_rules: frozenset[str]
    heads: frozenset[HeadLiteral]
    ab_rules: frozenset[str]

    def atoms(self) -> frozenset[str]:
        """Canonical holds-atom strings, one per member of the answer set."""
        out: set[str] = set()
        out.update(f"holds({lit})" for lit in self.state_literals)
        out.update(f"holds(b({label}))" for label in self.satisfied_bodies)
        out.update(f"holds({label})" for label in self.fired_rules)
        out.update(f"holds({head})" for head in self.heads)
        out.update(f"holds(ab({label}))" for label in self.ab_rules)
        return frozenset(out)

    def sort_key(self) -> tuple[str, ...]:
        return tuple(sorted(self.atoms()))


def answer_sets(base: ReifiedBase, state: WorldState) -> list[AnswerSet]:
    """All answer sets of the reified policy joined with the state.

    Expands the package's factored form, the cross product of every pair's
    outcomes, into models sorted by canonical atom strings.
    """
    mask = base.index.mask(state)
    groups = factor(base, mask)
    ab_rules = frozenset(
        weaker for need, forbid, weaker in base.index.prefers
        if mask & need == need and not mask & forbid
    )
    sort_facts = frozenset(base.ground.sort_facts)
    satisfied = frozenset(
        rule.label
        for rule in base.ground.rules
        if all(_satisfies(state, lit, sort_facts) for lit in rule.condition)
    )
    literals = frozenset(state_literals(base, state))
    # Each action's six heads in ``reify.Index`` pair order, so the even ones
    # are the positive members of its permitted(a), obl(a) and obl(-a) pairs.
    pairs = _head_universe(base.ground.action_atoms)[::2]
    choices = [
        [(pairs[pair], outcome) for outcome in outcomes] for pair, outcomes in groups.items()
    ]
    models: list[AnswerSet] = []
    for combo in product(*choices):
        fired: set[str] = set()
        heads: set[HeadLiteral] = set()
        for head, (pos, neg) in combo:
            fired.update(pos, neg)
            if pos:
                heads.add(head)
            if neg:
                heads.add(head.opposite())
        models.append(
            AnswerSet(
                state_literals=literals,
                satisfied_bodies=satisfied,
                fired_rules=frozenset(fired),
                heads=frozenset(heads),
                ab_rules=ab_rules,
            )
        )
    models.sort(key=AnswerSet.sort_key)
    return models


def model_contains(model: AnswerSet, query: HeadLiteral | Literal) -> bool:
    if isinstance(query, HeadLiteral):
        return query in model.heads
    if isinstance(query, Literal):
        return query in model.state_literals
    raise TypeError(f"unsupported query type: {type(query).__name__}")


def entails(
    base: ReifiedBase,
    state: WorldState,
    query: HeadLiteral | Literal,
    models: list[AnswerSet] | None = None,
) -> bool:
    """Cautious entailment: the query holds in every answer set.

    Pass precomputed ``models`` to avoid re-evaluating the same state.
    """
    return all(model_contains(m, query) for m in _models(base, state, models))


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
    pairs = _complementary_pairs(_head_universe(base.ground.action_atoms))
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
    return satisfies(state, literal)


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
            obl_not = HeadLiteral(Modality.OBL, negated(does), True)

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


@dataclass(frozen=True)
class SetInstance:
    """A deduplicated ground finding with the set of states it was seen in."""

    record: IssueRecord
    states: frozenset[WorldState]


@dataclass(frozen=True)
class SetSweep:
    """The reference sweep's result: instances sorted by record key."""

    instances: tuple[SetInstance, ...]
    states_examined: int


def _witness_rank(state: WorldState) -> tuple[int, str]:
    return (len(state.true_atoms), str(state))


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


def _result(accum: _Accumulator, states_examined: int) -> SetSweep:
    instances = tuple(
        SetInstance(record=accum[key][0], states=frozenset(accum[key][1]))
        for key in sorted(accum)
    )
    return SetSweep(instances=instances, states_examined=states_examined)


def sweep(base: ReifiedBase, options: SweepOptions = SweepOptions()) -> SetSweep:
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


# The package's compact finding tags, read by the detector below.
_INCONSISTENCY, _OBLIGATION, _MODALITY, _AMBIGUITY, _UNDERSPECIFIED = (
    analysis._INCONSISTENCY, analysis._OBLIGATION, analysis._MODALITY, analysis._AMBIGUITY,
    analysis._UNDERSPECIFIED,
)
_UNDECIDED = analysis._UNDECIDED


def detect_state(base: ReifiedBase, state: int, actions: Iterable[int]) -> list[tuple]:
    """The package's ``analysis.detect_state`` before it read each pair's
    first and last outcome in one pass: every finding about the given actions
    in one state, as the package's compact tuples.

    Each question reads off the outcomes of the action's three pairs, and a
    label list is read across all outcomes of a pair when a finding combines
    it with another pair.
    """
    index = base.index
    findings: list[tuple] = []
    for action in actions:
        groups = factor_rules(*index.slices[action], state)
        permitted, obl_do, obl_not, auth_rules, auth_mask = index.actions[action]
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
            # Only an unblocked defeasible split gives two outcomes, one per side.
            permitting = tuple(r for pos, _ in perm for r in pos)
            forbidding = tuple(r for _, neg in perm for r in neg)
            findings.append((_AMBIGUITY, action, permitting, forbidding))

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


def _package_record(base: ReifiedBase, finding: tuple, state: WorldState) -> IssueRecord:
    """The package's IssueRecord for a compact finding, witnessed by ``state``."""
    return analysis._record(base, finding, analysis._identity(base, finding), state)


def per_action_sweep(base: ReifiedBase, options: SweepOptions = SweepOptions()) -> SweepResult:
    """The package's sweep with one memo per action and no components.

    An action's findings are memoised on its ``Index.relevant`` bits unless
    they cover every unpinned bit; a memo hit counts the state and ranks it
    as the key's witness, once per state and executable action.  It calls
    ``analysis.detect_state`` through the module, so a test may count calls.
    """
    check_state_space(base.ground, options.pins, options.max_states)
    index = base.index
    pinned = {pin.atom for pin in options.pins}
    free = sum(bit for atom, bit in index.bits.items() if atom not in pinned)
    exec_bits = 0
    for need, forbid, _ in index.exec_conditions:
        exec_bits |= need | forbid
    # Per action, unless its bits cover every free one: [findings, family bitmask,
    # rank, witness, states] per value of its relevant bits.
    memos = [{} if relevant & free != free else None for relevant in index.relevant]
    executable: dict[int, tuple[list, list[int]]] = {}  # memoised and direct, by exec_bits
    accum: dict = {}  # keyed by compact finding; each is one record key
    family_ids: dict[tuple, int] = {}
    family_of: dict[tuple, int] = {}  # compact finding -> family id
    seen_counts: dict[int, int] = {}  # states per set of families fired, as a bitmask

    def families(findings: list[tuple], state: WorldState) -> int:
        fired = 0
        for finding in findings:
            if finding not in family_of:
                key = _family_key(_package_record(base, finding, state))
                family_of[finding] = family_ids.setdefault(key, len(family_ids))
            fired |= 1 << family_of[finding]
        return fired

    states_examined = 0
    for state in analysis.enumerate_states(base.ground, options.pins):
        states_examined += 1
        mask = state.mask
        rank = mask.bit_count()
        split = executable.get(mask & exec_bits)
        if split is None:
            actions = unblocked_actions(index, mask)
            split = executable[mask & exec_bits] = (
                [(a, memos[a], index.relevant[a]) for a in actions if memos[a] is not None],
                [a for a in actions if memos[a] is None],
            )
        seen = 0
        for action, memo, relevant in split[0]:
            entry = memo.get(mask & relevant)
            if entry is None:
                findings = analysis.detect_state(base, mask, (action,))
                entry = memo[mask & relevant] = [findings, families(findings, state), rank, state, 0]
            elif rank < entry[2] or (rank == entry[2] and str(state) < str(entry[3])):
                entry[2:4] = rank, state
            entry[4] += 1
            seen |= entry[1]
        if split[1]:
            findings = analysis.detect_state(base, mask, split[1])
            for finding in findings:
                analysis._accumulate(accum, finding, state, state, 1)
            seen |= families(findings, state)
        seen_counts[seen] = seen_counts.get(seen, 0) + 1
    for memo in filter(None, memos):
        for findings, _, _, witness, states in memo.values():
            for finding in findings:
                analysis._accumulate(accum, finding, witness, witness, states)
    family_counts = [0] * len(family_ids)
    for seen, states in seen_counts.items():
        for i in range(seen.bit_length()):
            family_counts[i] += states * (seen >> i & 1)

    instances = sorted(
        (
            InstanceRecord(record=record, state_count=states, family=_family_key(record))
            for finding, (witness, _, states, _) in accum.items()
            for record in (_package_record(base, finding, witness),)
        ),
        key=lambda instance: instance.record.key(),
    )
    return SweepResult(
        instances=tuple(instances),
        states_examined=states_examined,
        family_counts=tuple(sorted((key, family_counts[i]) for key, i in family_ids.items())),
    )


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


def collapse_families(result: SetSweep) -> tuple[FamilyRecord, ...]:
    """Group instance records into families and pick representatives."""
    groups: dict[tuple, list[SetInstance]] = {}
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


def _positional_sorts(atom: Atom, domain: DomainSpec) -> tuple[str, ...] | None:
    """Expected argument sorts for an atom, or None if undeclared.

    Sort names double as unary membership predicates.
    """
    decl = domain.predicate_map().get(atom.predicate)
    if decl is not None:
        return decl.arg_sorts
    if atom.predicate in domain.sort_map():
        return (atom.predicate,)
    return None


class _Scope:
    """Tracks variable sorts within one rule or constraint."""

    def __init__(self, domain: DomainSpec) -> None:
        self.domain = domain
        self.sorts: dict[str, str] = {}
        self.problems: list[str] = []

    def bind(self, var: str, sort: str) -> None:
        known = self.sorts.get(var)
        if known is None:
            self.sorts[var] = sort
        elif known != sort:
            self.problems.append(
                f"variable {var} has conflicting sorts {known} and {sort}"
            )

    def check_atom(self, atom: Atom) -> None:
        expected = _positional_sorts(atom, self.domain)
        if expected is None:
            self.problems.append(f"undeclared predicate: {atom.predicate}")
            return
        if len(expected) != len(atom.args):
            self.problems.append(
                f"{atom.predicate} expects {len(expected)} argument(s), got {len(atom.args)}"
            )
            return
        sort_map = self.domain.sort_map()
        for arg, sort in zip(atom.args, expected):
            if sort not in sort_map:
                # The predicate declaration itself is reported elsewhere.
                continue
            if is_variable(arg):
                self.bind(arg, sort)
            elif arg not in sort_map[sort].members:
                self.problems.append(f"constant {arg} is not in sort {sort}")


def rule_variable_sorts(
    rule: PolicyRule, policy: Policy, domain: DomainSpec
) -> dict[str, str]:
    """Resolved sort of every variable in a validated rule."""
    scope = _Scope(domain)
    if rule.head is not None:
        scope.check_atom(rule.head.happening.action)
    for lit in rule.condition:
        scope.check_atom(lit.atom)
    for var, sort in rule.where:
        scope.sorts.setdefault(var, sort)
    return dict(scope.sorts)


def _ground_label(base: str, variables: tuple[str, ...], binding: Mapping[str, str]) -> str:
    if not variables:
        return base
    return f"{base}[{','.join(binding[v] for v in variables)}]"


def _bindings(
    variables: tuple[str, ...],
    var_sorts: Mapping[str, str],
    domain: DomainSpec,
) -> Iterable[dict[str, str]]:
    sort_map = domain.sort_map()
    pools: list[tuple[str, ...]] = []
    for var in variables:
        sort = var_sorts.get(var)
        if sort is None or sort not in sort_map:
            raise GroundingError(f"variable {var} has no resolvable sort")
        members = sort_map[sort].members
        if not members:
            raise GroundingError(f"sort {sort} has no members")
        pools.append(members)
    for values in product(*pools):
        yield dict(zip(variables, values))


def _ground_atoms(domain: DomainSpec, kinds: tuple[PredicateKind, ...]) -> tuple[Atom, ...]:
    sort_map = domain.sort_map()
    atoms: list[Atom] = []
    for pred in domain.predicates:
        if pred.kind not in kinds:
            continue
        pools = [sort_map[s].members for s in pred.arg_sorts]
        for values in product(*pools):
            atoms.append(Atom(pred.name, tuple(values)))
    return tuple(atoms)


def _head_universe(action_atoms: tuple[Atom, ...]) -> tuple[HeadLiteral, ...]:
    heads: list[HeadLiteral] = []
    for action in action_atoms:
        does = Happening(action, True)
        does_not = Happening(action, False)
        heads.extend(
            [
                HeadLiteral(Modality.PERMITTED, does, True),
                HeadLiteral(Modality.PERMITTED, does, False),
                HeadLiteral(Modality.OBL, does, True),
                HeadLiteral(Modality.OBL, does, False),
                HeadLiteral(Modality.OBL, does_not, True),
                HeadLiteral(Modality.OBL, does_not, False),
            ]
        )
    return tuple(heads)


def _constraint_scope_sorts(
    literals: Iterable[Literal], domain: DomainSpec
) -> dict[str, str]:
    sorts: dict[str, str] = {}
    for lit in literals:
        expected = _positional_sorts(lit.atom, domain)
        if expected is None or len(expected) != len(lit.atom.args):
            raise GroundingError(f"cannot ground ill-formed literal {lit}")
        for arg, sort in zip(lit.atom.args, expected):
            if is_variable(arg):
                sorts.setdefault(arg, sort)
    return sorts


def _scope_variables(literals: Iterable[Literal]) -> tuple[str, ...]:
    seen: list[str] = []
    for lit in literals:
        for var in variables_of((lit.atom,)):
            if var not in seen:
                seen.append(var)
    return tuple(seen)


def _substitute(node, binding: Mapping[str, str]):
    """An ``Atom``, ``Literal``, ``Happening`` or ``HeadLiteral`` with each
    variable that ``binding`` names replaced by its constant."""
    if isinstance(node, Atom):
        return Atom(node.predicate, tuple(binding.get(a, a) for a in node.args))
    if isinstance(node, Literal):
        return Literal(_substitute(node.atom, binding), node.positive)
    if isinstance(node, Happening):
        return Happening(_substitute(node.action, binding), node.positive)
    return HeadLiteral(node.modality, _substitute(node.happening, binding), node.positive)


def ground(policy: Policy, domain: DomainSpec) -> GroundPolicy:
    """Instantiate a validated policy over its domain.

    Raises GroundingError when validation reports errors; run validate()
    first for the full diagnostic list.
    """
    diagnostics = validate(policy, domain)
    if has_errors(diagnostics):
        first = next(d for d in diagnostics if d.severity.value == "error")
        raise GroundingError(f"policy does not validate: {first.message}")

    state_atoms = _ground_atoms(domain, (PredicateKind.STATIC, PredicateKind.FLUENT))
    action_atoms = _ground_atoms(domain, (PredicateKind.ACTION,))

    ground_rules: list[GroundRule] = []
    rule_by_label = policy.rule_map()

    for rule in policy.rules:
        if rule.kind is RuleKind.PREFERENCE:
            preferred = rule_by_label[rule.preferred]
            dispreferred = rule_by_label[rule.dispreferred]
            pref_vars = preferred.variables()
            disp_vars = dispreferred.variables()
            variables = pref_vars + tuple(v for v in disp_vars if v not in pref_vars)
            var_sorts = rule_variable_sorts(preferred, policy, domain)
            for var, sort in rule_variable_sorts(dispreferred, policy, domain).items():
                var_sorts.setdefault(var, sort)
            for binding in _bindings(variables, var_sorts, domain):
                ground_rules.append(
                    GroundRule(
                        label=_ground_label(rule.label, variables, binding),
                        kind=RuleKind.PREFERENCE,
                        preferred=_ground_label(rule.preferred, pref_vars, binding),
                        dispreferred=_ground_label(rule.dispreferred, disp_vars, binding),
                        text=rule.text,
                    )
                )
            continue

        variables = rule.variables()
        var_sorts = rule_variable_sorts(rule, policy, domain)
        for binding in _bindings(variables, var_sorts, domain):
            ground_rules.append(
                GroundRule(
                    label=_ground_label(rule.label, variables, binding),
                    kind=rule.kind,
                    head=_substitute(rule.head, binding),
                    condition=tuple(_substitute(lit, binding) for lit in rule.condition),
                    text=rule.text,
                )
            )

    sort_names = set(domain.sort_map())
    sort_fact_set: set[Atom] = set()

    ground_state_constraints: list[StateConstraint] = []
    for constraint in domain.state_constraints:
        literals = list(constraint.body) + ([constraint.head] if constraint.head else [])
        variables = _scope_variables(literals)
        var_sorts = _constraint_scope_sorts(literals, domain)
        for binding in _bindings(variables, var_sorts, domain):
            ground_state_constraints.append(
                StateConstraint(
                    body=tuple(_substitute(lit, binding) for lit in constraint.body),
                    head=_substitute(constraint.head, binding) if constraint.head else None,
                )
            )

    ground_exec_constraints: list[ExecConstraint] = []
    for constraint in domain.exec_constraints:
        literals = list(constraint.condition) + [Literal(constraint.action)]
        variables = _scope_variables(literals)
        var_sorts = _constraint_scope_sorts(literals, domain)
        for binding in _bindings(variables, var_sorts, domain):
            ground_exec_constraints.append(
                ExecConstraint(
                    action=_substitute(constraint.action, binding),
                    condition=tuple(_substitute(lit, binding) for lit in constraint.condition),
                )
            )

    for rule in ground_rules:
        for lit in rule.condition:
            if lit.atom.predicate in sort_names:
                sort_fact_set.add(lit.atom)
    for constraint in ground_state_constraints:
        for lit in list(constraint.body) + ([constraint.head] if constraint.head else []):
            if lit.atom.predicate in sort_names:
                sort_fact_set.add(lit.atom)
    for constraint in ground_exec_constraints:
        for lit in constraint.condition:
            if lit.atom.predicate in sort_names:
                sort_fact_set.add(lit.atom)

    return GroundPolicy(
        rules=tuple(ground_rules),
        state_atoms=state_atoms,
        action_atoms=action_atoms,
        state_constraints=tuple(ground_state_constraints),
        exec_constraints=tuple(ground_exec_constraints),
        sort_facts=tuple(sorted(sort_fact_set, key=str)),
    )


@dataclass(frozen=True)
class _Token:
    kind: _TokKind
    value: str
    position: Position


def _tokenize(text: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[Diagnostic] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def advance(count: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                advance()
            continue
        pos = Position(line, col)
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                advance()
            word = text[start:i]
            kind = _TokKind.VARIABLE if is_variable(word) else _TokKind.IDENT
            tokens.append(_Token(kind, word, pos))
            continue
        if ch == '"':
            advance()
            chars: list[str] = []
            closed = False
            while i < n:
                c = text[i]
                if c == '"':
                    advance()
                    closed = True
                    break
                if c == "\\":
                    advance()
                    if i < n and text[i] in _STRING_ESCAPES:
                        chars.append(_STRING_ESCAPES[text[i]])
                        advance()
                    else:
                        diagnostics.append(
                            Diagnostic(
                                Severity.ERROR,
                                "unknown string escape",
                                position=Position(line, col),
                            )
                        )
                        if i < n:
                            advance()
                    continue
                if c == "\n":
                    break
                chars.append(c)
                advance()
            if not closed:
                diagnostics.append(
                    Diagnostic(Severity.ERROR, "unterminated string", position=pos)
                )
            tokens.append(_Token(_TokKind.STRING, "".join(chars), pos))
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_TokKind.PUNCT, ch, pos))
            advance()
            continue
        diagnostics.append(
            Diagnostic(Severity.ERROR, f"unexpected character {ch!r}", position=pos)
        )
        advance()

    end = Position(line, col)
    tokens.append(_Token(_TokKind.EOF, "", end))
    return tokens, diagnostics


class _OldParser(_Parser):
    """The package's statement parser with its ``expect_ident``, ``parse_term``
    and ``parse_where_entry`` as they were before ``expect_ident`` took the
    token kinds it accepts."""

    def __init__(self, parser: _Parser) -> None:
        self.tokens, self.index, self.position = parser.tokens, parser.index, parser.position

    def expect_ident(self, what: str) -> str:
        kind, text, offset = self.tokens[self.index]
        if kind is not _TokKind.IDENT:
            raise _ParseError(f"expected {what}", offset)
        self.index += 1
        return text

    def parse_term(self) -> str:
        kind, text, offset = self.tokens[self.index]
        if kind is not _TokKind.IDENT and kind is not _TokKind.VARIABLE:
            raise _ParseError("expected a constant or variable", offset)
        self.index += 1
        return text

    def parse_where_entry(self) -> tuple[str, str]:
        kind, var, offset = self.peek()
        if kind is not _TokKind.VARIABLE:
            raise _ParseError("expected a variable in where-clause", offset)
        self.index += 1
        self.expect_punct(":")
        return var, self.expect_ident("a sort name")


def _parse_statements(package_parser: _Parser, diagnostics: list[Diagnostic]):
    """The statement parser that spelled out each statement's keyword, closing
    period and append; a stand-in for the package's ``_parse_statements``."""
    parser = _OldParser(package_parser)
    sorts: list = []
    predicates: list = []
    state_constraints: list = []
    exec_constraints: list = []
    rules: list = []
    texts: list = []  # label, text, position

    while parser.peek()[0] is not _TokKind.EOF:
        kind, keyword, offset = parser.peek()
        try:
            if kind is not _TokKind.IDENT:
                raise _ParseError("expected a statement keyword", offset)
            if keyword == "sorts":
                parser.next()
                name = parser.expect_ident("a sort name")
                parser.expect_punct(":")
                members = parser.comma_list(lambda: parser.expect_ident("a constant"))
                parser.expect_punct(".")
                sorts.append(SortDecl(name, members))
            elif keyword in _PREDICATE_KEYWORDS:
                parser.next()
                name = parser.expect_ident("a predicate name")
                arg_sorts: tuple[str, ...] = ()
                if parser.at_punct("("):
                    parser.next()
                    arg_sorts = parser.comma_list(lambda: parser.expect_ident("a sort name"))
                    parser.expect_punct(")")
                parser.expect_punct(".")
                predicates.append(PredicateDecl(name, _PREDICATE_KEYWORDS[keyword], arg_sorts))
            elif keyword == "constraint":
                parser.next()
                head = parser.parse_literal()
                body: tuple[Literal, ...] = ()
                if parser.accept("if"):
                    body = parser.comma_list(parser.parse_literal)
                parser.expect_punct(".")
                state_constraints.append(StateConstraint(body=body, head=head))
            elif keyword == "impossible":
                parser.next()
                body = parser.comma_list(parser.parse_literal)
                parser.expect_punct(".")
                state_constraints.append(StateConstraint(body=body, head=None))
            elif keyword == "impossible_exec":
                parser.next()
                action = parser.parse_atom()
                condition: tuple[Literal, ...] = ()
                if parser.accept("if"):
                    condition = parser.comma_list(parser.parse_literal)
                parser.expect_punct(".")
                exec_constraints.append(ExecConstraint(action, condition))
            elif keyword == "rule":
                position = parser.position(offset)
                parser.next()
                label = parser.expect_ident("a rule label")
                parser.expect_punct(":")
                kind = RuleKind.DEFEASIBLE if parser.accept("normally") else RuleKind.STRICT
                head = parser.parse_head()
                condition = ()
                where: tuple[tuple[str, str], ...] = ()
                if parser.accept("if"):
                    condition = parser.comma_list(parser.parse_literal)
                if parser.accept("where"):
                    where = parser.comma_list(parser.parse_where_entry)
                parser.expect_punct(".")
                rules.append(
                    (PolicyRule(label, kind, head=head, condition=condition, where=where), position)
                )
            elif keyword == "prefer":
                position = parser.position(offset)
                parser.next()
                label = parser.expect_ident("a rule label")
                parser.expect_punct(":")
                preferred = parser.expect_ident("a defeasible rule label")
                parser.expect_punct(">")
                dispreferred = parser.expect_ident("a defeasible rule label")
                parser.expect_punct(".")
                rule = PolicyRule(
                    label, RuleKind.PREFERENCE, preferred=preferred, dispreferred=dispreferred
                )
                rules.append((rule, position))
            elif keyword == "text":
                position = parser.position(offset)
                parser.next()
                label = parser.expect_ident("a rule label")
                parser.expect_punct(":")
                kind, string, at = parser.peek()
                if kind is not _TokKind.STRING:
                    raise _ParseError("expected a quoted string", at)
                parser.next()
                parser.expect_punct(".")
                texts.append((label, string, position))
            else:
                raise _ParseError(f"unknown statement keyword {keyword!r}", offset)
        except _ParseError as exc:
            diagnostics.append(
                Diagnostic(Severity.ERROR, exc.message, position=parser.position(exc.offset))
            )
            parser.synchronize()

    return sorts, predicates, state_constraints, exec_constraints, rules, texts
