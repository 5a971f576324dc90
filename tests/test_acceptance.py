"""Acceptance gate: one test per advertised guarantee.

Every test prints a single "ACCEPTANCE n: PASS|FAIL" line (run with -s to
see them as they happen) and then asserts, so the suite fails loudly when a
guarantee is broken.  The checks mirror the README's claims: the mission
walkthrough, the oracle equivalence of the native engine, the compliance
partition, ambiguity accounting, verbatim explanation templates, and the
byte-stable ASP emitters.
"""

from __future__ import annotations

import time

import pytest

from aopl_lint import (
    AuthorizationClass,
    Happening,
    HeadLiteral,
    IssueKind,
    Modality,
    SweepOptions,
    classify_action,
    collapse_families,
    detect_ambiguity,
    detect_modality_conflicts,
    detect_underspecification,
    emit_asp,
    enumerate_states,
    ground,
    reify,
    sweep,
)
from aopl_lint.report import explanation_lines
from aopl_lint.states import parse_pins

import reference
from corpus import corpus
from oracle import oracle_answer_sets
from reference import answer_sets
from helpers import DATA, action_atom, base_from, load_base, make_state

ASSUME = "assume_comm(c,m)"


def _verdict(number: int, ok: bool, detail: str = "") -> None:
    tail = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance check {number} failed{tail}"


def _true_atoms(state) -> set[str]:
    return {str(a) for a in state.true_atoms}


def _states_where(gp, *atoms: str) -> set:
    wanted = set(atoms)
    return {s for s in enumerate_states(gp) if wanted <= _true_atoms(s)}


def _reference_states(base, instance) -> frozenset:
    """The states the reference sweep saw ``instance``'s finding in."""
    key = instance.record.key()
    (found,) = [i for i in reference.sweep(base).instances if i.record.key() == key]
    return found.states


def _has_complement(model) -> bool:
    return any(h.opposite() in model.heads for h in model.heads)


@pytest.fixture(scope="module")
def strict_sweep(mission_strict):
    return sweep(mission_strict)


@pytest.fixture(scope="module")
def corpus_evaluations():
    """Engine evaluations of every random policy in every state."""
    out = []
    for policy, domain in corpus():
        base = reify(ground(policy, domain))
        rows = [(state, answer_sets(base, state)) for state in enumerate_states(base.ground)]
        out.append((base, rows))
    return out


def test_1_strict_mission_inconsistency(mission_strict):
    started = time.perf_counter()
    result = sweep(mission_strict)
    elapsed = time.perf_counter() - started

    families = [
        f for f in collapse_families(result) if f.kind is IssueKind.INCONSISTENCY
    ]
    instances = [
        i for i in result.instances if i.record.kind is IssueKind.INCONSISTENCY
    ]
    ok = len(families) == 1 and len(instances) == 1
    if ok:
        family = families[0]
        ok = (
            set(family.base_labels) == {"s1", "s2"}
            and "colonel(c)" in family.pos_support
            and "authorized(c,m)" in family.neg_support
            and family.state_count == 4
            and elapsed < 1.0
        )
        seen_in = _reference_states(mission_strict, instances[0])
        ok = (
            ok
            and instances[0].state_count == len(seen_in)
            and seen_in
            == _states_where(mission_strict.ground, "colonel(c)", "authorized(c,m)")
        )
    _verdict(1, ok, f"one family over 4 states, swept in {elapsed * 1000:.0f} ms")


def test_2_preference_resolves_the_conflict(mission_defeasible):
    base = mission_defeasible
    families = collapse_families(sweep(base))
    ok = not any(
        f.kind in (IssueKind.INCONSISTENCY, IssueKind.AMBIGUITY) for f in families
    )

    act = action_atom(base.ground, ASSUME)
    colonel_states = 0
    oracle_matches = 0
    total = 0
    for state in enumerate_states(base.ground):
        total += 1
        models = answer_sets(base, state)
        if [m.atoms() for m in models] == [
            m.atoms() for m in oracle_answer_sets(base, state)
        ]:
            oracle_matches += 1
        if "colonel(c)" in _true_atoms(state):
            colonel_states += 1
            if classify_action(base, state, act) is not (
                AuthorizationClass.STRONGLY_COMPLIANT
            ):
                ok = False
    ok = ok and colonel_states == 8 and oracle_matches == total == 16
    _verdict(2, ok, f"oracle agreed on {oracle_matches}/{total} states")


def test_3_modality_conflict_levels(mission_strict, strict_sweep):
    families = [
        f
        for f in collapse_families(strict_sweep)
        if f.kind is IssueKind.MODALITY_CONFLICT and f.urgency == 1
    ]
    instances = [
        i
        for i in strict_sweep.instances
        if i.record.kind is IssueKind.MODALITY_CONFLICT and i.record.urgency == 1
    ]
    ok = (
        len(families) == 1
        and set(families[0].base_labels) == {"o1", "s1"}
        and len(instances) == 1
    )
    if ok:
        seen_in = _reference_states(mission_strict, instances[0])
        ok = instances[0].state_count == len(seen_in) and seen_in == _states_where(
            mission_strict.ground, "authorized(c,m)", "ordered_by_superior(c,m)"
        )

    level1 = base_from(
        "fluent f. action a.\nrule r1: obl(a) if f.\nrule r2: !permitted(a) if f.\n"
    )
    records = detect_modality_conflicts(level1, make_state(level1.ground, "f"))
    ok = ok and [r.urgency for r in records] == [1]
    ok = ok and records[0].rule_labels == ("r1", "r2")

    level2 = base_from(
        "fluent f. fluent g. action a.\n"
        "rule r1: obl(-a) if f.\nrule r2: permitted(a) if g.\n"
    )
    records = detect_modality_conflicts(level2, make_state(level2.ground, "f", "g"))
    ok = ok and [r.urgency for r in records] == [2]

    level3 = base_from("fluent f. action a.\nrule r1: obl(a) if f.\n")
    records = detect_modality_conflicts(level3, make_state(level3.ground, "f"))
    ok = ok and [r.urgency for r in records] == [3]
    ok = ok and records[0].rule_labels == ("r1",)

    _verdict(3, ok, "urgency 1 on the mission pair; levels 1-3 on fixtures")


def test_4_engine_matches_oracle_on_random_policies(corpus_evaluations):
    started = time.perf_counter()
    mismatches = 0
    states_checked = 0
    for base, rows in corpus_evaluations:
        for state, models in rows:
            states_checked += 1
            oracle = oracle_answer_sets(base, state)
            if [m.atoms() for m in models] != [m.atoms() for m in oracle]:
                mismatches += 1
    elapsed = time.perf_counter() - started
    ok = (
        len(corpus_evaluations) >= 200
        and mismatches == 0
        and elapsed < 60.0
    )
    _verdict(
        4,
        ok,
        f"{len(corpus_evaluations)} policies, {states_checked} states, "
        f"{mismatches} mismatches, {elapsed:.1f} s",
    )


def test_5_no_state_is_both_compliant_and_forbidden(corpus_evaluations):
    violations = 0
    consistent_events = 0
    for base, rows in corpus_evaluations:
        for state, models in rows:
            consistent = not any(_has_complement(m) for m in models)
            for action in base.ground.action_atoms:
                permitted = HeadLiteral(Modality.PERMITTED, Happening(action), True)
                strongly = all(permitted in m.heads for m in models)
                forbidden = all(permitted.opposite() in m.heads for m in models)
                if consistent:
                    consistent_events += 1
                    if strongly and forbidden:
                        violations += 1
                verdict = classify_action(base, state, action)
                if verdict is AuthorizationClass.STRONGLY_COMPLIANT and forbidden:
                    violations += 1
    ok = violations == 0 and consistent_events > 0
    _verdict(5, ok, f"{consistent_events} consistent events, {violations} violations")


def test_6_consistent_policies_partition_cleanly(corpus_evaluations):
    expected = {
        "strongly": AuthorizationClass.STRONGLY_COMPLIANT,
        "non": AuthorizationClass.NON_COMPLIANT,
        "under": AuthorizationClass.UNDERSPECIFIED,
        "ambiguous": AuthorizationClass.AMBIGUOUS,
    }
    consistent_policies = 0
    pairs = 0
    violations = 0
    for base, rows in corpus_evaluations:
        if any(_has_complement(m) for _, models in rows for m in models):
            continue
        consistent_policies += 1
        for state, models in rows:
            for action in base.ground.action_atoms:
                permitted = HeadLiteral(Modality.PERMITTED, Happening(action), True)
                negated = permitted.opposite()
                n = len(models)
                n_p = sum(permitted in m.heads for m in models)
                n_np = sum(negated in m.heads for m in models)
                flags = {
                    "strongly": n_p == n,
                    "non": n_np == n,
                    "under": any(
                        permitted not in m.heads and negated not in m.heads
                        for m in models
                    ),
                    "ambiguous": n_p >= 1 and n_np >= 1 and n == n_p + n_np,
                }
                raised = [name for name, up in flags.items() if up]
                pairs += 1
                if len(raised) != 1:
                    violations += 1
                elif classify_action(base, state, action) is not expected[raised[0]]:
                    violations += 1
    ok = violations == 0 and consistent_policies > 0 and pairs > 0
    _verdict(
        6,
        ok,
        f"{consistent_policies} consistent policies, {pairs} (state, action) "
        f"pairs, {violations} violations",
    )


def test_7_ambiguity_counts_add_up(corpus_evaluations, mission_ambiguous):
    reported = 0
    violations = 0

    def audit(models, action, stats) -> None:
        nonlocal reported, violations
        reported += 1
        permitted = HeadLiteral(Modality.PERMITTED, Happening(action), True)
        n = len(models)
        n_p = sum(permitted in m.heads for m in models)
        n_np = sum(permitted.opposite() in m.heads for m in models)
        if (stats.n, stats.n_p, stats.n_np) != (n, n_p, n_np):
            violations += 1
        if stats.n != stats.n_p + stats.n_np or stats.n_p < 1 or stats.n_np < 1:
            violations += 1

    for base, rows in corpus_evaluations:
        for state, models in rows:
            for action in base.ground.action_atoms:
                record, _ = detect_ambiguity(base, state, action)
                if record is not None:
                    audit(models, action, record.stats)

    mission_seen = 0
    base = mission_ambiguous
    act = action_atom(base.ground, ASSUME)
    for state in enumerate_states(base.ground):
        models = answer_sets(base, state)
        record, _ = detect_ambiguity(base, state, act)
        if record is not None:
            mission_seen += 1
            audit(models, act, record.stats)

    ok = violations == 0 and mission_seen > 0
    _verdict(
        7,
        ok,
        f"{reported} ambiguity records audited ({mission_seen} from the mission "
        f"fixture), {violations} violations",
    )


def test_8_underspecification_templates_are_verbatim():
    case1 = base_from("action a.\nrule r1: obl(a).\n")
    families = [
        f
        for f in collapse_families(sweep(case1))
        if f.kind is IssueKind.UNDERSPECIFIED
    ]
    ok = (
        len(families) == 1
        and families[0].case == 1
        and explanation_lines(families[0])
        == ["There are no authorization rules about a"]
    )

    case2 = base_from(
        "fluent f. fluent g. action a.\n"
        "rule r1: permitted(a) if f, g.\n"
        'text r1: "only when cleared and staffed".\n'
    )
    pinned = SweepOptions(pins=tuple(parse_pins(["!f", "!g"])))
    families = [
        f
        for f in collapse_families(sweep(case2, pinned))
        if f.kind is IssueKind.UNDERSPECIFIED
    ]
    ok = ok and len(families) == 1 and families[0].case == 2
    if ok:
        family = families[0]
        ok = family.missing == (("r1", ("f", "g")),) and explanation_lines(family) == [
            'Rule r1 about action a (stating that "only when cleared and staffed") '
            "is rendered inapplicable by the fact that fluent(s) f, g "
            "do not hold in this state."
        ]

    record = detect_underspecification(
        case2, make_state(case2.ground, "f"), action_atom(case2.ground, "a")
    )
    ok = ok and record is not None and record.case == 2 and [
        (label, tuple(str(l) for l in lits)) for label, lits in record.missing
    ] == [("r1", ("g",))]

    _verdict(8, ok, "case 1 and case 2 wordings match, missing literals exact")


def test_9_emitted_programs_are_byte_stable(mission_defeasible, mission_strict):
    golden = DATA / "golden"
    lp = emit_asp(mission_defeasible, variant="lp")
    rei = emit_asp(mission_defeasible, variant="rei")
    state = make_state(mission_strict.ground, "colonel(c)", "authorized(c,m)")
    with_state = emit_asp(mission_strict, variant="rei", state=state)

    ok = (
        lp == (golden / "mission_defeasible.lp.golden").read_text(encoding="utf-8")
        and rei == (golden / "mission_defeasible.rei.golden").read_text(encoding="utf-8")
        and with_state
        == (golden / "mission_strict_state.rei.golden").read_text(encoding="utf-8")
    )

    rebuilt = load_base("mission.dom", "mission_defeasible.aopl")
    ok = ok and emit_asp(rebuilt, variant="lp") == lp
    ok = ok and emit_asp(rebuilt, variant="rei") == rei

    _verdict(
        9,
        ok,
        "three golden files byte-equal; solver cross-check runs separately "
        "when a solver is installed",
    )
