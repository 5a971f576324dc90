"""Issue detectors, compliance classes, sweeps, and family collapsing."""

import tracemalloc

import pytest
from hypothesis import assume, given, settings

import aopl_lint.analysis
import aopl_lint.states

from aopl_lint import (
    AuthorizationClass,
    IssueKind,
    Literal,
    SweepLimitError,
    SweepOptions,
    WorldState,
    classify_action,
    classify_compliance,
    collapse_families,
    detect_ambiguity,
    detect_inconsistency,
    detect_modality_conflicts,
    detect_obligation_conflict,
    detect_underspecification,
    enumerate_states,
    ground,
    merge_sweeps,
    reify,
    state_space_size,
    sweep,
)
from aopl_lint.analysis import COMPONENT_BITS
from aopl_lint.states import parse_pins

import reference
from helpers import action_atom, base_from, make_state
from strategies import domain_and_policy


def lits(record_field):
    return tuple(str(l) for l in record_field)


class TestInconsistency:
    def test_strict_conflict_names_the_pair(self, mission_strict):
        state = make_state(mission_strict.ground, "colonel(c)", "authorized(c,m)")
        (record,) = detect_inconsistency(mission_strict, state)
        assert record.kind is IssueKind.INCONSISTENCY
        assert str(record.action) == "assume_comm(c,m)"
        assert record.rule_labels == ("s2[c,m]", "s1[c,m]")
        assert lits(record.pos_support) == ("colonel(c)",)
        assert lits(record.neg_support) == ("authorized(c,m)",)
        assert record.rule_texts[0].startswith("A colonel is allowed")

    def test_clean_state_has_no_records(self, mission_strict):
        state = make_state(mission_strict.ground, "colonel(c)")
        assert detect_inconsistency(mission_strict, state) == []

    def test_preference_prevents_the_conflict(self, mission_defeasible):
        state = make_state(mission_defeasible.ground, "colonel(c)", "authorized(c,m)")
        assert detect_inconsistency(mission_defeasible, state) == []

    def test_ambiguity_is_not_inconsistency(self, mission_ambiguous):
        state = make_state(mission_ambiguous.ground, "colonel(c)", "authorized(c,m)")
        assert detect_inconsistency(mission_ambiguous, state) == []

    def test_one_record_per_firing_pair(self):
        base = base_from(
            "fluent f.\naction go.\n"
            "rule a1: permitted(go) if f.\n"
            "rule a2: permitted(go).\n"
            "rule b1: !permitted(go) if f.\n"
        )
        records = detect_inconsistency(base, make_state(base.ground, "f"))
        assert [r.rule_labels for r in records] == [("a1", "b1"), ("a2", "b1")]

    def test_obligation_side_conflicts_are_covered(self):
        base = base_from(
            "fluent f.\naction go.\n"
            "rule o1: obl(go) if f.\n"
            "rule o2: !obl(go).\n"
        )
        (record,) = detect_inconsistency(base, make_state(base.ground, "f"))
        assert record.rule_labels == ("o1", "o2")

    def test_each_pair_reports_its_own_happening(self):
        base = base_from(
            "fluent f.\naction stay.\naction go.\n"
            "rule a1: permitted(go) if f.\nrule a2: !permitted(go).\n"
            "rule b1: obl(go) if f.\nrule b2: !obl(go).\n"
            "rule c1: obl(-go) if f.\nrule c2: !obl(-go).\n"
        )
        expected = [(("a1", "a2"), "go"), (("b1", "b2"), "go"), (("c1", "c2"), "-go")]
        records = detect_inconsistency(base, make_state(base.ground, "f"))
        assert sorted((r.rule_labels, str(r.action)) for r in records) == expected
        result = sweep(base)
        instances = find(result.instances, IssueKind.INCONSISTENCY)
        assert sorted((i.record.rule_labels, str(i.record.action)) for i in instances) == expected
        families = [f for f in collapse_families(result) if f.kind is IssueKind.INCONSISTENCY]
        assert sorted((f.base_labels, f.action) for f in families) == expected


class TestUnderspecification:
    def test_case_one_when_no_rules_mention_the_action(self):
        base = base_from("action go.\naction stay.\nrule r1: permitted(go).\n")
        record = detect_underspecification(base, make_state(base.ground), action_atom(base.ground, "stay"))
        assert record.case == 1
        assert record.rule_labels == ()
        assert record.missing == ()

    def test_obligation_rules_do_not_count_as_coverage(self):
        base = base_from("action go.\nrule o1: obl(go).\n")
        record = detect_underspecification(base, make_state(base.ground), action_atom(base.ground, "go"))
        assert record.case == 1

    def test_case_two_lists_failing_literals_per_rule(self, mission_strict):
        gp = mission_strict.ground
        record = detect_underspecification(
            mission_strict, make_state(gp), action_atom(gp, "assume_comm(c,m)")
        )
        assert record.case == 2
        assert record.rule_labels == ("s1[c,m]", "s2[c,m]")
        assert [(r, lits(fails)) for r, fails in record.missing] == [
            ("s1[c,m]", ("authorized(c,m)",)),
            ("s2[c,m]", ("colonel(c)",)),
        ]

    def test_only_failing_literals_are_reported(self, mission_strict):
        gp = mission_strict.ground
        record = detect_underspecification(
            mission_strict,
            make_state(gp, "observer(c)"),
            action_atom(gp, "authorize_comm(c,m)"),
        )
        assert record is None

    def test_decided_states_are_covered(self, mission_strict):
        gp = mission_strict.ground
        record = detect_underspecification(
            mission_strict, make_state(gp, "colonel(c)"), action_atom(gp, "assume_comm(c,m)")
        )
        assert record is None

    def test_preempted_rule_with_true_body_leaves_missing_empty(self):
        base = base_from(
            "fluent f.\naction go.\n"
            "rule d1: normally permitted(go) if f.\n"
            "rule d2: normally obl(go) if f.\n"
            "prefer p1: d2 > d1.\n"
        )
        record = detect_underspecification(
            base, make_state(base.ground, "f"), action_atom(base.ground, "go")
        )
        assert record.case == 2
        assert record.missing == ()
        assert record.rule_labels == ()

    def test_some_model_undecided_is_enough(self):
        # One answer set decides the action, another does not.
        base = base_from(
            "fluent f.\naction go.\naction other.\n"
            "rule d1: normally permitted(go) if f.\n"
            "rule d2: normally obl(other) if f.\n"
            "rule d3: normally !obl(other) if f.\n"
        )
        record = detect_underspecification(
            base, make_state(base.ground, "f"), action_atom(base.ground, "go")
        )
        assert record is None


class TestAmbiguity:
    def test_conflicting_defeasible_pair(self, mission_ambiguous):
        gp = mission_ambiguous.ground
        state = make_state(gp, "colonel(c)", "authorized(c,m)")
        record, stats = detect_ambiguity(
            mission_ambiguous, state, action_atom(gp, "assume_comm(c,m)")
        )
        assert record is not None
        assert record.pairs == (("d2[c,m]", "d1[c,m]"),)
        assert record.rule_labels == ("d2[c,m]", "d1[c,m]")
        assert (stats.n, stats.n_p, stats.n_np) == (2, 1, 1)
        assert record.stats == stats

    def test_preference_resolves_ambiguity(self, mission_defeasible):
        gp = mission_defeasible.ground
        state = make_state(gp, "colonel(c)", "authorized(c,m)")
        record, stats = detect_ambiguity(
            mission_defeasible, state, action_atom(gp, "assume_comm(c,m)")
        )
        assert record is None
        assert (stats.n, stats.n_p, stats.n_np) == (1, 1, 0)

    def test_strict_inconsistency_is_not_ambiguity(self, mission_strict):
        gp = mission_strict.ground
        state = make_state(gp, "colonel(c)", "authorized(c,m)")
        record, stats = detect_ambiguity(
            mission_strict, state, action_atom(gp, "assume_comm(c,m)")
        )
        assert record is None
        assert (stats.n, stats.n_p, stats.n_np) == (1, 1, 1)

    def test_undecided_is_not_ambiguous(self, mission_ambiguous):
        gp = mission_ambiguous.ground
        record, stats = detect_ambiguity(
            mission_ambiguous, make_state(gp), action_atom(gp, "assume_comm(c,m)")
        )
        assert record is None
        assert (stats.n, stats.n_p, stats.n_np) == (1, 0, 0)


class TestObligationConflict:
    BASE = (
        "fluent f.\nfluent g.\naction go.\n"
        "rule o1: obl(go) if f.\n"
        "rule o2: obl(-go) if g.\n"
    )

    def test_both_directions_entailed(self):
        base = base_from(self.BASE)
        gp = base.ground
        (record,) = detect_obligation_conflict(
            base, make_state(gp, "f", "g"), action_atom(gp, "go")
        )
        assert record.kind is IssueKind.OBLIGATION_CONFLICT
        assert record.rule_labels == ("o1", "o2")
        assert lits(record.pos_support) == ("f",)
        assert lits(record.neg_support) == ("g",)

    def test_single_direction_is_fine(self):
        base = base_from(self.BASE)
        gp = base.ground
        assert detect_obligation_conflict(base, make_state(gp, "f"), action_atom(gp, "go")) == []

    def test_brave_but_not_cautious_obligations_do_not_conflict(self):
        base = base_from(
            "action go.\n"
            "rule d1: normally obl(go).\n"
            "rule d2: normally !obl(go).\n"
            "rule o2: obl(-go).\n"
        )
        gp = base.ground
        assert detect_obligation_conflict(base, make_state(gp), action_atom(gp, "go")) == []


class TestModalityConflicts:
    def test_urgency_one_obliged_but_forbidden(self, mission_strict):
        gp = mission_strict.ground
        state = make_state(gp, "authorized(c,m)", "ordered_by_superior(c,m)")
        (record,) = detect_modality_conflicts(mission_strict, state)
        assert record.urgency == 1
        assert record.rule_labels == ("o1[c,m]", "s1[c,m]")
        assert lits(record.pos_support) == ("ordered_by_superior(c,m)",)
        assert lits(record.neg_support) == ("authorized(c,m)",)

    def test_urgency_two_obliged_to_refrain_but_permitted(self):
        base = base_from(
            "fluent f.\nfluent g.\naction go.\n"
            "rule o1: obl(-go) if f.\n"
            "rule p1: permitted(go) if g.\n"
        )
        (record,) = detect_modality_conflicts(base, make_state(base.ground, "f", "g"))
        assert record.urgency == 2
        assert record.rule_labels == ("o1", "p1")

    def test_urgency_three_obliged_without_any_authorization(self, mission_strict):
        gp = mission_strict.ground
        state = make_state(gp, "ordered_by_superior(c,m)")
        (record,) = detect_modality_conflicts(mission_strict, state)
        assert record.urgency == 3
        assert record.rule_labels == ("o1[c,m]",)
        assert record.neg_support == ()

    def test_no_conflict_when_obligation_is_backed(self, mission_strict):
        gp = mission_strict.ground
        state = make_state(gp, "colonel(c)", "ordered_by_superior(c,m)")
        assert detect_modality_conflicts(mission_strict, state) == []

    def test_urgency_one_beats_three_in_the_same_state(self, mission_strict):
        gp = mission_strict.ground
        state = make_state(gp, "authorized(c,m)", "ordered_by_superior(c,m)", "colonel(c)")
        records = detect_modality_conflicts(mission_strict, state)
        assert [r.urgency for r in records] == [1]


class TestClassifyAction:
    def test_all_five_classes(self, mission_strict, mission_defeasible, mission_ambiguous):
        assume = "assume_comm(c,m)"

        gp = mission_defeasible.ground
        state = make_state(gp, "colonel(c)", "authorized(c,m)")
        assert (
            classify_action(mission_defeasible, state, action_atom(gp, assume))
            is AuthorizationClass.STRONGLY_COMPLIANT
        )

        gp = mission_strict.ground
        state = make_state(gp, "authorized(c,m)")
        assert (
            classify_action(mission_strict, state, action_atom(gp, assume))
            is AuthorizationClass.NON_COMPLIANT
        )

        state = make_state(gp)
        assert (
            classify_action(mission_strict, state, action_atom(gp, assume))
            is AuthorizationClass.UNDERSPECIFIED
        )

        state = make_state(gp, "colonel(c)", "authorized(c,m)")
        assert (
            classify_action(mission_strict, state, action_atom(gp, assume))
            is AuthorizationClass.CONFLICTED
        )

        gp = mission_ambiguous.ground
        state = make_state(gp, "colonel(c)", "authorized(c,m)")
        assert (
            classify_action(mission_ambiguous, state, action_atom(gp, assume))
            is AuthorizationClass.AMBIGUOUS
        )


class TestClassifyCompliance:
    def test_strongly_compliant_event(self, mission_defeasible):
        gp = mission_defeasible.ground
        state = make_state(gp, "colonel(c)", "authorized(c,m)", "ordered_by_superior(c,m)")
        event = (action_atom(gp, "assume_comm(c,m)"),)
        verdict = classify_compliance(mission_defeasible, state, event)
        assert verdict.strongly_compliant
        assert verdict.weakly_compliant
        assert not verdict.non_compliant
        assert verdict.obligation_compliant
        assert verdict.action_classes[0][1] is AuthorizationClass.STRONGLY_COMPLIANT

    def test_undecided_action_breaks_strong_not_weak(self, mission_defeasible):
        gp = mission_defeasible.ground
        state = make_state(gp, "colonel(c)", "authorized(c,m)")
        event = (action_atom(gp, "assume_comm(c,m)"), action_atom(gp, "authorize_comm(c,m)"))
        verdict = classify_compliance(mission_defeasible, state, event)
        assert not verdict.strongly_compliant
        assert verdict.weakly_compliant

    def test_forbidden_action_makes_the_event_non_compliant(self, mission_strict):
        gp = mission_strict.ground
        state = make_state(gp, "authorized(c,m)")
        event = (action_atom(gp, "assume_comm(c,m)"),)
        verdict = classify_compliance(mission_strict, state, event)
        assert verdict.non_compliant
        assert not verdict.weakly_compliant

    def test_idle_event_violates_a_do_obligation(self, mission_strict):
        gp = mission_strict.ground
        state = make_state(gp, "colonel(c)", "ordered_by_superior(c,m)")
        verdict = classify_compliance(mission_strict, state, ())
        assert not verdict.obligation_compliant
        assert verdict.strongly_compliant  # vacuous over an empty event

    def test_refrain_obligation_violated_by_acting(self):
        base = base_from("fluent f.\naction go.\nrule o1: obl(-go) if f.\nrule p1: permitted(go).\n")
        gp = base.ground
        verdict = classify_compliance(
            base, make_state(gp, "f"), (action_atom(gp, "go"),)
        )
        assert not verdict.obligation_compliant
        assert verdict.strongly_compliant

    def test_ambiguous_obligations_do_not_bind(self, mission_ambiguous):
        gp = mission_ambiguous.ground
        state = make_state(gp, "colonel(c)", "authorized(c,m)")
        verdict = classify_compliance(mission_ambiguous, state, ())
        assert verdict.obligation_compliant

    def test_independent_ambiguities_are_classified_without_models(self):
        base = base_from(FANOUT)
        gp = base.ground
        state = make_state(gp, *(str(atom) for atom in gp.state_atoms))
        verdict = classify_compliance(base, state, gp.action_atoms)
        assert [cls for _, cls in verdict.action_classes] == [
            AuthorizationClass.AMBIGUOUS
        ] * 12
        assert not verdict.strongly_compliant
        assert verdict.weakly_compliant
        assert verdict.obligation_compliant


FANOUT = (
    "sorts item: " + ", ".join(f"x{i}" for i in range(1, 13)) + ".\n"
    "fluent flagged(item).\naction act(item).\n"
    "rule a1: normally permitted(act(X)) if flagged(X).\n"
    "rule a2: normally !permitted(act(X)) if flagged(X).\n"
)


def find(instances, kind, labels=None):
    out = [
        i
        for i in instances
        if i.record.kind is kind and (labels is None or i.record.rule_labels == labels)
    ]
    return out


class TestSweep:
    def test_strict_mission_instances(self, mission_strict):
        result = sweep(mission_strict)
        assert result.states_examined == 16
        kinds = sorted(i.record.kind.value for i in result.instances)
        assert kinds == [
            "inconsistency",
            "modality_conflict",
            "modality_conflict",
            "underspecified",
            "underspecified",
        ]

        (bad,) = find(result.instances, IssueKind.INCONSISTENCY)
        assert bad.record.rule_labels == ("s2[c,m]", "s1[c,m]")
        assert bad.state_count == 4
        assert str(bad.record.witness_state) == "{colonel(c), authorized(c,m)}"

        (urgent,) = find(result.instances, IssueKind.MODALITY_CONFLICT, ("o1[c,m]", "s1[c,m]"))
        assert urgent.record.urgency == 1
        assert urgent.state_count == 4
        (open_obl,) = find(result.instances, IssueKind.MODALITY_CONFLICT, ("o1[c,m]",))
        assert open_obl.record.urgency == 3
        assert open_obl.state_count == 2
        assert str(open_obl.record.witness_state) == "{ordered_by_superior(c,m)}"

        gaps = find(result.instances, IssueKind.UNDERSPECIFIED)
        by_action = {str(g.record.action): g for g in gaps}
        assert by_action["assume_comm(c,m)"].state_count == 4
        assert by_action["authorize_comm(c,m)"].state_count == 8
        assert str(by_action["authorize_comm(c,m)"].record.witness_state) == "{}"

    def test_preference_removes_conflict_and_ambiguity(self, mission_defeasible):
        result = sweep(mission_defeasible)
        assert find(result.instances, IssueKind.INCONSISTENCY) == []
        assert find(result.instances, IssueKind.AMBIGUITY) == []

    def test_dropping_the_preference_restores_ambiguity(self, mission_ambiguous):
        result = sweep(mission_ambiguous)
        (amb,) = find(result.instances, IssueKind.AMBIGUITY)
        assert amb.record.pairs == (("d2[c,m]", "d1[c,m]"),)
        assert amb.state_count == 4
        assert amb.record.stats.n == 2

    def test_obligation_conflict_instance(self):
        base = base_from(TestObligationConflict.BASE)
        result = sweep(base)
        (conflict,) = find(result.instances, IssueKind.OBLIGATION_CONFLICT)
        assert conflict.state_count == 1
        assert str(conflict.record.witness_state) == "{f, g}"

    def test_unexecutable_actions_are_skipped(self):
        base = base_from(
            "action go.\naction stay.\nrule r1: permitted(go).\nimpossible_exec stay.\n"
        )
        result = sweep(base)
        assert find(result.instances, IssueKind.UNDERSPECIFIED) == []

    def test_executable_gap_is_reported(self):
        base = base_from("action go.\naction stay.\nrule r1: permitted(go).\n")
        result = sweep(base)
        (gap,) = find(result.instances, IssueKind.UNDERSPECIFIED)
        assert str(gap.record.action) == "stay"
        assert gap.record.case == 1

    def test_domain_without_state_atoms(self):
        base = base_from("action go.\nrule r1: permitted(go).\n")
        result = sweep(base)
        assert result.states_examined == 1
        assert result.instances == ()

    def test_partition_merge_equals_full_sweep(self, mission_strict):
        full = sweep(mission_strict)
        left = sweep(mission_strict, SweepOptions(pins=tuple(parse_pins(["colonel(c)"]))))
        right = sweep(mission_strict, SweepOptions(pins=tuple(parse_pins(["!colonel(c)"]))))
        merged = merge_sweeps(left, right)
        assert merged.states_examined == full.states_examined == 16
        assert merged.instances == full.instances
        assert merged.family_counts == full.family_counts

    @pytest.mark.parametrize(
        "fixture", ["mission_strict", "mission_defeasible", "mission_ambiguous"]
    )
    def test_one_state_sweep_matches_the_full_sweep(self, fixture, request):
        base = request.getfixturevalue(fixture)
        full = sweep(base)
        want = reference.sweep(base)
        assert [i.state_count for i in full.instances] == [len(i.states) for i in want.instances]
        for state in enumerate_states(base.ground):
            alone = sweep(base, SweepOptions(pins=state.literals()))
            assert alone.states_examined == 1
            assert {i.record.key() for i in alone.instances} == {
                i.record.key() for i in want.instances if state in i.states
            }, str(state)

    def test_sweep_memory_does_not_grow_with_the_state_count(self):
        # Both findings hold in every state; only free fluents no rule reads
        # multiply the states, 2^10 against 2^14.
        def peak(free: int) -> int:
            fluents = "".join(f"fluent free{i}.\n" for i in range(free))
            base = base_from(
                "action go. action stay.\nrule r1: permitted(go).\nrule r2: !permitted(go).\n"
                + fluents
            )
            base.index
            tracemalloc.start()
            try:
                result = sweep(base)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert [i.state_count for i in result.instances] == [1 << free] * 2
            return peak

        small, large = peak(10), peak(14)
        assert large < 2 * small, (small, large)

    @pytest.mark.parametrize("unread", [0, 1])
    def test_sweep_memory_does_not_grow_with_a_chain_of_actions(self, unread):
        # x_i reads p_i and p_(i+1), so one component joins every p_i: all
        # the unpinned bits, or all but the fluents no rule reads.  Above
        # COMPONENT_BITS bits each action keeps its own table of four
        # entries.  Every x_i is permitted in every state: no finding.
        def peak(atoms: int) -> int:
            text = "".join(f"fluent p{i}.\n" for i in range(atoms))
            text += "".join(f"fluent unread{i}.\n" for i in range(unread))
            for i in range(atoms - 1):
                text += (
                    f"action x{i}.\nrule a{i}: permitted(x{i}) if p{i}, p{i + 1}.\n"
                    f"rule b{i}: permitted(x{i}) if !p{i}.\n"
                    f"rule c{i}: permitted(x{i}) if !p{i + 1}.\n"
                )
            base = base_from(text)
            base.index
            tracemalloc.start()
            try:
                result = sweep(base)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.instances == () and result.states_examined == 1 << atoms + unread
            return peak

        small, large = peak(COMPONENT_BITS + 1), peak(COMPONENT_BITS + 4)
        assert large < 2 * small, (small, large)

    def test_independent_ambiguities_are_counted_without_models(self):
        base = base_from(FANOUT)
        pins = tuple(Literal(atom, True) for atom in base.ground.state_atoms)
        assert len(pins) == 12
        result = sweep(base, SweepOptions(pins=pins))
        ambiguous = find(result.instances, IssueKind.AMBIGUITY)
        assert sorted(str(i.record.action) for i in ambiguous) == sorted(
            str(a) for a in base.ground.action_atoms
        )
        for instance in ambiguous:
            stats = instance.record.stats
            assert (stats.n, stats.n_p, stats.n_np) == (4096, 2048, 2048)

    @pytest.mark.parametrize(
        "pins, assignments, examined",
        [
            ((), 256, 49),
            (("trained(ann)",), 128, 4 * 7),
            (("!trained(bob)", "on_duty(ann,day)"), 64, 2 * 3),
        ],
    )
    def test_constraint_checks_add_up(self, shifts, pins, assignments, examined, monkeypatch):
        verdicts = []
        original = aopl_lint.states.satisfies_constraints

        def counting(gp, state):
            verdicts.append(original(gp, state))
            return verdicts[-1]

        monkeypatch.setattr(aopl_lint.states, "satisfies_constraints", counting)
        pins = tuple(parse_pins(pins))
        result = sweep(shifts, SweepOptions(pins=pins))
        assert len(verdicts) == state_space_size(shifts.ground, pins) == assignments
        assert sum(verdicts) == result.states_examined == examined

    @pytest.mark.parametrize(
        "pins, examined",
        [((), 49), (("trained(ann)",), 4 * 7), (("!trained(bob)", "on_duty(ann,day)"), 2 * 3)],
    )
    def test_sweep_draws_one_state_per_state_examined(self, shifts, pins, examined, monkeypatch):
        drawn = []
        original = aopl_lint.analysis.enumerate_states

        def counting(gp, pins=()):
            for state in original(gp, pins):
                drawn.append(state)
                yield state

        monkeypatch.setattr(aopl_lint.analysis, "enumerate_states", counting)
        result = sweep(shifts, SweepOptions(pins=tuple(parse_pins(pins))))
        assert len(drawn) == result.states_examined == examined

    def test_state_limit(self, mission_strict):
        with pytest.raises(SweepLimitError, match="16 assignments"):
            sweep(mission_strict, SweepOptions(max_states=8))
        # Pinning brings the slice under the ceiling.
        ok = sweep(
            mission_strict,
            SweepOptions(pins=tuple(parse_pins(["colonel(c)"])), max_states=8),
        )
        assert ok.states_examined == 8

    def test_bad_pins_raise(self, mission_strict):
        with pytest.raises(ValueError, match="not a state atom"):
            sweep(mission_strict, SweepOptions(pins=tuple(parse_pins(["ghost"]))))


@given(domain_and_policy())
@settings(max_examples=60, deadline=None)
def test_merged_halves_equal_the_full_sweep(pair):
    policy, domain = pair
    base = reify(ground(policy, domain))
    atoms = base.ground.state_atoms
    assume(1 <= len(atoms) <= 6)
    halves = [
        sweep(base, SweepOptions(pins=(Literal(atoms[0], positive),)))
        for positive in (True, False)
    ]
    merged = merge_sweeps(*halves)
    full = sweep(base)
    assert merged.instances == full.instances
    assert merged.states_examined == full.states_examined
    assert merged.family_counts == full.family_counts
    assert collapse_families(merged) == collapse_families(full)


TWO_COMMANDERS = """\
sorts commander: c1, c2.
static colonel(commander).
fluent authorized(commander).
action assume(commander).

rule s1: !permitted(assume(C)) if authorized(C).
rule s2: permitted(assume(C)) if colonel(C).
"""


class TestFamilies:
    def test_instances_collapse_into_one_family(self):
        base = base_from(TWO_COMMANDERS)
        result = sweep(base)
        families = collapse_families(result)
        bad = [f for f in families if f.kind is IssueKind.INCONSISTENCY]
        (family,) = bad
        assert family.base_labels == ("s2", "s1")
        assert family.instance_count == 2
        assert family.state_count == 7
        assert family.instance_labels == ("s2[c1]", "s1[c1]")
        assert family.witness_true_atoms == ("colonel(c1)", "authorized(c1)")
        assert family.pos_support == ("colonel(c1)",)

    def test_family_ordering_follows_kind_then_urgency(self, mission_strict):
        families = collapse_families(sweep(mission_strict))
        order = [
            (f.kind.value, f.urgency if f.urgency is not None else 0) for f in families
        ]
        assert [f.kind.value for f in families] == [
            "inconsistency",
            "modality_conflict",
            "modality_conflict",
            "underspecified",
            "underspecified",
        ]
        assert order[1] == ("modality_conflict", 1)
        assert order[2] == ("modality_conflict", 3)

    def test_mission_families_match_instances_one_to_one(self, mission_strict):
        result = sweep(mission_strict)
        families = collapse_families(result)
        assert len(families) == len(result.instances)
        assert all(f.instance_count == 1 for f in families)

    def test_hand_built_witnesses_give_the_same_families(self):
        result = sweep(base_from(TWO_COMMANDERS))
        universe = result.instances[0].record.witness_state.universe
        # colonel is declared before authorized: declaration order is not text order.
        assert list(universe) != sorted(universe, key=str)
        rebuilt = []
        for instance in result.instances:
            state = instance.record.witness_state
            by_hand = WorldState(universe, state.true_atoms)
            assert "mask" not in by_hand.__dict__
            rebuilt.append(instance.replace(record=instance.record.replace(witness_state=by_hand)))
        families = collapse_families(result.replace(instances=tuple(rebuilt)))
        assert families == collapse_families(result)
        assert ("colonel(c1)", "authorized(c1)") in [f.witness_true_atoms for f in families]
