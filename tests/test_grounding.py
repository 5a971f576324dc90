"""Rule instantiation over sorts: labels, universes, preferences, constraints."""

import pytest
from hypothesis import given, settings

import reference
from aopl_lint import GroundingError, Modality, RuleKind, SourceFile, ground, parse, parse_files
from corpus import corpus
from helpers import DATA
from strategies import domain_and_policy


def ground_from(text):
    result = parse(text)
    assert result.ok, [str(d) for d in result.diagnostics]
    return ground(result.policy, result.domain)


class TestMissionGrounding:
    def test_singleton_sorts_ground_once_per_rule(self, mission_defeasible):
        gp = mission_defeasible.ground
        assert [r.label for r in gp.rules] == ["d1[c,m]", "d2[c,m]", "s3[c,m]", "o1[c,m]", "p1[c,m]"]
        assert {r.label.split("[")[0] for r in gp.rules} == {"d1", "d2", "s3", "o1", "p1"}

    def test_preference_targets_are_ground_labels(self, mission_defeasible):
        pref = mission_defeasible.ground.rule_map()["p1[c,m]"]
        assert pref.kind is RuleKind.PREFERENCE
        assert pref.preferred == "d2[c,m]"
        assert pref.dispreferred == "d1[c,m]"

    def test_universes_follow_declaration_order(self, mission_strict):
        gp = mission_strict.ground
        assert [str(a) for a in gp.state_atoms] == [
            "colonel(c)",
            "observer(c)",
            "authorized(c,m)",
            "ordered_by_superior(c,m)",
        ]
        assert [str(a) for a in gp.action_atoms] == ["assume_comm(c,m)", "authorize_comm(c,m)"]

    def test_conditions_are_ground(self, mission_strict):
        for rule in mission_strict.ground.rules:
            if rule.head is not None:
                assert rule.head.happening.action.is_ground
            for lit in rule.condition:
                assert lit.atom.is_ground

    def test_texts_survive_grounding(self, mission_strict):
        s3 = mission_strict.ground.rule_map()["s3[c,m]"]
        assert s3.text == "A military observer can never authorize a mission."


TWO_BY_TWO = """\
sorts commander: c1, c2.
sorts mission: m1, m2.
static colonel(commander).
fluent authorized(commander, mission).
action assume_comm(commander, mission).

rule d1: normally !permitted(assume_comm(C,M)) if authorized(C,M).
rule d2: normally permitted(assume_comm(C,M)) if colonel(C).
prefer p1: d2 > d1.
"""


class TestLargerDomain:
    def test_instances_per_schematic_rule(self):
        gp = ground_from(TWO_BY_TWO)
        by_base = {}
        for rule in gp.rules:
            by_base.setdefault(rule.label.split("[")[0], []).append(rule.label)
        assert len(by_base["d1"]) == 4
        assert len(by_base["d2"]) == 4
        assert len(by_base["p1"]) == 4
        assert "d1[c2,m1]" in by_base["d1"]
        assert len(gp.action_atoms) == 4

    def test_shared_preference_variables_ground_together(self):
        gp = ground_from(TWO_BY_TWO)
        prefs = [r for r in gp.rules if r.kind is RuleKind.PREFERENCE]
        pairs = {(p.preferred, p.dispreferred) for p in prefs}
        # C and M are shared, so only diagonal pairs appear, never
        # d2[c1,m1] against d1[c2,m2].
        assert pairs == {
            ("d2[c1,m1]", "d1[c1,m1]"),
            ("d2[c1,m2]", "d1[c1,m2]"),
            ("d2[c2,m1]", "d1[c2,m1]"),
            ("d2[c2,m2]", "d1[c2,m2]"),
        }

    def test_disjoint_preference_variables_range_independently(self):
        text = """\
sorts commander: c1, c2.
action go(commander).

rule d1: normally permitted(go(A)).
rule d2: normally !permitted(go(B)).
prefer p1: d1 > d2.
"""
        gp = ground_from(text)
        prefs = [r for r in gp.rules if r.kind is RuleKind.PREFERENCE]
        assert len(prefs) == 4
        assert {(p.preferred, p.dispreferred) for p in prefs} == {
            ("d1[c1]", "d2[c1]"),
            ("d1[c1]", "d2[c2]"),
            ("d1[c2]", "d2[c1]"),
            ("d1[c2]", "d2[c2]"),
        }

    def test_variable_free_rules_keep_their_labels(self):
        gp = ground_from("action halt.\nrule r1: permitted(halt).\n")
        assert [r.label for r in gp.rules] == ["r1"]


class TestConstraintsAndSortFacts:
    def test_state_constraints_ground(self):
        text = """\
sorts commander: c1, c2.
static colonel(commander).
static observer(commander).
action go(commander).
impossible colonel(C), observer(C).
rule r1: permitted(go(C)) if colonel(C).
"""
        gp = ground_from(text)
        assert len(gp.state_constraints) == 2
        bodies = {tuple(str(lit) for lit in c.body) for c in gp.state_constraints}
        assert ("colonel(c1)", "observer(c1)") in bodies

    def test_exec_constraints_ground(self):
        text = """\
sorts commander: c1, c2.
fluent busy(commander).
action go(commander).
impossible_exec go(C) if busy(C).
rule r1: permitted(go(C)).
"""
        gp = ground_from(text)
        assert {str(c.action) for c in gp.exec_constraints} == {"go(c1)", "go(c2)"}

    def test_sort_atoms_in_conditions_become_sort_facts(self):
        text = """\
sorts commander: c1, c2.
action go(commander).
rule r1: permitted(go(C)) if commander(C).
"""
        gp = ground_from(text)
        assert [str(a) for a in gp.sort_facts] == ["commander(c1)", "commander(c2)"]

    def test_no_sort_facts_without_sort_conditions(self, mission_strict):
        assert mission_strict.ground.sort_facts == ()


class TestGroundingErrors:
    def test_invalid_policy_raises_with_first_message(self):
        # parse refuses to hand back an invalid AST, so build one by hand.
        from aopl_lint import (
            Atom,
            DomainSpec,
            Happening,
            HeadLiteral,
            Literal,
            Policy,
            PolicyRule,
            PredicateDecl,
            PredicateKind,
        )

        policy = Policy(
            (
                PolicyRule(
                    "r1",
                    RuleKind.STRICT,
                    head=HeadLiteral(Modality.PERMITTED, Happening(Atom("go"), True), True),
                    condition=(Literal(Atom("ghost")),),
                ),
            )
        )
        domain = DomainSpec(predicates=(PredicateDecl("go", PredicateKind.ACTION),))
        with pytest.raises(GroundingError, match="undeclared predicate: ghost"):
            ground(policy, domain)
        # A pair that passed validation vouches for itself only.
        result = parse("action go.\nrule r1: permitted(go).\n")
        assert ground(result.policy, result.domain).rules
        with pytest.raises(GroundingError, match="undeclared predicate: ghost"):
            ground(policy, result.domain)


class TestAgainstReference:
    """The grounder equals the reference's per-statement loops, in content and order."""

    @given(domain_and_policy())
    @settings(max_examples=150, deadline=None)
    def test_generated_policies(self, pair):
        assert ground(*pair) == reference.ground(*pair)

    def test_corpus_and_fixtures(self):
        pairs = list(corpus())
        for names in (
            ("mission.dom", "mission_strict.aopl"),
            ("mission.dom", "mission_defeasible.aopl"),
            ("mission.dom", "mission_ambiguous.aopl"),
            ("shifts.dom", "shifts.aopl"),
        ):
            result = parse_files([SourceFile.load(str(DATA / name)) for name in names])
            assert result.ok
            pairs.append((result.policy, result.domain))
        for policy, domain in pairs:
            assert ground(policy, domain) == reference.ground(policy, domain)
