"""Ground policies become fact bases without loss."""

from aopl_lint import Modality, RuleKind, emit_asp, parse_ground_literal

from helpers import base_from


def facts(base) -> list[str]:
    """The policy facts of the ``rei`` program, in emission order."""
    program = emit_asp(base, "rei")
    policy = program.split("% policy-independent evaluation rules", 1)[0]
    return [line for line in policy.splitlines() if line and not line.startswith("%")]


def facts_about(base, prefix: str) -> list[str]:
    return [fact for fact in facts(base) if fact.startswith(prefix)]


class TestMissionFacts:
    def test_every_rule_is_reified(self, mission_defeasible):
        base = mission_defeasible
        labels = tuple(rule.label for rule in base.ground.rules)
        assert labels == ("d1[c,m]", "d2[c,m]", "s3[c,m]", "o1[c,m]", "p1[c,m]")
        assert "type(d1(c,m), defeasible)." in facts(base)
        assert "type(s3(c,m), strict)." in facts(base)
        assert "type(p1(c,m), prefer)." in facts(base)
        kinds = {rule.label: rule.kind for rule in base.ground.rules}
        assert kinds["p1[c,m]"] is RuleKind.PREFERENCE

    def test_heads_cover_rules_but_not_preferences(self, mission_defeasible):
        base = mission_defeasible
        heads = facts_about(base, "head(")
        headed = {fact[len("head(") :].split(", ", 1)[0] for fact in heads}
        assert headed == {"d1(c,m)", "d2(c,m)", "s3(c,m)", "o1(c,m)"}
        assert "head(d2(c,m), permitted(assume_comm(c,m)))." in facts(base)
        assert "head(o1(c,m), obl(assume_comm(c,m)))." in facts(base)

    def test_bodies_group_condition_literals(self, mission_defeasible):
        base = mission_defeasible
        rules = base.ground.rule_map()
        assert rules["d1[c,m]"].condition == (parse_ground_literal("authorized(c,m)"),)
        assert facts_about(base, "mbr(b(d1(c,m))") == ["mbr(b(d1(c,m)), authorized(c,m))."]
        assert rules["p1[c,m]"].condition == ()
        assert facts_about(base, "mbr(b(p1(c,m))") == []

    def test_prefer_pairs(self, mission_defeasible):
        assert facts_about(mission_defeasible, "prefer(") == ["prefer(d2(c,m), d1(c,m))."]

    def test_texts(self, mission_defeasible):
        assert (
            'text(s3(c,m), "A military observer can never authorize a mission.").'
            in facts(mission_defeasible)
        )

    def test_opp_flips_head_sign(self, mission_defeasible):
        heads = {rule.label: rule.head for rule in mission_defeasible.ground.rules}
        assert str(heads["d2[c,m]"].opposite()) == "!permitted(assume_comm(c,m))"
        assert str(heads["d1[c,m]"].opposite()) == "permitted(assume_comm(c,m))"
        assert heads["d1[c,m]"].opposite().opposite() == heads["d1[c,m]"]


class TestTextFallback:
    def test_text_or_print_prefers_source_text(self, mission_defeasible):
        out = mission_defeasible.text_or_print("d2[c,m]")
        assert out == "A colonel is normally allowed to command a mission they authorized."

    def test_fallback_prints_the_formal_rule(self):
        base = base_from(
            "fluent f.\naction go.\n"
            "rule r1: !permitted(go) if f.\n"
            "rule r2: obl(-go).\n"
        )
        assert base.text_or_print("r1") == "!permitted(go) if f"
        assert base.text_or_print("r2") == "obl(-go)"

    def test_fallback_for_preferences(self):
        base = base_from(
            "action go.\n"
            "rule d1: normally permitted(go).\n"
            "rule d2: normally !permitted(go).\n"
            "prefer p1: d2 > d1.\n"
        )
        assert base.text_or_print("p1") == "prefer d2 over d1"


class TestInjectivity:
    def test_distinct_policies_reify_distinctly(self):
        a = base_from("fluent f.\naction go.\nrule r1: permitted(go) if f.\n")
        b = base_from("fluent f.\naction go.\nrule r1: permitted(go) if !f.\n")
        assert emit_asp(a, "rei") != emit_asp(b, "rei")
        c = base_from("fluent f.\naction go.\nrule r1: normally permitted(go) if f.\n")
        assert emit_asp(a, "rei") != emit_asp(c, "rei")

    def test_empty_condition_still_has_a_body_entry(self):
        base = base_from("action go.\nrule r1: permitted(go).\n")
        assert base.ground.rule_map()["r1"].condition == ()
        assert "rule(r1)." in facts(base)
        assert facts_about(base, "mbr(") == []

    def test_negative_condition_literal_is_preserved(self):
        base = base_from("fluent f.\naction go.\nrule r1: permitted(go) if !f.\n")
        assert facts_about(base, "mbr(") == ["mbr(b(r1), neg(f))."]


class TestIndex:
    def test_each_rule_sits_on_its_head_actions_pair(self):
        base = base_from(
            "sorts agent: a1, a2.\nfluent f(agent).\naction go(agent).\naction stay.\n"
            "rule r1: permitted(go(X)) if f(X).\n"
            "rule r2: normally !obl(go(X)).\n"
            "rule r3: obl(-stay) if f(a1).\n"
            "rule r4: !permitted(stay).\n"
        )
        index = base.index
        pairs = [pair for entry in index.actions for pair in entry[:3]]
        assert len(set(pairs)) == len(pairs) == 3 * len(base.ground.action_atoms)
        actions = dict(zip(base.ground.action_atoms, index.actions))
        assert len(index.rules) == 6
        for _, _, label, pair, _, _ in index.rules:
            head = index.by_label[label].head
            slot = 0 if head.modality is Modality.PERMITTED else 1 if head.happening.positive else 2
            assert pair == actions[head.happening.action][slot]
