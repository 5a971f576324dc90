"""Ground policies become fact bases without loss."""

from aopl_lint import Literal, RuleKind, parse_ground_literal

from helpers import base_from


class TestMissionFacts:
    def test_every_rule_is_reified(self, mission_defeasible):
        base = mission_defeasible
        assert base.rules == ("d1[c,m]", "d2[c,m]", "s3[c,m]", "o1[c,m]", "p1[c,m]")
        assert base.types["d1[c,m]"] is RuleKind.DEFEASIBLE
        assert base.types["s3[c,m]"] is RuleKind.STRICT
        assert base.types["p1[c,m]"] is RuleKind.PREFERENCE

    def test_heads_cover_rules_but_not_preferences(self, mission_defeasible):
        base = mission_defeasible
        assert set(base.heads) == {"d1[c,m]", "d2[c,m]", "s3[c,m]", "o1[c,m]"}
        assert str(base.heads["d2[c,m]"]) == "permitted(assume_comm(c,m))"
        assert str(base.heads["o1[c,m]"]) == "obl(assume_comm(c,m))"

    def test_bodies_group_condition_literals(self, mission_defeasible):
        base = mission_defeasible
        assert base.bodies["d1[c,m]"] == (parse_ground_literal("authorized(c,m)"),)
        assert base.bodies["p1[c,m]"] == ()

    def test_prefer_pairs(self, mission_defeasible):
        assert mission_defeasible.prefers == (("d2[c,m]", "d1[c,m]"),)

    def test_texts(self, mission_defeasible):
        assert (
            mission_defeasible.texts["s3[c,m]"]
            == "A military observer can never authorize a mission."
        )

    def test_opp_flips_head_sign(self, mission_defeasible):
        heads = mission_defeasible.heads
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
        assert a.bodies["r1"] != b.bodies["r1"]
        c = base_from("fluent f.\naction go.\nrule r1: normally permitted(go) if f.\n")
        assert a.types["r1"] is not c.types["r1"]

    def test_empty_condition_still_has_a_body_entry(self):
        base = base_from("action go.\nrule r1: permitted(go).\n")
        assert base.bodies["r1"] == ()

    def test_negative_condition_literal_is_preserved(self):
        base = base_from("fluent f.\naction go.\nrule r1: permitted(go) if !f.\n")
        (lit,) = base.bodies["r1"]
        assert isinstance(lit, Literal) and lit.positive is False
