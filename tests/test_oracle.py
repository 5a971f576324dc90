"""Guess-and-check semantics on small hand-built programs."""

import pytest

from helpers import base_from, make_state
from oracle import (
    OracleSizeError,
    _least_model,
    direct_program_models,
    oracle_answer_sets,
    stable_models,
)


def models_of(program, **kw):
    return sorted(stable_models(program, **kw), key=lambda m: sorted(map(repr, m)))


class TestLeastModel:
    def test_chain(self):
        rules = [("a", ()), ("b", ("a",)), ("c", ("b",))]
        assert _least_model(rules) == {"a", "b", "c"}

    def test_positive_loop_derives_nothing(self):
        rules = [("p", ("q",)), ("q", ("p",))]
        assert _least_model(rules) == set()

    def test_joint_premises(self):
        rules = [("a", ()), ("c", ("a", "b"))]
        assert _least_model(rules) == {"a"}


class TestStableModels:
    def test_facts_only(self):
        assert models_of([("a", (), ()), ("b", (), ())]) == [frozenset({"a", "b"})]

    def test_even_negative_loop_has_two_models(self):
        program = [("p", (), ("q",)), ("q", (), ("p",))]
        assert models_of(program) == [frozenset({"p"}), frozenset({"q"})]

    def test_self_blocking_rule_has_no_model(self):
        assert models_of([("p", (), ("p",))]) == []

    def test_odd_negative_loop_has_no_model(self):
        program = [("p", (), ("q",)), ("q", (), ("r",)), ("r", (), ("p",))]
        assert models_of(program) == []

    def test_underivable_negations_are_not_guessed(self):
        # q never appears in a head, so only the single obvious model exists
        # and no exponential guessing happens.
        program = [("p", (), ("q",))]
        assert models_of(program) == [frozenset({"p"})]

    def test_negation_of_a_fact(self):
        program = [("q", (), ()), ("p", (), ("q",))]
        assert models_of(program) == [frozenset({"q"})]

    def test_positive_bodies_gate_conclusions(self):
        program = [("a", (), ()), ("p", ("a",), ("q",)), ("q", ("missing",), ())]
        assert models_of(program) == [frozenset({"a", "p"})]

    def test_size_guard(self):
        program = [(("g", i), (), ()) for i in range(5)]
        program += [(("p", i), (), (("g", i),)) for i in range(5)]
        with pytest.raises(OracleSizeError, match="5 negated atoms exceed"):
            stable_models(program, max_guess_atoms=4)
        assert models_of(program, max_guess_atoms=5) == [
            frozenset({("g", i) for i in range(5)})
        ]

    def test_default_guard_is_eighteen(self):
        program = [(("g", i), (), ()) for i in range(19)]
        program += [(("p", i), (), (("g", i),)) for i in range(19)]
        with pytest.raises(OracleSizeError, match="exceed the oracle bound of 18"):
            stable_models(program)


class TestReifiedOracle:
    def test_mission_guess_space_stays_small(self, mission_ambiguous):
        state = make_state(mission_ambiguous.ground, "colonel(c)", "authorized(c,m)")
        models = oracle_answer_sets(mission_ambiguous, state, max_guess_atoms=8)
        assert len(models) == 2

    def test_direct_models_found_for_ambiguous_policy(self, mission_ambiguous):
        gp = mission_ambiguous.ground
        state = make_state(gp, "colonel(c)", "authorized(c,m)")
        projections = direct_program_models(gp, state)
        assert len(projections) == 2
        rendered = [{str(h) for h in heads} for heads in projections]
        assert {"permitted(assume_comm(c,m))"} in rendered
        assert {"!permitted(assume_comm(c,m))"} in rendered

    def test_oracle_models_carry_all_layers(self):
        base = base_from(
            "fluent f.\naction go.\nrule r1: permitted(go) if f.\n"
        )
        (model,) = oracle_answer_sets(base, make_state(base.ground, "f"))
        assert model.fired_rules == {"r1"}
        assert model.satisfied_bodies == {"r1"}
        assert {str(h) for h in model.heads} == {"permitted(go)"}
