"""Answer-set evaluation: fixture behaviors, cross-checks against the oracle.

The models are ``factor``'s outcomes expanded by ``reference.answer_sets``.
"""

from collections import Counter

import pytest
from hypothesis import assume, given, reject, settings, strategies as st

from aopl_lint import (
    Happening,
    HeadLiteral,
    Modality,
    WorldState,
    enumerate_states,
    ground,
    parse_ground_literal,
    reify,
)
from aopl_lint.engine import factor, factor_rules

from helpers import base_from, make_state
from oracle import OracleSizeError, direct_program_models, oracle_answer_sets
from reference import ambiguity_stats, answer_sets, entails, model_contains
from strategies import domain_and_policy, pinned_ground_policy


def heads_of(model):
    return {str(h) for h in model.heads}


def permitted_head(gp):
    """permitted(a) for the first ground action a."""
    return HeadLiteral(Modality.PERMITTED, Happening(gp.action_atoms[0]))


class TestStrictMission:
    def test_conflicted_state_has_one_model_with_both_heads(self, mission_strict):
        state = make_state(mission_strict.ground, "colonel(c)", "authorized(c,m)")
        models = answer_sets(mission_strict, state)
        assert len(models) == 1
        assert {"permitted(assume_comm(c,m))", "!permitted(assume_comm(c,m))"} <= heads_of(
            models[0]
        )
        assert models[0].fired_rules == {"s1[c,m]", "s2[c,m]"}

    def test_colonel_only_permits(self, mission_strict):
        state = make_state(mission_strict.ground, "colonel(c)")
        (model,) = answer_sets(mission_strict, state)
        assert heads_of(model) == {"permitted(assume_comm(c,m))"}

    def test_authorized_only_forbids(self, mission_strict):
        state = make_state(mission_strict.ground, "authorized(c,m)")
        (model,) = answer_sets(mission_strict, state)
        assert heads_of(model) == {"!permitted(assume_comm(c,m))"}

    def test_empty_state_concludes_nothing(self, mission_strict):
        (model,) = answer_sets(mission_strict, make_state(mission_strict.ground))
        assert model.heads == frozenset()
        assert model.fired_rules == frozenset()

    def test_obligation_fires_on_order(self, mission_strict):
        state = make_state(mission_strict.ground, "ordered_by_superior(c,m)")
        (model,) = answer_sets(mission_strict, state)
        assert heads_of(model) == {"obl(assume_comm(c,m))"}

    def test_state_literals_echo_the_state(self, mission_strict):
        state = make_state(mission_strict.ground, "colonel(c)")
        (model,) = answer_sets(mission_strict, state)
        assert parse_ground_literal("colonel(c)") in model.state_literals
        assert parse_ground_literal("!observer(c)") in model.state_literals


class TestDefeasibleMission:
    def test_preference_silences_the_prohibition(self, mission_defeasible):
        state = make_state(mission_defeasible.ground, "colonel(c)", "authorized(c,m)")
        models = answer_sets(mission_defeasible, state)
        assert len(models) == 1
        assert heads_of(models[0]) == {"permitted(assume_comm(c,m))"}
        assert models[0].ab_rules == {"d1[c,m]"}
        assert "d2[c,m]" in models[0].fired_rules

    def test_prohibition_holds_without_the_stronger_body(self, mission_defeasible):
        state = make_state(mission_defeasible.ground, "authorized(c,m)")
        (model,) = answer_sets(mission_defeasible, state)
        assert heads_of(model) == {"!permitted(assume_comm(c,m))"}
        assert model.ab_rules == frozenset()


class TestAmbiguousMission:
    def test_two_models_decide_each_way(self, mission_ambiguous):
        state = make_state(mission_ambiguous.ground, "colonel(c)", "authorized(c,m)")
        models = answer_sets(mission_ambiguous, state)
        assert len(models) == 2
        decided = [heads_of(m) for m in models]
        assert {"permitted(assume_comm(c,m))"} in decided
        assert {"!permitted(assume_comm(c,m))"} in decided

    def test_ambiguity_stats(self, mission_ambiguous):
        gp = mission_ambiguous.ground
        state = make_state(gp, "colonel(c)", "authorized(c,m)")
        models = answer_sets(mission_ambiguous, state)
        permitted = permitted_head(gp)
        assert str(permitted) == "permitted(assume_comm(c,m))"
        stats = ambiguity_stats(models, permitted)
        assert (stats.n, stats.n_p, stats.n_np) == (2, 1, 1)


class TestGroupInteraction:
    def test_strict_conclusion_blocks_the_defeasible_opponent(self):
        base = base_from(
            "fluent f.\naction go.\n"
            "rule s1: !permitted(go) if f.\n"
            "rule d1: normally permitted(go).\n"
        )
        (model,) = answer_sets(base, make_state(base.ground, "f"))
        assert heads_of(model) == {"!permitted(go)"}
        assert model.fired_rules == {"s1"}

    def test_strict_conflict_blocks_both_defeasible_sides(self):
        base = base_from(
            "fluent f.\naction go.\n"
            "rule s1: permitted(go) if f.\n"
            "rule s2: !permitted(go) if f.\n"
            "rule d1: normally permitted(go).\n"
            "rule d2: normally !permitted(go).\n"
        )
        (model,) = answer_sets(base, make_state(base.ground, "f"))
        assert model.fired_rules == {"s1", "s2"}

    def test_same_head_rules_fire_together(self):
        base = base_from(
            "fluent f.\naction go.\n"
            "rule d1: normally permitted(go).\n"
            "rule d2: normally permitted(go) if f.\n"
        )
        (model,) = answer_sets(base, make_state(base.ground, "f"))
        assert model.fired_rules == {"d1", "d2"}

    def test_mutual_preference_disables_both(self):
        base = base_from(
            "action go.\n"
            "rule d1: normally permitted(go).\n"
            "rule d2: normally !permitted(go).\n"
            "prefer p1: d1 > d2.\nprefer p2: d2 > d1.\n"
        )
        (model,) = answer_sets(base, make_state(base.ground))
        assert model.heads == frozenset()
        assert model.ab_rules == {"d1", "d2"}

    def test_independent_groups_multiply(self):
        base = base_from(
            "action go.\naction stay.\n"
            "rule a1: normally permitted(go).\n"
            "rule a2: normally !permitted(go).\n"
            "rule b1: normally obl(stay).\n"
            "rule b2: normally !obl(stay).\n"
        )
        models = answer_sets(base, make_state(base.ground))
        assert len(models) == 4

    def test_empty_policy_has_one_empty_model(self):
        base = base_from("fluent f.\naction go.\n")
        models = answer_sets(base, make_state(base.ground, "f"))
        assert len(models) == 1
        assert models[0].heads == frozenset()

    def test_models_are_sorted_canonically(self, mission_ambiguous):
        state = make_state(mission_ambiguous.ground, "colonel(c)", "authorized(c,m)")
        models = answer_sets(mission_ambiguous, state)
        keys = [m.sort_key() for m in models]
        assert keys == sorted(keys)


class TestEntailment:
    def test_cautious_vs_brave(self, mission_ambiguous):
        gp = mission_ambiguous.ground
        state = make_state(gp, "colonel(c)", "authorized(c,m)")
        permitted = permitted_head(gp)
        models = answer_sets(mission_ambiguous, state)
        # Each side holds in some answer set, so neither is cautiously entailed.
        assert any(permitted in m.heads for m in models)
        assert any(permitted.opposite() in m.heads for m in models)
        assert not entails(mission_ambiguous, state, permitted, models=models)
        assert not entails(mission_ambiguous, state, permitted.opposite(), models=models)

    def test_cautious_on_a_unique_model(self, mission_defeasible):
        gp = mission_defeasible.ground
        state = make_state(gp, "colonel(c)", "authorized(c,m)")
        assert entails(mission_defeasible, state, permitted_head(gp))

    def test_head_and_literal_queries(self, mission_strict):
        gp = mission_strict.ground
        state = make_state(gp, "colonel(c)")
        models = answer_sets(mission_strict, state)
        assert entails(mission_strict, state, permitted_head(gp), models=models)
        assert entails(mission_strict, state, parse_ground_literal("!observer(c)"), models=models)

    def test_unsupported_query_type(self, mission_strict):
        state = make_state(mission_strict.ground)
        (model,) = answer_sets(mission_strict, state)
        with pytest.raises(TypeError, match="unsupported query type"):
            model_contains(model, 42)


class TestWorldStateGuard:
    def test_atoms_outside_the_universe_are_rejected(self, mission_strict):
        gp = mission_strict.ground
        with pytest.raises(ValueError, match="outside the universe"):
            WorldState(gp.state_atoms, frozenset({gp.action_atoms[0]}))

    def test_str_lists_true_atoms_in_universe_order(self, mission_strict):
        state = make_state(mission_strict.ground, "authorized(c,m)", "colonel(c)")
        assert str(state) == "{colonel(c), authorized(c,m)}"


@pytest.mark.parametrize(
    "fixture", ["mission_strict", "mission_defeasible", "mission_ambiguous"]
)
class TestOracleAgreement:
    def test_engine_matches_oracle_on_every_state(self, fixture, request):
        base = request.getfixturevalue(fixture)
        for state in enumerate_states(base.ground):
            engine = answer_sets(base, state)
            oracle = oracle_answer_sets(base, state)
            assert [m.atoms() for m in engine] == [m.atoms() for m in oracle], str(state)

    def test_reification_preserves_deontic_conclusions(self, fixture, request):
        base = request.getfixturevalue(fixture)
        for state in enumerate_states(base.ground):
            engine = sorted(
                (m.heads for m in answer_sets(base, state)),
                key=lambda heads: tuple(sorted(map(str, heads))),
            )
            direct = direct_program_models(base.ground, state)
            assert engine == direct, str(state)


@given(domain_and_policy())
@settings(max_examples=200, deadline=None)
def test_engine_matches_oracle_on_generated_policies(pair):
    policy, domain = pair
    base = reify(ground(policy, domain))
    # The guess-and-check oracle is exponential in the ground policy; these
    # bounds keep the whole test to a few seconds.
    assume(len(base.ground.state_atoms) <= 4 and len(base.ground.rules) <= 24)
    for state in enumerate_states(base.ground):
        try:
            oracle = oracle_answer_sets(base, state, max_guess_atoms=12)
        except OracleSizeError:
            reject()
        engine = answer_sets(base, state)
        assert [m.atoms() for m in engine] == [m.atoms() for m in oracle], str(state)


def assert_slices_factor_exactly(base):
    """Each action's slice partitions the index and gives its pairs' outcomes."""
    index = base.index
    labels = {rule[2] for rule in index.rules}
    assert Counter(rule for own, _ in index.slices for rule in own) == Counter(index.rules)
    assert Counter(prefer for _, defeats in index.slices for prefer in defeats) == Counter(
        prefer for prefer in index.prefers if prefer[2] in labels
    )
    for state in range(1 << len(index.bits)):
        whole = factor(base, state)
        for action, (own, defeats) in enumerate(index.slices):
            pairs = set(index.actions[action][:3])
            part = factor_rules(own, defeats, state)
            assert set(part) == pairs & set(whole), (action, state)
            assert all(part[pair] == whole[pair] for pair in part), (action, state)


@given(
    st.one_of(
        domain_and_policy().map(lambda pair: ground(*pair)),
        pinned_ground_policy().map(lambda case: case[0]),
    )
)
@settings(max_examples=200, deadline=None)
def test_action_slices_factor_like_the_whole_policy(gp):
    assume(len(gp.state_atoms) <= 6)
    assert_slices_factor_exactly(reify(gp))
