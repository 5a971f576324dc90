"""The factored sweep, detectors and classifiers against the model-list reference."""

import importlib

import pytest
from hypothesis import assume, given, settings

from aopl_lint import (
    Atom,
    SweepOptions,
    answer_sets,
    classify_action,
    classify_compliance,
    detect_ambiguity,
    detect_inconsistency,
    detect_modality_conflicts,
    detect_obligation_conflict,
    detect_underspecification,
    entails,
    enumerate_events,
    enumerate_states,
    ground,
    reify,
    sweep,
)
from aopl_lint.states import parse_pins

import reference
from corpus import corpus
from helpers import load_base
from strategies import domain_and_policy

FIXTURES = ["mission_strict", "mission_defeasible", "mission_ambiguous", "shifts"]


def assert_same_sweep(base, options=SweepOptions()):
    got = sweep(base, options)
    want = reference.sweep(base, options)
    assert got.instances == want.instances
    assert got.states_examined == want.states_examined


def assert_same_detectors(base, state):
    assert detect_inconsistency(base, state) == reference.detect_inconsistency(base, state)
    assert detect_modality_conflicts(base, state) == reference.detect_modality_conflicts(
        base, state
    )
    for action in base.ground.action_atoms:
        for detector, expected in (
            (detect_underspecification, reference.detect_underspecification),
            (detect_ambiguity, reference.detect_ambiguity),
            (detect_obligation_conflict, reference.detect_obligation_conflict),
        ):
            assert detector(base, state, action) == expected(base, state, action), (
                detector.__name__,
                str(action),
                str(state),
            )


# An action no ground policy declares; the classifiers still take it.
STRAY = Atom("stray")


def assert_same_classes(base):
    gp = base.ground
    for state in enumerate_states(gp):
        models = answer_sets(base, state)
        for action in (*gp.action_atoms, STRAY):
            assert classify_action(base, state, action) is reference.classify_action(
                base, state, action, models
            ), (str(action), str(state))
        for event in (*enumerate_events(gp, state, 2), (STRAY,) + gp.action_atoms[:1]):
            assert classify_compliance(base, state, event) == reference.classify_compliance(
                base, state, event, models
            ), (tuple(map(str, event)), str(state))


@given(domain_and_policy())
@settings(max_examples=100, deadline=None)
def test_sweep_matches_the_reference_on_generated_policies(pair):
    policy, domain = pair
    base = reify(ground(policy, domain))
    assume(len(base.ground.state_atoms) <= 6)
    assert_same_sweep(base)


def test_sweep_and_detectors_match_the_reference_on_the_corpus():
    for policy, domain in corpus():
        base = reify(ground(policy, domain))
        assert_same_sweep(base)
        for state in enumerate_states(base.ground):
            assert_same_detectors(base, state)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_sweep_matches_the_reference_on_fixtures(fixture, request):
    base = request.getfixturevalue(fixture)
    assert_same_sweep(base)
    first = base.ground.state_atoms[0]
    assert_same_sweep(base, SweepOptions(pins=tuple(parse_pins([f"!{first}"]))))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_detectors_match_the_reference_on_every_state(fixture, request):
    base = request.getfixturevalue(fixture)
    for state in enumerate_states(base.ground):
        assert_same_detectors(base, state)


@given(domain_and_policy())
@settings(max_examples=100, deadline=None)
def test_classifiers_match_the_reference_on_generated_policies(pair):
    policy, domain = pair
    base = reify(ground(policy, domain))
    assume(len(base.ground.state_atoms) <= 6)
    assert_same_classes(base)


def test_classifiers_match_the_reference_on_the_corpus():
    for policy, domain in corpus():
        assert_same_classes(reify(ground(policy, domain)))


@pytest.mark.parametrize("fixture", FIXTURES)
def test_classifiers_match_the_reference_on_fixtures(fixture, request):
    assert_same_classes(request.getfixturevalue(fixture))


def test_a_base_is_indexed_once(monkeypatch):
    # The package's ``reify`` attribute is the function, not the submodule.
    reify_module = importlib.import_module("aopl_lint.reify")
    built = []
    original = reify_module._build_index

    def counting(gp):
        built.append(gp)
        return original(gp)

    monkeypatch.setattr(reify_module, "_build_index", counting)
    base = load_base("mission.dom", "mission_ambiguous.aopl")
    gp = base.ground
    sweep(base)
    for state in enumerate_states(gp):
        detect_inconsistency(base, state)
        detect_modality_conflicts(base, state)
        for action in gp.action_atoms:
            detect_underspecification(base, state, action)
            detect_ambiguity(base, state, action)
            detect_obligation_conflict(base, state, action)
            classify_action(base, state, action)
        classify_compliance(base, state, gp.action_atoms)
        answer_sets(base, state)
        entails(base, state, gp.head_universe[0])
    assert built == [gp]
