"""The factored sweep and detectors against the model-list reference."""

import pytest
from hypothesis import assume, given, settings

from aopl_lint import (
    SweepOptions,
    detect_ambiguity,
    detect_inconsistency,
    detect_modality_conflicts,
    detect_obligation_conflict,
    detect_underspecification,
    enumerate_states,
    ground,
    reify,
    sweep,
)
from aopl_lint.states import parse_pins

import reference
from corpus import corpus
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
