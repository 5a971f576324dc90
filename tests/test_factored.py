"""The factored sweep, its families, detectors, classifiers and mask enumeration
against the reference."""

import importlib
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings

from aopl_lint import (
    Atom,
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
    reify,
    satisfies_constraints,
    sweep,
)
from aopl_lint.states import parse_pins

import reference
from corpus import corpus
from helpers import DATA, action_atom, base_from, executable_actions, load_base, make_state
from strategies import domain_and_policy, pinned_ground_policy

FIXTURES = [
    "mission_strict",
    "mission_defeasible",
    "mission_ambiguous",
    "shifts",
    "shared_ambiguities",
    "preferred_elsewhere",
    "blocked_elsewhere",
    "tied_by_exec",
    "tied_by_constraint",
]


def assert_same_sweep(base, options=SweepOptions()):
    got = sweep(base, options)
    want = reference.sweep(base, options)
    assert [i.record for i in got.instances] == [i.record for i in want.instances]
    assert [i.state_count for i in got.instances] == [len(i.states) for i in want.instances]
    assert got.states_examined == want.states_examined
    families: dict[tuple, set] = {}
    for instance in want.instances:
        families.setdefault(reference._family_key(instance.record), set()).update(instance.states)
    assert got.family_counts == tuple(sorted((k, len(v)) for k, v in families.items()))
    assert collapse_families(got) == reference.collapse_families(want)


# An action no ground policy declares; the detectors and classifiers still take it.
STRAY = Atom("stray")


def assert_same_detectors(base, state):
    assert detect_inconsistency(base, state) == reference.detect_inconsistency(base, state)
    assert detect_modality_conflicts(base, state) == reference.detect_modality_conflicts(
        base, state
    )
    for action in (*base.ground.action_atoms, STRAY):
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


def events(gp, state):
    """The empty event, then every one or two executable actions."""
    actions = executable_actions(gp, state)
    return [event for size in range(3) for event in combinations(actions, size)]


def assert_same_classes(base):
    gp = base.ground
    for state in enumerate_states(gp):
        models = reference.answer_sets(base, state)
        for action in (*gp.action_atoms, STRAY):
            assert classify_action(base, state, action) is reference.classify_action(
                base, state, action, models
            ), (str(action), str(state))
        for event in (*events(gp, state), (STRAY,) + gp.action_atoms[:1]):
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


@pytest.mark.parametrize(
    "fixture, reached", [("preferred_elsewhere", "h"), ("blocked_elsewhere", "f")]
)
def test_an_action_memo_reads_bits_outside_its_own_rules(fixture, reached, request):
    # The memo key holds the defeating preference's and the impossible
    # authorization's bits, but not the executability bit k, which the sweep
    # checks state by state.
    base = request.getfixturevalue(fixture)
    index = base.index
    bits = {str(atom): bit for atom, bit in index.bits.items()}
    go = index.relevant[base.ground.action_atoms.index(action_atom(base.ground, "go"))]
    assert go & bits[reached] and not go & bits["k"]


@pytest.mark.parametrize("fixture", ["tied_by_exec", "tied_by_constraint"])
def test_a_memo_key_witness_tie_is_broken_by_text(fixture, request):
    # go's findings are memoised on r alone.  Its gap is first seen in {q},
    # which {p} follows in mask order and precedes in text order.
    base = request.getfixturevalue(fixture)
    gp = base.ground
    go = gp.action_atoms.index(action_atom(gp, "go"))
    assert base.index.relevant[go] == base.index.bits[Atom("r")]
    assert base.index.mask(make_state(gp, "q")) < base.index.mask(make_state(gp, "p"))
    [gap] = [i.record for i in sweep(base).instances if str(i.record.action) == "go"]
    assert str(gap.witness_state) == "{p}"


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
    assert built == [gp]


def assert_same_states(gp, pins=()):
    assert list(enumerate_states(gp, pins)) == list(reference.enumerate_states(gp, pins))


def assert_same_filters(gp):
    """Both forms of the constraint check and the exec filter, on every assignment."""
    atoms = gp.state_atoms
    for values in product((False, True), repeat=len(atoms)):
        state = WorldState(atoms, frozenset(a for a, v in zip(atoms, values) if v))
        mask = sum(1 << i for i, v in enumerate(reversed(values)) if v)
        verdict = reference.satisfies_constraints(gp, state)
        assert satisfies_constraints(gp, state) is verdict, str(state)
        assert satisfies_constraints(gp, mask) is verdict, str(state)
        assert executable_actions(gp, state) == reference.executable_actions(gp, state)


@given(pinned_ground_policy())
@settings(max_examples=200, deadline=None)
def test_enumeration_and_filters_match_the_reference_on_generated_policies(case):
    gp, pins = case
    assert_same_states(gp, pins)
    assert_same_filters(gp)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_enumeration_and_filters_match_the_reference_on_fixtures(fixture, request):
    gp = request.getfixturevalue(fixture).ground
    assert_same_states(gp)
    first, last = gp.state_atoms[0], gp.state_atoms[-1]
    assert_same_states(gp, parse_pins([str(first), f"!{last}"]))
    assert_same_filters(gp)


def assert_mask_order(gp, pins=()):
    """The first declared atom is the highest bit, and states count up."""
    n = len(gp.state_atoms)
    assert [gp.index.bits[a] for a in gp.state_atoms] == [1 << n - 1 - i for i in range(n)]
    masks = [gp.index.mask(state) for state in enumerate_states(gp, pins)]
    assert all(a < b for a, b in zip(masks, masks[1:]))


@given(pinned_ground_policy())
@settings(max_examples=100, deadline=None)
def test_states_come_in_mask_order_on_generated_policies(case):
    assert_mask_order(*case)


@pytest.mark.parametrize("pins", [(), ("trained(ann)", "!on_duty(bob,day)")])
def test_states_come_in_mask_order_on_shifts(shifts, pins):
    assert_mask_order(shifts.ground, parse_pins(pins))


def test_enumeration_over_twelve_unpinned_atoms_matches_the_reference():
    # Three workers give 12 state atoms, a wider differential input than any
    # fixture; the pin holds one of the low bits that count fastest.
    base = base_from(
        (DATA / "shifts.dom").read_text(encoding="utf-8").replace("ann, bob", "ann, bob, cy")
    )
    gp = base.ground
    assert len(gp.state_atoms) == 12
    assert_same_states(gp)
    assert_same_states(gp, parse_pins(["on_duty(cy,eve)"]))
