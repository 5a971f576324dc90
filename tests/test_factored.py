"""The factored sweep, its families, detectors, classifiers and mask enumeration
against the reference."""

import importlib
import pickle
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from aopl_lint import (
    Atom,
    Literal,
    StateConstraint,
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
from aopl_lint import analysis
from aopl_lint.reify import components
from aopl_lint.states import check_pins, parse_pins

import reference
from corpus import corpus
from helpers import (
    DATA, action_atom, base_from, bench_case, bench_workloads, executable_actions, load_base,
    make_state,
)
from strategies import domain_and_policy, pinned_ground_policy, tied_components

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
    "tied_across_components",
    "joined_by_exec",
    "pinned_away",
    "chained",
    "repeated_rules",
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
    assert [i.family for i in got.instances] == [
        reference._family_key(i.record) for i in got.instances
    ]
    assert collapse_families(got) == reference.collapse_families(want)
    assert got == reference.per_action_sweep(base, options)


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


@given(st.one_of(domain_and_policy(), tied_components()))
@settings(max_examples=100, deadline=None)
def test_sweep_matches_the_reference_on_generated_policies(pair):
    policy, domain = pair
    base = reify(ground(policy, domain))
    assume(len(base.ground.state_atoms) <= 8)
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


def sweep_components(base, pins=()) -> dict[int, list[str]]:
    """The memoised actions per component of the bits their findings and executability read."""
    index = base.index
    pinned = {pin.atom for pin in pins}
    free = sum(bit for atom, bit in index.bits.items() if atom not in pinned)
    scopes = [relevant & free for relevant in index.relevant]
    for need, forbid, action in index.exec_conditions:
        scopes[action] |= (need | forbid) & free
    memoised = [a for a, relevant in enumerate(index.relevant) if relevant & free != free]
    grouped: dict[int, list[str]] = {}
    for a, component in zip(memoised, components([scopes[a] for a in memoised])):
        grouped.setdefault(component, []).append(str(base.ground.action_atoms[a]))
    return grouped


def test_the_component_fixtures_have_the_components_they_claim(
    tied_across_components, joined_by_exec, pinned_away, chained
):
    bit = lambda base, name: base.index.bits[Atom(name)]
    tied = sweep_components(tied_across_components)
    assert sorted(tied.values()) == [["go(a)"], ["go(b)"]]
    assert all(component.bit_count() == 2 for component in tied)
    joined = sweep_components(joined_by_exec)
    assert joined == {bit(joined_by_exec, "f") | bit(joined_by_exec, "g"): ["go", "stay"]}
    assert sweep_components(pinned_away)[0] == ["idle"]
    pins = tuple(parse_pins(["!k"]))
    assert sweep_components(pinned_away, pins)[0] == ["go", "idle"]
    for pins in ((), tuple(parse_pins(["!p"]))):
        pinned = {pin.atom for pin in pins}
        free = sum(b for atom, b in chained.index.bits.items() if atom not in pinned)
        assert sweep_components(chained, pins) == {free: ["x", "y", "z"]}


def test_components_join_masks_that_share_bits():
    assert components([]) == []
    assert components([0b1, 0b10, 0, 0b11000, 0b1000]) == [0b1, 0b10, 0, 0b11000, 0b11000]
    # The last mask links the first two through bits 0 and 2.
    assert components([0b1, 0b100, 0b10000, 0b101]) == [0b101, 0b101, 0b10000, 0b101]


@given(domain_and_policy())
@settings(max_examples=100, deadline=None)
def test_sweep_matches_the_per_action_sweep_on_generated_policies(pair):
    base = reify(ground(*pair))
    assume(len(base.ground.state_atoms) <= 8)
    assert sweep(base) == reference.per_action_sweep(base)


@given(pinned_ground_policy(max_state_atoms=8))
@settings(max_examples=100, deadline=None)
def test_sweep_matches_the_per_action_sweep_under_pins(case):
    gp, pins = case
    assume(not check_pins(gp, pins))
    base = reify(gp)
    options = SweepOptions(pins=tuple(pins))
    assert sweep(base, options) == reference.per_action_sweep(base, options)


MISSION_POLICY = """
rule s1: !permitted(assume_comm(C,M)) if authorized(C,M).
rule s2: permitted(assume_comm(C,M)) if colonel(C).
rule d1: normally permitted(authorize_comm(C,M)) if colonel(C).
rule d2: normally !permitted(authorize_comm(C,M)) if observer(C).
rule o1: obl(assume_comm(C,M)) if ordered_by_superior(C,M).
"""


def test_sweep_matches_the_per_action_sweep_on_mission_two_by_three():
    # Two commanders and three missions give 16 state atoms in two
    # components of 8 bits, one per commander: 65,536 states.
    domain = (DATA / "mission.dom").read_text(encoding="utf-8")
    domain = domain.replace("commander: c.", "commander: c, d.")
    domain = domain.replace("mission: m.", "mission: m, n, o.")
    base = base_from(domain + MISSION_POLICY)
    assert len(base.ground.state_atoms) == 16
    assert sorted(c.bit_count() for c in sweep_components(base)) == [8, 8]
    got = sweep(base)
    assert got.states_examined == 1 << 16
    assert got == reference.per_action_sweep(base)


def test_sweep_counts_states_per_family_across_a_thousand_families():
    # Each state that fails rx's body is its own case-2 gap family, and y's
    # findings fire in every state, so a state's fired families span ids 0 to
    # about 1,000.
    fluents = [f"f{i}" for i in range(10)]
    base = base_from(
        "".join(f"fluent {f}.\n" for f in fluents)
        + "action x.\naction y.\n"
        + f"rule rx: permitted(x) if {', '.join(fluents)}.\n"
        + "rule ry: obl(y).\n"
    )
    got = sweep(base)
    assert len(got.family_counts) > 1000
    assert got == reference.per_action_sweep(base)


@pytest.mark.parametrize("split", [False, True])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_sweep_detects_as_often_as_the_per_action_sweep(fixture, split, request, monkeypatch):
    # Split, each component of one bit or more gets a table per action's bits.
    base = request.getfixturevalue(fixture)
    calls = []
    original = analysis.detect_state

    def counting(base, state, actions):
        calls.append((state, tuple(actions)))
        return original(base, state, actions)

    monkeypatch.setattr(analysis, "detect_state", counting)
    if split:
        monkeypatch.setattr(analysis, "COMPONENT_BITS", 0)
    first = base.ground.state_atoms[0]
    for options in (SweepOptions(), SweepOptions(pins=tuple(parse_pins([f"!{first}"])))):
        got = sweep(base, options)
        ours = sorted(calls)
        calls.clear()
        assert got == reference.per_action_sweep(base, options)
        assert ours == sorted(calls)
        calls.clear()


def test_a_witness_tie_across_component_entries_is_broken_by_text(joined_by_exec):
    base = joined_by_exec
    gp = base.ground
    assert base.index.mask(make_state(gp, "h")) < base.index.mask(make_state(gp, "g"))
    [gap] = [i.record for i in sweep(base).instances if str(i.record.action) == "go"]
    assert str(gap.witness_state) == "{g}"


def test_a_witness_tie_across_components_is_broken_by_text(tied_across_components):
    # go(a)'s gap with p(a) alone is first seen in {p(a), q(b)}; b's
    # component ties it with {p(a), p(b)}, which comes later in mask order.
    base = tied_across_components
    gp = base.ground
    first, later = make_state(gp, "p(a)", "q(b)"), make_state(gp, "p(a)", "p(b)")
    assert base.index.mask(first) < base.index.mask(later)
    [gap] = [
        i.record
        for i in sweep(base).instances
        if str(i.record.action) == "go(a)" and str(i.record.missing[0][1][0]) == "q(a)"
    ]
    assert gap.witness_state == later


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


def pin_layouts(gp) -> dict[str, list[Literal]]:
    """Pins that leave the unpinned bits as one run, none, or two runs.

    The first declared atoms are the high bits, so pinning them leaves the low
    run, and pinning the last declared ones leaves a run above pinned low bits,
    counted in steps above 1.  A pin in the middle splits the unpinned bits in
    two, and pinning every second atom leaves single-bit runs.
    """
    atoms = gp.state_atoms
    signs = lambda chosen: [Literal(atom, i % 2 == 0) for i, atom in enumerate(chosen)]
    middle = len(atoms) // 2
    return {
        "none": [],
        "first": signs(atoms[:2]),
        "last": signs(atoms[-2:]),
        "every": signs(atoms),
        "scattered": signs(atoms[middle : middle + 1]),
        "alternate": signs(atoms[1::2]),
    }


def assert_same_states_under_every_layout(gp):
    for pins in pin_layouts(gp).values():
        assert_same_states(gp, pins)


def assert_same_filters(gp):
    """The constraint check on each assignment's mask and the exec filter."""
    atoms = gp.state_atoms
    for values in product((False, True), repeat=len(atoms)):
        state = WorldState(atoms, frozenset(a for a, v in zip(atoms, values) if v))
        mask = sum(1 << i for i, v in enumerate(reversed(values)) if v)
        verdict = reference.satisfies_constraints(gp, state)
        assert satisfies_constraints(gp, mask) is verdict, str(state)
        assert reference.satisfies_constraint_checks(gp, mask) is verdict, str(state)
        assert executable_actions(gp, state) == reference.executable_actions(gp, state)


@given(pinned_ground_policy())
@settings(max_examples=200, deadline=None)
def test_enumeration_and_filters_match_the_reference_on_generated_policies(case):
    gp, pins = case
    assert_same_states(gp, pins)
    assert_same_states_under_every_layout(gp)
    assert_same_filters(gp)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_enumeration_and_filters_match_the_reference_on_fixtures(fixture, request):
    gp = request.getfixturevalue(fixture).ground
    assert_same_states(gp)
    first, last = gp.state_atoms[0], gp.state_atoms[-1]
    assert_same_states(gp, parse_pins([str(first), f"!{last}"]))
    assert_same_states_under_every_layout(gp)
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
    assert_same_states_under_every_layout(gp)


def test_enumeration_over_three_chunks_with_pins_in_every_byte_matches_the_reference():
    # Five workers give 20 state atoms.  One pin in each byte of the mask
    # leaves 17 unpinned atoms, so the submask walk skips a pinned bit in
    # every byte (the name is from an enumeration in chunks of 8 atoms).
    base = base_from(
        (DATA / "shifts.dom")
        .read_text(encoding="utf-8")
        .replace("ann, bob", "ann, bob, cy, dee, eve")
    )
    gp = base.ground
    n = len(gp.state_atoms)
    assert n == 20
    at = lambda bit: gp.state_atoms[n - 1 - bit]
    pins = [Literal(at(2), True), Literal(at(11), False), Literal(at(19), True)]
    assert_same_states(gp, pins)


@given(pinned_ground_policy())
@settings(max_examples=100, deadline=None)
def test_enumerated_states_carry_their_mask_and_the_policys_own_atoms(case):
    gp, pins = case
    # Equal copies of the pinned atoms: the states still hold the policy's objects.
    copies = [Literal(Atom(pin.atom.predicate, pin.atom.args), pin.positive) for pin in pins]
    own = {id(atom) for atom in gp.state_atoms}
    for state in enumerate_states(gp, copies):
        assert state.mask == gp.index.mask(state)
        assert state.mask == WorldState(state.universe, state.true_atoms).mask
        assert all(id(atom) in own for atom in state.true_atoms)


def test_index_mask_reads_a_state_over_another_atom_order_by_its_atoms(mission_strict):
    gp = mission_strict.ground
    states = list(enumerate_states(gp))
    others = [WorldState(gp.state_atoms[::-1], state.true_atoms) for state in states]
    assert [gp.index.mask(other) for other in others] == [state.mask for state in states]
    assert [other.mask for other in others] != [state.mask for state in states]


# What a state offers its readers; each is read first on a fresh enumerated state.
READS = {
    "hash": hash,
    "repr": repr,
    "str": str,
    "true_atoms": lambda state: state.true_atoms,
    "literals": lambda state: state.literals(),
    "pickle": lambda state: pickle.loads(pickle.dumps(state)),
}


def assert_mask_built_states_equal_constructed_ones(gp, pins=()):
    # A frozenset's repr follows its insertion order: add the atoms in declaration order.
    bits = gp.index.bits
    built = [
        WorldState(gp.state_atoms, frozenset(a for a in gp.state_atoms if state.mask & bits[a]))
        for state in enumerate_states(gp, pins)
    ]
    assert list(enumerate_states(gp, pins)) == built
    assert built == list(enumerate_states(gp, pins))
    for name, read in READS.items():
        assert [read(state) for state in enumerate_states(gp, pins)] == list(map(read, built)), name


@given(pinned_ground_policy())
@settings(max_examples=100, deadline=None)
def test_mask_built_states_equal_constructed_ones_on_generated_policies(case):
    assert_mask_built_states_equal_constructed_ones(*case)


@pytest.mark.parametrize("fixture", FIXTURES)
def test_mask_built_states_equal_constructed_ones_on_fixtures(fixture, request):
    gp = request.getfixturevalue(fixture).ground
    assert_mask_built_states_equal_constructed_ones(gp)
    first, last = gp.state_atoms[0], gp.state_atoms[-1]
    assert_mask_built_states_equal_constructed_ones(gp, parse_pins([str(first), f"!{last}"]))


def test_mask_built_states_follow_declaration_order_not_text_order(mission_strict):
    gp = mission_strict.ground
    assert list(gp.state_atoms) != sorted(gp.state_atoms, key=str)
    assert_mask_built_states_equal_constructed_ones(gp)
    last = list(enumerate_states(gp))[-1]
    assert last.ordered_atoms() == list(gp.state_atoms)


def assert_same_constraint_checks(gp):
    """The constraint tables against one constraint at a time, on every mask."""
    for mask in range(1 << len(gp.state_atoms)):
        assert satisfies_constraints(gp, mask) is reference.satisfies_constraint_checks(gp, mask)


@given(pinned_ground_policy(max_state_atoms=8))
@settings(max_examples=200, deadline=None)
def test_constraint_tables_match_the_per_constraint_check_on_generated_policies(case):
    assert_same_constraint_checks(case[0])


def test_constraint_tables_cover_every_kind_of_constraint():
    # f(t0) .. f(t9) chain into one component of 10 bits, above the table
    # cap.  Beside it: a headless constraint on g and h, or a body of sort
    # atoms alone on h and a head that can never hold on g.
    constants = ", ".join(f"t{i}" for i in range(10))
    chain = "".join(f"constraint f(t{i + 1}) if f(t{i}).\n" for i in range(9))
    domain = f"sorts n: {constants}.\nfluent f(n). fluent g. fluent h.\naction go.\n" + chain
    never = StateConstraint((Literal(Atom("g"), True),), Literal(Atom("n", ("u",)), True))
    cases = [
        ("", (), []),
        ("impossible g, !h.\n", (), [2]),
        ("constraint h if n(t0).\n", (never,), [1, 1]),
    ]
    for extra, added, small in cases:
        gp = base_from(domain + extra).ground
        gp = gp.replace(state_constraints=gp.state_constraints + added)
        tables = [c for c in gp.index.constraints if isinstance(c[1], frozenset)]
        [(wide, checks)] = [c for c in gp.index.constraints if c not in tables]
        assert wide.bit_count() == 10 and len(checks) == 9
        assert sorted(component.bit_count() for component, _ in tables) == small
        assert_same_constraint_checks(gp)
    assert gp.sort_facts == (Atom("n", ("t0",)),)


def test_constraint_tables_of_the_shift_rota():
    # Three workers: 12 constraints in three components of 4 bits, each
    # accepting 7 of its 16 sub-masks.
    base = base_from(
        (DATA / "shifts.dom").read_text(encoding="utf-8").replace("ann, bob", "ann, bob, cy")
    )
    tables = base.index.constraints
    assert all(isinstance(valid, frozenset) for _, valid in tables)
    assert sorted((c.bit_count(), len(valid)) for c, valid in tables) == [(4, 7)] * 3
    assert_same_constraint_checks(base.ground)


@pytest.mark.parametrize("name", sorted(bench_workloads().GENERATORS))
def test_sweep_matches_the_reference_on_the_bench_workloads(name):
    assert_same_sweep(*bench_case(name)[:2])


@pytest.mark.parametrize("fixture", FIXTURES)
def test_the_sweep_derives_each_identity_once_on_fixtures(fixture, request, monkeypatch):
    base = request.getfixturevalue(fixture)
    met = []
    identity = analysis._identity

    def counting(base, finding):
        met.append(finding)
        return identity(base, finding)

    monkeypatch.setattr(analysis, "_identity", counting)
    instances = sweep(base).instances
    assert instances
    assert len(met) == len(set(met)) == len(instances)


@given(pinned_ground_policy(), st.data())
@settings(max_examples=100, deadline=None)
def test_detect_state_matches_the_reference_detector(case, data):
    gp, _ = case
    base = reify(gp)
    actions = range(len(gp.action_atoms))
    for mask in data.draw(st.lists(st.integers(0, (1 << len(gp.state_atoms)) - 1), max_size=4)):
        for action in actions:
            got = analysis.detect_state(base, mask, (action,))
            assert got == reference.detect_state(base, mask, (action,)), (mask, action)
        assert analysis.detect_state(base, mask, actions) == reference.detect_state(
            base, mask, actions
        )
