"""State enumeration, pinning, constraints, executability, and state files."""

import tracemalloc

import pytest

from aopl_lint import (
    Severity,
    SweepOptions,
    WorldState,
    enumerate_states,
    load_state,
    parse_ground_literal,
    satisfies_constraints,
    state_space_size,
    sweep,
)
from aopl_lint.states import check_pins, parse_pins

from helpers import DATA, base_from, executable_actions, make_state, satisfies


def pins(*texts):
    return [parse_ground_literal(t) for t in texts]


class TestEnumeration:
    def test_full_space(self, mission_strict):
        states = list(enumerate_states(mission_strict.ground))
        assert len(states) == 16
        assert len({str(s) for s in states}) == 16

    def test_all_false_comes_first_last_atom_fastest(self, mission_strict):
        states = list(enumerate_states(mission_strict.ground))
        assert str(states[0]) == "{}"
        assert str(states[1]) == "{ordered_by_superior(c,m)}"
        assert str(states[2]) == "{authorized(c,m)}"
        assert str(states[-1]) == (
            "{colonel(c), observer(c), authorized(c,m), ordered_by_superior(c,m)}"
        )

    def test_pins_halve_the_space(self, mission_strict):
        gp = mission_strict.ground
        fixed = pins("colonel(c)")
        states = list(enumerate_states(gp, fixed))
        assert len(states) == 8
        assert all(satisfies(s, fixed[0]) for s in states)

    def test_negative_pins(self, mission_strict):
        gp = mission_strict.ground
        states = list(enumerate_states(gp, pins("!colonel(c)", "!observer(c)")))
        assert len(states) == 4
        assert all(not satisfies(s, parse_ground_literal("colonel(c)")) for s in states)

    def test_only_accepted_assignments_become_states(self, shifts, monkeypatch):
        built = []
        original = WorldState.from_mask

        def counting(universe, mask):
            built.append(original(universe, mask))
            return built[-1]

        monkeypatch.setattr(WorldState, "from_mask", counting)
        states = list(enumerate_states(shifts.ground))
        assert state_space_size(shifts.ground) == 256
        assert len(built) == len(states) == 49

    def test_first_state_of_a_huge_space_needs_little_memory(self):
        constants = ", ".join(f"t{i}" for i in range(40))
        base = base_from(f"sorts thing: {constants}.\nfluent f(thing).\naction go.\n")
        gp = base.ground
        assert state_space_size(gp) == 1 << 40
        tracemalloc.start()
        try:
            first = next(enumerate_states(gp))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(first) == "{}"
        assert peak < 1 << 20

    def test_first_state_of_a_wider_space_needs_one_chunk_table(self):
        # The name is historical: enumeration builds no table, so the first
        # state of 2^80 assignments costs what any other state does.
        constants = ", ".join(f"t{i}" for i in range(80))
        gp = base_from(f"sorts thing: {constants}.\nfluent f(thing).\naction go.\n").ground
        assert state_space_size(gp) == 1 << 80
        tracemalloc.start()
        try:
            first = next(enumerate_states(gp))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(first) == "{}"
        assert peak < 0.3 * (1 << 20)

    def test_state_space_size_counts_unpinned_atoms(self, mission_strict):
        gp = mission_strict.ground
        assert state_space_size(gp) == 16
        assert state_space_size(gp, pins("colonel(c)")) == 8
        assert state_space_size(gp, pins("colonel(c)", "!colonel(c)")) == 8


class TestPinChecks:
    def test_unknown_pin_atom(self, mission_strict):
        diags = check_pins(mission_strict.ground, pins("ghost"))
        assert any("ghost is not a state atom" in d.message for d in diags)

    def test_action_atoms_are_not_pinnable(self, mission_strict):
        diags = check_pins(mission_strict.ground, pins("assume_comm(c,m)"))
        assert len(diags) == 1

    def test_contradictory_pins(self, mission_strict):
        diags = check_pins(mission_strict.ground, pins("colonel(c)", "!colonel(c)"))
        assert any("contradictory pins for colonel(c)" in d.message for d in diags)

    def test_bad_pins_yield_an_empty_stream(self, mission_strict):
        assert list(enumerate_states(mission_strict.ground, pins("ghost"))) == []

    def test_duplicate_consistent_pins_are_fine(self, mission_strict):
        gp = mission_strict.ground
        assert check_pins(gp, pins("colonel(c)", "colonel(c)")) == []

    UNKNOWN = "pin atom ghost is not a state atom"
    CONTRADICTORY = "contradictory pins for colonel(c)"

    @pytest.mark.parametrize(
        "texts, messages",
        [
            (("ghost",), [UNKNOWN]),
            (("ghost", "ghost"), [UNKNOWN, UNKNOWN]),
            (("colonel(c)", "!colonel(c)"), [CONTRADICTORY]),
            (("colonel(c)", "!colonel(c)", "colonel(c)"), [CONTRADICTORY, CONTRADICTORY]),
            (("colonel(c)", "colonel(c)"), []),
            (("ghost", "colonel(c)", "!colonel(c)"), [UNKNOWN, CONTRADICTORY]),
        ],
    )
    def test_each_outcome_in_pin_order(self, mission_strict, texts, messages):
        gp = mission_strict.ground
        diags = check_pins(gp, pins(*texts))
        assert [d.message for d in diags] == messages
        assert all(d.severity is Severity.ERROR for d in diags)
        states = list(enumerate_states(gp, pins(*texts)))
        assert len(states) == (0 if messages else 8)

    def test_a_repeated_pin_sweeps_as_one(self, mission_strict):
        once = sweep(mission_strict, SweepOptions(pins=tuple(pins("!authorized(c,m)"))))
        twice = sweep(mission_strict, SweepOptions(pins=tuple(pins(*["!authorized(c,m)"] * 2))))
        assert twice == once
        assert once.states_examined == 8

    def test_parse_pins(self):
        assert [str(p) for p in parse_pins(["colonel(c)", "!observer(c)"])] == [
            "colonel(c)",
            "!observer(c)",
        ]


CONSTRAINED = """\
sorts commander: c1, c2.
static colonel(commander).
static observer(commander).
action go(commander).
impossible colonel(C), observer(C).
rule r1: permitted(go(C)) if colonel(C).
"""


class TestConstraints:
    def test_impossible_filters_states(self):
        base = base_from(CONSTRAINED)
        states = list(enumerate_states(base.ground))
        # 4 atoms, minus the 7 assignments where some commander is both.
        assert len(states) == 9
        bad = make_state(base.ground, "colonel(c1)", "observer(c1)")
        assert not satisfies_constraints(base.ground, bad.mask)

    def test_conditional_constraint_with_head(self):
        base = base_from(
            "fluent raining.\nfluent wet.\naction go.\n"
            "constraint wet if raining.\n"
            "rule r1: permitted(go).\n"
        )
        gp = base.ground
        assert satisfies_constraints(gp, make_state(gp, "raining", "wet").mask)
        assert satisfies_constraints(gp, make_state(gp, "wet").mask)
        assert not satisfies_constraints(gp, make_state(gp, "raining").mask)
        assert len(list(enumerate_states(gp))) == 3

    def test_sort_atoms_in_constraints(self):
        base = base_from(
            "sorts agent: a1.\nfluent f(agent).\naction go.\n"
            "impossible f(A), agent(A).\n"
            "rule r1: permitted(go).\n"
        )
        assert len(list(enumerate_states(base.ground))) == 1

    def test_negative_sort_atoms_never_hold(self):
        base = base_from(
            "sorts agent: a1.\nfluent f(agent).\nfluent g(agent).\naction go.\n"
            "impossible f(A), !agent(A).\n"
            "constraint !agent(A) if g(A).\n"
            "impossible_exec go if !agent(a1).\n"
        )
        gp = base.ground
        # The first constraint never fires; the second rejects g(a1).
        assert [str(s) for s in enumerate_states(gp)] == ["{}", "{f(a1)}"]
        assert not satisfies_constraints(gp, make_state(gp, "g(a1)").mask)
        assert [str(a) for a in executable_actions(gp, make_state(gp))] == ["go"]


class TestExecutability:
    EXEC = (
        "sorts commander: c1.\nfluent suspended(commander).\n"
        "action go(commander).\naction wait(commander).\n"
        "impossible_exec go(C) if suspended(C).\n"
        "rule r1: permitted(go(C)).\n"
    )

    def test_blocked_when_condition_holds(self):
        base = base_from(self.EXEC)
        gp = base.ground
        blocked = make_state(gp, "suspended(c1)")
        assert [str(a) for a in executable_actions(gp, blocked)] == ["wait(c1)"]
        free = make_state(gp)
        assert [str(a) for a in executable_actions(gp, free)] == ["go(c1)", "wait(c1)"]

    def test_unconditional_block(self):
        base = base_from(
            "action go.\naction wait.\nimpossible_exec go.\nrule r1: permitted(wait).\n"
        )
        gp = base.ground
        assert [str(a) for a in executable_actions(gp, make_state(gp))] == ["wait"]


class TestLoadState:
    def test_valid_file(self, mission_strict):
        gp = mission_strict.ground
        text = (DATA / "colonel_authorized.state").read_text(encoding="utf-8")
        state, diags = load_state(gp, text)
        assert diags == []
        assert str(state) == "{colonel(c), authorized(c,m)}"

    def test_comments_and_blank_lines(self, mission_strict):
        state, diags = load_state(
            mission_strict.ground, "% header\n\ncolonel(c) % inline\n"
        )
        assert diags == []
        assert str(state) == "{colonel(c)}"

    def test_explicit_negatives_are_checked(self, mission_strict):
        state, diags = load_state(mission_strict.ground, "colonel(c)\n!colonel(c)\n")
        assert state is None
        assert any("both true and false" in d.message for d in diags)

    def test_consistent_negatives_are_documentation(self, mission_strict):
        state, diags = load_state(mission_strict.ground, "colonel(c)\n!observer(c)\n")
        assert diags == []
        assert str(state) == "{colonel(c)}"

    def test_unknown_atom(self, mission_strict):
        state, diags = load_state(mission_strict.ground, "ghost(c)\n")
        assert state is None
        assert any("line 1" in d.message and "not a state atom" in d.message for d in diags)

    def test_unparsable_line(self, mission_strict):
        state, diags = load_state(mission_strict.ground, "colonel(c\n")
        assert state is None
        assert any("line 1" in d.message for d in diags)

    def test_constraint_violation(self):
        base = base_from(CONSTRAINED)
        state, diags = load_state(base.ground, "colonel(c1)\nobserver(c1)\n")
        assert state is None
        assert any("violates a domain constraint" in d.message for d in diags)
