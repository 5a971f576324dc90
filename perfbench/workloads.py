"""Seeded generator for the sweep benchmark's workloads.

Each workload is a domain file, a policy file, optional pin literals and an
expected outcome.  The seed renames every constant and shuffles the order of
declarations, constants and rules; it never changes the amount of work, so
every seed of a workload sweeps the same number of states over a ground
policy of the same size.

The expected outcome is derived from the construction by hand, never by
running aopl-lint:

* ``states_examined`` in closed form;
* ``assignments``: the assignments enumeration visits before constraints;
* the ground sizes (rules, state atoms, action atoms);
* the set of distinct causes.  A cause is (kind, action predicate, sorted
  base rule labels, urgency, case).  It leaves out the ambiguity answer-set
  counts, so the set stays valid once findings are identified by cause.

Run ``python3 perfbench/workloads.py --workload NAME --seed N --out DIR`` to
write one workload's files without running anything.
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

# Sizes: one sweep takes 0.1-0.2 s on a quiet 2-vCPU Xeon box, so that a
# 30-second run collects 25-45 samples.  Each keeps its workload's property.
MISSION_STATES = (2, 1)  # commanders, missions: 2^(2C + 2CM) states
MISSION_WIDE = (5, 3)  # commanders, missions: 2^C states after pinning
AMBIGUITY_K = 6  # independent pairs: 2^k states, 3^k answer sets
SHIFT_WORKERS = 3  # workers over 3 shifts: 2^(4W) assignments, 7^W states


@dataclass
class Workload:
    name: str
    seed: int
    domain: str
    policy: str
    pins: list[str] = field(default_factory=list)
    expected: dict = field(default_factory=dict)

    def write(self, directory: Path) -> tuple[Path, Path]:
        """Write the sources and ``expected.json``; return the source paths."""
        directory.mkdir(parents=True, exist_ok=True)
        domain = directory / f"{self.name}.dom"
        policy = directory / f"{self.name}.aopl"
        domain.write_text(self.domain, encoding="utf-8")
        policy.write_text(self.policy, encoding="utf-8")
        (directory / "expected.json").write_text(
            json.dumps(self.expected, indent=2) + "\n", encoding="utf-8"
        )
        return domain, policy


def _cause(kind: str, action: str, labels: tuple[str, ...], urgency=None, case=None) -> list:
    return [kind, action, sorted(labels), urgency, case]


class _Names:
    """Seeded, collision-free constant names."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()

    def make(self, prefix: str, count: int) -> list[str]:
        out = []
        while len(out) < count:
            name = f"{prefix}{self.rng.randrange(1000, 10000)}"
            if name not in self.used:
                self.used.add(name)
                out.append(name)
        return out


def _rules(rng: random.Random, rules: list[tuple[str, str, str]]) -> str:
    """Policy text: (label, rule body, source text) blocks in seeded order."""
    blocks = [
        f"rule {label}: {body}.\ntext {label}: \"{text}\".\n"
        for label, body, text in rules
    ]
    rng.shuffle(blocks)
    return "".join(blocks)


def _domain(
    rng: random.Random,
    sorts: dict[str, list[str]],
    predicates: list[str],
    constraints: list[str] = (),
) -> str:
    sort_lines = []
    for sort, members in sorts.items():
        members = list(members)
        rng.shuffle(members)
        sort_lines.append(f"sorts {sort}: {', '.join(members)}.\n")
    rng.shuffle(sort_lines)
    predicates = [f"{p}.\n" for p in predicates]
    rng.shuffle(predicates)
    constraints = [f"{c}.\n" for c in constraints]
    rng.shuffle(constraints)
    return "".join(sort_lines + predicates + constraints)


def _mission(rng: random.Random, commanders: int, missions: int) -> tuple[str, str, list[str], list[str]]:
    names = _Names(rng)
    cs = names.make("k", commanders)
    ms = names.make("m", missions)
    domain = _domain(
        rng,
        {"commander": cs, "mission": ms},
        [
            "static colonel(commander)",
            "static observer(commander)",
            "fluent authorized(commander, mission)",
            "fluent ordered_by_superior(commander, mission)",
            "action assume_comm(commander, mission)",
            "action authorize_comm(commander, mission)",
        ],
    )
    policy = _rules(
        rng,
        [
            ("s1", "!permitted(assume_comm(C,M)) if authorized(C,M)",
             "A military officer is not allowed to command a mission they authorized."),
            ("s2", "permitted(assume_comm(C,M)) if colonel(C)",
             "A colonel is allowed to command a mission they authorized."),
            ("d1", "normally permitted(authorize_comm(C,M)) if colonel(C)",
             "A colonel is normally allowed to authorize a mission."),
            ("d2", "normally !permitted(authorize_comm(C,M)) if observer(C)",
             "An observer is normally not allowed to authorize a mission."),
            ("o1", "obl(assume_comm(C,M)) if ordered_by_superior(C,M)",
             "A military officer must command a mission if ordered by their superior to do so."),
        ],
    )
    return domain, policy, cs, ms


def _mission_sizes(c: int, m: int) -> dict:
    return {"ground_rules": 5 * c * m, "state_atoms": 2 * c + 2 * c * m, "action_atoms": 2 * c * m}


def mission_states(seed: int) -> Workload:
    """Every assignment of the mission policy is a state.

    Causes: s1/s2 contradict on assume_comm when a colonel authorized the
    mission; o1 meets s1 (urgency 1) or open permission (urgency 3);
    assume_comm is underspecified when neither s1 nor s2 applies;
    authorize_comm is underspecified when neither d1 nor d2 applies and
    ambiguous when both do.
    """
    c, m = MISSION_STATES
    rng = random.Random(f"mission_states:{seed}")
    domain, policy, _, _ = _mission(rng, c, m)
    atoms = 2 * c + 2 * c * m
    return Workload(
        name="mission_states",
        seed=seed,
        domain=domain,
        policy=policy,
        expected={
            "states_examined": 2**atoms,
            "assignments": 2**atoms,
            **_mission_sizes(c, m),
            "causes": [
                _cause("inconsistency", "assume_comm", ("s1", "s2")),
                _cause("modality_conflict", "assume_comm", ("o1", "s1"), urgency=1),
                _cause("modality_conflict", "assume_comm", ("o1",), urgency=3),
                _cause("underspecified", "assume_comm", ("s1", "s2"), case=2),
                _cause("underspecified", "authorize_comm", ("d1", "d2"), case=2),
                _cause("ambiguity", "authorize_comm", ("d1", "d2")),
            ],
        },
    )


def mission_wide(seed: int) -> Workload:
    """The mission policy over many constants with only colonel(C) free.

    authorized and ordered_by_superior are pinned true and observer false,
    so s1 and o1 fire everywhere and d2 nowhere: s2/s1 contradict for
    colonels, o1 meets s1 (urgency 1) always, and authorize_comm is
    underspecified for non-colonels.  One answer set per state.
    """
    c, m = MISSION_WIDE
    rng = random.Random(f"mission_wide:{seed}")
    domain, policy, cs, ms = _mission(rng, c, m)
    pins = [f"!observer({k})" for k in cs]
    for k in cs:
        for mission in ms:
            pins.append(f"authorized({k},{mission})")
            pins.append(f"ordered_by_superior({k},{mission})")
    rng.shuffle(pins)
    return Workload(
        name="mission_wide",
        seed=seed,
        domain=domain,
        policy=policy,
        pins=pins,
        expected={
            "states_examined": 2**c,
            "assignments": 2**c,
            **_mission_sizes(c, m),
            "causes": [
                _cause("inconsistency", "assume_comm", ("s1", "s2")),
                _cause("modality_conflict", "assume_comm", ("o1", "s1"), urgency=1),
                _cause("underspecified", "authorize_comm", ("d1", "d2"), case=2),
            ],
        },
    )


def ambiguity_fanout(seed: int) -> Workload:
    """k items, each with an unpreferred defeasible pair under flagged(X).

    A state with j flagged items has 2^j answer sets; summed over all states
    that is 3^k.  Flagged items are ambiguous, the others underspecified.
    """
    k = AMBIGUITY_K
    rng = random.Random(f"ambiguity_fanout:{seed}")
    items = _Names(rng).make("x", k)
    domain = _domain(rng, {"item": items}, ["fluent flagged(item)", "action act(item)"])
    policy = _rules(
        rng,
        [
            ("a1", "normally permitted(act(X)) if flagged(X)",
             "A flagged item may normally be acted on."),
            ("a2", "normally !permitted(act(X)) if flagged(X)",
             "A flagged item may normally not be acted on."),
        ],
    )
    return Workload(
        name="ambiguity_fanout",
        seed=seed,
        domain=domain,
        policy=policy,
        expected={
            "states_examined": 2**k,
            "assignments": 2**k,
            "ground_rules": 2 * k,
            "state_atoms": k,
            "action_atoms": k,
            "causes": [
                _cause("ambiguity", "act", ("a1", "a2")),
                _cause("underspecified", "act", ("a1", "a2"), case=2),
            ],
        },
    )


def constrained_shifts(seed: int) -> Workload:
    """W workers, three shifts, and state constraints that reject most states.

    Per worker, four atoms give 16 assignments; at most one shift and
    night-implies-trained leave 7 (no shift, day, eve each trained or not,
    night trained).  operate is not executable on the eve shift.  Causes:
    r1/r2 contradict on night duty, operate is underspecified for an
    untrained worker off night duty, and r3 obliges an untrained day worker
    to operate without permission (urgency 3).
    """
    w = SHIFT_WORKERS
    rng = random.Random(f"constrained_shifts:{seed}")
    names = _Names(rng)
    workers = names.make("w", w)
    day, eve, night = names.make("s", 3)
    domain = _domain(
        rng,
        {"worker": workers, "shift": [day, eve, night]},
        ["static trained(worker)", "fluent on_duty(worker, shift)", "action operate(worker)"],
        [
            f"impossible on_duty(W, {day}), on_duty(W, {eve})",
            f"impossible on_duty(W, {day}), on_duty(W, {night})",
            f"impossible on_duty(W, {eve}), on_duty(W, {night})",
            f"constraint trained(W) if on_duty(W, {night})",
            f"impossible_exec operate(W) if on_duty(W, {eve})",
        ],
    )
    policy = _rules(
        rng,
        [
            ("r1", "permitted(operate(W)) if trained(W)",
             "Trained workers may operate the machine."),
            ("r2", f"!permitted(operate(W)) if on_duty(W, {night})",
             "Nobody may operate the machine on the night shift."),
            ("r3", f"obl(operate(W)) if on_duty(W, {day})",
             "Day-shift workers must operate the machine."),
        ],
    )
    return Workload(
        name="constrained_shifts",
        seed=seed,
        domain=domain,
        policy=policy,
        expected={
            "states_examined": 7**w,
            "assignments": 2 ** (4 * w),
            "ground_rules": 3 * w,
            "state_atoms": 4 * w,
            "action_atoms": w,
            "causes": [
                _cause("inconsistency", "operate", ("r1", "r2")),
                _cause("underspecified", "operate", ("r1", "r2"), case=2),
                _cause("modality_conflict", "operate", ("r3",), urgency=3),
            ],
        },
    )


GENERATORS = {
    "mission_states": mission_states,
    "mission_wide": mission_wide,
    "ambiguity_fanout": ambiguity_fanout,
    "constrained_shifts": constrained_shifts,
}


def generate(name: str, seed: int) -> Workload:
    workload = GENERATORS[name](seed)
    workload.expected = {
        "workload": name,
        "seed": seed,
        "pins": workload.pins,
        "exit_code": 1,
        **workload.expected,
    }
    return workload


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(GENERATORS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    generate(args.workload, args.seed).write(args.out)


if __name__ == "__main__":
    main()
