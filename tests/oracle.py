"""Brute-force stable-model oracle: the test suite's reference for the engine.

The oracle knows nothing about the engine's grouping shortcut.  It grounds
the reified program into plain rules over opaque atoms and runs textbook
guess-and-check: enumerate truth assignments for the atoms that occur under
negation, build the reduct, take its least model, and keep the assignments
the least model reproduces.  Exponential in the number of negated atoms, so
callers get a hard size guard instead of an open-ended run.
"""

from __future__ import annotations

from itertools import combinations

from aopl_lint.engine import WorldState
from aopl_lint.grounding import GroundPolicy
from aopl_lint.model import HeadLiteral, Literal, RuleKind
from aopl_lint.reify import ReifiedBase

from reference import AnswerSet

# An atom is any hashable tuple; a rule is (head, positive body, negative body).
Atom_ = tuple
Rule_ = tuple[Atom_, tuple[Atom_, ...], tuple[Atom_, ...]]


class OracleSizeError(Exception):
    """Raised when the guess space exceeds the configured bound."""


def _dedupe(atoms: tuple[Atom_, ...]) -> tuple[Atom_, ...]:
    return tuple(dict.fromkeys(atoms))


def _least_model(rules: list[tuple[Atom_, tuple[Atom_, ...]]]) -> set[Atom_]:
    """Least model of a definite program, by counting satisfied premises."""
    remaining = []
    watchers: dict[Atom_, list[int]] = {}
    queue: list[Atom_] = []
    for idx, (head, pos) in enumerate(rules):
        remaining.append(len(pos))
        if not pos:
            queue.append(head)
        for atom in pos:
            watchers.setdefault(atom, []).append(idx)

    true: set[Atom_] = set()
    while queue:
        atom = queue.pop()
        if atom in true:
            continue
        true.add(atom)
        for idx in watchers.get(atom, ()):
            remaining[idx] -= 1
            if remaining[idx] == 0:
                queue.append(rules[idx][0])
    return true


def stable_models(program: list[Rule_], max_guess_atoms: int = 18) -> list[frozenset[Atom_]]:
    """All stable models of a ground normal program.

    Only atoms that occur under negation and are derivable at all need
    guessing; everything else follows from the reduct's least model.
    """
    positive_part = [(head, _dedupe(pos)) for head, pos, _ in program]
    derivable = _least_model(positive_part)

    guessable = sorted(
        {atom for _, _, neg in program for atom in neg if atom in derivable},
        key=repr,
    )
    if len(guessable) > max_guess_atoms:
        raise OracleSizeError(
            f"{len(guessable)} negated atoms exceed the oracle bound of {max_guess_atoms}"
        )

    models: list[frozenset[Atom_]] = []
    for size in range(len(guessable) + 1):
        for chosen in combinations(guessable, size):
            guess = set(chosen)
            reduct = [
                (head, _dedupe(pos))
                for head, pos, neg in program
                if not guess.intersection(neg)
            ]
            model = _least_model(reduct)
            if {atom for atom in guessable if atom in model} == guess:
                models.append(frozenset(model))
    return models


def _holds(term: Atom_) -> Atom_:
    return ("holds", term)


def _reified_program(base: ReifiedBase, state: WorldState) -> list[Rule_]:
    """Ground instantiation of the policy-independent rules over the fact base."""
    program: list[Rule_] = []

    def fact(atom: Atom_) -> None:
        program.append((atom, (), ()))

    rules = base.ground.rules
    heads = {rule.label: rule.head for rule in rules if rule.head is not None}
    prefers = [
        (rule.preferred, rule.dispreferred) for rule in rules if rule.kind is RuleKind.PREFERENCE
    ]
    for rule in rules:
        fact(("rule_fact", rule.label))
        fact(("type_fact", rule.label, rule.kind))
        for member in rule.condition:
            fact(("mbr_fact", rule.label, member))
    for label, head in heads.items():
        fact(("head_fact", label, head))
    for stronger, weaker in prefers:
        fact(("prefer_fact", stronger, weaker))
    for lit in state.literals():
        fact(_holds(("lit", lit)))
    for atom in base.ground.sort_facts:
        fact(_holds(("lit", Literal(atom, True))))

    for rule in rules:
        label = rule.label
        program.append((("body_fact", label), (("rule_fact", label),), ()))
        members = tuple(_holds(("lit", m)) for m in rule.condition)
        program.append((_holds(("body", label)), (("body_fact", label),) + members, ()))

        kind = rule.kind
        if kind is RuleKind.STRICT:
            program.append(
                (
                    _holds(("rule", label)),
                    (("type_fact", label, kind), _holds(("body", label))),
                    (),
                )
            )
        elif kind is RuleKind.DEFEASIBLE:
            opposite = rule.head.opposite()
            program.append(
                (("opp_fact", label, opposite), (("head_fact", label, rule.head),), ())
            )
            program.append(
                (
                    _holds(("rule", label)),
                    (
                        ("type_fact", label, kind),
                        _holds(("body", label)),
                        ("opp_fact", label, opposite),
                    ),
                    (_holds(("hd", opposite)), _holds(("ab", label))),
                )
            )

    for stronger, weaker in prefers:
        program.append(
            (
                _holds(("ab", weaker)),
                (("prefer_fact", stronger, weaker), _holds(("body", stronger))),
                (),
            )
        )

    for label, head in heads.items():
        program.append(
            (
                _holds(("hd", head)),
                (("rule_fact", label), _holds(("rule", label)), ("head_fact", label, head)),
                (),
            )
        )

    return program


def oracle_answer_sets(
    base: ReifiedBase, state: WorldState, max_guess_atoms: int = 18
) -> list[AnswerSet]:
    """Answer sets of the reified policy, computed by guess-and-check."""
    program = _reified_program(base, state)
    models: list[AnswerSet] = []
    for flat in stable_models(program, max_guess_atoms=max_guess_atoms):
        state_literals: set[Literal] = set()
        satisfied: set[str] = set()
        fired: set[str] = set()
        heads: set[HeadLiteral] = set()
        ab_rules: set[str] = set()
        for atom in flat:
            if atom[0] != "holds":
                continue
            tag, payload = atom[1][0], atom[1][1]
            if tag == "lit":
                state_literals.add(payload)
            elif tag == "body":
                satisfied.add(payload)
            elif tag == "rule":
                fired.add(payload)
            elif tag == "hd":
                heads.add(payload)
            elif tag == "ab":
                ab_rules.add(payload)
        models.append(
            AnswerSet(
                state_literals=frozenset(state_literals),
                satisfied_bodies=frozenset(satisfied),
                fired_rules=frozenset(fired),
                heads=frozenset(heads),
                ab_rules=frozenset(ab_rules),
            )
        )
    models.sort(key=AnswerSet.sort_key)
    return models


def direct_program_models(
    gp: GroundPolicy, state: WorldState, max_guess_atoms: int = 18
) -> list[frozenset[HeadLiteral]]:
    """Deontic conclusions of the policy compiled rule-for-rule, not reified.

    Classical negation is handled by atomizing each signed literal, which
    matches how the reified translation treats complementary heads.  Used to
    check that reification preserves the policy's conclusions.
    """
    rule_map = gp.rule_map()
    program: list[Rule_] = []
    for lit in state.literals():
        program.append((("lit", lit), (), ()))
    for atom in gp.sort_facts:
        program.append((("lit", Literal(atom, True)), (), ()))

    for rule in gp.rules:
        if rule.kind is RuleKind.PREFERENCE:
            stronger = rule_map[rule.preferred]
            body = tuple(("lit", m) for m in stronger.condition)
            program.append((("ab", rule.dispreferred), body, ()))
            continue
        body = tuple(("lit", m) for m in rule.condition)
        if rule.kind is RuleKind.STRICT:
            program.append((("hd", rule.head), body, ()))
        else:
            negatives = (("ab", rule.label), ("hd", rule.head.opposite()))
            program.append((("hd", rule.head), body, negatives))

    projections = [
        frozenset(atom[1] for atom in model if atom[0] == "hd")
        for model in stable_models(program, max_guess_atoms=max_guess_atoms)
    ]
    projections.sort(key=lambda heads: tuple(sorted(map(str, heads))))
    return projections
