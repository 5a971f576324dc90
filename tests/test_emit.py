"""Solver-ready text output: golden files, determinism, escaping, and the
meaning of the ``lp`` and ``rei`` programs."""

import pytest
from hypothesis import assume, given, reject, settings

from aopl_lint import HeadLiteral, emit_asp, enumerate_states, ground, reify
from aopl_lint.emit import POLICY_INDEPENDENT_RULES, mangle_label

from corpus import corpus
from helpers import DATA, base_from, make_state
from oracle import OracleSizeError, stable_models
from reference import answer_sets
from strategies import domain_and_policy

GOLDEN = DATA / "golden"


def golden(name):
    return (GOLDEN / name).read_text(encoding="utf-8")


class TestGoldens:
    def test_defeasible_lp(self, mission_defeasible):
        assert emit_asp(mission_defeasible, variant="lp") == golden("mission_defeasible.lp.golden")

    def test_defeasible_rei(self, mission_defeasible):
        assert emit_asp(mission_defeasible, variant="rei") == golden(
            "mission_defeasible.rei.golden"
        )

    def test_strict_with_state_rei(self, mission_strict):
        state = make_state(mission_strict.ground, "colonel(c)", "authorized(c,m)")
        assert emit_asp(mission_strict, variant="rei", state=state) == golden(
            "mission_strict_state.rei.golden"
        )

    def test_emission_is_deterministic(self, mission_defeasible):
        runs = {emit_asp(mission_defeasible, variant="rei") for _ in range(3)}
        assert len(runs) == 1


class TestStructure:
    def test_rules_sorted_by_label_with_comments(self, mission_defeasible):
        text = emit_asp(mission_defeasible, variant="rei")
        comment_lines = [l for l in text.splitlines() if l.startswith("% ") and "[" in l]
        assert comment_lines == ["% d1[c,m]", "% d2[c,m]", "% o1[c,m]", "% p1[c,m]", "% s3[c,m]"]

    def test_rei_contains_the_fixed_block_verbatim(self, mission_defeasible):
        assert POLICY_INDEPENDENT_RULES.rstrip("\n") in emit_asp(mission_defeasible)

    def test_lp_never_contains_reified_predicates(self, mission_defeasible):
        text = emit_asp(mission_defeasible, variant="lp")
        body = "\n".join(l for l in text.splitlines() if not l.startswith("%"))
        for token in ("rule(", "type(", "mbr(", "head(", "holds("):
            assert token not in body

    def test_state_section_lp_uses_classical_negation(self, mission_strict):
        state = make_state(mission_strict.ground, "colonel(c)")
        text = emit_asp(mission_strict, variant="lp", state=state)
        assert "colonel(c).\n" in text
        assert "-observer(c).\n" in text
        assert "-authorized(c,m).\n" in text

    def test_state_section_rei_wraps_in_holds(self, mission_strict):
        state = make_state(mission_strict.ground, "colonel(c)")
        text = emit_asp(mission_strict, variant="rei", state=state)
        assert "holds(colonel(c)).\n" in text
        assert "holds(neg(observer(c))).\n" in text

    def test_sort_facts_join_the_state_section(self):
        base = base_from(
            "sorts agent: a1.\nfluent f.\naction go(agent).\n"
            "rule r1: permitted(go(A)) if agent(A), f.\n"
        )
        state = make_state(base.ground, "f")
        text = emit_asp(base, variant="rei", state=state)
        assert "holds(agent(a1)).\n" in text

    def test_empty_policy_is_header_only(self):
        base = base_from("")
        assert emit_asp(base, variant="lp") == "% lp program for 0 ground rule(s)\n"

    def test_unknown_variant_raises(self, mission_strict):
        with pytest.raises(ValueError, match="unknown emission variant"):
            emit_asp(mission_strict, variant="smt")


class TestTerms:
    @pytest.mark.parametrize(
        "label,expected",
        [
            ("d1[c,m]", "d1(c,m)"),
            ("d1[c]", "d1(c)"),
            ("d1", "d1"),
            ("p1[c1,m2]", "p1(c1,m2)"),
        ],
    )
    def test_mangle_label(self, label, expected):
        assert mangle_label(label) == expected

    def test_negative_obligation_head_terms(self):
        base = base_from("action go.\nrule r1: obl(-go).\nrule r2: !obl(go).\n")
        text = emit_asp(base, variant="rei")
        assert "head(r1, obl(neg(go))).\n" in text
        assert "head(r2, neg(obl(go))).\n" in text
        lp = emit_asp(base, variant="lp")
        assert "obl(neg(go)).\n" in lp
        assert "-obl(go).\n" in lp

    def test_text_strings_are_escaped(self):
        base = base_from('action go.\nrule r1: permitted(go).\ntext r1: "say \\"hi\\"\\nplease".\n')
        text = emit_asp(base, variant="rei")
        assert 'text(r1, "say \\"hi\\"\\nplease").' in text


def _split_top_level(body: str) -> list[str]:
    """``body`` split at the commas outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and depth == 0:
            parts.append(body[start:i].strip())
            start = i + 1
    return parts + [body[start:].strip()] if body else parts


def lp_rules(program: str) -> list[tuple[str, tuple[str, ...], tuple[str, ...]]]:
    """An ``lp`` program read back as (head, positive body, negative body) per
    rule, over opaque atoms: ``-x`` is an atom of its own."""
    rules = []
    for line in program.splitlines():
        if not line or line.startswith("%"):
            continue
        assert line.endswith("."), line
        head, _, body = line[:-1].partition(" :- ")
        parts = _split_top_level(body)
        positive = tuple(part for part in parts if not part.startswith("not "))
        negative = tuple(part[len("not ") :] for part in parts if part.startswith("not "))
        rules.append((head, positive, negative))
    return rules


def lp_head(head) -> str:
    """A deontic head as the ``lp`` variant spells it."""
    action = str(head.happening.action)
    term = f"{head.modality.value}({action if head.happening.positive else f'neg({action})'})"
    return term if head.positive else f"-{term}"


def consistent(atoms) -> bool:
    return not any(f"-{atom}" in atoms for atom in atoms)


def assert_lp_means_the_engine(base, max_guess_atoms=18):
    """In every state, the deontic atoms of each answer set of the emitted
    ``lp`` program are the heads of one of the engine's answer sets.

    ``lp`` reads ``-`` as classical negation, so no answer set holds both ``x``
    and ``-x``; the oracle treats ``-x`` as an opaque atom, so such models are
    dropped, and so are the engine's models that hold a complementary head
    pair (its reified form keeps them, as ``rei``'s ``neg(..)`` terms do).
    """
    for state in enumerate_states(base.ground):
        program = lp_rules(emit_asp(base, "lp", state))
        emitted = sorted(
            sorted(atom for atom in model if atom.lstrip("-").startswith(("permitted(", "obl(")))
            for model in stable_models(program, max_guess_atoms=max_guess_atoms)
            if consistent(model)
        )
        engine = sorted(
            heads
            for model in answer_sets(base, state)
            if consistent(heads := sorted(map(lp_head, model.heads)))
        )
        assert emitted == engine, str(state)


class TestLpMeaning:
    def test_the_reader_splits_bodies_at_top_level_commas(self):
        program = "% r\nobl(neg(go(a,b))) :- f(a,b), -g, not ab(r(a,b)), not -obl(neg(go(a,b))).\nf(a,b).\n"
        assert lp_rules(program) == [
            ("obl(neg(go(a,b)))", ("f(a,b)", "-g"), ("ab(r(a,b))", "-obl(neg(go(a,b)))")),
            ("f(a,b)", (), ()),
        ]

    @pytest.mark.parametrize("fixture", ["mission_strict", "mission_defeasible", "mission_ambiguous"])
    def test_on_the_mission_fixtures(self, fixture, request):
        assert_lp_means_the_engine(request.getfixturevalue(fixture))

    def test_on_the_corpus(self):
        for policy, domain in corpus():
            assert_lp_means_the_engine(reify(ground(policy, domain)))

    @given(domain_and_policy())
    @settings(max_examples=200, deadline=None)
    def test_on_generated_policies(self, pair):
        base = reify(ground(*pair))
        # The guess-and-check oracle is exponential in the ground policy.
        assume(len(base.ground.state_atoms) <= 4 and len(base.ground.rules) <= 24)
        try:
            assert_lp_means_the_engine(base, max_guess_atoms=12)
        except OracleSizeError:
            reject()


def _unwrap(term: str, functor: str) -> str | None:
    """The argument of ``functor(..)`` when ``term`` is one, else None."""
    if term.startswith(f"{functor}(") and term.endswith(")"):
        return term[len(functor) + 1 : -1]
    return None


def rei_read(program: str) -> tuple[list[tuple[str, ...]], list[str]]:
    """An ``rei`` program read back as its facts, each (predicate, argument
    terms...), and the lines of its policy-independent block.  ``text`` facts
    are left out: no evaluation rule reads them."""
    facts, block, in_block = [], [], False
    for line in program.splitlines():
        if line == "% policy-independent evaluation rules":
            in_block = True
        elif in_block:
            in_block = bool(line)  # a blank line ends the block
            block += [line] if line else []
        elif line and not line.startswith(("%", "text(")):
            assert line.endswith(")."), line
            name, _, args = line[:-2].partition("(")
            assert name in ("rule", "type", "head", "mbr", "prefer", "holds"), line
            facts.append((name, *_split_top_level(args)))
    return facts, block


def _facts(facts, name):
    return [fact[1:] for fact in facts if fact[0] == name]


# ``emit.POLICY_INDEPENDENT_RULES`` instantiated by hand: one function per
# line, whose docstring is that line, gives the line's instances as (head,
# positive body, negative body) over the facts that can match its first body
# atom.


def _body_terms(facts):
    """body(R, b(R)) :- rule(R)."""
    for (r,) in _facts(facts, "rule"):
        yield ("body", r, f"b({r})"), (("rule", r),), ()


def _strict(facts):
    """holds(R) :- type(R, strict), holds(b(R))."""
    for r, kind in _facts(facts, "type"):
        if kind == "strict":
            yield ("holds", r), (("type", r, kind), ("holds", f"b({r})")), ()


def _defeasible(facts):
    """holds(R) :- type(R, defeasible), holds(b(R)), opp(R, O), not holds(O), not holds(ab(R))."""
    opposites = [head for opp in _OPPOSITES for head, _, _ in opp(facts)]
    for r, kind in _facts(facts, "type"):
        if kind == "defeasible":
            for _, _, o in (atom for atom in opposites if atom[1] == r):
                yield (
                    ("holds", r),
                    (("type", r, kind), ("holds", f"b({r})"), ("opp", r, o)),
                    (("holds", o), ("holds", f"ab({r})")),
                )


def _every_member(facts):
    """holds(B) :- body(R, B), N = #count{ L : mbr(B, L) }, N = #count{ L : mbr(B, L), holds(L) }."""
    # The two counts agree when every member holds.
    members = {}
    for b, lit in _facts(facts, "mbr"):
        members.setdefault(b, []).append(("holds", lit))
    for (r,) in _facts(facts, "rule"):
        b = f"b({r})"
        yield ("holds", b), (("body", r, b), *members.get(b, ())), ()


def _defeat(facts):
    """holds(ab(R2)) :- prefer(R1, R2), holds(b(R1))."""
    for r1, r2 in _facts(facts, "prefer"):
        yield ("holds", f"ab({r2})"), (("prefer", r1, r2), ("holds", f"b({r1})")), ()


def _head_holds(facts):
    """holds(H) :- rule(R), holds(R), head(R, H)."""
    for r, h in _facts(facts, "head"):
        yield ("holds", h), (("rule", r), ("holds", r), ("head", r, h)), ()


def _opposite(modality: str, var: str, negated: bool):
    """The ``opp`` rule from a ``modality`` head that is ``negated`` or not."""
    term = f"{modality}({var})"

    def instantiate(facts):
        for r, h in _facts(facts, "head"):
            inner = _unwrap(h, "neg") if negated else h
            if inner is not None and _unwrap(inner, modality) is not None:
                yield ("opp", r, inner if negated else f"neg({h})"), (("head", r, h),), ()

    instantiate.__doc__ = (
        f"opp(R, {term}) :- head(R, neg({term}))." if negated
        else f"opp(R, neg({term})) :- head(R, {term})."
    )
    return instantiate


_OPPOSITES = [
    _opposite("permitted", "E", True), _opposite("permitted", "E", False),
    _opposite("obl", "H", True), _opposite("obl", "H", False),
]
META_RULES = [_body_terms, _strict, _defeasible, _every_member, _defeat, _head_holds, *_OPPOSITES]


def rei_term(lit) -> str:
    """A state literal or deontic head as ``rei`` writes it: ``neg(..)`` for negation."""
    if isinstance(lit, HeadLiteral):
        action = str(lit.happening.action)
        term = f"{lit.modality.value}({action if lit.happening.positive else f'neg({action})'})"
    else:
        term = str(lit.atom)
    return term if lit.positive else f"neg({term})"


def rei_holds(model) -> list[str]:
    """The terms an engine answer set holds, as ``rei`` spells them."""
    return sorted(
        [rei_term(lit) for lit in model.state_literals]
        + [f"b({mangle_label(label)})" for label in model.satisfied_bodies]
        + [mangle_label(label) for label in model.fired_rules]
        + [rei_term(head) for head in model.heads]
        + [f"ab({mangle_label(label)})" for label in model.ab_rules]
    )


def assert_rei_means_the_engine(base, max_guess_atoms=18):
    """In every state, the ``holds`` atoms of the answer sets of the emitted
    ``rei`` program are those of the engine's answer sets.

    ``neg(..)`` is a term like any other, so a model may hold both ``x`` and
    ``neg(x)``, as the engine's reified form does: no model is dropped.
    """
    for state in enumerate_states(base.ground):
        facts, block = rei_read(emit_asp(base, "rei", state))
        assert block == ([rule.__doc__ for rule in META_RULES] if base.ground.rules else [])
        program = [(fact, (), ()) for fact in facts]
        program += [instance for rule in META_RULES for instance in rule(facts)]
        emitted = sorted(
            sorted(atom[1] for atom in model if atom[0] == "holds")
            for model in stable_models(program, max_guess_atoms=max_guess_atoms)
        )
        assert emitted == sorted(map(rei_holds, answer_sets(base, state))), str(state)


class TestReiMeaning:
    def test_the_hand_instantiation_mirrors_the_emitted_block(self):
        assert [rule.__doc__ for rule in META_RULES] == POLICY_INDEPENDENT_RULES.splitlines()

    def test_the_reader_keeps_facts_and_the_block(self):
        base = base_from(
            "sorts s: a.\nfluent f(s).\naction go(s).\n"
            "rule d1: normally !obl(-go(X)) if f(X), s(X).\ntext d1: \"x, (y)\".\n"
        )
        facts, block = rei_read(emit_asp(base, "rei", make_state(base.ground)))
        assert facts == [
            ("rule", "d1(a)"),
            ("type", "d1(a)", "defeasible"),
            ("head", "d1(a)", "neg(obl(neg(go(a))))"),
            ("mbr", "b(d1(a))", "f(a)"),
            ("mbr", "b(d1(a))", "s(a)"),
            ("holds", "neg(f(a))"),
            ("holds", "s(a)"),
        ]
        assert block == POLICY_INDEPENDENT_RULES.splitlines()

    @pytest.mark.parametrize("fixture", ["mission_strict", "mission_defeasible", "mission_ambiguous"])
    def test_on_the_mission_fixtures(self, fixture, request):
        assert_rei_means_the_engine(request.getfixturevalue(fixture))

    def test_on_the_corpus(self):
        for policy, domain in corpus():
            assert_rei_means_the_engine(reify(ground(policy, domain)))

    @given(domain_and_policy())
    @settings(max_examples=200, deadline=None)
    def test_on_generated_policies(self, pair):
        base = reify(ground(*pair))
        # The guess-and-check oracle is exponential in the ground policy.
        assume(len(base.ground.state_atoms) <= 4 and len(base.ground.rules) <= 24)
        try:
            assert_rei_means_the_engine(base, max_guess_atoms=12)
        except OracleSizeError:
            reject()
