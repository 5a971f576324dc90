"""Concrete syntax: tokenizing, statement parsing, recovery, multi-file merge."""

import pytest

from aopl_lint import (
    Atom,
    Happening,
    HeadLiteral,
    Literal,
    Modality,
    PredicateKind,
    RuleKind,
    Severity,
    SourceFile,
    parse,
    parse_files,
    parse_ground_atom,
    parse_ground_literal,
)
import aopl_lint.parser as parser_module

from helpers import DATA

GOOD = """\
sorts agent: a1, a2.
static trained(agent).
fluent on_duty(agent).
action fire(agent).

rule r1: permitted(fire(A)) if trained(A).
text r1: "Trained agents may fire.".
rule r2: normally !permitted(fire(A)) if !on_duty(A).
rule r3: normally permitted(fire(A)) if agent(A).
rule o1: obl(-fire(A)) if !trained(A).
prefer p1: r3 > r2.
"""


def errors(result):
    return [d for d in result.diagnostics if d.severity is Severity.ERROR]


class TestGoodInput:
    def test_full_program(self):
        result = parse(GOOD)
        assert result.ok
        assert result.diagnostics == []
        assert [r.label for r in result.policy.rules] == ["r1", "r2", "r3", "o1", "p1"]
        assert [s.name for s in result.domain.sorts] == ["agent"]
        assert [p.kind for p in result.domain.predicates] == [
            PredicateKind.STATIC,
            PredicateKind.FLUENT,
            PredicateKind.ACTION,
        ]

    def test_rule_shapes(self):
        rules = parse(GOOD).policy.rule_map()
        assert rules["r1"].kind is RuleKind.STRICT
        assert rules["r1"].head == HeadLiteral(
            Modality.PERMITTED, Happening(Atom("fire", ("A",)), True), True
        )
        assert rules["r1"].text == "Trained agents may fire."
        assert rules["r2"].kind is RuleKind.DEFEASIBLE
        assert rules["r2"].head.positive is False
        assert rules["r2"].condition == (Literal(Atom("on_duty", ("A",)), False),)
        assert rules["o1"].head == HeadLiteral(
            Modality.OBL, Happening(Atom("fire", ("A",)), False), True
        )
        assert rules["p1"].preferred == "r3"
        assert rules["p1"].dispreferred == "r2"

    def test_empty_source(self):
        result = parse("")
        assert result.ok
        assert result.policy.rules == ()
        assert result.domain.sorts == ()

    def test_comments_and_whitespace(self):
        result = parse("% a comment line\naction go.  % trailing\n\nrule r1: permitted(go).\n")
        assert result.ok
        assert len(result.policy.rules) == 1

    def test_string_escapes(self):
        src = 'action go.\nrule r1: permitted(go).\ntext r1: "say \\"hi\\"\\n\\ttab\\\\".\n'
        result = parse(src)
        assert result.ok
        assert result.policy.rules[0].text == 'say "hi"\n\ttab\\'

    def test_where_clause(self):
        src = "sorts agent: a1.\naction go.\nrule r1: permitted(go) where A: agent.\n"
        result = parse(src)
        assert result.ok
        assert result.policy.rules[0].where == (("A", "agent"),)

    def test_constraints(self):
        src = (
            "sorts agent: a1.\nstatic boss(agent).\nfluent busy(agent).\naction go.\n"
            "impossible boss(A), busy(A).\n"
            "constraint !busy(A) if boss(A).\n"
            "impossible_exec go if busy(a1).\n"
        )
        result = parse(src)
        assert result.ok
        imp, cons = result.domain.state_constraints
        assert imp.head is None and len(imp.body) == 2
        assert cons.head == Literal(Atom("busy", ("A",)), False)
        exec_c = result.domain.exec_constraints[0]
        assert exec_c.action == Atom("go")
        assert exec_c.condition == (Literal(Atom("busy", ("a1",))),)

    def test_fixture_files_parse_clean(self):
        for name in ("mission_strict.aopl", "mission_defeasible.aopl", "mission_ambiguous.aopl"):
            result = parse_files(
                [SourceFile.load(str(DATA / "mission.dom")), SourceFile.load(str(DATA / name))]
            )
            assert result.ok, (name, [str(d) for d in result.diagnostics])


class TestBadInput:
    @pytest.mark.parametrize(
        "src,needle",
        [
            ("sorts agent a1.", "expected ':'"),
            ("action go(.", "expected a sort name"),
            ("rule r1 permitted(go).", "expected ':'"),
            ("rule r1: forbidden(go).", "expected permitted(...) or obl(...)"),
            ("rule r1: permitted(-go).", "permitted heads cannot negate the action"),
            ("text r1: missing.", "expected a quoted string"),
            ("junk go.", "unknown statement keyword 'junk'"),
            ("rule r1: permitted(go) where a: agent.", "expected a variable in where-clause"),
            ('text r1: "never closed.', "unterminated string"),
            ('action go. rule r1: permitted(go). text r1: "\\q".', "unknown string escape"),
            ("action go; rule r1: permitted(go).", "unexpected character ';'"),
        ],
    )
    def test_diagnostic(self, src, needle):
        result = parse(src)
        assert not result.ok
        assert result.policy is None and result.domain is None
        assert any(needle in d.message for d in errors(result))

    def test_one_diagnostic_per_bad_statement(self):
        src = (
            "action go.\n"
            "rule r1: permitted(go) if if.\n"
            "rule r2: permitted(go).\n"
            "sorts : broken.\n"
            "rule r3: permitted(go).\n"
        )
        result = parse(src)
        assert len(errors(result)) == 2
        # Statements after each bad one still parsed: their labels appear in
        # later duplicate-free validation, so reparse without the bad lines.
        good = parse("action go.\nrule r2: permitted(go).\nrule r3: permitted(go).\n")
        assert good.ok

    def test_diagnostics_carry_positions(self):
        result = parse("action go.\nrule r1: nope(go).\n")
        (diag,) = errors(result)
        assert diag.position is not None
        assert diag.position.line == 2

    def test_validation_diagnostics_get_rule_positions(self):
        result = parse("action go.\nrule r1: permitted(go) if ghost.\n")
        (diag,) = errors(result)
        assert diag.rule_label == "r1"
        assert diag.position is not None and diag.position.line == 2

    def test_text_for_unknown_rule(self):
        result = parse('action go.\ntext r9: "who?".\n')
        assert any("text statement names unknown rule r9" in d.message for d in errors(result))

    def test_duplicate_text(self):
        src = 'action go.\nrule r1: permitted(go).\ntext r1: "a".\ntext r1: "b".\n'
        result = parse(src)
        assert any("duplicate text statement for rule r1" in d.message for d in errors(result))

    def test_warnings_do_not_suppress_ast(self):
        src = (
            "action go.\n"
            "rule d1: normally permitted(go).\n"
            "rule d2: normally !permitted(go).\n"
            "prefer p1: d1 > d2.\nprefer p2: d2 > d1.\n"
        )
        result = parse(src)
        assert result.ok
        assert result.policy is not None
        assert [d.severity for d in result.diagnostics] == [Severity.WARNING]


class TestMultiFile:
    def test_split_across_files(self):
        dom = SourceFile("d.dom", "sorts agent: a1.\naction fire(agent).\n")
        pol = SourceFile("p.aopl", 'rule r1: permitted(fire(A)).\ntext r1: "ok".\n')
        result = parse_files([dom, pol])
        assert result.ok
        assert result.policy.rules[0].text == "ok"

    def test_text_resolves_across_files(self):
        first = SourceFile("a", "action go.\nrule r1: permitted(go).\n")
        second = SourceFile("b", 'text r1: "from elsewhere".\n')
        result = parse_files([first, second])
        assert result.ok
        assert result.policy.rules[0].text == "from elsewhere"

    def test_diagnostics_name_their_file(self):
        first = SourceFile("a.dom", "action go.\n")
        second = SourceFile("b.aopl", "rule r1 broken.\n")
        result = parse_files([first, second])
        assert any(d.message.startswith("b.aopl: ") for d in errors(result))

    def test_statements_come_back_as_six_per_kind_lists(self, monkeypatch):
        # The traced benchmark sums these lists to count statements.
        calls = []
        original = parser_module._parse_statements

        def recording(parser, diagnostics):
            calls.append(original(parser, diagnostics))
            return calls[-1]

        monkeypatch.setattr(parser_module, "_parse_statements", recording)
        sources = [SourceFile.load(str(DATA / name)) for name in ("shifts.dom", "shifts.aopl")]
        assert parse_files(sources).ok
        # sorts, predicates, state constraints, exec constraints, rules, texts
        assert [tuple(map(len, kinds)) for kinds in calls] == [
            (2, 3, 4, 1, 0, 0),
            (0, 0, 0, 0, 3, 3),
        ]
        assert sum(len(kind) for kinds in calls for kind in kinds) == 16

    def test_single_file_keeps_plain_messages(self):
        result = parse("rule r1 broken.\n")
        assert all(not d.message.startswith("<string>") for d in errors(result))


class TestFragments:
    def test_ground_atom(self):
        assert parse_ground_atom("fire(a1,m2)") == Atom("fire", ("a1", "m2"))
        assert parse_ground_atom("halt") == Atom("halt")

    def test_ground_literal(self):
        assert parse_ground_literal("!busy(a1)") == Literal(Atom("busy", ("a1",)), False)

    @pytest.mark.parametrize(
        "text",
        ["fire(A)", "fire(a1", "", "fire(a1) extra", "!x!"],
    )
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_ground_atom(text) if "!" not in text else parse_ground_literal(text)
