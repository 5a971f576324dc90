"""Concrete syntax: tokenizing, statement parsing, recovery, multi-file merge."""

import re
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

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
from aopl_lint.one_state import load_state
from aopl_lint.states import parse_pins
import aopl_lint.parser as parser_module
import reference

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

    def test_a_file_keeps_its_first_hundred_parse_errors(self):
        messages = lambda src: [str(d) for d in parse(src).diagnostics]
        semicolons = lambda n: [f"error: 1:{c}: unexpected character ';'" for c in range(1, n + 1)]
        assert messages(";" * 100) == semicolons(100)
        # The tokenizer reports first, so the parser's first error is the
        # 100th and its second is only counted; validation errors are kept.
        assert messages(";" * 99 + " . . rule r1: permitted(ghost).") == [
            "error: 1:101: expected a statement keyword",
            *semicolons(99),
            "error: 1:105: rule r1: head action ghost is not a declared action",
            "error: <string>: 1 more parse errors not shown",
        ]

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

    def test_canonical_pins_and_state_lines_skip_the_tokenizer(self, mission_strict, monkeypatch):
        calls = []
        tokenize = parser_module._tokenize

        def counting(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(parser_module, "_tokenize", counting)
        parse_pins(["colonel(c)", "!observer(c)", "authorized(c,m)", "_x(y1,z_2)"])
        parse_ground_atom("assume_comm(c,m)")
        state, diags = load_state(mission_strict.ground, "colonel(c)\n!observer(c) % doc\n")
        assert diags == [] and str(state) == "{colonel(c)}"
        assert calls == []
        parse_pins(["colonel( c )"])  # any other spelling goes through the tokens
        assert calls == ["colonel( c )"]


# Pieces of fragment text: canonical atoms and literals, signs, word starts
# that are upper-case, ``_``, non-ASCII letters (``ǅ`` is title-case, not
# upper-case) and digits that are not (``²``, ``Ⅷ``) or are (``٣``) decimals,
# a space that is not ASCII, comments, empty and bare-comma argument lists and
# trailing junk.
_FRAGMENT_PIECES = [
    "colonel(c)", "!observer(k1)", "fire(a1,m2)", "halt", "!", "-", "X", "Var", "_", "_k",
    "x1", "a", "é", "ǅ", "²", "٣", "Ⅷ", "\xa0", " ", "\t", "% c", "(", ")", ",", "()",
    "(,)", ".", ";", "junk",
]
_WORDS = st.sampled_from(["a", "x1", "_", "_k", "X", "Var", "é", "bé", "ǅ", "²a", "b٣", "٣", "Ⅷ", "1", ""])


@st.composite
def _fragments(draw):
    """Piece soup, or the canonical shape ``!?name(w1,...,wn)`` over odd words."""
    if draw(st.booleans()):
        return "".join(draw(st.lists(st.sampled_from(_FRAGMENT_PIECES), max_size=6)))
    text = draw(st.sampled_from(["", "!"])) + draw(_WORDS)
    args = draw(st.lists(_WORDS, max_size=3))
    return text + (f"({','.join(args)})" if args else "") + draw(st.sampled_from(["", " ", ")"]))


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


class TestFragmentsMatchTheTokenParser:
    @given(_fragments())
    @settings(max_examples=1000, deadline=None)
    def test_random_fragments(self, text):
        for parse in (parse_ground_literal, parse_ground_atom):
            fast = _outcome(parse, text)
            # A pattern that matches nothing sends every text through the tokens.
            with mock.patch.object(parser_module, "_CANONICAL", re.compile("(?!)")):
                assert fast == _outcome(parse, text)


# Pieces that reach every branch of the tokenizer: word starts that are and
# are not letters (``²`` is a digit but not a decimal, ``٣`` a non-ASCII
# decimal), every whitespace character, comments with and without a final
# newline, strings with valid and invalid escapes, every punctuation mark
# and two stray characters.
_PIECES = [
    *"aZé_É9²٣",
    "x1",
    "Var_2",
    " ",
    "\t",
    "\r",
    "\n",
    "\r\n",
    "% note",
    "%",
    '"',
    "\\",
    '\\"',
    "\\\\",
    "\\n",
    "\\t",
    "\\q",
    "\\\n",
    *".,:()>!-",
    ";",
    "#",
]


def _tokens_and_diagnostics(text):
    """The package's tokens as (kind, value, line, column), positions derived
    from their offsets in order as the parser derives them, and diagnostics."""
    tokens, diagnostics = parser_module._tokenize(text)
    position = parser_module._positions(text)
    stream = []
    for kind, value, offset in tokens:
        at = position(offset)
        stream.append((kind, value, at.line, at.column))
    return stream, diagnostics


def _same_as_reference(text):
    tokens, diagnostics = reference._tokenize(text)
    expected = [(t.kind, t.value, t.position.line, t.position.column) for t in tokens]
    assert _tokens_and_diagnostics(text) == (expected, diagnostics)


class TestTokenizerMatchesReference:
    @given(st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
    @settings(max_examples=500, deadline=None)
    def test_random_text(self, text):
        _same_as_reference(text)

    @pytest.mark.parametrize(
        "text",
        [
            'x9a"\\',  # a backslash at end of input inside an unterminated string
            'a "b\\\nc" d',  # a backslash before a newline inside a string
            '"\\\n\\q\n\\\n\\x" Z',
            '"a\\\n\\q\\\n\\t\\x" b',  # invalid escapes on later lines of one string
            "²a ٣b _c éd",
            "a\r\nb\rc",
            "% only a comment",
            "",
            ";\n#\n;;\n²²x\n\xa0\n",  # an error on every line
            "a ;\r\nb #\r\n\"\\q\"\r\n;",  # CRLF line ends
            '"a\\\nb\\q" ;\n # "c\\\n\\x\n;',  # escaped newlines in strings, then more errors
            "a;\nb % no newline at the end",
        ],
    )
    def test_edge_cases(self, text):
        _same_as_reference(text)

    @pytest.mark.parametrize("count", [255, 256, 257, 600])
    def test_runs_of_comments(self, count):
        # One match skips at most 256 comments in a row.
        _same_as_reference("x\n" + "%c\n" * count + "a;\n%")

    def test_fixture_files(self):
        for path in sorted(DATA.iterdir()):
            if path.is_file():
                _same_as_reference(path.read_text(encoding="utf-8"))


# Pieces of statement text: every keyword, labels, terms, punctuation, strings
# with good and bad escapes, a digit that is not a decimal, comments, and
# whole statements, so that some soups parse without errors.
_STATEMENT_PIECES = [
    "sorts", "static", "fluent", "action", "constraint", "impossible", "impossible_exec",
    "rule", "prefer", "text", "normally", "if", "where", "permitted", "obl", "bogus",
    "r1", "d2", "s", "c", "X", "p(X)", "q(c, d)", "go", *".,:()>!-", ";",
    '"t"', '"\\q"', '"', "²", "²a", "% note\n", "\n",
    "rule r1:", "prefer p1:", "text r1:", "text d2:",
    "sorts s: c, d.", "fluent p(s).", "action go(s).", "rule r1: permitted(go(X)) if p(X).",
    "rule d2: normally !permitted(go(X)) where X: s.", "prefer r3: r1 > d2.", 'text r1: "t".',
    "impossible_exec go(X) if !p(X).", "constraint p(c) if !p(d).",
]


def _parsed(text):
    result = parse(text)
    return result.policy, result.domain, [str(d) for d in result.diagnostics]


def _parsed_by_reference(text):
    with mock.patch.object(parser_module, "_parse_statements", reference._parse_statements):
        return _parsed(text)


class TestStatementsMatchTheReference:
    @given(st.lists(st.sampled_from(_STATEMENT_PIECES), max_size=24).map(" ".join))
    @settings(max_examples=1000, deadline=None)
    def test_random_statement_soups(self, text):
        assert _parsed(text) == _parsed_by_reference(text)

    @pytest.mark.parametrize(
        "text, messages",
        [
            # A node is kept only once its period is read.
            ("fluent prefer\n", ["error: 2:1: expected '.'"]),
            # The string is checked before it is read, so the period still ends the statement.
            (
                "text r1: .\naction rule.\n",
                ["error: 1:10: expected a quoted string", "error: reserved name used as predicate: rule"],
            ),
            (
                "fluent ²3ab.\n",
                [
                    "error: reserved name used as predicate: ab",
                    "error: 1:9: unexpected character '3'",
                    "error: 1:8: unexpected character '²'",
                ],
            ),
        ],
    )
    def test_recovery_edge_cases(self, text, messages):
        assert _parsed(text) == _parsed_by_reference(text) == (None, None, messages)

    def test_fixture_files(self):
        for path in sorted(DATA.iterdir()):
            if path.is_file():
                text = path.read_text(encoding="utf-8")
                assert _parsed(text) == _parsed_by_reference(text)

    def test_a_run_of_non_keyword_tokens_raises_nothing(self, monkeypatch):
        raised = []

        class Counting(parser_module._ParseError):
            def __init__(self, message, offset):
                raised.append(offset)
                super().__init__(message, offset)

        monkeypatch.setattr(parser_module, "_ParseError", Counting)
        result = parse("." * 1000)
        assert raised == []
        assert [str(d) for d in result.diagnostics] == [
            *(f"error: 1:{c}: expected a statement keyword" for c in range(1, 101)),
            "error: <string>: 900 more parse errors not shown",
        ]

    def test_a_run_of_digits_that_are_not_decimals_is_read_in_one_match(self, monkeypatch):
        calls = []
        pattern = parser_module._TOKEN

        class Counting:
            def match(self, text, pos):
                calls.append(pos)
                return pattern.match(text, pos)

        monkeypatch.setattr(parser_module, "_TOKEN", Counting())
        tokens, diagnostics = parser_module._tokenize("²" * 500 + "x")
        assert (len(diagnostics), diagnostics.dropped) == (100, 400)
        assert [value for _, value, _ in tokens] == ["x", ""]
        assert calls == [0, 500]
