"""Parser for the policy and domain source language.

One file format covers both domain declarations and policy statements, so a
policy may live in one file or be split across several; parse each file and
merge the results.  Statements end with a period.  Comments run from ``%`` to
end of line.  The tokenizer reads the text with one compiled pattern, one
token per match, and builds a ``Position`` only for the parser's statement
positions and diagnostics.

Statement forms::

    sorts commander: c1, c2.
    static colonel(commander).
    fluent authorized(commander, mission).
    action assume_comm(commander, mission).
    constraint !ordered(C, M) if suspended(C).
    impossible colonel(C), observer(C).
    impossible_exec assume_comm(C, M) if suspended(C).
    rule s1: !permitted(assume_comm(C, M)) if authorized(C, M).
    rule d1: normally permitted(assume_comm(C, M)) if colonel(C).
    rule o1: obl(-assume_comm(C, M)) if suspended(C).
    prefer p1: d2 > d1.
    text s1: "A military officer is not allowed to ...".

Identifiers starting with an upper-case letter are variables; everything else
is a constant, predicate, sort, or label name.  A ``where V: sort`` suffix on
a rule pins variable sorts that predicate positions do not determine.

Errors never abort the whole parse: the parser records a diagnostic and
resynchronizes at the next period, so one bad statement yields exactly one
diagnostic.  A parse with errors returns no AST.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Callable, TypeVar

from .diagnostics import (
    Diagnostic, Frozen, Position, Severity, SourceFile, has_errors, set_field, sort_diagnostics,
)
from .model import (
    Atom,
    DomainSpec,
    ExecConstraint,
    Happening,
    HeadLiteral,
    Literal,
    Modality,
    Policy,
    PolicyRule,
    PredicateDecl,
    PredicateKind,
    RuleKind,
    SortDecl,
    StateConstraint,
    is_variable,
    validate,
)

_PUNCT = ".,:()>!-"

_T = TypeVar("_T")

_PREDICATE_KEYWORDS = {
    "static": PredicateKind.STATIC,
    "fluent": PredicateKind.FLUENT,
    "action": PredicateKind.ACTION,
}


class _TokKind(Enum):
    IDENT = "ident"
    VARIABLE = "variable"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind: _TokKind, value: str, line: int, column: int) -> None:
        self.kind, self.value, self.line, self.column = kind, value, line, column

    @property
    def position(self) -> Position:
        return Position(self.line, self.column)


class _ParseError(Exception):
    def __init__(self, message: str, position: Position) -> None:
        super().__init__(message)
        self.message = message
        self.position = position


_STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

# A word matched here may start with a digit that is not a decimal, such as
# ``²``; ``_tokenize`` reports those.  A string runs to its closing quote, a
# newline or the end of the text; a backslash takes the next character with
# it, even a newline.
_TOKEN = re.compile(
    r"""(?P<skip>(?:[ \t\r\n]|%[^\n]*)+)"""
    r"""|(?P<word>[^\W\d]\w*)"""
    r"""|(?P<string>"(?:[^"\\\n]|\\[\s\S]?)*)"""
    rf"""|(?P<punct>[{re.escape(_PUNCT)}])"""
    r"""|(?P<other>[\s\S])"""
)
_ESCAPE = re.compile(r"\\([\s\S]?)")


def _unescape(
    text: str, start: int, end: int, line: int, line_start: int, diagnostics: list[Diagnostic]
) -> str:
    """The value of the string body ``text[start:end]``, reporting unknown escapes."""

    def escape(match: re.Match) -> str:
        nonlocal line, line_start
        escaped = match.group(1)
        if escaped in _STRING_ESCAPES:
            return _STRING_ESCAPES[escaped]
        at = start + match.start() + 1
        diagnostics.append(_error("unknown string escape", Position(line, at - line_start + 1)))
        if escaped == "\n":  # the only way a string spans lines
            line, line_start = line + 1, at + 1
        return ""

    return _ESCAPE.sub(escape, text[start:end])


def _error(message: str, position: Position) -> Diagnostic:
    return Diagnostic(Severity.ERROR, message, position=position)


def _tokenize(text: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[Diagnostic] = []
    line, line_start = 1, 0
    pos = 0
    n = len(text)
    match = _TOKEN.match
    while pos < n:
        found = match(text, pos)
        kind = found.lastgroup
        end = found.end()
        column = pos - line_start + 1
        if kind == "word" and (text[pos].isalpha() or text[pos] == "_"):
            word = text[pos:end]
            word_kind = _TokKind.VARIABLE if is_variable(word) else _TokKind.IDENT
            tokens.append(_Token(word_kind, word, line, column))
        elif kind == "punct":
            tokens.append(_Token(_TokKind.PUNCT, text[pos], line, column))
        elif kind == "string":
            value = text[pos + 1 : end]
            if "\\" in value:
                value = _unescape(text, pos + 1, end, line, line_start, diagnostics)
            if text.startswith('"', end):
                end += 1
            else:
                diagnostics.append(_error("unterminated string", Position(line, column)))
            tokens.append(_Token(_TokKind.STRING, value, line, column))
        elif kind != "skip":
            # Every character before the first letter or ``_`` of a run of
            # ``\w`` that starts with a digit, or the one character no token
            # starts with, is unexpected.
            for at in range(pos, end):
                if text[at].isalpha() or text[at] == "_":
                    end = at
                    break
                position = Position(line, at - line_start + 1)
                diagnostics.append(_error(f"unexpected character {text[at]!r}", position))
        if kind == "skip" or kind == "string":
            # Only whitespace, comments and escaped newlines in strings span lines.
            newline = text.rfind("\n", pos, end)
            if newline >= 0:
                line += text.count("\n", pos, newline) + 1
                line_start = newline + 1
        pos = end

    tokens.append(_Token(_TokKind.EOF, "", line, pos - line_start + 1))
    return tokens, diagnostics


class ParseResult(Frozen):
    """Outcome of a parse: either an AST pair or error diagnostics.

    ``policy`` and ``domain`` are None whenever any error-severity
    diagnostic is present; warnings alone do not suppress the AST.
    ``diagnostics`` defaults to a new list; the list makes it unhashable.
    """

    __slots__ = ("policy", "domain", "diagnostics")
    __hash__ = None

    def __init__(
        self, policy: Policy | None, domain: DomainSpec | None,
        diagnostics: list[Diagnostic] | None = None,
    ) -> None:
        set_field(self, "policy", policy)
        set_field(self, "domain", domain)
        set_field(self, "diagnostics", [] if diagnostics is None else diagnostics)

    @property
    def ok(self) -> bool:
        return not has_errors(self.diagnostics)


class _Parser:
    def __init__(self, tokens: list[_Token]) -> None:
        self.tokens = tokens
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def next(self) -> _Token:
        token = self.tokens[self.index]
        if token.kind is not _TokKind.EOF:
            self.index += 1
        return token

    def at_punct(self, value: str) -> bool:
        token = self.peek()
        return token.kind is _TokKind.PUNCT and token.value == value

    def accept(self, keyword: str) -> bool:
        """Consume the next token if it is the given keyword."""
        token = self.peek()
        if token.kind is _TokKind.IDENT and token.value == keyword:
            self.next()
            return True
        return False

    def comma_list(self, item: Callable[[], _T]) -> tuple[_T, ...]:
        """One or more items separated by commas."""
        items = [item()]
        while self.at_punct(","):
            self.next()
            items.append(item())
        return tuple(items)

    def expect_punct(self, value: str) -> _Token:
        token = self.peek()
        if token.kind is _TokKind.PUNCT and token.value == value:
            return self.next()
        raise _ParseError(f"expected {value!r}", token.position)

    def expect_ident(self, what: str) -> _Token:
        token = self.peek()
        if token.kind is _TokKind.IDENT:
            return self.next()
        raise _ParseError(f"expected {what}", token.position)

    def synchronize(self) -> None:
        """Skip forward past the next period so later statements still parse."""
        while True:
            token = self.next()
            if token.kind is _TokKind.EOF:
                return
            if token.kind is _TokKind.PUNCT and token.value == ".":
                return

    def parse_term(self) -> str:
        token = self.peek()
        if token.kind in (_TokKind.IDENT, _TokKind.VARIABLE):
            return self.next().value
        raise _ParseError("expected a constant or variable", token.position)

    def parse_atom(self) -> Atom:
        name = self.expect_ident("a predicate name").value
        args: tuple[str, ...] = ()
        if self.at_punct("("):
            self.next()
            args = self.comma_list(self.parse_term)
            self.expect_punct(")")
        return Atom(name, args)

    def parse_literal(self) -> Literal:
        positive = True
        if self.at_punct("!"):
            self.next()
            positive = False
        return Literal(self.parse_atom(), positive)

    def parse_head(self) -> HeadLiteral:
        positive = True
        if self.at_punct("!"):
            self.next()
            positive = False
        token = self.peek()
        if token.kind is not _TokKind.IDENT or token.value not in ("permitted", "obl"):
            raise _ParseError("expected permitted(...) or obl(...)", token.position)
        modality = Modality.PERMITTED if token.value == "permitted" else Modality.OBL
        self.next()
        self.expect_punct("(")
        happening_positive = True
        if self.at_punct("-"):
            if modality is Modality.PERMITTED:
                raise _ParseError(
                    "permitted heads cannot negate the action", self.peek().position
                )
            self.next()
            happening_positive = False
        action = self.parse_atom()
        self.expect_punct(")")
        return HeadLiteral(modality, Happening(action, happening_positive), positive)

    def parse_where_entry(self) -> tuple[str, str]:
        token = self.peek()
        if token.kind is not _TokKind.VARIABLE:
            raise _ParseError("expected a variable in where-clause", token.position)
        var = self.next().value
        self.expect_punct(":")
        return var, self.expect_ident("a sort name").value


def _parse_statements(
    parser: _Parser, diagnostics: list[Diagnostic]
) -> tuple[list[SortDecl], list[PredicateDecl], list[StateConstraint], list[ExecConstraint], list[tuple[PolicyRule, Position]], list[tuple[str, str, Position]]]:
    sorts: list[SortDecl] = []
    predicates: list[PredicateDecl] = []
    state_constraints: list[StateConstraint] = []
    exec_constraints: list[ExecConstraint] = []
    rules: list[tuple[PolicyRule, Position]] = []
    texts: list[tuple[str, str, Position]] = []  # label, text, position

    while parser.peek().kind is not _TokKind.EOF:
        token = parser.peek()
        try:
            if token.kind is not _TokKind.IDENT:
                raise _ParseError("expected a statement keyword", token.position)
            keyword = token.value
            if keyword == "sorts":
                parser.next()
                name = parser.expect_ident("a sort name").value
                parser.expect_punct(":")
                members = parser.comma_list(lambda: parser.expect_ident("a constant").value)
                parser.expect_punct(".")
                sorts.append(SortDecl(name, members))
            elif keyword in _PREDICATE_KEYWORDS:
                parser.next()
                name = parser.expect_ident("a predicate name").value
                arg_sorts: tuple[str, ...] = ()
                if parser.at_punct("("):
                    parser.next()
                    arg_sorts = parser.comma_list(lambda: parser.expect_ident("a sort name").value)
                    parser.expect_punct(")")
                parser.expect_punct(".")
                predicates.append(PredicateDecl(name, _PREDICATE_KEYWORDS[keyword], arg_sorts))
            elif keyword == "constraint":
                parser.next()
                head = parser.parse_literal()
                body: tuple[Literal, ...] = ()
                if parser.accept("if"):
                    body = parser.comma_list(parser.parse_literal)
                parser.expect_punct(".")
                state_constraints.append(StateConstraint(body=body, head=head))
            elif keyword == "impossible":
                parser.next()
                body = parser.comma_list(parser.parse_literal)
                parser.expect_punct(".")
                state_constraints.append(StateConstraint(body=body, head=None))
            elif keyword == "impossible_exec":
                parser.next()
                action = parser.parse_atom()
                condition: tuple[Literal, ...] = ()
                if parser.accept("if"):
                    condition = parser.comma_list(parser.parse_literal)
                parser.expect_punct(".")
                exec_constraints.append(ExecConstraint(action, condition))
            elif keyword == "rule":
                position = token.position
                parser.next()
                label = parser.expect_ident("a rule label").value
                parser.expect_punct(":")
                kind = RuleKind.DEFEASIBLE if parser.accept("normally") else RuleKind.STRICT
                head = parser.parse_head()
                condition = ()
                where: tuple[tuple[str, str], ...] = ()
                if parser.accept("if"):
                    condition = parser.comma_list(parser.parse_literal)
                if parser.accept("where"):
                    where = parser.comma_list(parser.parse_where_entry)
                parser.expect_punct(".")
                rules.append(
                    (PolicyRule(label, kind, head=head, condition=condition, where=where), position)
                )
            elif keyword == "prefer":
                position = token.position
                parser.next()
                label = parser.expect_ident("a rule label").value
                parser.expect_punct(":")
                preferred = parser.expect_ident("a defeasible rule label").value
                parser.expect_punct(">")
                dispreferred = parser.expect_ident("a defeasible rule label").value
                parser.expect_punct(".")
                rules.append(
                    (
                        PolicyRule(
                            label,
                            RuleKind.PREFERENCE,
                            preferred=preferred,
                            dispreferred=dispreferred,
                        ),
                        position,
                    )
                )
            elif keyword == "text":
                position = token.position
                parser.next()
                label = parser.expect_ident("a rule label").value
                parser.expect_punct(":")
                string = parser.peek()
                if string.kind is not _TokKind.STRING:
                    raise _ParseError("expected a quoted string", string.position)
                parser.next()
                parser.expect_punct(".")
                texts.append((label, string.value, position))
            else:
                raise _ParseError(f"unknown statement keyword {keyword!r}", token.position)
        except _ParseError as exc:
            diagnostics.append(_error(exc.message, exc.position))
            parser.synchronize()

    return sorts, predicates, state_constraints, exec_constraints, rules, texts


def parse(source: str | SourceFile) -> ParseResult:
    """Parse policy and domain statements and run semantic validation.

    Diagnostics from bad statements carry source positions; an empty source
    parses to an empty policy and domain.
    """
    if isinstance(source, str):
        source = SourceFile(path="<string>", text=source)
    return parse_files([source])


def parse_files(sources: list[SourceFile]) -> ParseResult:
    """Parse several files as one program, validating the merged result.

    Domain declarations and policy statements may be split across files in
    any way; rule labels and text statements resolve across file boundaries.
    With more than one file, parse diagnostics name their file.
    """
    diagnostics: list[Diagnostic] = []
    merged: tuple[list, ...] = ([], [], [], [], [], [])
    for source in sources:
        tokens, local = _tokenize(source.text)
        for into, part in zip(merged, _parse_statements(_Parser(tokens), local)):
            into.extend(part)
        if len(sources) > 1:
            local = [d.replace(message=f"{source.path}: {d.message}") for d in local]
        diagnostics.extend(local)
    sorts, predicates, state_cs, exec_cs, rule_stmts, text_stmts = merged

    positions: dict[str, Position] = {}
    rules: list[PolicyRule] = []
    for rule, position in rule_stmts:
        positions.setdefault(rule.label, position)
        rules.append(rule)

    by_label = {rule.label: idx for idx, rule in enumerate(rules)}
    seen_text: set[str] = set()
    for label, text, position in text_stmts:
        if label not in by_label:
            problem = f"text statement names unknown rule {label}"
        elif label in seen_text:
            problem = f"duplicate text statement for rule {label}"
        else:
            seen_text.add(label)
            idx = by_label[label]
            rules[idx] = rules[idx].replace(text=text)
            continue
        diagnostics.append(_error(problem, position))

    policy = Policy(tuple(rules))
    domain = DomainSpec(
        sorts=tuple(sorts),
        predicates=tuple(predicates),
        state_constraints=tuple(state_cs),
        exec_constraints=tuple(exec_cs),
    )

    for diag in validate(policy, domain):
        if diag.position is None and diag.rule_label in positions:
            diag = diag.replace(position=positions[diag.rule_label])
        diagnostics.append(diag)

    diagnostics = sort_diagnostics(diagnostics)
    if has_errors(diagnostics):
        return ParseResult(policy=None, domain=None, diagnostics=diagnostics)
    return ParseResult(policy=policy, domain=domain, diagnostics=diagnostics)


def _parse_fragment(text: str, what: str):
    tokens, diagnostics = _tokenize(text)
    if diagnostics:
        raise ValueError(f"cannot parse {what} {text!r}: {diagnostics[0].message}")
    parser = _Parser(tokens)
    try:
        if what == "literal":
            node = parser.parse_literal()
        else:
            node = parser.parse_atom()
    except _ParseError as exc:
        raise ValueError(f"cannot parse {what} {text!r}: {exc.message}") from exc
    if parser.peek().kind is not _TokKind.EOF:
        raise ValueError(f"trailing input after {what} in {text!r}")
    return node


def parse_ground_atom(text: str) -> Atom:
    """Parse a single ground atom, as used in CLI arguments and state files."""
    atom = _parse_fragment(text, "atom")
    if not atom.is_ground:
        raise ValueError(f"atom {text!r} contains variables")
    return atom


def parse_ground_literal(text: str) -> Literal:
    """Parse one ground literal of the form ``atom`` or ``!atom``."""
    literal = _parse_fragment(text, "literal")
    if not literal.atom.is_ground:
        raise ValueError(f"literal {text!r} contains variables")
    return literal
