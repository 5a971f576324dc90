"""Parser for the policy and domain source language.

One file format covers both domain declarations and policy statements, so a
policy may live in one file or be split across several; parse each file and
merge the results.  Statements end with a period.  Comments run from ``%`` to
end of line.

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

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable, TypeVar

from .diagnostics import Diagnostic, Position, Severity, SourceFile, has_errors, sort_diagnostics
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


@dataclass(frozen=True)
class _Token:
    kind: _TokKind
    value: str
    position: Position


class _ParseError(Exception):
    def __init__(self, message: str, position: Position) -> None:
        super().__init__(message)
        self.message = message
        self.position = position


_STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


def _tokenize(text: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
    diagnostics: list[Diagnostic] = []
    line, col = 1, 1
    i = 0
    n = len(text)

    def advance(count: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                advance()
            continue
        pos = Position(line, col)
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                advance()
            word = text[start:i]
            kind = _TokKind.VARIABLE if is_variable(word) else _TokKind.IDENT
            tokens.append(_Token(kind, word, pos))
            continue
        if ch == '"':
            advance()
            chars: list[str] = []
            closed = False
            while i < n:
                c = text[i]
                if c == '"':
                    advance()
                    closed = True
                    break
                if c == "\\":
                    advance()
                    if i < n and text[i] in _STRING_ESCAPES:
                        chars.append(_STRING_ESCAPES[text[i]])
                        advance()
                    else:
                        diagnostics.append(
                            Diagnostic(
                                Severity.ERROR,
                                "unknown string escape",
                                position=Position(line, col),
                            )
                        )
                        if i < n:
                            advance()
                    continue
                if c == "\n":
                    break
                chars.append(c)
                advance()
            if not closed:
                diagnostics.append(
                    Diagnostic(Severity.ERROR, "unterminated string", position=pos)
                )
            tokens.append(_Token(_TokKind.STRING, "".join(chars), pos))
            continue
        if ch in _PUNCT:
            tokens.append(_Token(_TokKind.PUNCT, ch, pos))
            advance()
            continue
        diagnostics.append(
            Diagnostic(Severity.ERROR, f"unexpected character {ch!r}", position=pos)
        )
        advance()

    end = Position(line, col)
    tokens.append(_Token(_TokKind.EOF, "", end))
    return tokens, diagnostics


@dataclass
class ParseResult:
    """Outcome of a parse: either an AST pair or error diagnostics.

    ``policy`` and ``domain`` are None whenever any error-severity
    diagnostic is present; warnings alone do not suppress the AST.
    """

    policy: Policy | None
    domain: DomainSpec | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

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


@dataclass
class _RuleStmt:
    rule: PolicyRule
    position: Position


@dataclass
class _TextStmt:
    label: str
    text: str
    position: Position


def _parse_statements(
    parser: _Parser, diagnostics: list[Diagnostic]
) -> tuple[list[SortDecl], list[PredicateDecl], list[StateConstraint], list[ExecConstraint], list[_RuleStmt], list[_TextStmt]]:
    sorts: list[SortDecl] = []
    predicates: list[PredicateDecl] = []
    state_constraints: list[StateConstraint] = []
    exec_constraints: list[ExecConstraint] = []
    rules: list[_RuleStmt] = []
    texts: list[_TextStmt] = []

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
                    _RuleStmt(
                        PolicyRule(label, kind, head=head, condition=condition, where=where),
                        position,
                    )
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
                    _RuleStmt(
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
                texts.append(_TextStmt(label, string.value, position))
            else:
                raise _ParseError(f"unknown statement keyword {keyword!r}", token.position)
        except _ParseError as exc:
            diagnostics.append(
                Diagnostic(Severity.ERROR, exc.message, position=exc.position)
            )
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
            local = [replace(d, message=f"{source.path}: {d.message}") for d in local]
        diagnostics.extend(local)
    sorts, predicates, state_cs, exec_cs, rule_stmts, text_stmts = merged

    positions: dict[str, Position] = {}
    rules: list[PolicyRule] = []
    for stmt in rule_stmts:
        positions.setdefault(stmt.rule.label, stmt.position)
        rules.append(stmt.rule)

    by_label = {rule.label: idx for idx, rule in enumerate(rules)}
    seen_text: set[str] = set()
    for stmt in text_stmts:
        if stmt.label not in by_label:
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    f"text statement names unknown rule {stmt.label}",
                    position=stmt.position,
                )
            )
            continue
        if stmt.label in seen_text:
            diagnostics.append(
                Diagnostic(
                    Severity.ERROR,
                    f"duplicate text statement for rule {stmt.label}",
                    position=stmt.position,
                )
            )
            continue
        seen_text.add(stmt.label)
        idx = by_label[stmt.label]
        rules[idx] = replace(rules[idx], text=stmt.text)

    policy = Policy(tuple(rules))
    domain = DomainSpec(
        sorts=tuple(sorts),
        predicates=tuple(predicates),
        state_constraints=tuple(state_cs),
        exec_constraints=tuple(exec_cs),
    )

    for diag in validate(policy, domain):
        if diag.position is None and diag.rule_label in positions:
            diag = replace(diag, position=positions[diag.rule_label])
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
