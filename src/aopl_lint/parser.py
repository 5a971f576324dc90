"""Parser for the policy and domain source language.

One file format covers both domain declarations and policy statements, so a
policy may live in one file or be split across several; parse each file and
merge the results.  Statements end with a period.  Comments run from ``%`` to
end of line.  The tokenizer reads the text with one compiled pattern, one
token per match with the whitespace and comments before it, into
``(kind, value, offset)`` tuples; a ``Position`` is derived from an offset,
by a cursor that only moves forward, for statement positions and diagnostics
alone.  A word that starts with a digit that is not a decimal, such as ``²``,
gives one unexpected-character error for each character before its first
letter or ``_``, and the word resumes there.  A ground literal in its canonical
spelling is read in one match, without tokens; see ``parse_ground_literal``.

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

Every statement has one frame: its keyword, for ``rule``, ``prefer`` and
``text`` a ``label:`` prefix, a body that each form parses on its own, and the
closing period; a statement's node is kept only once its period is read.
Errors never abort the whole parse: the parser records a diagnostic and
resynchronizes at the next period, so one bad statement yields exactly one
diagnostic.  A token is read only after it is checked, so the period that
ends a bad statement is never skipped.  A parse with errors returns no AST.
"""

from __future__ import annotations

import re
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
_LABELLED = ("rule", "prefer", "text")


class _TokKind:
    """Token kinds, compared by identity.  Plain strings, not an ``Enum``:
    reading one is a class attribute lookup, and the cycle collector stops
    tracking a token tuple that holds only strings and an int."""

    IDENT = "ident"
    VARIABLE = "variable"
    STRING = "string"
    PUNCT = "punct"
    EOF = "eof"


class _ParseError(Exception):
    def __init__(self, message: str, offset: int) -> None:
        super().__init__(message)
        self.message = message
        self.offset = offset


_STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}

# One match is one token with the whitespace and comments before it.  A match
# with no group only skips: to the end of the text, or past 256 comments in a
# row, since ``re`` keeps backtracking state for each repetition of a group and
# one match over an unbounded run of comments takes time superlinear in its
# length.  A word may start with a digit that is not a decimal, such as ``²``;
# ``_tokenize`` reports those.  A string runs to its closing quote, a newline
# or the end of the text; a backslash takes the next character with it, even a
# newline.
_TOKEN = re.compile(
    r"""[ \t\r\n]*(?:%[^\n]*[ \t\r\n]*){0,256}"""
    r"""(?:(?P<word>[^\W\d]\w*)"""
    r"""|(?P<string>"[^"\\\n]*(?:\\[\s\S]?[^"\\\n]*)*)"""
    rf"""|(?P<punct>[{re.escape(_PUNCT)}])"""
    r"""|(?=%)|(?P<other>[\s\S])|\Z)"""
)
_ESCAPE = re.compile(r"\\([\s\S]?)")


def _positions(text: str) -> Callable[[int], Position]:
    """The ``Position`` of an offset into ``text``, for offsets asked in order.

    A cursor moves forward over the text, so a parse derives positions in
    time linear in the text; an offset before the last one restarts it.
    """
    line, line_start, at = 1, 0, 0

    def position(offset: int) -> Position:
        nonlocal line, line_start, at
        if offset < at:
            line, line_start, at = 1, 0, 0
        newline = text.rfind("\n", at, offset)
        if newline >= 0:
            line += text.count("\n", at, newline) + 1
            line_start = newline + 1
        at = offset
        return Position(line, offset - line_start + 1)

    return position


def _unescape(
    text: str, start: int, end: int, position: Callable[[int], Position],
    diagnostics: list[Diagnostic],
) -> str:
    """The value of the string body ``text[start:end]``, reporting unknown escapes."""

    def escape(match: re.Match) -> str:
        escaped = match.group(1)
        if escaped in _STRING_ESCAPES:
            return _STRING_ESCAPES[escaped]
        offset = start + match.start() + 1
        diagnostics.append(_error("unknown string escape", position(offset)))
        return ""

    return _ESCAPE.sub(escape, text[start:end])


def _error(message: str, position: Position) -> Diagnostic:
    return Diagnostic(Severity.ERROR, message, position=position)


def _tokenize(text: str) -> tuple[list[tuple[str, str, int]], list[Diagnostic]]:
    """The ``(kind, value, offset)`` tokens of ``text``, ending in EOF, and its
    diagnostics."""
    tokens: list[tuple[str, str, int]] = []
    diagnostics: list[Diagnostic] = []
    position = _positions(text)
    match = _TOKEN.match
    pos, end = 0, len(text)
    while pos < end:
        found = match(text, pos)
        kind = found.lastgroup
        if kind is None:
            pos = found.end()
            continue
        start, pos = found.span(kind)
        first = text[start]
        if kind == "word" and (first.isalpha() or first == "_"):
            word = text[start:pos]
            tokens.append((_TokKind.VARIABLE if is_variable(word) else _TokKind.IDENT, word, start))
        elif kind == "punct":
            tokens.append((_TokKind.PUNCT, first, start))
        elif kind == "string":
            at = position(start)
            value = text[start + 1 : pos]
            if "\\" in value:
                value = _unescape(text, start + 1, pos, position, diagnostics)
            if text.startswith('"', pos):
                pos += 1
            else:
                diagnostics.append(_error("unterminated string", at))
            tokens.append((_TokKind.STRING, value, start))
        else:
            # An unexpected character.  A word that starts with a digit that is
            # not a decimal, such as ``²``, loses every character before its
            # first letter or ``_``, and the scan resumes there; resuming after
            # each one would scan the rest of the word again for each.
            for at in range(start, pos):
                if text[at].isalpha() or text[at] == "_":
                    pos = at
                    break
                diagnostics.append(_error(f"unexpected character {text[at]!r}", position(at)))

    tokens.append((_TokKind.EOF, "", end))
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
    def __init__(self, tokens: list[tuple[str, str, int]], text: str) -> None:
        self.tokens = tokens
        self.index = 0
        self.position = _positions(text)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.index]

    def next(self) -> tuple[str, str, int]:
        token = self.tokens[self.index]
        if token[0] is not _TokKind.EOF:
            self.index += 1
        return token

    def at_punct(self, value: str) -> bool:
        kind, text, _ = self.tokens[self.index]
        return kind is _TokKind.PUNCT and text == value

    def accept(self, keyword: str) -> bool:
        """Consume the next token if it is the given keyword."""
        kind, text, _ = self.tokens[self.index]
        if kind is _TokKind.IDENT and text == keyword:
            self.index += 1
            return True
        return False

    def comma_list(self, item: Callable[[], _T]) -> tuple[_T, ...]:
        """One or more items separated by commas."""
        items = [item()]
        while self.at_punct(","):
            self.index += 1
            items.append(item())
        return tuple(items)

    def expect_punct(self, value: str) -> None:
        kind, text, offset = self.tokens[self.index]
        if kind is not _TokKind.PUNCT or text != value:
            raise _ParseError(f"expected {value!r}", offset)
        self.index += 1

    def expect_ident(self, what: str, kinds: tuple[str, ...] = (_TokKind.IDENT,)) -> str:
        """The next token's text, if its kind is one of ``kinds``."""
        kind, text, offset = self.tokens[self.index]
        if kind not in kinds:
            raise _ParseError(f"expected {what}", offset)
        self.index += 1
        return text

    def synchronize(self) -> None:
        """Skip forward past the next period so later statements still parse."""
        while True:
            kind, text, _ = self.next()
            if kind is _TokKind.EOF or (kind is _TokKind.PUNCT and text == "."):
                return

    def condition(self) -> tuple[Literal, ...]:
        """An optional ``if`` list of literals."""
        return self.comma_list(self.parse_literal) if self.accept("if") else ()

    def parse_term(self) -> str:
        return self.expect_ident("a constant or variable", (_TokKind.IDENT, _TokKind.VARIABLE))

    def parse_atom(self) -> Atom:
        name = self.expect_ident("a predicate name")
        args: tuple[str, ...] = ()
        if self.at_punct("("):
            self.index += 1
            args = self.comma_list(self.parse_term)
            self.expect_punct(")")
        return Atom(name, args)

    def parse_literal(self) -> Literal:
        positive = True
        if self.at_punct("!"):
            self.index += 1
            positive = False
        return Literal(self.parse_atom(), positive)

    def parse_head(self) -> HeadLiteral:
        positive = True
        if self.at_punct("!"):
            self.index += 1
            positive = False
        kind, text, offset = self.peek()
        if kind is not _TokKind.IDENT or text not in ("permitted", "obl"):
            raise _ParseError("expected permitted(...) or obl(...)", offset)
        modality = Modality.PERMITTED if text == "permitted" else Modality.OBL
        self.index += 1
        self.expect_punct("(")
        happening_positive = True
        if self.at_punct("-"):
            if modality is Modality.PERMITTED:
                raise _ParseError("permitted heads cannot negate the action", self.peek()[2])
            self.index += 1
            happening_positive = False
        action = self.parse_atom()
        self.expect_punct(")")
        return HeadLiteral(modality, Happening(action, happening_positive), positive)

    def parse_where_entry(self) -> tuple[str, str]:
        var = self.expect_ident("a variable in where-clause", (_TokKind.VARIABLE,))
        self.expect_punct(":")
        return var, self.expect_ident("a sort name")


def _parse_statements(
    parser: _Parser, diagnostics: list[Diagnostic]
) -> tuple[list[SortDecl], list[PredicateDecl], list[StateConstraint], list[ExecConstraint], list[tuple[PolicyRule, Position]], list[tuple[str, str, Position]]]:
    sorts: list[SortDecl] = []
    predicates: list[PredicateDecl] = []
    state_constraints: list[StateConstraint] = []
    exec_constraints: list[ExecConstraint] = []
    rules: list[tuple[PolicyRule, Position]] = []
    texts: list[tuple[str, str, Position]] = []  # label, text, position

    while parser.peek()[0] is not _TokKind.EOF:
        kind, keyword, offset = parser.peek()
        try:
            # A token that is not a keyword stays unread: it may be the period
            # that ``synchronize`` stops at.
            if kind is not _TokKind.IDENT:
                raise _ParseError("expected a statement keyword", offset)
            parser.index += 1
            if keyword in _LABELLED:
                position = parser.position(offset)
                label = parser.expect_ident("a rule label")
                parser.expect_punct(":")
            if keyword == "sorts":
                name = parser.expect_ident("a sort name")
                parser.expect_punct(":")
                members = parser.comma_list(lambda: parser.expect_ident("a constant"))
                into, node = sorts, SortDecl(name, members)
            elif keyword in _PREDICATE_KEYWORDS:
                name = parser.expect_ident("a predicate name")
                arg_sorts: tuple[str, ...] = ()
                if parser.at_punct("("):
                    parser.index += 1
                    arg_sorts = parser.comma_list(lambda: parser.expect_ident("a sort name"))
                    parser.expect_punct(")")
                into, node = predicates, PredicateDecl(name, _PREDICATE_KEYWORDS[keyword], arg_sorts)
            elif keyword == "constraint":
                head = parser.parse_literal()
                into, node = state_constraints, StateConstraint(parser.condition(), head)
            elif keyword == "impossible":
                into, node = state_constraints, StateConstraint(parser.comma_list(parser.parse_literal))
            elif keyword == "impossible_exec":
                action = parser.parse_atom()
                into, node = exec_constraints, ExecConstraint(action, parser.condition())
            elif keyword == "rule":
                kind = RuleKind.DEFEASIBLE if parser.accept("normally") else RuleKind.STRICT
                head = parser.parse_head()
                condition = parser.condition()
                where = parser.comma_list(parser.parse_where_entry) if parser.accept("where") else ()
                rule = PolicyRule(label, kind, head=head, condition=condition, where=where)
                into, node = rules, (rule, position)
            elif keyword == "prefer":
                preferred = parser.expect_ident("a defeasible rule label")
                parser.expect_punct(">")
                dispreferred = parser.expect_ident("a defeasible rule label")
                rule = PolicyRule(
                    label, RuleKind.PREFERENCE, preferred=preferred, dispreferred=dispreferred
                )
                into, node = rules, (rule, position)
            elif keyword == "text":
                # Checked before it is read, like the keyword above.
                kind, string, at = parser.peek()
                if kind is not _TokKind.STRING:
                    raise _ParseError("expected a quoted string", at)
                parser.index += 1
                into, node = texts, (label, string, position)
            else:
                raise _ParseError(f"unknown statement keyword {keyword!r}", offset)
            parser.expect_punct(".")
            into.append(node)
        except _ParseError as exc:
            diagnostics.append(_error(exc.message, parser.position(exc.offset)))
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
        for into, part in zip(merged, _parse_statements(_Parser(tokens, source.text), local)):
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


# A literal spelled ``!?name(w1,...,wn)`` with no spaces, every word starting
# with an ASCII letter or ``_`` and the name not a variable: ``_parse_fragment``
# reads it in this one match.
_CANONICAL = re.compile(r"(!?)([a-z_]\w*)(?:\(([A-Za-z_]\w*(?:,[A-Za-z_]\w*)*)\))?")


def _parse_fragment(text: str, what: str):
    canonical = _CANONICAL.fullmatch(text)
    if canonical is not None and (what == "literal" or not canonical[1]):
        sign, name, args = canonical.groups()
        atom = Atom(name, tuple(args.split(",")) if args else ())
        return Literal(atom, not sign) if what == "literal" else atom
    tokens, diagnostics = _tokenize(text)
    if diagnostics:
        raise ValueError(f"cannot parse {what} {text!r}: {diagnostics[0].message}")
    parser = _Parser(tokens, text)
    try:
        if what == "literal":
            node = parser.parse_literal()
        else:
            node = parser.parse_atom()
    except _ParseError as exc:
        raise ValueError(f"cannot parse {what} {text!r}: {exc.message}") from exc
    if parser.peek()[0] is not _TokKind.EOF:
        raise ValueError(f"trailing input after {what} in {text!r}")
    return node


def parse_ground_atom(text: str) -> Atom:
    """Parse a single ground atom, as used in CLI arguments and state files."""
    atom = _parse_fragment(text, "atom")
    if not atom.is_ground:
        raise ValueError(f"atom {text!r} contains variables")
    return atom


def parse_ground_literal(text: str) -> Literal:
    """Parse one ground literal of the form ``atom`` or ``!atom``.

    The canonical spelling, ``!?name(c1,...,cn)`` with no spaces, each word
    starting with an ASCII letter or ``_``, is read in one match; any other
    text, and every error, goes through the tokenizer and the statement
    parser, so its messages are theirs.
    """
    literal = _parse_fragment(text, "literal")
    if not literal.atom.is_ground:
        raise ValueError(f"literal {text!r} contains variables")
    return literal
