"""Source positions and diagnostics shared by the parser and the validator,
and ``Frozen``, the base of the package's immutable record types."""

from __future__ import annotations

from enum import Enum
from operator import attrgetter

# ``Frozen.__setattr__`` refuses every assignment, so a subclass's ``__init__``
# sets its fields through this.
set_field = object.__setattr__


class Frozen:
    """Immutable fields with a frozen dataclass's ``==``, ``hash``, ``repr`` and
    ``replace``.

    A subclass lists its fields in ``__slots__`` in ``__init__`` order and
    sets each there with ``set_field``; a ``__dict__`` slot makes room for
    ``functools.cached_property``, and ``replace`` leaves it behind.  A
    subclass whose slots are not its fields names the fields in ``_fields``.
    Nothing is generated, so a subclass costs no ``exec``.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        names = cls.__dict__.get("_fields") or tuple(n for n in cls.__slots__ if n != "__dict__")
        get = attrgetter(*names)  # the field values as one tuple, built in C
        cls._fields = names
        cls._values = get if len(names) > 1 else staticmethod(lambda self: (get(self),))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return self.__class__, self._values(self)

    def replace(self, **changes: object) -> "Frozen":
        """A copy with ``changes`` applied; an unknown field is a ``TypeError``."""
        return self.__class__(**{**dict(zip(self._fields, self._values(self))), **changes})


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


class Position(Frozen):
    """1-based line and column of a token in a source file."""

    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int) -> None:
        set_field(self, "line", line)
        set_field(self, "column", column)

    def __str__(self) -> str:
        return f"{self.line}:{self.column}"


class Diagnostic(Frozen):
    """One problem found while parsing or validating a policy or domain."""

    __slots__ = ("severity", "message", "position", "rule_label")

    def __init__(
        self, severity: Severity, message: str, position: Position | None = None,
        rule_label: str | None = None,
    ) -> None:
        set_field(self, "severity", severity)
        set_field(self, "message", message)
        set_field(self, "position", position)
        set_field(self, "rule_label", rule_label)

    def __str__(self) -> str:
        parts = [self.severity.value]
        if self.position is not None:
            parts.append(str(self.position))
        if self.rule_label is not None:
            parts.append(f"rule {self.rule_label}")
        parts.append(self.message)
        return ": ".join(parts)


def sort_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Stable report order: by rule label, then message, then position."""
    return sorted(
        diagnostics,
        key=lambda d: (
            d.rule_label or "",
            d.message,
            (d.position.line, d.position.column) if d.position else (0, 0),
        ),
    )


def has_errors(diagnostics: list[Diagnostic]) -> bool:
    return any(d.severity is Severity.ERROR for d in diagnostics)


class SourceFile(Frozen):
    """A named input text, kept around so diagnostics can cite their origin."""

    __slots__ = ("path", "text")

    def __init__(self, path: str, text: str) -> None:
        set_field(self, "path", path)
        set_field(self, "text", text)

    @classmethod
    def load(cls, path: str) -> "SourceFile":
        with open(path, encoding="utf-8") as handle:
            return cls(path=path, text=handle.read())
