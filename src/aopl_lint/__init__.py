"""Policy analysis toolkit for authorization and obligation policies.

Parse a policy and its domain, ground them, reify the result into a fact
base, evaluate states through a small answer-set engine, and report which
statements cause inconsistencies, coverage gaps, ambiguity, conflicting
obligations, or obligation/authorization collisions.
"""

from importlib import import_module

from .analysis import (
    AuthorizationClass,
    Compliance,
    FamilyRecord,
    IssueKind,
    IssueRecord,
    SweepOptions,
    SweepResult,
    collapse_families,
    merge_sweeps,
    sweep,
)
from .diagnostics import Diagnostic, Position, Severity, SourceFile
from .engine import AmbiguityStats, WorldState
from .grounding import GroundPolicy, GroundingError, ground
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
    validate,
)
from .parser import ParseResult, parse, parse_files, parse_ground_atom, parse_ground_literal
from .reify import ReifiedBase, reify
from .report import AnalysisReport, build_report, parse_json, render, render_json, render_text
from .states import (
    SweepLimitError, check_pins, enumerate_states, satisfies_constraints, state_space_size,
)

__version__ = "0.1.0"

# Exports whose modules load on first use (PEP 562); the sweep never reads them.
_LAZY = {
    "emit_asp": "emit",
    "print_domain": "printer",
    "print_policy": "printer",
    **dict.fromkeys((
        "classify_action", "classify_compliance", "detect_ambiguity", "detect_inconsistency",
        "detect_modality_conflicts", "detect_obligation_conflict", "detect_underspecification",
        "load_state",
    ), "one_state"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)


__all__ = [
    "AmbiguityStats",
    "AnalysisReport",
    "Atom",
    "AuthorizationClass",
    "Compliance",
    "Diagnostic",
    "DomainSpec",
    "ExecConstraint",
    "FamilyRecord",
    "GroundPolicy",
    "GroundingError",
    "Happening",
    "HeadLiteral",
    "IssueKind",
    "IssueRecord",
    "Literal",
    "Modality",
    "ParseResult",
    "Policy",
    "PolicyRule",
    "Position",
    "PredicateDecl",
    "PredicateKind",
    "ReifiedBase",
    "RuleKind",
    "Severity",
    "SortDecl",
    "SourceFile",
    "StateConstraint",
    "SweepLimitError",
    "SweepOptions",
    "SweepResult",
    "WorldState",
    "build_report",
    "check_pins",
    "classify_action",
    "classify_compliance",
    "collapse_families",
    "detect_ambiguity",
    "detect_inconsistency",
    "detect_modality_conflicts",
    "detect_obligation_conflict",
    "detect_underspecification",
    "emit_asp",
    "enumerate_states",
    "ground",
    "load_state",
    "merge_sweeps",
    "parse",
    "parse_files",
    "parse_ground_atom",
    "parse_ground_literal",
    "parse_json",
    "print_domain",
    "print_policy",
    "reify",
    "render",
    "render_json",
    "render_text",
    "satisfies_constraints",
    "state_space_size",
    "sweep",
    "validate",
]
