"""Command line interface.

Exit codes: 0 when no findings are reported, 1 when the requested analysis
reports findings, 2 on usage, parse, or input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from itertools import islice

from .analysis import SweepOptions, SweepResult, classify_compliance, sweep
from .diagnostics import SourceFile
from .emit import emit_asp
from .grounding import ground
from .parser import parse_files, parse_ground_atom
from .report import build_report, render
from .reify import reify
from .states import (
    DEFAULT_MAX_STATES,
    SweepLimitError,
    check_state_space,
    enumerate_states,
    load_state,
    parse_pins,
)


def _count(text: str) -> int:
    """A non-negative integer read from the command line or the environment."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "files",
        nargs="+",
        metavar="FILE",
        help="domain and policy source files, merged in order",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aopl-lint",
        description="Analyze authorization and obligation policies for "
        "inconsistency, coverage gaps, ambiguity, and conflicting directives.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="sweep the state space and report finding families"
    )
    _add_common(analyze)
    analyze.add_argument(
        "--pin",
        action="append",
        default=[],
        metavar="LITERAL",
        help="fix a state literal, e.g. 'colonel(c)' or '!authorized(c,m)'",
    )
    analyze.add_argument("--max-states", type=_count)
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.add_argument("-o", "--output", metavar="PATH")

    check = commands.add_parser("check", help="report findings in one state")
    _add_common(check)
    check.add_argument("--state", required=True, metavar="PATH")
    check.add_argument(
        "--action",
        metavar="ATOM",
        help="restrict the report to one ground action",
    )
    check.add_argument("--format", choices=("text", "json"), default="text")

    classify = commands.add_parser(
        "classify", help="classify an event's compliance in one state"
    )
    _add_common(classify)
    classify.add_argument("--state", required=True, metavar="PATH")
    classify.add_argument(
        "--do",
        action="append",
        default=[],
        metavar="ATOM",
        dest="event",
        help="ground action performed as part of the event (repeatable)",
    )

    emit = commands.add_parser("emit-asp", help="print the policy as ASP text")
    _add_common(emit)
    emit.add_argument("--variant", choices=("lp", "rei"), default="rei")
    emit.add_argument("--state", metavar="PATH")
    emit.add_argument("-o", "--output", metavar="PATH")

    states_cmd = commands.add_parser("states", help="enumerate the state space")
    _add_common(states_cmd)
    states_cmd.add_argument("--pin", action="append", default=[], metavar="LITERAL")
    states_cmd.add_argument("--limit", type=_count, default=None)
    states_cmd.add_argument("--max-states", type=_count)

    return parser


class _InputError(Exception):
    pass


def _max_states(args) -> int:
    if args.max_states is not None:
        return args.max_states
    raw = os.environ.get("AOPL_LINT_MAX_STATES")
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        return _count(raw)
    except argparse.ArgumentTypeError as exc:
        raise _InputError(f"AOPL_LINT_MAX_STATES: {exc}") from None


def _read(path: str) -> SourceFile:
    try:
        return SourceFile.load(path)
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc


def _load_base(paths: list[str]):
    sources = [_read(path) for path in paths]
    result = parse_files(sources)
    if not result.ok:
        raise _InputError(
            "\n".join(str(d) for d in result.diagnostics)
        )
    for diag in result.diagnostics:
        print(str(diag), file=sys.stderr)
    return sources, reify(ground(result.policy, result.domain))


def _load_state_file(base, path: str):
    state, diagnostics = load_state(base.ground, _read(path).text)
    if state is None:
        raise _InputError("\n".join(f"{path}: {d.message}" for d in diagnostics))
    return state


def _parse_action(base, text: str):
    try:
        atom = parse_ground_atom(text)
    except ValueError as exc:
        raise _InputError(str(exc)) from exc
    if atom not in base.ground.action_atoms:
        raise _InputError(f"{atom} is not a ground action of this domain")
    return atom


def _parse_pin_args(texts: list[str]):
    try:
        return tuple(parse_pins(texts))
    except ValueError as exc:
        raise _InputError(str(exc)) from exc


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc}") from exc


def _write_report(
    sources, result: SweepResult, fmt: str, output: str | None, pins=()
) -> int:
    """Render a sweep's report; the exit code says whether it found anything.

    With several sources the first is the domain and the rest the policy.
    """
    domain = sources[0]
    policy = sources[1:] or sources
    report = build_report(
        result,
        domain_path=domain.path,
        domain_text=domain.text,
        policy_path="+".join(s.path for s in policy),
        policy_text="".join(s.text for s in policy),
        pins=tuple(str(p) for p in pins),
    )
    _write_output(render(report, fmt), output)
    return 1 if report.families else 0


def _cmd_analyze(args) -> int:
    sources, base = _load_base(args.files)
    pins = _parse_pin_args(args.pin)
    result = sweep(base, SweepOptions(pins=pins, max_states=_max_states(args)))
    return _write_report(sources, result, args.format, args.output, pins)


def _cmd_check(args) -> int:
    sources, base = _load_base(args.files)
    state = _load_state_file(base, args.state)
    only = _parse_action(base, args.action) if args.action else None

    result = sweep(base, SweepOptions(pins=state.literals()))
    if only is not None:
        # One state: every family left keeps its count of 1.
        result = replace(
            result,
            instances=tuple(i for i in result.instances if i.record.action.action == only),
        )
    return _write_report(sources, result, args.format, None)


def _cmd_classify(args) -> int:
    _, base = _load_base(args.files)
    state = _load_state_file(base, args.state)
    event = tuple(_parse_action(base, text) for text in args.event)

    compliance = classify_compliance(base, state, event)
    print(f"state: {state}")
    event_display = ", ".join(str(a) for a in event)
    print(f"event: {{{event_display}}}")
    for action, verdict in compliance.action_classes:
        print(f"{action}: {verdict.value}")
    if compliance.strongly_compliant:
        level = "strongly compliant"
    elif compliance.weakly_compliant:
        level = "weakly compliant"
    else:
        level = "non compliant"
    print(f"event authorization: {level}")
    obligations = "satisfied" if compliance.obligation_compliant else "violated"
    print(f"event obligations: {obligations}")
    return 0


def _cmd_emit_asp(args) -> int:
    _, base = _load_base(args.files)
    state = _load_state_file(base, args.state) if args.state else None
    _write_output(emit_asp(base, variant=args.variant, state=state), args.output)
    return 0


def _cmd_states(args) -> int:
    _, base = _load_base(args.files)
    pins = _parse_pin_args(args.pin)
    check_state_space(base.ground, pins, _max_states(args))
    for state in islice(enumerate_states(base.ground, pins), args.limit):
        print(str(state))
    return 0


_HANDLERS = {
    "analyze": _cmd_analyze,
    "check": _cmd_check,
    "classify": _cmd_classify,
    "emit-asp": _cmd_emit_asp,
    "states": _cmd_states,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (_InputError, SweepLimitError) as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
