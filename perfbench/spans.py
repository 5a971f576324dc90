"""Spans and counters for the traced benchmark run.

Spans are recorded from outside the package.  For the length of a traced
pipeline, every attribute of an ``aopl_lint`` module that refers to a
wrapped function is replaced by a recording wrapper, so calls made inside
the package (``sweep`` calling ``answer_sets``) are recorded along with the
benchmark's own calls.  Nothing under ``src/`` changes.

A span is (id, parent, name, start, end, run id).  Spans live in flat arrays
and are written out once, when the benchmark ends.  A span's self time is
its duration minus the time its direct children cover; the program is
single-threaded, so children never overlap and that time is their sum.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("l")
        self.parent = array("l")
        self.run_id = array("l")
        self.run = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self.totals: dict[str, list[float]] = {}  # name -> [calls, total, self]
        self.counters: dict[str, float] = {}

    def begin_run(self, run: int) -> None:
        """Start aggregating a new run; spans of earlier runs are kept."""
        self.run = run
        self.totals = {}
        self.counters = {}

    def enter(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        span = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.run_id.append(self.run)
        self.end.append(0.0)
        self._stack.append([span, 0.0])
        self.start.append(perf_counter())
        return span

    def exit(self, span: int) -> None:
        now = perf_counter()
        self.end[span] = now
        _, covered = self._stack.pop()
        duration = now - self.start[span]
        if self._stack:
            self._stack[-1][1] += duration
        entry = self.totals.setdefault(self.names[self.name_id[span]], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - covered

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, value), value)

    def wrap(self, name: str, func, on_result=None):
        """A function recording one span per call."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = tracer.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit(span)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def wrap_generator(self, name: str, func, on_item=None):
        """A generator function recording one span per item produced."""
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            iterator = iter(func(*args, **kwargs))
            while True:
                span = tracer.enter(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    tracer.exit(span)
                if on_item is not None:
                    on_item(item)
                yield item

        return wrapper

    def write(self, path) -> None:
        """Write every span as tab-separated text, times in nanoseconds."""
        origin = self.start[0] if len(self.start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\trun\tname\tstart_ns\tend_ns\n")
            for span in range(len(self.start)):
                out.write(
                    f"{span}\t{self.parent[span]}\t{self.run_id[span]}\t"
                    f"{self.names[self.name_id[span]]}\t"
                    f"{round((self.start[span] - origin) * 1e9)}\t"
                    f"{round((self.end[span] - origin) * 1e9)}\n"
                )


def _package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "aopl_lint" or name.startswith("aopl_lint."))
    ]


def _result_len(result) -> int:
    if result is None:
        return 0
    if isinstance(result, tuple):  # detect_ambiguity returns (record, stats)
        return 0 if result[0] is None else 1
    return len(result) if isinstance(result, list) else 1


def _replacements(tracer: Tracer) -> tuple[list, list]:
    """(original function, wrapper) pairs and (class, method, wrapper) triples.

    A name a later version of the package no longer has is skipped; its
    metrics then read 0.
    """
    analysis, engine, grounding, model, parser, reify, report, states = (
        importlib.import_module(f"aopl_lint.{name}")
        for name in ("analysis", "engine", "grounding", "model", "parser", "reify", "report", "states")
    )

    functions: list[tuple] = []
    methods: list[tuple] = []

    def span(module, attr: str, name: str, on_result=None) -> None:
        original = getattr(module, attr, None)
        if original is not None:
            functions.append((original, tracer.wrap(name, original, on_result)))

    def counted(module, attr: str, on_result) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            on_result(result)
            return result

        functions.append((original, wrapper))

    def on_statements(result) -> None:
        tracer.count("parser.statements", sum(len(part) for part in result))

    def on_ground(gp) -> None:
        tracer.count("grounding.ground_rules", len(gp.rules))
        tracer.count("grounding.state_atoms", len(gp.state_atoms))
        tracer.count("grounding.action_atoms", len(gp.action_atoms))

    def on_models(models) -> None:
        tracer.count("engine.models", len(models))
        tracer.maximum("engine.models_per_state_max", len(models))

    def on_constraints(ok: bool) -> None:
        tracer.count("states.assignments")
        if not ok:
            tracer.count("states.rejected")

    def on_records(result) -> None:
        tracer.count("analysis.records", _result_len(result))

    span(parser, "parse_files", "parser.parse_files")
    counted(parser, "_parse_statements", on_statements)
    span(model, "validate", "model.validate")
    span(grounding, "ground", "grounding.ground", on_ground)
    span(reify, "reify", "reify.reify")
    span(states, "executable_actions", "states.executable_actions")
    counted(states, "satisfies_constraints", on_constraints)
    original = getattr(states, "enumerate_states", None)
    if original is not None:
        functions.append(
            (
                original,
                tracer.wrap_generator(
                    "states.enumerate", original, lambda _: tracer.count("states.examined")
                ),
            )
        )
    span(engine, "answer_sets", "engine.answer_sets", on_models)
    span(engine, "entails", "engine.entails")
    for detector in (
        "inconsistency",
        "modality_conflicts",
        "underspecification",
        "ambiguity",
        "obligation_conflict",
    ):
        span(analysis, f"detect_{detector}", f"analysis.detect_{detector}", on_records)
    span(analysis, "sweep", "analysis.sweep")
    span(analysis, "collapse_families", "analysis.collapse_families")
    span(report, "build_report", "report.build_report")
    span(report, "render_text", "report.render_text")
    span(report, "render_json", "report.render_json")

    text_or_print = getattr(reify.ReifiedBase, "text_or_print", None)
    if text_or_print is not None:
        methods.append(
            (reify.ReifiedBase, "text_or_print", tracer.wrap("reify.text_or_print", text_or_print))
        )
    return functions, methods


@contextmanager
def installed(tracer: Tracer):
    """Replace the traced functions everywhere the package refers to them."""
    functions, methods = _replacements(tracer)
    wrappers = {id(original): wrapper for original, wrapper in functions}
    undo: list[tuple] = []
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                undo.append((module, attr, value))
                setattr(module, attr, wrapper)
    for owner, attr, wrapper in methods:
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)
    try:
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
