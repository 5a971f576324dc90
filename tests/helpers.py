"""Shared loaders for the test suite."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from aopl_lint import WorldState, ground, reify
from aopl_lint.analysis import SweepOptions
from aopl_lint.diagnostics import SourceFile
from aopl_lint.parser import parse, parse_files
from aopl_lint.states import parse_pins

DATA = Path(__file__).parent / "data"
BENCH = Path(__file__).parent.parent / "perfbench"


def load_base(*names: str):
    sources = [SourceFile.load(str(DATA / name)) for name in names]
    result = parse_files(sources)
    assert result.ok, [str(d) for d in result.diagnostics]
    return reify(ground(result.policy, result.domain))


def base_from(text: str):
    result = parse(text)
    assert result.ok, [str(d) for d in result.diagnostics]
    return reify(ground(result.policy, result.domain))


def make_state(gp, *true_atoms: str) -> WorldState:
    atom_map = {str(a): a for a in gp.state_atoms}
    return WorldState(gp.state_atoms, frozenset(atom_map[s] for s in true_atoms))


def satisfies(state: WorldState, literal) -> bool:
    """True when ``literal`` holds in ``state``."""
    return (literal.atom in state.true_atoms) == literal.positive


def negated(item):
    """A ``Literal`` or ``Happening`` with the other sign."""
    return item.replace(positive=not item.positive)


def executable(index, mask: int) -> list[int]:
    """Indexes of the actions no executability condition of ``index`` blocks in ``mask``."""
    return [
        a
        for a, conditions in enumerate(index.exec_conditions)
        if not any(mask & need == need and not mask & forbid for need, forbid in conditions)
    ]


def executable_actions(gp, state: WorldState) -> tuple:
    """The ground actions ``executable`` leaves in ``state``."""
    return tuple(gp.action_atoms[a] for a in executable(gp.index, gp.index.mask(state)))


def action_atom(gp, text: str):
    for atom in gp.action_atoms:
        if str(atom) == text:
            return atom
    raise KeyError(text)


def bench_module(stem: str):
    """A module of the benchmark, ``perfbench/STEM.py``, loaded read-only."""
    name = f"perfbench_{stem}"
    if name not in sys.modules:  # dataclasses look their module up by name
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{stem}.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def bench_workloads():
    """The benchmark's workload generator, ``perfbench/workloads.py``."""
    return bench_module("workloads")


def bench_case(name: str, seed: int = 1):
    """A benchmark workload's base, its sweep options with the workload's pins,
    and its expected outcome."""
    workload = bench_workloads().generate(name, seed)
    sources = [
        SourceFile(f"{name}.dom", workload.domain), SourceFile(f"{name}.aopl", workload.policy)
    ]
    result = parse_files(sources)
    assert result.ok, [str(d) for d in result.diagnostics]
    options = SweepOptions(pins=tuple(parse_pins(workload.pins)))
    return reify(ground(result.policy, result.domain)), options, workload.expected
