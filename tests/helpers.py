"""Shared loaders for the test suite."""

from __future__ import annotations

from pathlib import Path

from aopl_lint import WorldState, ground, reify
from aopl_lint.diagnostics import SourceFile
from aopl_lint.parser import parse, parse_files

DATA = Path(__file__).parent / "data"


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


def executable_actions(gp, state: WorldState) -> tuple:
    """The ground actions ``Index.executable`` leaves in ``state``."""
    return tuple(gp.action_atoms[a] for a in gp.index.executable(gp.index.mask(state)))


def action_atom(gp, text: str):
    for atom in gp.action_atoms:
        if str(atom) == text:
            return atom
    raise KeyError(text)
