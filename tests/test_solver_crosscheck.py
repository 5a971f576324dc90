"""Cross-check of the emitted rei programs against a real ASP solver.

Runs only when the clingo Python module is installed; the native engine is
stdlib-only, so CI without a solver skips this file.
"""

from __future__ import annotations

import pytest

clingo = pytest.importorskip("clingo")

from aopl_lint import HeadLiteral, emit_asp, enumerate_states

from helpers import load_base
from reference import answer_sets

FIXTURES = [
    ("mission.dom", "mission_strict.aopl"),
    ("mission.dom", "mission_defeasible.aopl"),
    ("mission.dom", "mission_ambiguous.aopl"),
]


def _is_deontic(symbol) -> bool:
    if symbol.name != "holds" or len(symbol.arguments) != 1:
        return False
    inner = symbol.arguments[0]
    if inner.name == "neg" and len(inner.arguments) == 1:
        inner = inner.arguments[0]
    return inner.name in ("permitted", "obl")


def _solver_projections(program: str) -> set[frozenset[str]]:
    control = clingo.Control(["0"])
    control.add("base", [], program)
    control.ground([("base", [])])
    projections: set[frozenset[str]] = set()
    with control.solve(yield_=True) as handle:
        for model in handle:
            projections.add(
                frozenset(
                    str(s) for s in model.symbols(atoms=True) if _is_deontic(s)
                )
            )
    return projections


def _head_term(head: HeadLiteral) -> str:
    action = str(head.happening.action)
    happening = action if head.happening.positive else f"neg({action})"
    term = f"{head.modality.value}({happening})"
    return term if head.positive else f"neg({term})"


@pytest.mark.parametrize("names", FIXTURES, ids=lambda names: names[1])
def test_solver_agrees_on_every_state(names):
    base = load_base(*names)
    for state in enumerate_states(base.ground):
        program = emit_asp(base, variant="rei", state=state)
        expected = {
            frozenset(f"holds({_head_term(h)})" for h in m.heads)
            for m in answer_sets(base, state)
        }
        assert _solver_projections(program) == expected, str(state)
