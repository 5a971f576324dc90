"""State-space enumeration, pins and state files for a ground domain.

States are complete truth assignments over the ground static and fluent
atoms, filtered by the domain's state constraints.  Exhaustive enumeration is
exponential, so callers can pin atoms to carve out a slice and must size the
remainder with ``state_space_size`` before iterating blindly.  Assignments
and constraints are int masks from the ground policy's index
(``reify.Index``), which also filters a state's executable actions
(``Index.executable``).
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Iterator

from .diagnostics import Diagnostic, Severity
from .engine import WorldState
from .grounding import GroundPolicy
from .model import Atom, Literal
from .parser import parse_ground_literal

DEFAULT_MAX_STATES = 1 << 20


def satisfies_constraints(gp: GroundPolicy, state: WorldState | int) -> bool:
    """True when the state violates no state constraint.

    ``state`` is a WorldState over ``gp.state_atoms`` or its int mask, which
    reads the assignment as a binary numeral in declaration order:
    ``gp.state_atoms[i]`` is bit ``n - 1 - i``, so the first declared atom is
    the most significant.  ``gp.index.mask(state)`` builds it; see
    ``reify.Index``.
    """
    index = gp.index
    if not isinstance(state, int):
        state = index.mask(state)
    for need, forbid, head_need, head_forbid in index.constraints:
        if state & need == need and not state & forbid:
            if state & head_need != head_need or state & head_forbid:
                return False
    return True


def check_pins(gp: GroundPolicy, pins: Iterable[Literal]) -> list[Diagnostic]:
    """Validate pin literals: known state atoms, no contradictions."""
    out: list[Diagnostic] = []
    signs: dict[Atom, bool] = {}
    for pin in pins:
        if pin.atom not in gp.index.bits:
            out.append(
                Diagnostic(Severity.ERROR, f"pin atom {pin.atom} is not a state atom")
            )
            continue
        previous = signs.get(pin.atom)
        if previous is not None and previous != pin.positive:
            out.append(Diagnostic(Severity.ERROR, f"contradictory pins for {pin.atom}"))
        signs[pin.atom] = pin.positive
    return out


def state_space_size(gp: GroundPolicy, pins: Iterable[Literal] = ()) -> int:
    """Number of assignments enumeration will visit (before constraints)."""
    pinned = {pin.atom for pin in pins}
    unpinned = [a for a in gp.state_atoms if a not in pinned]
    return 1 << len(unpinned)


class SweepLimitError(ValueError):
    """Raised for invalid pins or a state space above the configured ceiling.

    Subclasses ``ValueError``: both are bad argument values.
    """


def check_state_space(
    gp: GroundPolicy, pins: tuple[Literal, ...], max_states: int
) -> None:
    """Refuse bad pins and slices holding more than ``max_states`` assignments."""
    problems = check_pins(gp, pins)
    if problems:
        raise SweepLimitError("\n".join(str(d) for d in problems))
    size = state_space_size(gp, pins)
    if size > max_states:
        raise SweepLimitError(
            f"state space holds {size} assignments, above the limit of "
            f"{max_states}; pin atoms or raise the limit"
        )


def enumerate_states(
    gp: GroundPolicy, pins: Iterable[Literal] = ()
) -> Iterator[WorldState]:
    """All constraint-satisfying states, respecting pinned literals.

    Deterministic order: increasing int mask.  The first declared atom is
    the most significant bit, so the all-false assignment of unpinned atoms
    comes first and the last declared atom varies fastest.  Assignments are
    int masks checked by ``satisfies_constraints``; only an accepted one
    becomes a WorldState, with its ``mask`` set.  Contradictory or unknown
    pins yield an empty stream; call check_pins to get the diagnostics.
    """
    pins = list(pins)
    if check_pins(gp, pins):
        return
    bits = gp.index.bits
    signs = {pin.atom: pin.positive for pin in pins}
    # The policy's own atoms, so that set unions reuse their stored hashes.
    pinned = frozenset(atom for atom in gp.state_atoms if signs.get(atom))
    pinned_mask = sum(bits[atom] for atom in pinned)
    free = [atom for atom in reversed(gp.state_atoms) if atom not in signs]
    # Per 8 unpinned atoms, least significant first, every sub-assignment as
    # (mask bits, true atoms) in increasing mask order, built by doubling.
    tables = []
    for start in range(0, len(free), 8):
        table = [(0, frozenset())]
        for atom in free[start : start + 8]:
            bit, one = bits[atom], frozenset((atom,))
            table += [(mask | bit, atoms | one) for mask, atoms in table]
        tables.append(table)
    low, *high = tables or [[(0, frozenset())]]
    for chunks in product(*reversed(high)):
        high_mask = pinned_mask + sum(mask for mask, _ in chunks)
        high_atoms = pinned.union(*(atoms for _, atoms in chunks))
        for mask, atoms in low:
            mask |= high_mask
            if satisfies_constraints(gp, mask):
                state = WorldState(gp.state_atoms, high_atoms | atoms)
                state.__dict__["mask"] = mask
                yield state


def parse_pins(texts: Iterable[str]) -> list[Literal]:
    """Parse pin arguments of the form ``atom`` or ``!atom``."""
    return [parse_ground_literal(text) for text in texts]


def load_state(gp: GroundPolicy, text: str) -> tuple[WorldState | None, list[Diagnostic]]:
    """Read a state file: one ground literal per line, closed world.

    Atoms not listed are false.  Negative literals are allowed for
    documentation and checked for consistency with the positives.
    """
    out: list[Diagnostic] = []
    bits = gp.index.bits
    positives: set[Atom] = set()
    explicit_negatives: set[Atom] = set()
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        try:
            literal = parse_ground_literal(line)
        except ValueError as exc:
            out.append(Diagnostic(Severity.ERROR, f"line {number}: {exc}"))
            continue
        if literal.atom not in bits:
            out.append(
                Diagnostic(
                    Severity.ERROR,
                    f"line {number}: {literal.atom} is not a state atom",
                )
            )
            continue
        if literal.positive:
            positives.add(literal.atom)
        else:
            explicit_negatives.add(literal.atom)

    for atom in sorted(positives & explicit_negatives, key=str):
        out.append(Diagnostic(Severity.ERROR, f"state lists {atom} as both true and false"))

    if any(d.severity is Severity.ERROR for d in out):
        return None, out

    if not satisfies_constraints(gp, sum(bits[atom] for atom in positives)):
        out.append(Diagnostic(Severity.ERROR, "state violates a domain constraint"))
        return None, out
    return WorldState(gp.state_atoms, frozenset(positives)), out
