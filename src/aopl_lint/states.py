"""State-space enumeration and pins for a ground domain.

States are complete truth assignments over the ground static and fluent
atoms, filtered by the domain's state constraints.  Exhaustive enumeration is
exponential, so callers can pin atoms to carve out a slice and must size the
remainder with ``state_space_size`` before iterating blindly.  Assignments
are int masks over the ground policy's index (``reify.Index``), which holds
the constraints as tables of the sub-masks each component of them accepts,
and also filters a state's executable actions (``Index.executable``).
"""

from __future__ import annotations

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
    ``reify.Index`` for the constraint tables.
    """
    index = gp.index
    if not isinstance(state, int):
        state = index.mask(state)
    for component, accepted in index.constraints:
        if state & component not in accepted:
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

    Deterministic order: increasing int mask.  The lowest run of unpinned
    bits is counted through in steps of its lowest bit, once for each submask
    of the unpinned bits above it; with no pins that is one count through
    every assignment.  The first declared atom is the most significant bit,
    so the all-false assignment comes first and the last declared atom varies
    fastest.  Each assignment is checked by ``satisfies_constraints``, and an
    accepted one becomes a WorldState built ``from_mask`` alone.  Contradictory
    or unknown pins yield an empty stream; call check_pins to get the diagnostics.
    """
    pins = list(pins)
    if check_pins(gp, pins):
        return
    bits = gp.index.bits
    signs = {pin.atom: pin.positive for pin in pins}
    pinned = sum(bits[atom] for atom, positive in signs.items() if positive)
    free = sum(bit for atom, bit in bits.items() if atom not in signs)
    universe, build = gp.state_atoms, WorldState.from_mask
    low = free & -free
    run = free & ~(free + low)  # the lowest run of unpinned bits, counted through
    step, rest, count = low or 1, free ^ run, 0
    for _ in range(1 << rest.bit_count()):
        base = pinned | count
        for mask in range(base, base + run + step, step):
            if satisfies_constraints(gp, mask):
                yield build(universe, mask)
        count = (count - rest) & rest


def parse_pins(texts: Iterable[str]) -> list[Literal]:
    """Parse pin arguments of the form ``atom`` or ``!atom``."""
    return [parse_ground_literal(text) for text in texts]
