"""State-space enumeration and pins for a ground domain.

States are complete truth assignments over the ground static and fluent
atoms, filtered by the domain's state constraints.  Exhaustive enumeration is
exponential, so callers can pin atoms to carve out a slice and must size the
remainder with ``state_space_size`` before iterating blindly.  Assignments
are int masks over the ground policy's index (``reify.Index``), which holds
the constraints as tables of the sub-masks each component of them accepts.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .diagnostics import Diagnostic, Severity
from .engine import WorldState
from .grounding import GroundPolicy
from .model import Literal
from .parser import parse_ground_literal

DEFAULT_MAX_STATES = 1 << 20


def satisfies_constraints(gp: GroundPolicy, mask: int) -> bool:
    """True when the state violates no state constraint.

    ``mask`` is the state as an int, which reads the assignment as a binary
    numeral in declaration order: ``gp.state_atoms[i]`` is bit ``n - 1 - i``,
    so the first declared atom is the most significant.  A WorldState over
    ``gp.state_atoms`` holds it as ``state.mask``, and ``gp.index.mask(state)``
    builds it; see ``reify.Index`` for the constraint tables.
    """
    for component, accepted in gp.index.constraints:
        if mask & component not in accepted:
            return False
    return True


def _resolve(gp: GroundPolicy, pins: Iterable[Literal]) -> tuple[list[Diagnostic], int, int]:
    """The pins' diagnostics, the bits they leave free and those pinned true, by the last sign."""
    bits, out = gp.index.bits, []
    pinned = true = 0
    for pin in pins:
        bit = bits.get(pin.atom)
        if bit is None:
            out.append(Diagnostic(Severity.ERROR, f"pin atom {pin.atom} is not a state atom"))
            continue
        if pinned & bit and bool(true & bit) != pin.positive:
            out.append(Diagnostic(Severity.ERROR, f"contradictory pins for {pin.atom}"))
        pinned |= bit
        true = true | bit if pin.positive else true & ~bit
    return out, ((1 << len(bits)) - 1) ^ pinned, true


def check_pins(gp: GroundPolicy, pins: Iterable[Literal]) -> list[Diagnostic]:
    """Validate pin literals, in order: known state atoms, no sign unlike the last for its atom."""
    return _resolve(gp, pins)[0]


def state_space_size(gp: GroundPolicy, pins: Iterable[Literal] = ()) -> int:
    """Number of assignments enumeration will visit (before constraints)."""
    return 1 << _resolve(gp, pins)[1].bit_count()


class SweepLimitError(ValueError):
    """Raised for invalid pins or a state space above the configured ceiling.

    Subclasses ``ValueError``: both are bad argument values.
    """


def check_state_space(
    gp: GroundPolicy, pins: tuple[Literal, ...], max_states: int
) -> int:
    """Refuse bad pins and slices over ``max_states`` assignments; return the unpinned bits."""
    problems, free, _ = _resolve(gp, pins)
    if problems:
        raise SweepLimitError("\n".join(str(d) for d in problems))
    size = 1 << free.bit_count()
    if size > max_states:
        raise SweepLimitError(
            f"state space holds {size} assignments, above the limit of "
            f"{max_states}; pin atoms or raise the limit"
        )
    return free


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
    problems, free, pinned = _resolve(gp, pins)
    if problems:
        return
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
    """Parse pin arguments of the form ``atom`` or ``!atom``.

    A pin spelled canonically, such as ``colonel(c)`` or ``!authorized(c,m)``,
    takes one match; see ``parse_ground_literal``.
    """
    return [parse_ground_literal(text) for text in texts]
