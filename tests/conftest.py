from __future__ import annotations

import pytest

from helpers import base_from, load_base


@pytest.fixture(scope="session")
def mission_strict():
    return load_base("mission.dom", "mission_strict.aopl")


@pytest.fixture(scope="session")
def mission_defeasible():
    return load_base("mission.dom", "mission_defeasible.aopl")


@pytest.fixture(scope="session")
def mission_ambiguous():
    return load_base("mission.dom", "mission_ambiguous.aopl")


@pytest.fixture(scope="session")
def shifts():
    return load_base("shifts.dom", "shifts.aopl")


@pytest.fixture(scope="session")
def shared_ambiguities():
    # Three split pairs on one fluent: every ambiguity's witness has 8 answer sets.
    return base_from(
        "sorts thing: a, b.\nfluent f(thing).\naction x(thing).\naction y(thing).\n"
        "rule x1: normally permitted(x(W)) if f(W).\n"
        "rule x2: normally !permitted(x(W)) if f(W).\n"
        "rule y1: normally permitted(y(W)) if f(W).\n"
        "rule y2: normally !permitted(y(W)) if f(W).\n"
        "rule o1: normally obl(x(W)) if f(W).\n"
        "rule o2: normally !obl(x(W)) if f(W).\n"
    )


@pytest.fixture(scope="session")
def preferred_elsewhere():
    # p1 defeats d2, a rule on go's permission, whenever h holds, though no
    # rule about go reads h.
    return base_from(
        "fluent f. fluent g. fluent h. fluent k.\naction go. action stay.\n"
        "rule d1: normally permitted(go) if f.\n"
        "rule d2: normally !permitted(go) if g.\n"
        "rule d3: normally obl(stay) if h.\n"
        "rule s1: permitted(stay) if k.\n"
        "prefer p1: d3 > d2.\n"
    )


@pytest.fixture(scope="session")
def blocked_elsewhere():
    # go cannot be done when k holds, though no rule about go reads k; r1's
    # body never holds, yet f decides which of its literals fail.
    return base_from(
        "sorts thing: t.\nfluent f. fluent g. fluent k.\naction go. action stay.\n"
        "impossible_exec go if k.\n"
        "rule r1: permitted(go) if f, !thing(t).\n"
        "rule r2: !permitted(go) if g.\n"
        "rule s1: permitted(stay) if g.\n"
    )


@pytest.fixture(scope="session")
def tied_by_exec():
    # go cannot be done when p and q are both false, so its gap when r is
    # false is seen first in {q}; {p} ties it on true atoms and wins on text.
    return base_from(
        "fluent p. fluent q. fluent r.\naction go.\n"
        "impossible_exec go if !p, !q.\n"
        "rule r1: permitted(go) if r.\n"
    )


@pytest.fixture(scope="session")
def tied_by_constraint():
    # The constraint rules out p and q both false, so go's gap ties {q} and
    # {p} as above; x1 lets a rule on go defeat one on stay, which cannot be
    # done when p and r hold.
    return base_from(
        "fluent p. fluent q. fluent r. fluent s.\naction go. action stay.\n"
        "constraint q if !p.\n"
        "impossible_exec stay if p, r.\n"
        "rule r1: normally permitted(go) if r.\n"
        "rule r2: normally permitted(stay) if s.\n"
        "rule r3: normally !permitted(stay) if q.\n"
        "prefer x1: r1 > r3.\n"
    )


@pytest.fixture(scope="session")
def tied_across_components():
    # Each thing's p and q form a component, and at least one of them holds,
    # so each component's fewest true atoms tie between {p} and {q}.  go(a)'s
    # gap with p(a) alone is first seen with q(b), and p(b) wins it on text.
    return base_from(
        "sorts thing: a, b.\nfluent p(thing). fluent q(thing).\naction go(thing).\n"
        "constraint q(X) if !p(X).\n"
        "rule r1: permitted(go(X)) if p(X), q(X).\n"
    )


@pytest.fixture(scope="session")
def joined_by_exec():
    # go's rule reads f and stay's reads g; go cannot be done when f and g
    # hold, which joins them in one component.  No action reads h, but g or
    # h holds, so go's gap ties {h} and {g} from two entries of the
    # component, and {g} wins on text though {h} comes first.
    return base_from(
        "fluent f. fluent g. fluent h.\naction go. action stay.\n"
        "constraint h if !g.\n"
        "impossible_exec go if f, g.\n"
        "rule r1: permitted(go) if f.\n"
        "rule r2: permitted(stay) if g.\n"
    )


@pytest.fixture(scope="session")
def pinned_away():
    # No rule reads a bit about idle, and pinning k leaves none of go's bits
    # free: both are components of no bits.
    return base_from(
        "fluent k. fluent f. fluent h.\naction go. action stay. action idle.\n"
        "rule r1: permitted(go) if k.\n"
        "rule r2: normally permitted(stay) if f.\n"
        "rule r3: normally !permitted(stay) if f.\n"
    )


@pytest.fixture(scope="session")
def chained():
    # x, y and z read overlapping pairs of bits, and z's executability reads
    # p: one component spans every unpinned bit, even with p pinned.
    return base_from(
        "fluent p. fluent q. fluent r. fluent s.\naction x. action y. action z.\n"
        "impossible_exec z if p.\n"
        "rule r1: permitted(x) if p, !q.\n"
        "rule r2: permitted(y) if q, !r.\n"
        "rule r3: permitted(z) if r, !s.\n"
    )


@pytest.fixture(scope="session")
def repeated_rules():
    # d1's body reads a place its head does not name, so go(X)'s slice holds
    # one ground d1 per place, and d2 and o1 read another predicate: the
    # rule lists of go's findings repeat a base label or name another one.
    return base_from(
        "sorts thing: a, b. sorts place: u, v.\n"
        "fluent at(thing, place). fluent busy(thing).\naction go(thing).\n"
        "rule d1: normally permitted(go(X)) if at(X, Y).\n"
        "rule d2: normally !permitted(go(X)) if busy(X).\n"
        "rule o1: obl(go(X)) if busy(X).\n"
    )
