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
