from __future__ import annotations

import pytest

from helpers import load_base


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
