"""Value semantics of the slotted record types (``diagnostics.Frozen``).

Each type keeps what it had as a frozen dataclass: its fields in order with
their defaults, positional and keyword construction, ``==`` and ``hash``
over the fields, the dataclass ``repr``, and no assignment or deletion.
"""

import copy
import inspect
import pickle
from dataclasses import make_dataclass

import pytest

from aopl_lint.analysis import Compliance, InstanceRecord, IssueRecord, SweepOptions
from aopl_lint.diagnostics import Frozen, Position, SourceFile
from aopl_lint.engine import AmbiguityStats, WorldState
from aopl_lint.grounding import GroundRule
from aopl_lint.model import (
    Atom,
    ExecConstraint,
    Happening,
    HeadLiteral,
    Literal,
    Modality,
    Policy,
    PredicateDecl,
    SortDecl,
    StateConstraint,
)
from aopl_lint.reify import Index, ReifiedBase
from aopl_lint.report import AnalysisReport
from aopl_lint.states import DEFAULT_MAX_STATES

REQUIRED = inspect.Parameter.empty

# Every field and its default, as each type declared them when it was a
# frozen dataclass.
FIELDS = {
    Position: {"line": REQUIRED, "column": REQUIRED},
    SourceFile: {"path": REQUIRED, "text": REQUIRED},
    Atom: {"predicate": REQUIRED, "args": ()},
    Literal: {"atom": REQUIRED, "positive": True},
    Happening: {"action": REQUIRED, "positive": True},
    HeadLiteral: {"modality": REQUIRED, "happening": REQUIRED, "positive": True},
    Policy: {"rules": ()},
    SortDecl: {"name": REQUIRED, "members": REQUIRED},
    PredicateDecl: {"name": REQUIRED, "kind": REQUIRED, "arg_sorts": ()},
    StateConstraint: {"body": REQUIRED, "head": None},
    ExecConstraint: {"action": REQUIRED, "condition": ()},
    WorldState: {"universe": REQUIRED, "true_atoms": REQUIRED},
    AmbiguityStats: {"n": REQUIRED, "n_p": REQUIRED, "n_np": REQUIRED},
    GroundRule: {
        "label": REQUIRED,
        "base_label": REQUIRED,
        "kind": REQUIRED,
        "head": None,
        "condition": (),
        "preferred": None,
        "dispreferred": None,
        "text": None,
    },
    Index: dict.fromkeys(
        (
            "bits pairs rules prefers actions slices relevant exec_conditions constraints "
            "by_label sort_facts"
        ).split(),
        REQUIRED,
    ),
    ReifiedBase: {"display": REQUIRED, "ground": REQUIRED},
    IssueRecord: {
        "kind": REQUIRED,
        "action": REQUIRED,
        "witness_state": REQUIRED,
        "rule_labels": (),
        "rule_texts": (),
        "pos_support": (),
        "neg_support": (),
        "missing": (),
        "pairs": (),
        "urgency": None,
        "stats": None,
        "case": None,
    },
    Compliance: dict.fromkeys(
        (
            "action_classes strongly_compliant weakly_compliant non_compliant "
            "obligation_compliant"
        ).split(),
        REQUIRED,
    ),
    SweepOptions: {"pins": (), "max_states": DEFAULT_MAX_STATES},
    InstanceRecord: {"record": REQUIRED, "state_count": REQUIRED},
    AnalysisReport: {
        "families": REQUIRED,
        "states_examined": REQUIRED,
        "domain_path": None,
        "domain_digest": None,
        "policy_path": None,
        "policy_digest": None,
        "pins": (),
    },
}
TYPES = list(FIELDS)


def sample(cls) -> tuple:
    """A distinct hashable value per field."""
    if cls is WorldState:  # its fields must agree: the true atoms lie in the universe
        return (Atom("p"), Atom("q")), frozenset({Atom("q")})
    return tuple(f"{name}-value" for name in FIELDS[cls])


def test_every_frozen_type_is_covered():
    assert set(Frozen.__subclasses__()) == set(FIELDS)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_fields_and_defaults_are_the_dataclass_ones(cls):
    parameters = list(inspect.signature(cls).parameters.values())
    assert [(p.name, p.default) for p in parameters] == list(FIELDS[cls].items())
    assert cls._fields == tuple(FIELDS[cls])
    values = sample(cls)
    required = sum(default is REQUIRED for default in FIELDS[cls].values())
    short = cls(*values[:required])
    for name, default in list(FIELDS[cls].items())[required:]:
        assert getattr(short, name) == default


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_equality_hash_and_repr_are_the_dataclass_ones(cls):
    values = sample(cls)
    twin = make_dataclass(cls.__name__, list(FIELDS[cls]), frozen=True)(*values)
    ours = cls(*values)
    assert repr(ours) == repr(twin)
    assert ours == cls(**dict(zip(FIELDS[cls], values)))
    assert hash(ours) == hash(cls(*values)) == hash(twin)
    assert ours != twin  # same values, another type
    assert ours != cls(*values[:-1], frozenset() if cls is WorldState else "changed")
    assert pickle.loads(pickle.dumps(ours)) == ours
    assert copy.deepcopy(ours) == ours


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    ours = cls(*sample(cls))
    for name in [*FIELDS[cls], "undeclared"]:
        with pytest.raises(AttributeError):
            setattr(ours, name, 1)
        with pytest.raises(AttributeError):
            delattr(ours, name)
    assert ours == cls(*sample(cls))


def test_repr_and_identity_examples():
    atom = Atom("p", ("a",))
    assert repr(atom) == "Atom(predicate='p', args=('a',))"
    assert repr(Policy()) == "Policy(rules=())"
    assert repr(HeadLiteral(Modality.OBL, Happening(atom, False))) == (
        "HeadLiteral(modality=<Modality.OBL: 'obl'>, "
        "happening=Happening(action=Atom(predicate='p', args=('a',)), positive=False), "
        "positive=True)"
    )
    assert Literal(atom) != Happening(atom)
    assert len({Literal(atom), Literal(Atom("p", ("a",))), Literal(atom, False)}) == 2


def test_a_world_state_keeps_cached_values_outside_its_fields():
    state = WorldState((Atom("p"), Atom("q")), frozenset({Atom("q")}))
    assert state.mask == 1 and str(state) == "{q}"
    assert state == WorldState((Atom("p"), Atom("q")), frozenset({Atom("q")}))
    assert "mask" not in repr(state)
