"""Value semantics of the slotted record types (``diagnostics.Frozen``).

Each type keeps what it had as a dataclass: its fields in order with their
defaults, positional and keyword construction, ``==`` and ``hash`` over the
fields, the dataclass ``repr``, ``replace`` as ``dataclasses.replace`` made
it, and no assignment or deletion.
"""

import copy
import dataclasses
import inspect
import pickle

import pytest

from aopl_lint.analysis import (
    Compliance,
    FamilyRecord,
    InstanceRecord,
    IssueRecord,
    SweepOptions,
    SweepResult,
)
from aopl_lint.diagnostics import Diagnostic, Frozen, Position, Severity, SourceFile
from aopl_lint.engine import AmbiguityStats, WorldState
from aopl_lint.grounding import GroundPolicy, GroundRule
from aopl_lint.model import (
    Atom,
    DomainSpec,
    ExecConstraint,
    Happening,
    HeadLiteral,
    Literal,
    Modality,
    Policy,
    PolicyRule,
    PredicateDecl,
    SortDecl,
    StateConstraint,
)
from aopl_lint.parser import ParseResult
from aopl_lint.reify import Index, ReifiedBase
from aopl_lint.report import AnalysisReport
from aopl_lint.states import DEFAULT_MAX_STATES

REQUIRED = inspect.Parameter.empty
# ``ParseResult.diagnostics`` was ``field(default_factory=list)``: its
# signature default is None, and each instance gets a list of its own.
NEW_LIST = "a new list"

# Every field and its default, as each type declared them when it was a
# frozen dataclass, less the fields removed since (``GroundRule.base_label``,
# ``Index.pairs`` and ``GroundPolicy.head_universe``).
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
        "kind": REQUIRED,
        "head": None,
        "condition": (),
        "preferred": None,
        "dispreferred": None,
        "text": None,
    },
    Index: dict.fromkeys(
        (
            "bits rules prefers actions slices relevant exec_conditions constraints "
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
    InstanceRecord: {"record": REQUIRED, "state_count": REQUIRED, "family": REQUIRED},
    AnalysisReport: {
        "families": REQUIRED,
        "states_examined": REQUIRED,
        "domain_path": None,
        "domain_digest": None,
        "policy_path": None,
        "policy_digest": None,
        "pins": (),
    },
    Diagnostic: {"severity": REQUIRED, "message": REQUIRED, "position": None, "rule_label": None},
    PolicyRule: {
        "label": REQUIRED,
        "kind": REQUIRED,
        "head": None,
        "condition": (),
        "preferred": None,
        "dispreferred": None,
        "text": None,
        "where": (),
    },
    DomainSpec: dict.fromkeys("sorts predicates state_constraints exec_constraints".split(), ()),
    GroundPolicy: {
        "rules": REQUIRED,
        "state_atoms": REQUIRED,
        "action_atoms": REQUIRED,
        "state_constraints": (),
        "exec_constraints": (),
        "sort_facts": (),
    },
    SweepResult: dict.fromkeys("instances states_examined family_counts".split(), REQUIRED),
    FamilyRecord: dict.fromkeys(
        (
            "kind action base_labels instance_labels rule_texts pos_support neg_support "
            "missing pairs urgency stats case witness_true_atoms state_count instance_count"
        ).split(),
        REQUIRED,
    ),
    ParseResult: {"policy": REQUIRED, "domain": REQUIRED, "diagnostics": NEW_LIST},
}
TYPES = list(FIELDS)
# A plain ``@dataclass``, so no hash; every other type was frozen.
UNHASHABLE = {ParseResult}


def dataclass_twin(cls) -> type:
    """A dataclass with ``cls``'s name and fields, frozen unless ``cls`` is unhashable."""
    return dataclasses.make_dataclass(
        cls.__name__, list(FIELDS[cls]), frozen=cls not in UNHASHABLE
    )


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
    assert [(p.name, p.default) for p in parameters] == [
        (name, None if default is NEW_LIST else default) for name, default in FIELDS[cls].items()
    ]
    assert cls._fields == tuple(FIELDS[cls])
    values = sample(cls)
    required = sum(default is REQUIRED for default in FIELDS[cls].values())
    short = cls(*values[:required])
    for name, default in list(FIELDS[cls].items())[required:]:
        assert getattr(short, name) == ([] if default is NEW_LIST else default)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_equality_hash_and_repr_are_the_dataclass_ones(cls):
    values = sample(cls)
    twin = dataclass_twin(cls)(*values)
    ours = cls(*values)
    assert repr(ours) == repr(twin)
    assert ours == cls(**dict(zip(FIELDS[cls], values)))
    if cls in UNHASHABLE:
        assert cls.__hash__ is None is type(twin).__hash__
    else:
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


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
def test_replace_is_the_dataclass_one(cls):
    values = sample(cls)
    ours, twin = cls(*values), dataclass_twin(cls)(*values)
    new = frozenset() if cls is WorldState else "changed"
    changes = {list(FIELDS[cls])[-1]: new}
    assert ours.replace(**changes) == cls(*values[:-1], new)
    assert repr(ours.replace(**changes)) == repr(dataclasses.replace(twin, **changes))
    assert ours.replace() == ours and ours.replace() is not ours
    with pytest.raises(TypeError):
        ours.replace(undeclared=1)
    assert ours == cls(*values)


def test_replace_leaves_a_ground_policys_cached_index_behind():
    policy = GroundPolicy((), (Atom("p"), Atom("q")), (), ())
    index = policy.index
    assert policy.index is index
    copy_ = policy.replace(sort_facts=(Atom("s"),))
    assert "index" not in vars(copy_)
    assert copy_.index is not index and copy_.index.sort_facts != index.sort_facts
    assert copy_.replace(sort_facts=()) == policy


def test_a_parse_result_gets_a_list_of_its_own_and_no_hash():
    first, second = ParseResult(None, None), ParseResult(None, None)
    assert first.diagnostics == [] and first.diagnostics is not second.diagnostics
    first.diagnostics.append(Diagnostic(Severity.WARNING, "w"))
    assert second.diagnostics == [] and first != second
    with pytest.raises(TypeError):
        hash(first)
