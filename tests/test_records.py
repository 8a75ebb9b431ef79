"""The library's record classes: fields, construction, validation,
equality, hashing, immutability and repr."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import mubar
from mubar import (
    Component,
    FamilyId,
    FamilyVerification,
    InvariantReport,
    IterationVerification,
    SearchHit,
    SeifertData,
)
from mubar.families import CheckResult

# class, its fields in order, and one valid set of values
RECORDS = [
    (FamilyId, ("tag", "n"), ("A", 3)),
    (CheckResult, ("name", "passed", "expected", "actual"), ("mu_bar", True, 8, 8)),
    (
        FamilyVerification,
        ("family", "n", "params", "checks", "observed"),
        ("A", 1, (2, 5, 17), (CheckResult("unimodular", True, 1, 1),), ()),
    ),
    (
        IterationVerification,
        (
            "family", "steps", "max_link", "max_support", "candidates",
            "survivors", "step_records", "no_candidate",
        ),
        ("B", 2, 2, 4, ((0, 1),), ((0, 1),), ({"step": 1},), False),
    ),
    (Component, ("id", "tag"), ("a", "gray")),
    (SearchHit, ("vector", "trace"), ((0, 1), [{"move": "blow_down"}])),
    (
        InvariantReport,
        ("det", "inertia", "wu", "wu_square", "mu_bar", "rokhlin"),
        (1, (0, 0, 4), (1, 0, 0, 0), -4, 0, 0),
    ),
    (SeifertData, ("e0", "cone_pairs"), (-1, ((2, 1), (3, 1), (7, 1)))),
]
FROZEN = {
    FamilyId, CheckResult, FamilyVerification, Component, InvariantReport,
    SeifertData,
}
# another valid first field, for a record that differs in one field
OTHER_FIRST = {
    FamilyId: "B", CheckResult: "rokhlin", FamilyVerification: "B",
    IterationVerification: "A", Component: "b", SearchHit: (1, 1),
    InvariantReport: -1, SeifertData: -2,
}
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_fields_and_construction(cls, fields, values):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert by_position == by_keyword
    assert tuple(getattr(by_position, f) for f in fields) == values
    assert not hasattr(by_position, "__dict__")
    with pytest.raises(TypeError):
        cls(*values[:-1])


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_equality_and_hashing(cls, fields, values):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert a != values and a != object()
    assert a != cls(OTHER_FIRST[cls], *values[1:])
    if cls in FROZEN:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_assignment(cls, fields, values):
    rec = cls(*values)
    if cls in FROZEN:
        for f in fields:
            with pytest.raises(AttributeError):
                setattr(rec, f, values[0])
            with pytest.raises(AttributeError):
                delattr(rec, f)
        assert tuple(getattr(rec, f) for f in fields) == values
    else:
        setattr(rec, fields[0], "changed")
        assert getattr(rec, fields[0]) == "changed"
    with pytest.raises(AttributeError):
        rec.not_a_field = 1


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_copy_and_pickle(cls, fields, values):
    rec = cls(*values)
    for other in (copy.copy(rec), copy.deepcopy(rec), pickle.loads(pickle.dumps(rec))):
        assert type(other) is cls and other == rec


def test_repr():
    assert repr(FamilyId("A", 3)) == "FamilyId(tag='A', n=3)"
    assert repr(Component("a", "gray")) == "Component(id='a', tag='gray')"
    assert repr(SeifertData(-1, [(2, 1), (3, 1)])) == (
        "SeifertData(e0=-1, cone_pairs=((2, 1), (3, 1)))"
    )
    assert repr(CheckResult("det", False, 1, 5)) == (
        "CheckResult(name='det', passed=False, expected=1, actual=5)"
    )
    # the trace is left out of a hit's repr, but still compared
    hit = SearchHit((0, -1), [{"move": "blow_down"}])
    assert repr(hit) == "SearchHit(vector=(0, -1))"
    assert hit != SearchHit((0, -1), [])


def test_validation():
    with pytest.raises(ValueError):
        FamilyId("C", 1)
    with pytest.raises(ValueError):
        FamilyId("A", 0)
    with pytest.raises(ValueError):
        Component("a", "red")
    with pytest.raises(ValueError):
        SeifertData(-1, ((4, 2),))
    with pytest.raises(ValueError):
        InvariantReport(1, (0, 0, 4), (0,), -12, 5, None)
    with pytest.raises(ValueError):
        InvariantReport(1, (0, 0, 4), (0,), -12, 8, 0)
    # SeifertData stores its pairs as a tuple of int pairs
    assert SeifertData(-1, [[2, 1]]).cone_pairs == ((2, 1),)


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(Path(mubar.__file__).parents[1]))
    code = (
        "import sys, mubar.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
