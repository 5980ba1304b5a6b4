"""Contract of the package's immutable value classes: construction by
position and by keyword, read-only fields, and equality by value."""
import pytest

from bananagv.cli import RunConfig
from bananagv.geometry import BananaShape, BranchSpec
from bananagv.gvpf import CrossCheckReport, GVTable
from bananagv.qseries import IdentityCheck
from bananagv.series import VariableRegistry

SHAPE = BananaShape(1, 2)

#: Each class with field values, in field order, that construction keeps
#: as they are.
FIELDS = [
    (VariableRegistry, {"names": ("q", "p"), "weights": (1, 0)}),
    (BananaShape, {"v": 1, "w": 3}),
    (BranchSpec, {"direction": "NE", "labels": ("s0", "r0")}),
    (IdentityCheck, {"name": "index_one_shift", "passed": True, "detail": "exact to order 4"}),
    (
        CrossCheckReport,
        {"shape": SHAPE, "order": 4, "passed": False, "first_mismatch": ((1, 0, 1), 2, 3)},
    ),
    (GVTable, {"shape": SHAPE, "order": 1, "entries": (((0, 0, 0), 2), ((1, 0, 0), -2))}),
    (RunConfig, {"command": "compute", "order": 3, "shape": "1xW", "w": 2, "fmt": "csv"}),
]

HASHED = {VariableRegistry, BananaShape, BranchSpec}


@pytest.mark.parametrize("cls, fields", FIELDS, ids=[cls.__name__ for cls, _ in FIELDS])
def test_value_class_contract(cls, fields):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        with pytest.raises(AttributeError):
            setattr(by_position, name, value)
    assert by_position == by_keyword
    if cls in HASHED:
        assert hash(by_position) == hash(by_keyword)


def test_value_class_defaults():
    assert RunConfig("verify", 3) == RunConfig("verify", 3, None, None, "json")
    assert VariableRegistry(("q",)) == VariableRegistry(("q",), (1,))
    assert IdentityCheck("x", True).detail == ""
    assert CrossCheckReport(SHAPE, 4, True).first_mismatch is None


def test_registries_differ_by_names_or_weights():
    assert VariableRegistry(("q", "p")) != VariableRegistry(("q", "p"), (1, 0))
    assert VariableRegistry(("q",)) != VariableRegistry(("p",))


def test_shape_prints_as_the_cli_selector():
    assert str(BananaShape(2, 2)) == "2x2"
    assert str(BananaShape(1, 3)) == "1x3"
