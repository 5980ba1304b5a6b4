"""Tests for shapes, registries, B locations, and branch tables."""
from math import lcm

import pytest

from bananagv.geometry import (
    BananaShape,
    BranchSpec,
    b_locations,
    branch_specs,
    parse_shape,
    registry_for,
)
from bananagv.gvpf import pf_1w
from bananagv.oracle import behrend_twist, naive_pf

TWO = BananaShape(2, 2)


def test_shape_basics():
    assert str(TWO) == "2x2"
    with pytest.raises(ValueError, match="shape parameter v must be at least 1"):
        BananaShape(0, 2)
    with pytest.raises(ValueError, match="shape parameter w must be at least 1"):
        BananaShape(1, 0)


def test_shape_parameters_must_be_ints():
    for bad in (1.0, True):
        with pytest.raises(TypeError, match="shape parameter v must be an int"):
            BananaShape(bad, 2)
        with pytest.raises(TypeError, match="shape parameter w must be an int"):
            BananaShape(2, bad)
    for bad in (2.0, 0.5):
        with pytest.raises(TypeError, match="shape parameter w must be an int"):
            parse_shape("1xW", w=bad)


def test_replace_and_make_validate_shapes():
    # namedtuple's own _make, which _replace calls, skips __new__
    assert TWO._replace(w=3) == BananaShape(2, 3)
    with pytest.raises(ValueError, match="shape parameter v must be at least 1"):
        BananaShape._make((0, -1))
    with pytest.raises(ValueError, match="shape parameter w must be at least 1"):
        TWO._replace(w=0)


def test_parse_shape():
    assert parse_shape("2x2") == TWO
    assert parse_shape("1xW", w=3) == BananaShape(1, 3)
    with pytest.raises(ValueError):
        parse_shape("2x2", w=2)
    with pytest.raises(ValueError):
        parse_shape("1xW")
    with pytest.raises(ValueError):
        parse_shape("1xW", w=0)
    with pytest.raises(ValueError):
        parse_shape("3x3")


def test_registries():
    assert registry_for(TWO).names == ("r0", "r1", "s0", "s1")
    assert registry_for(BananaShape(1, 3)).names == ("r0", "r1", "r2", "s")
    assert all(w == 1 for w in registry_for(TWO).weights)
    assert registry_for(BananaShape(2, 5)).names == (
        "r0", "r1", "r2", "r3", "r4", "s0", "s1"
    )


def test_b_locations():
    assert b_locations(TWO) == [0, 1]
    assert b_locations(BananaShape(1, 4)) == [0, 1, 2, 3]
    assert b_locations(BananaShape(1, 1)) == [0]
    assert b_locations(BananaShape(2, 3)) == [0, 1, 2, 3, 4, 5]
    assert b_locations(BananaShape(3, 3)) == [0, 1, 2]


# ----------------------------------------------------------- branch specs


def test_branch_spec_validation():
    with pytest.raises(ValueError):
        BranchSpec("NE", ())
    with pytest.raises(ValueError):
        BranchSpec("NE", ("s0", "r0", "s1"))
    with pytest.raises(ValueError):
        BranchSpec("NE", ("x0", "r0"))
    with pytest.raises(ValueError):
        BranchSpec("NE", ("r0", "r1"))
    with pytest.raises(ValueError):
        BranchSpec("NE", ("", "r0"))


def test_replace_and_make_validate_branch_specs():
    spec = BranchSpec("NE", ("s", "r"))
    assert spec._replace(labels=("r0", "s0")).period == 2
    with pytest.raises(ValueError, match="positive even"):
        spec._replace(labels=())
    with pytest.raises(ValueError, match="alternate"):
        BranchSpec._make(("NE", ("r0", "r1")))


def test_2x2_branch_tables():
    ne, n, s, sw = branch_specs(TWO, 0)
    assert (ne.direction, n.direction, s.direction, sw.direction) == ("NE", "N", "S", "SW")
    assert ne.labels == ("s0", "r0", "s1", "r1")
    assert n.labels == ("r0", "s0", "r1", "s1")
    assert s.labels == ("r1", "s1", "r0", "s0")
    assert sw.labels == ("s1", "r1", "s0", "r0")
    # the four branches leave along four distinct first edges
    assert len({b.labels[0] for b in (ne, n, s, sw)}) == 4


def test_2x2_second_location_swaps_indices():
    swap = str.maketrans("01", "10")
    for loc0, loc1 in zip(branch_specs(TWO, 0), branch_specs(TWO, 1)):
        assert loc1.labels == tuple(x.translate(swap) for x in loc0.labels)
    # as unordered data the two locations carry the same four sequences
    assert {b.labels for b in branch_specs(TWO, 0)} == {
        b.labels for b in branch_specs(TWO, 1)
    }


def test_1xw_branch_tables_at_location_zero():
    ne, n, s, sw = branch_specs(BananaShape(1, 2), 0)
    assert ne.labels == ("s", "r0", "s", "r1")
    assert n.labels == ("r0", "s", "r1", "s")
    assert s.labels == ("r1", "s", "r0", "s")
    assert sw.labels == ("s", "r1", "s", "r0")


def test_1xw_locations_are_cyclic_shifts():
    shape = BananaShape(1, 3)
    base = branch_specs(shape, 0)
    for i in (1, 2):
        rotate = {f"r{j}": f"r{(j + i) % 3}" for j in range(3)} | {"s": "s"}
        for b0, bi in zip(base, branch_specs(shape, i)):
            assert bi.labels == tuple(rotate[x] for x in b0.labels)


def test_branch_specs_reject_bad_locations():
    with pytest.raises(ValueError):
        branch_specs(TWO, 2)
    with pytest.raises(ValueError):
        branch_specs(BananaShape(1, 3), -1)
    with pytest.raises(ValueError, match="invalid B location 6 for shape 2x3"):
        branch_specs(BananaShape(2, 3), 6)
    # 1.0 and True compare equal to valid locations; 1.0 would make the
    # labels r1.0 and r0.0, which are not registry names
    for bad in (1.0, True):
        with pytest.raises(TypeError, match="B location must be an int"):
            branch_specs(BananaShape(1, 2), bad)


def test_branch_period_matches_shape():
    assert all(b.period == 4 for b in branch_specs(TWO, 0))
    for w in (1, 2, 3):
        assert all(b.period == 2 * w for b in branch_specs(BananaShape(1, w), 0))


# ------------------------------------------- identities of the walk, all shapes

SHAPES = [BananaShape(v, w) for v in range(1, 5) for w in range(1, 5)]


def _s(j, v):
    """Name of s_j on a shape with v diagonal variables; a lone s is s_0."""
    return "s" if v == 1 else f"s{j}"


def _renamed(series, target, rename):
    images = {a: target.exps(**{b: 1}) for a, b in rename.items()}
    return series.substitute_monomials(target, images)


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_enumeration_with_one_s_covers_the_1xw_closed_form(shape):
    """Sending every s_j to s folds location k of VxW onto location k mod w
    of 1xW, so the twisted enumeration becomes lcm(v, w) / w copies of the
    1xW closed form.  This checks the lcm period and the r indices mod w on
    every shape, against a formula the walk does not build."""
    v, w = shape
    want = lcm(v, w) // w * pf_1w(w, 8)
    rename = {f"r{i}": f"r{i}" for i in range(w)} | {_s(j, v): "s" for j in range(v)}
    twisted = behrend_twist(naive_pf(shape, 8))
    assert _renamed(twisted, want.registry, rename) == want


@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_enumeration_exchanges_r_and_s_between_vxw_and_wxv(shape):
    """Sending r_i to s_i and s_j to r_j turns the branches of VxW into
    those of WxV (NE and N trade places, and so do S and SW), so the
    twisted enumerations agree.  This checks the s indices mod v against
    the r indices mod w."""
    v, w = shape
    mirror = behrend_twist(naive_pf(BananaShape(w, v), 8))
    rename = {f"r{i}": _s(i, w) for i in range(w)} | {_s(j, v): f"r{j}" for j in range(v)}
    twisted = behrend_twist(naive_pf(shape, 8))
    assert _renamed(twisted, mirror.registry, rename) == mirror
