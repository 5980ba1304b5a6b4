"""Combinatorics of multi-banana configurations.

A multi-banana is indexed by a pair ``(v, w)``.  Its fiber curve classes of
B-degree 1 are tracked by the variables ``r_i`` (curves over the horizontal
edges ``A_i``, i mod w) and ``s_j`` (curves over the diagonal edges ``C_j``,
j mod v); every series in the package is keyed by exponent vectors over
those variables.

The configuration resolves the fiber product over a disc of an ``I_v`` and
an ``I_w`` degeneration (cycles of v and w curves), so its edge labels
repeat along the lattice with period ``lcm(v, w)``, and everything here is
read off that lattice by one walk:

* ``b_locations``: the B edge sits at a residue ``k`` mod ``lcm(v, w)``.
* ``branch_specs``: from location ``k`` the walk up meets the pairs
  ``(r_{k+t}, s_{k+t})`` and the walk down ``(r_{k-1-t}, s_{k-1-t})``; the
  four branches leaving the B edge (NE, N, S, SW, by the direction of
  departure) read these pairs with the diagonal or the horizontal first.
* ``_sum_over_locations``: location ``k + 1`` is location ``k`` under
  ``r_i -> r_{i+1}``, ``s_j -> s_{j+1}``, since the walks from ``k + 1`` meet
  the pairs of the walks from ``k`` with every index one higher.  So a
  location's series, a product over its four branches, determines the
  others, and both routes build location 0 and sum its orbit here, in one
  pass of ``TruncatedSeries._orbit_sum`` that tallies every rotated key
  into the slices of the sum.  On ``2x2`` the shift exchanges the walks up
  and down, so location 1 has the branches of location 0 in another order
  and the same product.

Every function here accepts every shape ``(v, w)``.  Only ``(1, w)`` and
``(2, 2)`` have closed-form product formulas, so only there does the
enumeration have an independent second route;
``bananagv.gvpf._closed_location_0`` alone decides which shapes those are,
and the CLI offers only them.  On the other shapes nothing independent checks
these tables.  What checks the walk there are two identities that hold by
its construction, tested on every shape with ``v, w <= 4``: sending every
``s_j`` to ``s`` turns the twisted enumeration of VxW into ``lcm(v, w) / w``
copies of the ``1xW`` closed form, and exchanging r and s turns VxW into
WxV.  They exercise the lcm period, the r indices mod w and the s indices
mod v, and tie every shape to the ``1xW`` closed form; they are not a second
route for the other shapes.
"""
from __future__ import annotations

from collections import namedtuple
from math import lcm

from .series import TruncatedSeries, VariableRegistry, _as_int

__all__ = [
    "BananaShape",
    "BranchSpec",
    "parse_shape",
    "registry_for",
    "b_locations",
    "branch_specs",
]


class BananaShape(namedtuple("BananaShape", "v w")):
    """Shape parameters ``(v, w)`` of the configuration, any positive ints.

    The enumeration serves every shape; the closed forms, and with them the
    CLI, cover ``(1, w)`` and ``(2, 2)``."""

    __slots__ = ()

    def __new__(cls, v: int, w: int):
        for name, value in (("v", v), ("w", w)):
            if _as_int(value, f"shape parameter {name}") < 1:
                raise ValueError(f"shape parameter {name} must be at least 1")
        return super().__new__(cls, v, w)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own skips __new__, and so would _replace, which calls it
        return cls(*iterable)

    def __str__(self) -> str:
        return f"{self.v}x{self.w}"


def parse_shape(text: str, w: int | None = None) -> BananaShape:
    """Build a shape from a CLI selector, a key of ``bananagv.cli.SHAPES``:
    ``"2x2"``, or ``"1xW"`` plus ``w``."""
    # imported here, so that the library loads the CLI only to parse one
    from .cli import SHAPES

    if text not in SHAPES:
        raise ValueError(f"unknown shape selector {text!r}")
    (v, fixed), _ = SHAPES[text]
    if fixed is None:
        if w is None:
            raise ValueError(f"shape {text} requires --w")
        return BananaShape(v, w)
    if w is not None:
        raise ValueError("--w is only meaningful for shape 1xW")
    return BananaShape(v, fixed)


class BranchSpec(namedtuple("BranchSpec", "direction labels")):
    """Periodic label sequence along one branch leaving the B edge.

    ``labels[j]`` is the tracking variable of the ``(j+1)``-th edge from the
    B edge; the sequence repeats with period ``len(labels)``.  Labels
    alternate between diagonal (``s``) and horizontal (``r``) variables
    because the two families alternate along any lattice path.
    """

    __slots__ = ()

    def __new__(cls, direction: str, labels: tuple[str, ...]):
        if not labels or len(labels) % 2:
            raise ValueError("branch period must be a positive even number")
        kinds = [name[:1] for name in labels]
        if set(kinds) - {"r", "s"}:
            raise ValueError("labels must be r- or s-variables")
        if any(kinds[i] == kinds[i + 1] for i in range(len(kinds) - 1)):
            raise ValueError("labels must alternate between r- and s-variables")
        return super().__new__(cls, direction, labels)

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own skips __new__, and so would _replace, which calls it
        return cls(*iterable)

    @property
    def period(self) -> int:
        return len(self.labels)


def _r(shape: BananaShape, i: int) -> str:
    return f"r{i % shape.w}"


def _s(shape: BananaShape, j: int) -> str:
    return "s" if shape.v == 1 else f"s{j % shape.v}"


def registry_for(shape: BananaShape) -> VariableRegistry:
    """Tracking variables of the shape, in canonical output order:
    ``r0 ... r_{w-1}``, then ``s0 ... s_{v-1}`` (a lone ``s`` when v = 1)."""
    names = [_r(shape, i) for i in range(shape.w)] + [_s(shape, j) for j in range(shape.v)]
    return VariableRegistry(tuple(names))


def b_locations(shape: BananaShape) -> list[int]:
    """Inequivalent positions of the distinguished degree-1 B edge: the
    residues mod ``lcm(v, w)`` (w for ``(1, w)``, two for ``(2, 2)``)."""
    return list(range(lcm(shape.v, shape.w)))


def branch_specs(shape: BananaShape, b_location: int) -> list[BranchSpec]:
    """The four periodic label sequences of the branches at B location k,
    in the order NE, N, S, SW.

    Walking up from the B edge visits ``(r_{k+t}, s_{k+t})`` and walking
    down visits ``(r_{k-1-t}, s_{k-1-t})`` for ``t < lcm(v, w)``, r indices
    mod w and s indices mod v.  NE reads s, r, ... up; N reads r, s, ... up;
    S reads r, s, ... down; SW reads s, r, ... down.  The period is
    ``2 lcm(v, w)``.
    """
    if _as_int(b_location, "B location") not in b_locations(shape):
        raise ValueError(f"invalid B location {b_location} for shape {shape}")
    k, steps = b_location, range(lcm(shape.v, shape.w))
    up = [(_r(shape, k + t), _s(shape, k + t)) for t in steps]
    down = [(_r(shape, k - 1 - t), _s(shape, k - 1 - t)) for t in steps]
    return [
        BranchSpec("NE", tuple(x for r, s in up for x in (s, r))),
        BranchSpec("N", tuple(x for pair in up for x in pair)),
        BranchSpec("S", tuple(x for pair in down for x in pair)),
        BranchSpec("SW", tuple(x for r, s in down for x in (s, r))),
    ]


def _sum_over_locations(location: TruncatedSeries, shape: BananaShape) -> TruncatedSeries:
    """The sum over the B locations of a shape of the series whose location-0
    term is ``location``, the one code that sums locations.

    Location ``k + 1`` is location ``k`` with the r block and the s block
    each rotated one step, so one orbit sum of ``lcm(v, w)`` images adds
    them up; a block of one variable is fixed.  On ``2x2`` the rotation
    only permutes the four branches, so the sum is twice location 0, and
    no rotation is built.
    """
    v, w = shape
    if (v, w) == (2, 2):
        return 2 * location
    return location._orbit_sum(((0, w), (w, w + v)), lcm(v, w))
