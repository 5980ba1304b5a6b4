"""Combinatorics of multi-banana configurations.

A multi-banana is indexed by a pair ``(v, w)``.  Its fiber curve classes of
B-degree 1 are tracked by the variables ``r_i`` (curves over the horizontal
edges ``A_i``) and ``s_j`` (curves over the diagonal edges ``C_j``); every
series in the package is keyed by exponent vectors over those variables.

Tracked data lives in two places:

* ``b_locations``: the inequivalent positions for the distinguished
  degree-1 B edge.
* ``branch_specs``: for each location, the four periodic edge-label
  sequences read off along the branches leaving the B edge (named NE, N, S,
  SW by the direction of departure).

Only the shapes with closed-form product formulas, ``(1, w)`` and ``(2, 2)``, carry
built-in tables.  The branch tables beyond the single sequence the source
geometry fixes are calibration data: they are pinned by requiring the
enumerative route to reproduce the closed forms at low order, and that
requirement is what the cross-check tests enforce.
"""
from __future__ import annotations

from dataclasses import dataclass

from .series import VariableRegistry

__all__ = [
    "BananaShape",
    "BranchSpec",
    "parse_shape",
    "registry_for",
    "b_locations",
    "branch_specs",
]


@dataclass(frozen=True)
class BananaShape:
    """Shape parameters of the configuration; only (1, w) and (2, 2) are
    supported by the closed-form and table machinery."""

    v: int
    w: int

    def __post_init__(self):
        if self.v < 1 or self.w < 1:
            raise ValueError("shape parameters must be positive")

    @property
    def supported(self) -> bool:
        return self.v == 1 or (self.v, self.w) == (2, 2)

    def __str__(self) -> str:
        return f"{self.v}x{self.w}"


def parse_shape(text: str, w: int | None = None) -> BananaShape:
    """Build a shape from a CLI selector: ``"2x2"``, or ``"1xW"`` plus ``w``."""
    if text == "2x2":
        if w is not None:
            raise ValueError("--w is only meaningful for shape 1xW")
        return BananaShape(2, 2)
    if text == "1xW":
        if w is None:
            raise ValueError("shape 1xW requires --w")
        if w < 1:
            raise ValueError("w must be at least 1")
        return BananaShape(1, w)
    raise ValueError(f"unknown shape selector {text!r}")


@dataclass(frozen=True)
class BranchSpec:
    """Periodic label sequence along one branch leaving the B edge.

    ``labels[j]`` is the tracking variable of the ``(j+1)``-th edge from the
    B edge; the sequence repeats with the given period.  Labels alternate
    between diagonal (``s``) and horizontal (``r``) variables because the
    two families alternate along any lattice path.
    """

    direction: str
    period: int
    labels: tuple[str, ...]

    def __post_init__(self):
        if self.period < 2 or self.period % 2:
            raise ValueError("branch period must be a positive even number")
        if len(self.labels) != self.period:
            raise ValueError("one label per period position required")
        kinds = [name[0] for name in self.labels]
        if set(kinds) - {"r", "s"}:
            raise ValueError("labels must be r- or s-variables")
        if any(kinds[i] == kinds[i + 1] for i in range(len(kinds) - 1)):
            raise ValueError("labels must alternate between r- and s-variables")

    def label(self, j: int) -> str:
        """Variable of the j-th edge from the B edge (1-based)."""
        if j < 1:
            raise ValueError("edge positions along a branch are 1-based")
        return self.labels[(j - 1) % self.period]


def registry_for(shape: BananaShape) -> VariableRegistry:
    """Tracking variables of the shape, in canonical output order."""
    _require_supported(shape)
    if shape.v == 1:
        return VariableRegistry(tuple(f"r{i}" for i in range(shape.w)) + ("s",))
    return VariableRegistry(("r0", "r1", "s0", "s1"))


def _require_supported(shape: BananaShape):
    if not shape.supported:
        raise ValueError(f"no configuration tables for shape {shape}")


def b_locations(shape: BananaShape) -> list[int]:
    """Inequivalent positions of the distinguished degree-1 B edge.

    Two for ``(2, 2)`` (the two B edge classes); w for ``(1, w)``, indexed
    by the A edge adjacent to the position.
    """
    _require_supported(shape)
    if shape.v == 1:
        return list(range(shape.w))
    return [0, 1]


def branch_specs(shape: BananaShape, b_location: int) -> list[BranchSpec]:
    """The four periodic label sequences of the branches at a B location,
    in the order NE, N, S, SW.

    The ``(1, w)`` tables follow the lattice walk: going up from the B edge
    at location ``i`` alternates diagonals with the horizontals
    ``r_i, r_{i+1}, ...``; going down reads ``r_{i-1}, r_{i-2}, ...``
    (indices mod w).  The ``(2, 2)`` tables are calibrated configuration
    data (see the module docstring); the second location carries the same
    sequences with both variable indices swapped.
    """
    if b_location not in b_locations(shape):
        raise ValueError(f"invalid B location {b_location} for shape {shape}")
    if shape.v == 1:
        w, i = shape.w, b_location
        up = [f"r{(i + k) % w}" for k in range(w)]
        down = [f"r{(i - 1 - k) % w}" for k in range(w)]
        ne = tuple(x for r in up for x in ("s", r))
        n = tuple(x for r in up for x in (r, "s"))
        s = tuple(x for r in down for x in (r, "s"))
        sw = tuple(x for r in down for x in ("s", r))
        return [
            BranchSpec("NE", 2 * w, ne),
            BranchSpec("N", 2 * w, n),
            BranchSpec("S", 2 * w, s),
            BranchSpec("SW", 2 * w, sw),
        ]
    swap = {0: str.maketrans({}), 1: str.maketrans("01", "10")}[b_location]
    tables = {
        "NE": ("s0", "r0", "s1", "r1"),
        "N": ("r0", "s0", "r1", "s1"),
        "S": ("r1", "s1", "r0", "s0"),
        "SW": ("s1", "r1", "s0", "r0"),
    }
    return [
        BranchSpec(d, 4, tuple(x.translate(swap) for x in labels))
        for d, labels in tables.items()
    ]
