"""Brute-force enumeration of branch thickening profiles.

This module computes the naive (unsigned) count generating function of a
banana configuration by exhaustive enumeration, independently of the
closed-form product formulas, so the two routes can be checked against each
other.

A branch contributes a sum over *thickening profiles*: weakly decreasing
positive tuples ``parts`` where ``parts[j]`` is the multiplicity of the
``(j+1)``-th edge from the B edge, the edge labelled
``labels[j mod period]``.  A profile is admissible when its conjugate
partition has all odd parts distinct; equivalently, consecutive pairs
``parts[2k] - parts[2k+1]`` differ by at most 1 (the conjugate's entry ``v``
has multiplicity ``parts(v) - parts(v+1)``, so the dual condition is local).
The profile's weight is ``prod_j labels[j mod period] ** parts[j]``.  The
package uses only the local rule; the tests check it against the conjugate
test.

Every branch of a shape has the same period, ``2 lcm(v, w)``, and its
profiles do not depend on its labels.  So the profiles are walked once,
straight from the local pairwise rule (no inadmissible partition is ever
built), and tallied into one *slot series* over unit-weight variables
``x0 ... x{period-1}``: a profile contributes ``prod_r x_r ** res[r]``,
where ``res[r]`` sums ``parts[j]`` over every ``j = r mod period``.  The
walk carries that monomial's packed key, linear in the parts, and tallies
it straight into a degree slice; the closing pair ``(1, 0)`` is counted
inline, without a call.
A branch's series is the image of the slot series under
``substitute_monomials``, sending ``x_r`` to ``labels[r]``.  The module
keeps no state: ``_naive_location_0`` walks once and relabels that one slot
series for each of its four branches, while ``branch_series`` and
``admissible_profiles`` each walk for themselves.  ``admissible_profiles``
reads the walk with one slot per part: with a period of at least n, the
degree-n terms are the profiles of size n themselves.

Admissible profiles of size n are counted by partitions with distinct odd
parts, whose generating function is
``prod 1/(1 - x^{2n}) * prod (1 + x^{2n-1})``; the per-branch series is the
same product with ``x^j`` replaced by the product of the branch's first j
labels, which the tests build as a second route.

The naive partition function at B location 0 multiplies its four branch
series.  It pairs them by direction, ``(NE * N) * (S * SW)``: NE and N read
the same pairs walking up, so their product stays small, and a
left-to-right ``NE * N * S`` would be several times larger at the same
order.  Every other location is a rotation of location 0
(:mod:`bananagv.geometry`), so ``naive_pf`` builds location 0 alone and
sums its rotations; the tests build each location from its own labels and
compare.  ``behrend_twist`` converts a count to the signed count by
negating every tracking variable.
"""
from __future__ import annotations

from .geometry import BananaShape, BranchSpec, _sum_over_locations, branch_specs, registry_for
from .series import InvariantError, TruncatedSeries, VariableRegistry, _as_int, _as_order, _check_exponent_bound

__all__ = [
    "admissible_profiles",
    "branch_series",
    "naive_pf",
    "behrend_twist",
]


def admissible_profiles(n: int) -> list[tuple[int, ...]]:
    """Admissible profiles of size n, in descending lexicographic order.

    They are the degree-n terms of the walk with a slot per part, whose
    keys sort as their exponent tuples do; the empty trailing slots are
    dropped.
    """
    if _as_int(n, "size") < 0:
        raise ValueError("cannot partition a negative integer")
    slots = [exps for exps, _ in _profile_residues(max(n, 1), n).sorted_terms() if sum(exps) == n]
    return [tuple(filter(None, exps)) for exps in reversed(slots)]


def _profile_residues(period: int, N: int) -> TruncatedSeries:
    """Admissible profiles of size at most N, tallied as a series over the
    unit-weight slots ``x0 ... x{period-1}``: each profile adds the monomial
    whose exponent of ``x_r`` is the sum of ``parts[j]`` over
    ``j = r mod period``.

    The walk places one pair ``(a, b)`` with ``b`` in ``(a, a - 1)`` at a
    time; every prefix of whole pairs is itself a profile, and a lone ``1``
    closes one.  It carries the profile's packed key,
    ``sum_j parts[j] * unit[j % period]`` with ``unit[r]`` the key of
    ``x_r``, and tallies it into the slice of the profile's size.  Each
    profile is visited exactly once.
    """
    _check_exponent_bound(N)  # no residue exceeds N
    registry = VariableRegistry(f"x{r}" for r in range(period))
    unit = [registry._pack(registry.exps(**{name: 1})) for name in registry.names]
    slices: list[dict[int, int]] = [{} for _ in range(N + 1)]

    def walk(j: int, room: int, cap: int, key: int) -> None:
        # parts[:j] is an admissible profile of size N - room with packed
        # key `key`, and the next part is at most cap, the last one placed
        tally = slices[N - room]
        tally[key] = tally.get(key, 0) + 1
        ur, us = unit[j % period], unit[(j + 1) % period]
        for a in range(min(cap, (room + 1) // 2), 0, -1):
            key_a = key + a * ur
            if 2 * a <= room:
                walk(j + 2, room - 2 * a, a, key_a + a * us)
            if a > 1:
                walk(j + 2, room - 2 * a + 1, a - 1, key_a + (a - 1) * us)
            else:  # the pair (1, 0): a lone 1 closes the profile
                tally = slices[N - room + 1]
                tally[key_a] = tally.get(key_a, 0) + 1

    walk(0, N, N, 0)
    # no slice is empty: every size n has the profile of n ones
    return TruncatedSeries._from_slices(registry, dict(enumerate(slices)), N, N)


def branch_series(spec: BranchSpec, N: int, registry: VariableRegistry) -> TruncatedSeries:
    """Generating function of one branch by explicit profile enumeration:
    the slot series with ``x_r`` sent to ``spec.labels[r]``.

    Every edge variable has degree 1, so profiles of size > N cannot
    contribute below the truncation order and the enumeration is finite;
    the substitution refuses a label of any other weight.
    """
    return _relabel(_profile_residues(spec.period, _as_order(N)), spec, registry)


def _relabel(slots: TruncatedSeries, spec: BranchSpec, registry: VariableRegistry) -> TruncatedSeries:
    """The slot series ``slots`` with ``x_r`` sent to ``spec.labels[r]``."""
    images = {f"x{r}": registry.exps(**{label: 1}) for r, label in enumerate(spec.labels)}
    return slots.substitute_monomials(registry, images)


def _naive_location_0(shape: BananaShape, N: int) -> TruncatedSeries:
    """Unsigned count generating function at B location 0, the product of
    its four branch series.  The branches share one period, so one walk
    serves all four.  Coefficients are counts and must come out
    nonnegative."""
    registry = registry_for(shape)
    specs = branch_specs(shape, 0)
    slots = _profile_residues(specs[0].period, _as_order(N))
    ne, n, s, sw = (_relabel(slots, spec, registry) for spec in specs)
    location = (ne * n) * (s * sw)
    if any(c < 0 for c in location.coefficients()):
        raise InvariantError("naive count came out negative; enumeration bug")
    return location


def naive_pf(shape: BananaShape, N: int) -> TruncatedSeries:
    """Unsigned count generating function: location 0 summed over the B
    locations by its rotations."""
    return _sum_over_locations(_naive_location_0(shape, N), shape)


def behrend_twist(series: TruncatedSeries) -> TruncatedSeries:
    """Negate every tracking variable: multiplies each coefficient by
    (-1)^degree, converting naive counts to signed invariants.

    Tracking variables have unit weight, so the weighted degree of each
    slice is the total degree and the twist negates the odd slices."""
    if any(w != 1 for w in series.registry.weights):
        raise ValueError("the twist expects unit-weight tracking variables")
    return series.sign_by_degree()
