"""Closed-form genus-0 invariant generating functions for banana shapes.

For the ``(2, 2)`` configuration the generating function over classes with
B-degree 1 is

    pf = 2 * sqrt( phi(Q,r0) phi(Q,s0) phi(Q,r1) phi(Q,s1)
                   / ( phi(Q, r0 s0) phi(Q, r1 s1) ) ),        Q = r0 r1 s0 s1,

with phi the weight -2 index 1 weak Jacobi form.  ``pf_22`` assembles this
directly (the ratio has constant leading term, so the square root is
branch-free); ``pf_22_theta`` recomputes it from theta quotients,

    pf = 2 * eta(Q)^{-6} * theta(Q,r0) theta(Q,s0) theta(Q,r1) theta(Q,s1)
              / ( theta(Q, r0 s0) theta(Q, r1 s1) )

over the reduced products of :mod:`bananagv.qseries`.  With
``phi = -theta^2/eta^6`` the square root is ``+-`` the same quotient of the
full functions, whose fractional prefactors cancel by hand to a scalar:
``eta^{-6}`` brings ``Q^{-1/4}``, the four thetas ``(-i)^4 Q^{1/2}
(r0 s0 r1 s1)^{-1/2}`` and the two inverted ones ``(-i)^{-2} Q^{-1/4}
(r0 s0 r1 s1)^{1/2}``, which leaves ``(-i)^2 = -1``.  The branch cancels
that sign.  The quotient is the contribution of one B location, and the
two locations contribute equally, which is the factor 2; its constant term
+1 pins the sign.

For ``(1, w)`` the function is a sum over the w locations of products of
equivariant elliptic genus factors,

    pf = s * phi(Q, s) * sum_i prod_{k=i}^{i+w-2} Ell(Q, s, R_{i,k}),

with ``Q = prod_i (r_i s)`` and ``R_{i,k} = r_i r_{i+1} ... r_k s^{k-i+1}``
(indices mod w), and ``Ell(Q, y, t) = theta(Q, yt) theta(Q, y^{-1} t) /
theta(Q, t)^2`` the theta quotient of :mod:`bananagv.qseries`.  At w = 1
the product is empty and pf reduces to ``s * phi(Q, s)``, the single-banana
answer.  The shift ``r_i -> r_{i+1}`` fixes Q and s and sends location i to
location i + 1.

So every closed form is built at B location 0 alone, by
``_closed_location_0``, and summed over the locations by
:func:`bananagv.geometry._sum_over_locations`, which rotates location 0 on
``1xW`` and doubles it on ``2x2``.  The ``2x2`` ratio of phis built to N
has floor 0 and is exact to N, and so is its root.  The theta route and
``s phi(Q, s) = thetatilde(Q, s)^2 / etatilde(Q)^6`` are one call each of
the quotient builder of :mod:`bananagv.qseries`, which sets every pad.
Location 0 of each closed form returns through one certificate: exact to
N, exponents in the nonnegative orthant, and constant term 1.  A rotation
only permutes exponents within a block, keeps the order and fixes the zero
key, so the sum keeps all three, with constant term the number of
locations.

``pf_for_shape`` serves ``2x2`` from the theta form, the paper's
presentation and by far the cheaper route, so ``compute`` runs it.
``cross_check`` compares the closed form at location 0 with location 0 of
the sign-twisted enumeration of :mod:`bananagv.oracle`, which only
``cross_check`` imports.  The square-root formula is
checked by squaring, not by a root.  Write ``p`` for the theta form at
location 0 and ``q`` for the root ``sqrt_unit`` takes of the ratio R; both
have constant term 1.  If ``p^2 = R`` to order N, then ``(p - q)(p + q) =
0``, and ``p + q`` has constant term 2, so it is invertible and ``p = q``.
Otherwise the lowest slice of ``p^2 - R`` is twice that of ``p - q``: the
squares first differ where the roots do, and at that monomial e ``q``
holds ``closed[e] - (square[e] - R[e]) // 2`` (an exact quotient when R has
an integral root), the coefficient a failed report gives.  So no command
takes a square root; ``pf_22`` and ``sqrt_unit`` stay as library API.
"""
from __future__ import annotations

from functools import reduce
from operator import mul
from typing import NamedTuple

from .geometry import BananaShape, _sum_over_locations, registry_for
from .qseries import _theta_quotient_at, elliptic_genus_c2_at, jacobi_phi_at
from .series import (
    ExponentVector,
    InvariantError,
    TruncatedSeries,
    _as_order,
    _exact_to,
)

__all__ = [
    "CrossCheckReport",
    "pf_22",
    "pf_22_theta",
    "pf_1w",
    "pf_for_shape",
    "cross_check",
]

TWO = BananaShape(2, 2)
R22 = registry_for(TWO)
_Q22 = (1, 1, 1, 1)
_SINGLES = [R22.exps(**{single: 1}) for single in ("r0", "s0", "r1", "s1")]
_PAIRS = [R22.exps(r0=1, s0=1), R22.exps(r1=1, s1=1)]


def _certified(pf: TruncatedSeries, N: int, route: str) -> TruncatedSeries:
    """``pf``, a closed form at B location 0, truncated to N, which its
    proven order must reach, with every exponent nonnegative and constant
    term 1."""
    pf = _exact_to(pf, N)
    if pf.has_negative_exponent():
        exps = next(e for e in pf.terms if min(e) < 0)
        raise InvariantError(f"{route} kept a negative exponent at {exps}")
    if pf.constant_term() != 1:
        raise InvariantError(f"{route} constant term at B location 0 is not 1")
    return pf


def _phi_ratio(N: int) -> TruncatedSeries:
    """The ratio of six phis under the root of ``pf_22``, exact to N, with
    floor 0 and constant term 1: the four single phis times one inverse of
    the product of the two pair phis."""
    _as_order(N)
    singles = reduce(mul, [jacobi_phi_at(R22, _Q22, single, N) for single in _SINGLES])
    pairs = reduce(mul, [jacobi_phi_at(R22, _Q22, pair, N) for pair in _PAIRS])
    return _exact_to(singles * pairs.invert_unit(), N)


def _closed_location_0(shape: BananaShape, N: int) -> TruncatedSeries:
    """The closed form at B location 0, exact to N, and the one place that
    decides which shapes have one: ``(1, w)`` and ``(2, 2)``.  The
    enumeration serves every shape, but any other shape raises here, so
    ``cross_check`` refuses it before enumerating anything.

    On ``2x2`` it is the theta quotient; on ``1xw`` it is ``s phi(Q, s)``
    times the elliptic genera of location 0, ``Ell(Q, s, R_{0,k})`` for
    ``k < w - 1``."""
    _as_order(N)
    if (shape.v, shape.w) == (2, 2):
        quotient = _theta_quotient_at(R22, _Q22, _SINGLES, _PAIRS, N, True)
        return _certified(quotient, N, "pf_22_theta")
    if shape.v != 1:
        raise ValueError(f"no closed form for shape {shape}")
    w = shape.w
    reg = registry_for(shape)
    q_img = (1,) * w + (w,)
    s_img = reg.exps(s=1)
    location = _theta_quotient_at(reg, q_img, [s_img, s_img], [], N, True)
    for k in range(w - 1):
        r_span = (1,) * (k + 1) + (0,) * (w - 1 - k) + (k + 1,)  # R_{0,k}
        location = location * elliptic_genus_c2_at(reg, q_img, s_img, r_span, N)
    return _certified(location, N, "pf_1w")


def pf_22(N: int) -> TruncatedSeries:
    """Closed-form generating function of the 2x2 shape, exact to total
    degree N over (r0, r1, s0, s1), as ``2 * sqrt(_phi_ratio(N))``."""
    return _sum_over_locations(_certified(_phi_ratio(N).sqrt_unit(), N, "pf_22"), TWO)


def pf_22_theta(N: int) -> TruncatedSeries:
    """The same function assembled from theta quotients,
    ``2 * eta^{-6} * (four thetas) / (two thetas)``.

    The prefactors of the thetas and eta cancel to -1 (see the module
    docstring), which the square-root branch cancels again; the constant
    term +1 of the quotient pins that sign.
    """
    return pf_for_shape(TWO, N)


def pf_1w(w: int, N: int) -> TruncatedSeries:
    """Closed-form generating function of the 1xw shape, exact to total
    degree N over (r0, ..., r_{w-1}, s): location 0, with the ``s phi(Q,
    s)`` factor folded in, and its rotations ``r_j -> r_{j+1}``."""
    return pf_for_shape(BananaShape(1, w), N)


def pf_for_shape(shape: BananaShape, N: int) -> TruncatedSeries:
    """The closed form of a shape, summed over its B locations; ValueError
    for a shape without one."""
    return _sum_over_locations(_closed_location_0(shape, N), shape)


class CrossCheckReport(NamedTuple):
    """Outcome of comparing the closed form against the twisted enumeration
    at B location 0; ``route`` names the closed form compared, or on a
    failure the one that mismatched (``2x2`` has two), and a mismatch holds
    location-0 coefficients."""

    shape: BananaShape
    order: int
    passed: bool
    first_mismatch: tuple[ExponentVector, int, int] | None = None
    route: str = "closed form"

    def describe(self) -> str:
        if self.passed:
            return (
                f"shape {self.shape} order {self.order}: {self.route} matches "
                f"sign-twisted enumeration"
            )
        exps, closed, twisted = self.first_mismatch
        return (
            f"shape {self.shape} order {self.order}: at B location 0, mismatch at {exps}: "
            f"{self.route} {closed} vs twisted enumeration {twisted}"
        )


def cross_check(shape: BananaShape, N: int) -> CrossCheckReport:
    """Compare the closed form with the sign-twisted brute-force count at B
    location 0, slice by slice up to total degree N; a failed report carries
    the graded-lex first mismatch.  Both routes sum the other locations by
    the same rotation of location 0, so the sums agree when location 0
    does.  The check never runs that sum,
    :func:`bananagv.geometry._sum_over_locations`, so a fault there passes
    it: ``tests/test_gvpf.py::test_crosscheck_is_blind_to_a_wrong_location_sum``
    plants one, and shows that the locations built on their own and the
    pinned output digests catch it.  On
    ``2x2`` the square-root route is then checked as ``closed * closed``
    against ``_phi_ratio(N)``, the same check since ``(p - q)(p + q) = 0``
    forces ``p = q`` (see the module docstring).  A mismatch is
    reported at the first monomial e where the squares differ, with
    ``closed[e] - (square[e] - R[e]) // 2``, the coefficient of
    ``sqrt(R)`` there."""
    # imported here, so that ``compute`` does not load the enumeration
    from .oracle import _naive_location_0, behrend_twist

    closed = _closed_location_0(shape, N)
    mismatch = closed.first_difference(behrend_twist(_naive_location_0(shape, N)), N)
    route = "closed form (theta route)" if (shape.v, shape.w) == (2, 2) else "closed form"
    if mismatch is not None or route == "closed form":
        return CrossCheckReport(shape, N, mismatch is None, mismatch, route)
    # R is built, and its factors freed, before the square
    mismatch = _phi_ratio(N).first_difference(closed * closed, N)
    if mismatch is None:
        return CrossCheckReport(shape, N, True, None, "closed form (theta and square-root routes)")
    exps, r, square = mismatch
    theta = closed.coefficient(exps)
    mismatch = exps, theta - (square - r) // 2, theta
    return CrossCheckReport(shape, N, False, mismatch, "closed form (square-root route)")
