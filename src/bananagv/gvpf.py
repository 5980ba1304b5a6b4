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
that sign; the constant term +2, one contribution per B location, pins it.

For ``(1, w)`` the function is a sum over the w locations of products of
equivariant elliptic genus factors,

    pf = s * phi(Q, s) * sum_i prod_{k=i}^{i+w-2} Ell(Q, s, R_{i,k}),

with ``Q = prod_i (r_i s)`` and ``R_{i,k} = r_i r_{i+1} ... r_k s^{k-i+1}``
(indices mod w), and ``Ell(Q, y, t) = theta(Q, yt) theta(Q, y^{-1} t) /
theta(Q, t)^2`` the theta quotient of :mod:`bananagv.qseries`.  At w = 1
the product is empty and pf reduces to ``s * phi(Q, s)``, the single-banana
answer.  The shift ``r_i -> r_{i+1}`` fixes Q and s and sends location i to
location i + 1, so ``pf_1w`` builds location 0 once, with ``s phi(Q, s)``
folded in, and rotates its packed keys for the others.

The ``2x2`` ratio of phis built to N has floor 0 and is exact to N, and
so is its root.  The theta route and ``s phi(Q, s) = thetatilde(Q, s)^2 /
etatilde(Q)^6`` are one call each of the quotient builder of
:mod:`bananagv.qseries`, which sets every pad.  Each closed form returns
through one certificate: exact to N, exponents in the nonnegative orthant,
and constant term the number of B locations.

``pf_for_shape`` serves ``2x2`` from the theta form, the paper's
presentation and by far the cheaper route, so ``compute`` runs it, and
``cross_check`` compares it with the sign-twisted enumeration of
:mod:`bananagv.oracle`, which only ``cross_check`` imports.  The
square-root formula is checked by squaring, not by a root.  Write ``p``
for the theta form over 2 and ``q`` for the root ``sqrt_unit`` takes of
the ratio R; both have constant term 1.  If ``p^2 = R`` to order N, then
``(p - q)(p + q) = 0``, and ``p + q`` has constant term 2, so it is
invertible and ``p = q``.  Otherwise the lowest slice of ``p^2 - R`` is
twice that of ``p - q``: the squares first differ where the roots do, and
at that monomial e ``2 q`` holds ``closed[e] - (square[e] - 4 R[e]) // 4``
(an exact quotient when R has an integral root), the coefficient a failed
report gives.  So no command takes a square root; ``pf_22`` and
``sqrt_unit`` stay as library API.
"""
from __future__ import annotations

from typing import NamedTuple

from .geometry import BananaShape, registry_for
from .qseries import _theta_quotient_at, elliptic_genus_c2_at, jacobi_phi_at
from .series import (
    ExponentVector,
    InvariantError,
    TruncatedSeries,
    _as_order,
    _exact_to,
    one,
)

__all__ = [
    "CrossCheckReport",
    "pf_22",
    "pf_22_theta",
    "pf_1w",
    "pf_for_shape",
    "cross_check",
]

R22 = registry_for(BananaShape(2, 2))
_Q22 = (1, 1, 1, 1)
_SINGLES = [R22.exps(**{single: 1}) for single in ("r0", "s0", "r1", "s1")]
_PAIRS = [R22.exps(r0=1, s0=1), R22.exps(r1=1, s1=1)]


def _certified(pf: TruncatedSeries, N: int, route: str, locations: int) -> TruncatedSeries:
    """``pf`` truncated to N, which its proven order must reach, with every
    exponent nonnegative and constant term the number of B locations."""
    pf = _exact_to(pf, N)
    if pf.has_negative_exponent():
        exps = next(e for e in pf.terms if min(e) < 0)
        raise InvariantError(f"{route} kept a negative exponent at {exps}")
    if pf.constant_term() != locations:
        raise InvariantError(f"{route} constant term is not the location count {locations}")
    return pf


def _phi_ratio(N: int) -> TruncatedSeries:
    """The ratio of six phis under the root of ``pf_22``, exact to N, with
    floor 0 and constant term 1."""
    ratio = one(R22, _as_order(N))
    for single in _SINGLES:
        ratio = ratio * jacobi_phi_at(R22, _Q22, single, N)
    for pair in _PAIRS:
        ratio = ratio * jacobi_phi_at(R22, _Q22, pair, N).invert_unit()
    return ratio


def pf_22(N: int) -> TruncatedSeries:
    """Closed-form generating function of the 2x2 shape, exact to total
    degree N over (r0, r1, s0, s1), as ``2 * sqrt(_phi_ratio(N))``."""
    return _certified(2 * _phi_ratio(N).sqrt_unit(), N, "pf_22", 2)


def pf_22_theta(N: int) -> TruncatedSeries:
    """The same function assembled from theta quotients,
    ``2 * eta^{-6} * (four thetas) / (two thetas)``.

    The prefactors of the thetas and eta cancel to -1 (see the module
    docstring), which the square-root branch cancels again; the constant
    term +2 pins that sign.
    """
    quotient = _theta_quotient_at(R22, _Q22, _SINGLES, _PAIRS, _as_order(N), True)
    return _certified(2 * quotient, N, "pf_22_theta", 2)


def pf_1w(w: int, N: int) -> TruncatedSeries:
    """Closed-form generating function of the 1xw shape, exact to total
    degree N over (r0, ..., r_{w-1}, s).

    Location 0, with the ``s phi(Q, s)`` factor folded in, is built once;
    each other location is the rotation ``r_j -> r_{j+1}`` of the one
    before."""
    _as_order(N)
    reg = registry_for(BananaShape(1, w))
    q_img = (1,) * w + (w,)
    s_img = reg.exps(s=1)
    location = _theta_quotient_at(reg, q_img, [s_img, s_img], [], N, True)
    for k in range(w - 1):
        r_span = (1,) * (k + 1) + (0,) * (w - 1 - k) + (k + 1,)  # R_{0,k}
        location = location * elliptic_genus_c2_at(reg, q_img, s_img, r_span, N)
    total = location
    for _ in range(w - 1):
        location = location._rotate_block(0, w)
        total = total + location
    return _certified(total, N, "pf_1w", w)


def pf_for_shape(shape: BananaShape, N: int) -> TruncatedSeries:
    """The closed form of a shape, and the one place that decides which
    shapes have one: ``(1, w)`` and ``(2, 2)``.  The enumeration serves every
    shape, but any other shape raises here, so ``cross_check`` refuses it
    before enumerating anything."""
    if (shape.v, shape.w) == (2, 2):
        return pf_22_theta(N)
    if shape.v == 1:
        return pf_1w(shape.w, N)
    raise ValueError(f"no closed form for shape {shape}")


class CrossCheckReport(NamedTuple):
    """Outcome of comparing the closed form against the twisted enumeration;
    ``route`` names the closed form compared, or on a failure the one that
    mismatched (``2x2`` has two)."""

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
            f"shape {self.shape} order {self.order}: mismatch at {exps}: "
            f"{self.route} {closed} vs twisted enumeration {twisted}"
        )


def cross_check(shape: BananaShape, N: int) -> CrossCheckReport:
    """Compare the closed form that ``pf_for_shape`` serves with the
    sign-twisted brute-force count, slice by slice up to total degree N; a
    failed report carries the graded-lex first mismatch.  On ``2x2`` the
    square-root route is then checked as ``closed * closed`` against ``4 *
    _phi_ratio(N)``, the same check since ``(p - q)(p + q) = 0`` forces
    ``p = q`` (see the module docstring).  A mismatch is reported at the
    first monomial e where the squares differ, with ``closed[e] - (square[e]
    - 4 R[e]) // 4``, the coefficient of ``2 * sqrt(R)`` there."""
    # imported here, so that ``compute`` does not load the enumeration
    from .oracle import behrend_twist, naive_pf

    closed = pf_for_shape(shape, N)
    mismatch = closed.first_difference(behrend_twist(naive_pf(shape, N)), N)
    route = "closed form (theta route)" if (shape.v, shape.w) == (2, 2) else "closed form"
    if mismatch is not None or route == "closed form":
        return CrossCheckReport(shape, N, mismatch is None, mismatch, route)
    # R is freed before the square is built
    four_r = 4 * _phi_ratio(N)
    mismatch = (closed * closed).first_difference(four_r, N)
    if mismatch is None:
        return CrossCheckReport(shape, N, True, None, "closed form (theta and square-root routes)")
    exps, square, four = mismatch
    theta = closed.coefficient(exps)
    mismatch = exps, theta - (square - four) // 4, theta
    return CrossCheckReport(shape, N, False, mismatch, "closed form (square-root route)")
