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
answer.

The ``2x2`` ratio of phis built to N has floor 0 and is exact to N, and
so is its root.  The theta route and ``s phi(Q, s) = thetatilde(Q, s)^2 /
etatilde(Q)^6`` are one call each of the quotient builder of
:mod:`bananagv.qseries`, which sets every pad.  Each closed form returns
through one certificate: exact to N, exponents in the nonnegative orthant,
and constant term the number of B locations.

``pf_for_shape`` serves ``2x2`` from the theta form, the paper's
presentation and by far the cheaper route, so ``compute`` runs it.
``pf_22`` (with ``sqrt_unit``) stays as the independent square-root check:
``cross_check`` compares both ``2x2`` routes with the sign-twisted
enumeration of :mod:`bananagv.oracle`, which only ``cross_check`` imports.
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


def pf_22(N: int) -> TruncatedSeries:
    """Closed-form generating function of the 2x2 shape, exact to total
    degree N over (r0, r1, s0, s1)."""
    ratio = one(R22, _as_order(N))
    for single in _SINGLES:
        ratio = ratio * jacobi_phi_at(R22, _Q22, single, N)
    for pair in _PAIRS:
        ratio = ratio * jacobi_phi_at(R22, _Q22, pair, N).invert_unit()
    return _certified(2 * ratio.sqrt_unit(), N, "pf_22", 2)


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
    degree N over (r0, ..., r_{w-1}, s)."""
    _as_order(N)
    reg = registry_for(BananaShape(1, w))
    q_img = (1,) * w + (w,)
    s_img = reg.exps(s=1)
    base = _theta_quotient_at(reg, q_img, [s_img, s_img], [], N, True)
    total = None
    for i in range(w):
        contribution = one(reg, N)
        for k in range(i, i + w - 1):
            r_span = [0] * (w + 1)
            for j in range(i, k + 1):
                r_span[j % w] += 1
            r_span[w] = k - i + 1
            contribution = contribution * elliptic_genus_c2_at(
                reg, q_img, s_img, tuple(r_span), N
            )
        total = contribution if total is None else total + contribution
    return _certified(base * total, N, "pf_1w", w)


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
    """Compare the closed form with the sign-twisted brute-force count,
    slice by slice up to total degree N; a failed report carries the
    graded-lex first mismatch.  On ``2x2`` the theta route that
    ``pf_for_shape`` serves is compared first, then ``pf_22``."""
    # imported here, so that ``compute`` does not load the enumeration
    from .oracle import behrend_twist, naive_pf

    closed = pf_for_shape(shape, N)
    routes = {"closed form": closed}
    if (shape.v, shape.w) == (2, 2):
        routes = {"closed form (theta route)": closed, "closed form (square-root route)": pf_22(N)}
    twisted = behrend_twist(naive_pf(shape, N))
    for route, series in routes.items():
        mismatch = series.first_difference(twisted, N)
        if mismatch is not None:
            return CrossCheckReport(shape, N, False, mismatch, route)
    if len(routes) > 1:
        return CrossCheckReport(shape, N, True, None, "closed form (theta and square-root routes)")
    return CrossCheckReport(shape, N, True)

