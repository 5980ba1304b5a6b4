"""Classical q-series as truncated Laurent series, and their identities.

Everything here lives over the bivariate registry ``("q", "p")`` with grading
weights ``(1, 0)`` — truncation is by q-order alone, and the elliptic
variable ``p`` ranges over a finite window at each q-order.  Fractional
prefactors (``q^{1/8}``, ``p^{-1/2}``, ``q^{1/24}``, powers of ``i``) are
never stored in a series; they ride along in a :class:`PrefactorLedger` and
must cancel before a result is exposed.

The module provides

* the reduced Dedekind eta product ``etatilde = prod (1 - q^m)``,
* the reduced Jacobi theta product
  ``thetatilde = prod (1 - q^m)(1 - q^{m-1} p)(1 - q^m p^{-1})``,
* the weight -2 index 1 weak Jacobi form
  ``phi(q, p) = p^{-1}(1-p)^2 prod ((1-q^m p^{-1})^2 (1-q^m p)^2 / (1-q^m)^4)``,
* the equivariant elliptic genus of the plane, the theta quotient
  ``Ell(q, y, t) = thetatilde(q, yt) thetatilde(q, y^{-1} t) / thetatilde(q, t)^2``
  (its prefactors cancel to +1; it squares to
  ``phi(q, yt) phi(q, y^{-1} t) / phi(q, t)^2``, with no root taken),
* an identity suite checking the prefactor-free forms of the classical
  relations between these functions.

The builders write eta and theta term by term from their classical sums,
which are sparse (O(sqrt N) terms to q-order N):

* Euler's pentagonal theorem, ``etatilde = sum_k (-1)^k q^{k(3k-1)/2}``,
* the Jacobi triple product, ``thetatilde = sum_n (-1)^n q^{n(n-1)/2} p^n``,
* Jacobi's identity, ``etatilde^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}``,

and build ``phi = p^{-1} thetatilde^2 (etatilde^3)^{-2}`` from the last two,
one inverse and three products in all.  The products themselves are
multiplied out factor by factor only inside the identity suite, so its first
check compares the sum-built phi against product-built eta and theta.

Substituted instances (``q -> Q``, ``p -> monomial``) are produced by the
``*_at`` builders, which pick the source q-order automatically from the
support-width certificates so the result is exact to the requested order.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .series import (
    ExponentVector,
    InvariantError,
    PrefactorLedger,
    PWidthBound,
    TruncatedSeries,
    VariableRegistry,
    one,
    polynomial,
    required_source_order,
)

__all__ = [
    "QP",
    "Q_ONLY",
    "PHI_P_WIDTH",
    "THETA_P_WIDTH",
    "ReducedEta",
    "ReducedTheta",
    "IdentityCheck",
    "eta_reduced",
    "theta1_reduced",
    "jacobi_phi",
    "eta_at",
    "theta1_at",
    "jacobi_phi_at",
    "elliptic_genus_c2",
    "elliptic_genus_c2_at",
    "check_identities",
]

#: Bivariate home of the classical series: q carries the grading, p does not.
QP = VariableRegistry(("q", "p"), (1, 0))

#: Univariate registry for eta-like products.
Q_ONLY = VariableRegistry(("q",))


# theta1_reduced is the triple-product sum  sum_n (-1)^n q^{n(n-1)/2} p^n,
# so its slice at q-order a holds only p^n and p^{1-n} with n >= 1 and
# n(n-1)/2 = a.  From (n-1)^2 <= n(n-1) = 2a, |p-exponent| <= n <= isqrt(2a) + 1,
# and from n - 1 <= n(n-1)/2, n <= a + 1.  The square-root side below keeps
# one unit of slack.
THETA_P_WIDTH = PWidthBound(
    fn=lambda a: min(a + 1, isqrt(2 * a) + 2), sqrt_coeff=1, sqrt_arg=2, offset=2
)

# jacobi_phi is p^{-1} thetatilde^2 etatilde^{-6}, and etatilde^{-6} has no p,
# so a p-exponent j of phi at q-order a is n1 + n2 - 1 for theta exponents n1,
# n2 at q-orders a1 + a2 <= a.  A theta exponent n sits at q-order n(n-1)/2,
# which is at least |n| - 1 for n >= 1 and at least |n| for n <= 0, so
# |j| <= a1 + a2 + 1 <= a + 1.  For fixed n1 + n2 = j + 1 the convex cost
# n1(n1-1)/2 + n2(n2-1)/2 is least at n1 = n2, where it is (j^2 - 1)/4; so
# j^2 <= 4a + 1 and |j| <= 2*isqrt(a) + 1.  The square-root side below keeps
# two units of slack.
PHI_P_WIDTH = PWidthBound(
    fn=lambda a: min(a + 1, 2 * isqrt(a) + 3), sqrt_coeff=2, sqrt_arg=1, offset=3
)


@dataclass(frozen=True)
class ReducedEta:
    """Eta product with its ``q^{1/24}`` prefactor held in the ledger."""

    series: TruncatedSeries
    ledger: PrefactorLedger


@dataclass(frozen=True)
class ReducedTheta:
    """Theta product with its ``i q^{1/8} p^{-1/2}`` prefactor in the ledger."""

    series: TruncatedSeries
    ledger: PrefactorLedger


def _theta_sum(N: int) -> TruncatedSeries:
    """Jacobi triple product sum ``sum_{n in Z} (-1)^n q^{n(n-1)/2} p^n``
    over ``QP``, exact to q-order N."""
    terms = {}
    n = 1
    while n * (n - 1) // 2 <= N:
        a = n * (n - 1) // 2  # shared by p^n and p^{1-n}, of opposite signs
        terms[(a, n)] = (-1) ** n
        terms[(a, 1 - n)] = -((-1) ** n)
        n += 1
    return TruncatedSeries(QP, terms, N)


def _eta_cubed_sum(N: int) -> TruncatedSeries:
    """Jacobi's identity ``etatilde^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}``
    over ``QP``, exact to q-order N."""
    terms = {}
    k = 0
    while k * (k + 1) // 2 <= N:
        terms[(k * (k + 1) // 2, 0)] = (-1) ** k * (2 * k + 1)
        k += 1
    return TruncatedSeries(QP, terms, N)


def eta_reduced(N: int) -> ReducedEta:
    """``prod_{m=1}^{N} (1 - q^m)`` exact to q-order N; ledger ``q^{1/24}``.

    Built from Euler's pentagonal sum ``sum_{k in Z} (-1)^k q^{k(3k-1)/2}``,
    one term per generalized pentagonal number.
    """
    if N < 0:
        raise ValueError("order must be nonnegative")
    terms = {}
    k = 0
    while k * (3 * k - 1) // 2 <= N:
        terms[(k * (3 * k - 1) // 2,)] = (-1) ** k
        terms[(k * (3 * k + 1) // 2,)] = (-1) ** k  # the pentagonal number of -k
        k += 1
    series = TruncatedSeries(Q_ONLY, terms, N)
    return ReducedEta(series, PrefactorLedger(q_exp=Fraction(1, 24)))


def theta1_reduced(N: int) -> ReducedTheta:
    """``prod (1-q^m)(1-q^{m-1}p)(1-q^m p^{-1})`` exact to q-order N.

    Built from the Jacobi triple product sum, one term per exponent of p.
    The ledger carries the ``i q^{1/8} p^{-1/2}`` prefactor that turns this
    into the odd Jacobi theta function.
    """
    if N < 0:
        raise ValueError("order must be nonnegative")
    ledger = PrefactorLedger(
        i_power=3, q_exp=Fraction(1, 8), var_exps=(("p", Fraction(-1, 2)),)
    )
    return ReducedTheta(_theta_sum(N), ledger)


def jacobi_phi(N: int) -> TruncatedSeries:
    """The weight -2, index 1 weak Jacobi form as an honest integer series.

    ``phi(q,p) = p^{-1}(1-p)^2 prod_m (1-q^m p^{-1})^2 (1-q^m p)^2 (1-q^m)^{-4}``
    exact to q-order N, built as ``p^{-1} thetatilde^2 etatilde^{-6}`` from
    the theta sum and the inverse of Jacobi's ``etatilde^3`` sum.  No ledger:
    the prefactors of the theta/eta presentation cancel completely in this
    combination.
    """
    if N < 0:
        raise ValueError("order must be nonnegative")
    theta = _theta_sum(N)
    inv = _eta_cubed_sum(N).invert_unit()
    return ((theta * theta) * (inv * inv)).shift_monomial((0, -1))


# -- product forms: the identity suite's independent reference ---------------


def _one_minus(registry: VariableRegistry, exps: ExponentVector, order: int) -> TruncatedSeries:
    return polynomial(registry, {registry.zero_exps(): 1, exps: -1}, order)


def _eta_product(N: int) -> TruncatedSeries:
    """``prod_{m=1}^{N} (1 - q^m)`` over ``Q_ONLY`` by multiplying out the factors."""
    acc = one(Q_ONLY, N)
    for m in range(1, N + 1):
        acc = acc * _one_minus(Q_ONLY, (m,), N)
    return acc


def _theta_product(N: int) -> TruncatedSeries:
    """``prod (1-q^m)(1-q^{m-1}p)(1-q^m p^{-1})`` over ``QP`` by multiplying
    out the factors."""
    acc = one(QP, N)
    for m in range(1, N + 2):
        if m <= N:
            acc = acc * _one_minus(QP, (m, 0), N)
            acc = acc * _one_minus(QP, (m, -1), N)
        acc = acc * _one_minus(QP, (m - 1, 1), N)
    return acc


def eta_at(target: VariableRegistry, q_image: ExponentVector, order: int) -> ReducedEta:
    """Eta product with ``q`` sent to a positive-degree target monomial."""
    dq = target.degree(q_image)
    if dq < 1:
        raise ValueError("the modular variable must map to a monomial of positive degree")
    M = (order + 1 + dq - 1) // dq  # smallest M with (M + 1) * dq - 1 >= order
    base = eta_reduced(M).series
    series = base.substitute_monomials(
        target, {"q": (1, q_image)}, nonnegative_source=True
    )
    return ReducedEta(series, PrefactorLedger(q_exp=Fraction(1, 24)))


def _ledger_for_p_image(i_power: int, target: VariableRegistry, p_image: ExponentVector) -> PrefactorLedger:
    # p^{-1/2} with p -> monomial(exps) contributes -e/2 per target variable;
    # the q^{1/8} slot is tracked in units of the shared modular monomial.
    var_exps = tuple(
        (name, Fraction(-e, 2)) for name, e in zip(target.names, p_image) if e
    )
    return PrefactorLedger(i_power=i_power, q_exp=Fraction(1, 8), var_exps=var_exps)


def theta1_at(
    target: VariableRegistry,
    q_image: ExponentVector,
    p_image: ExponentVector,
    order: int,
) -> ReducedTheta:
    """Theta product with ``q -> Q`` and ``p -> monomial``, exact to ``order``.

    The source q-order is chosen from the theta support-width certificate;
    the returned ledger records the substituted ``i Q^{1/8} (p-image)^{-1/2}``.
    """
    dq = target.degree(q_image)
    dp = target.degree(p_image)
    M = required_source_order(THETA_P_WIDTH, dq, abs(dp), order)
    base = theta1_reduced(M).series
    series = base.substitute_monomials(
        target,
        {"q": (1, q_image), "p": (1, p_image)},
        p_width=THETA_P_WIDTH,
    )
    return ReducedTheta(series, _ledger_for_p_image(3, target, p_image))


def jacobi_phi_at(
    target: VariableRegistry,
    q_image: ExponentVector,
    p_image: ExponentVector,
    order: int,
) -> TruncatedSeries:
    """``phi(Q, monomial)`` exact to ``order`` in the target grading."""
    dq = target.degree(q_image)
    dp = target.degree(p_image)
    M = required_source_order(PHI_P_WIDTH, dq, abs(dp), order)
    base = jacobi_phi(M)
    return base.substitute_monomials(
        target,
        {"q": (1, q_image), "p": (1, p_image)},
        p_width=PHI_P_WIDTH,
    )


def elliptic_genus_c2_at(
    target: VariableRegistry,
    q_image: ExponentVector,
    y_image: ExponentVector,
    t_image: ExponentVector,
    order: int,
) -> TruncatedSeries:
    """Equivariant elliptic genus of the plane with its three slots mapped to
    target monomials: the theta quotient
    ``thetatilde(Q, YT) thetatilde(Q, Y^{-1}T) / thetatilde(Q, T)^2``.

    The eta factors of ``phi`` cancel from this quotient, and the thetas'
    prefactor ledgers must combine to the scalar +1.  Thetas with floors
    ``Fa``, ``Fb``, ``Fd`` built to order ``K`` give a quotient exact to
    ``K + min(min(Fa, Fb) - 2*Fd, Fa + Fb - 3*Fd)``, so the pad over
    ``order`` is read off the floors of a first build.  A theta's constant
    term 1 is stored at every nonnegative order, so its floor does not
    depend on the order it was built to; if a degenerate image still falls
    short after the one rebuild, InvariantError is raised.
    """
    images = (
        tuple(a + b for a, b in zip(y_image, t_image)),
        tuple(b - a for a, b in zip(y_image, t_image)),
        t_image,
    )
    thetas = [theta1_at(target, q_image, p, order) for p in images]
    fa, fb, fd = (th.series.floor for th in thetas)
    pad = max(0, 2 * fd - min(fa, fb), 3 * fd - fa - fb)
    if pad:
        thetas = [theta1_at(target, q_image, p, order + pad) for p in images]
    a, b, d = thetas
    ledger = a.ledger.combine(b.ledger).combine(d.ledger.scale(-2))
    if ledger != PrefactorLedger():
        raise InvariantError(f"elliptic-genus prefactors failed to cancel to +1: {ledger}")
    result = a.series * b.series * (d.series * d.series).invert_unit()
    if result.order < order:
        raise InvariantError("elliptic-genus order fell short of the floor pad")
    return result.truncate(order)


#: Trivariate home of the elliptic genus: q-order counts double so that the
#: y/t window at each q-order is finite and symmetric.
QYT = VariableRegistry(("q", "y", "t"), (2, 1, 1))


def elliptic_genus_c2(N: int) -> TruncatedSeries:
    """The elliptic genus over ``("q","y","t")`` with weights ``(2,1,1)``,
    exact to weighted order 2N (so complete through q-order N)."""
    if N < 0:
        raise ValueError("order must be nonnegative")
    return elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, 1), 2 * N)


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    detail: str = ""


def _report(name: str, lhs: TruncatedSeries, rhs: TruncatedSeries, up_to: int) -> IdentityCheck:
    ok = lhs.same_series(rhs, up_to=up_to)
    detail = f"exact to order {up_to}" if ok else "series differ"
    return IdentityCheck(name, ok, detail)


def check_identities(N: int) -> list[IdentityCheck]:
    """Verify the classical relations between eta, theta and phi, in
    prefactor-free form, as exact series identities to q-order N.

    * ``eta^6 * phi(q,p) = p^{-1} * theta(q,p)^2``
    * ``p * phi(q,p) = (q/p) * phi(q, q p^{-1})``  (index-1 elliptic shift)
    * ``phi(q,p) = phi(q, p^{-1})``
    * ``theta(q, p^{-1}) = -p^{-1} * theta(q,p)``

    phi comes from the sum forms (``jacobi_phi``), eta and theta from their
    products multiplied out factor by factor, so the first check compares
    the two presentations.  Failures are reported, not raised.
    """
    if N < 1:
        raise ValueError("order must be at least 1")
    phi = jacobi_phi(N)
    theta = _theta_product(N)
    eta6 = _eta_product(N).substitute_monomials(QP, {"q": (1, (1, 0))}) ** 6

    lhs1 = eta6 * phi
    rhs1 = (theta * theta).shift_monomial((0, -1))
    check1 = _report("eta6_phi_equals_theta_squared", lhs1, rhs1, N)

    shifted = jacobi_phi_at(QP, (1, 0), (1, -1), N)
    lhs2 = phi.shift_monomial((0, 1))
    rhs2 = shifted.shift_monomial((1, -1))
    check2 = _report("index_one_shift", lhs2, rhs2, N)

    flipped = phi.substitute_monomials(QP, {"q": (1, (1, 0)), "p": (1, (0, -1))})
    check3 = _report("p_inversion_symmetry", phi, flipped, N)

    theta_flipped = theta.substitute_monomials(QP, {"q": (1, (1, 0)), "p": (1, (0, -1))})
    rhs4 = theta.shift_monomial((0, -1), -1)
    check4 = _report("theta_oddness", theta_flipped, rhs4, N)

    return [check1, check2, check3, check4]
