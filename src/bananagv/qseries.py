"""Classical q-series as truncated Laurent series, and their identities.

The unsubstituted series live over the bivariate registry ``("q", "p")``
with grading weights ``(1, 0)``: truncation is by q-order alone, and the
elliptic variable ``p`` ranges over a finite window at each q-order.
Fractional prefactors (``q^{1/8}``, ``p^{-1/2}``, ``q^{1/24}``, powers of
``i``) are never stored in a series; they ride along in a
:class:`PrefactorLedger` and must cancel before a result is exposed.

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

Every builder takes a target registry and the target monomials ``Q`` and
``P`` that ``q`` and ``p`` are sent to, with ``deg Q >= 1``.  Eta, eta cubed
and theta are written term by term from their classical sums, which are
sparse (O(sqrt N) terms to order N):

* Euler's pentagonal theorem, ``etatilde = sum_k (-1)^k q^{k(3k-1)/2}``,
* Jacobi's identity, ``etatilde^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}``,
* the Jacobi triple product, ``thetatilde = sum_n (-1)^n q^{n(n-1)/2} p^n``.

Each sum runs over an integer index ``k`` and puts ``Q^{a(k)} P^{n(k)}`` at
target degree ``deg Q * a(k) + deg P * n(k)``, which is strictly convex in
``k`` because ``a`` is quadratic and ``n`` linear.  So one walk from the
minimum, both ways until the degree passes the order, writes every term of
the result, exact by construction.  ``phi = P^{-1} thetatilde^2
(etatilde^3)^{-2}`` is one inverse and three products in the target.  The
unsubstituted ``eta_reduced``, ``theta1_reduced`` and ``jacobi_phi`` are the
identity images over ``Q_ONLY`` and ``QP``.  The products themselves are
multiplied out factor by factor only inside the identity suite, so its first
check compares the sum-built phi against product-built eta and theta.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Callable

from .series import (
    ExponentVector,
    InvariantError,
    PrefactorLedger,
    TruncatedSeries,
    VariableRegistry,
    one,
    polynomial,
    zero,
)

__all__ = [
    "QP",
    "Q_ONLY",
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

# The ledgers' exponents are integers in units of 1/24 for Q and 1/2 for
# the target variables: eta carries q^{1/24}, theta i q^{1/8} p^{-1/2}.
_ETA_LEDGER = PrefactorLedger(q_24ths=1)


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


def _sum_at(
    target: VariableRegistry,
    q_image: ExponentVector,
    p_image: ExponentVector,
    order: int,
    term: Callable[[int], tuple[int, int, int]],
) -> TruncatedSeries:
    """``sum_{k in Z} c Q^a P^n`` over ``(a, n, c) = term(k)``, exact to
    ``order`` over ``target``, where ``a`` is quadratic in ``k`` with a
    positive leading coefficient and ``n`` is linear.

    With ``deg Q >= 1`` the degree ``deg Q * a + deg P * n`` is strictly
    convex in ``k``: the walk finds its minimum, then goes up and down from
    there until the degree passes ``order``.  Terms that land on one target
    monomial add.
    """
    dq, dp = target.degree(q_image), target.degree(p_image)
    if dq < 1:
        raise ValueError("the modular variable must map to a monomial of positive degree")

    def degree(k: int) -> int:
        a, n, _ = term(k)
        return dq * a + dp * n

    k = 0
    while degree(k - 1) < degree(k):
        k -= 1
    while degree(k + 1) < degree(k):
        k += 1
    terms: dict[ExponentVector, int] = {}
    for walk in (count(k), count(k - 1, -1)):
        for j in walk:
            a, n, c = term(j)
            if dq * a + dp * n > order:
                break
            exps = tuple(a * x + n * y for x, y in zip(q_image, p_image))
            terms[exps] = terms.get(exps, 0) + c
    return TruncatedSeries(target, terms, order)


def _eta_cubed_at(target: VariableRegistry, q_image: ExponentVector, order: int) -> TruncatedSeries:
    """Jacobi's ``etatilde^3`` with ``q -> Q``, exact to ``order``.

    The index runs over all of Z as ``sum_k (-1)^k (k+1) q^{k(k+1)/2}``:
    ``k`` and ``-1-k`` share an exponent and their coefficients add to
    ``(-1)^k (2k+1)``.
    """
    return _sum_at(
        target, q_image, target.zero_exps(), order,
        lambda k: (k * (k + 1) // 2, 0, (-1) ** (k % 2) * (k + 1)),
    )


def eta_at(target: VariableRegistry, q_image: ExponentVector, order: int) -> ReducedEta:
    """Eta product with ``q`` sent to a positive-degree target monomial,
    exact to ``order``, from Euler's pentagonal sum."""
    series = _sum_at(
        target, q_image, target.zero_exps(), order,
        lambda k: (k * (3 * k - 1) // 2, 0, (-1) ** (k % 2)),
    )
    return ReducedEta(series, _ETA_LEDGER)


def _ledger_for_p_image(i_power: int, target: VariableRegistry, p_image: ExponentVector) -> PrefactorLedger:
    # p^{-1/2} with p -> monomial(exps) contributes -e halves per target
    # variable; the q^{1/8} slot is tracked in units of the shared modular
    # monomial
    var_halves = tuple((name, -e) for name, e in zip(target.names, p_image))
    return PrefactorLedger(i_power=i_power, q_24ths=3, var_halves=var_halves)


def theta1_at(
    target: VariableRegistry,
    q_image: ExponentVector,
    p_image: ExponentVector,
    order: int,
) -> ReducedTheta:
    """Theta product with ``q -> Q`` and ``p -> P``, exact to ``order``, from
    the triple-product sum; the returned ledger records the substituted
    ``i Q^{1/8} P^{-1/2}``."""
    series = _sum_at(
        target, q_image, p_image, order, lambda n: (n * (n - 1) // 2, n, (-1) ** (n % 2))
    )
    return ReducedTheta(series, _ledger_for_p_image(3, target, p_image))


def jacobi_phi_at(
    target: VariableRegistry,
    q_image: ExponentVector,
    p_image: ExponentVector,
    order: int,
) -> TruncatedSeries:
    """``phi(Q, P) = P^{-1} thetatilde(Q, P)^2 (etatilde(Q)^3)^{-2}``, exact
    to ``order`` in the target grading.

    No ledger: the prefactors of the theta/eta presentation cancel in this
    combination.  Factors built to ``K`` give a quotient exact to
    ``K + 2F - deg P`` for theta floor ``F <= 0`` (eta cubed has floor 0),
    so the pad is read off the floor of a first theta build.  Theta's
    constant term 1 is stored at every order ``K >= 0``, so its floor does
    not depend on the order it was built to.  Only at its zeros ``P = Q^k``
    does theta lose that term, and there it and phi vanish identically.
    """
    base = max(order, 0)
    theta = theta1_at(target, q_image, p_image, base).series
    if theta.is_zero():
        return zero(target, order)
    pad = target.degree(p_image) - 2 * theta.floor
    if pad:
        theta = theta1_at(target, q_image, p_image, base + pad).series
    inv = _eta_cubed_at(target, q_image, base + pad).invert_unit()
    phi = ((theta * theta) * (inv * inv)).shift_monomial(tuple(-e for e in p_image))
    if phi.order < order:
        raise InvariantError("phi order fell short of the floor pad")
    return phi.truncate(order)


def eta_reduced(N: int) -> ReducedEta:
    """``prod_{m=1}^{N} (1 - q^m)`` over ``Q_ONLY``, exact to q-order N;
    ledger ``q^{1/24}``."""
    if N < 0:
        raise ValueError("order must be nonnegative")
    return eta_at(Q_ONLY, (1,), N)


def theta1_reduced(N: int) -> ReducedTheta:
    """``prod (1-q^m)(1-q^{m-1}p)(1-q^m p^{-1})`` over ``QP``, exact to
    q-order N.

    The ledger carries the ``i q^{1/8} p^{-1/2}`` prefactor that turns this
    into the odd Jacobi theta function.
    """
    if N < 0:
        raise ValueError("order must be nonnegative")
    return theta1_at(QP, (1, 0), (0, 1), N)


def jacobi_phi(N: int) -> TruncatedSeries:
    """The weight -2, index 1 weak Jacobi form as an honest integer series.

    ``phi(q,p) = p^{-1}(1-p)^2 prod_m (1-q^m p^{-1})^2 (1-q^m p)^2 (1-q^m)^{-4}``
    over ``QP``, exact to q-order N.
    """
    if N < 0:
        raise ValueError("order must be nonnegative")
    return jacobi_phi_at(QP, (1, 0), (0, 1), N)


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
    ``order`` is read off the floors of a first build, made at order 0 or
    more.  A theta's constant term 1 is stored at every nonnegative order,
    so its floor does not depend on the order it was built to; if a
    degenerate image still falls short after the one rebuild,
    InvariantError is raised.
    """
    images = (
        tuple(a + b for a, b in zip(y_image, t_image)),
        tuple(b - a for a, b in zip(y_image, t_image)),
        t_image,
    )
    base = max(order, 0)
    thetas = [theta1_at(target, q_image, p, base) for p in images]
    fa, fb, fd = (th.series.floor for th in thetas)
    pad = max(0, 2 * fd - min(fa, fb), 3 * fd - fa - fb)
    if pad:
        thetas = [theta1_at(target, q_image, p, base + pad) for p in images]
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
    eta6 = _eta_product(N).substitute_monomials(QP, {"q": (1, 0)}) ** 6

    lhs1 = eta6 * phi
    rhs1 = (theta * theta).shift_monomial((0, -1))
    check1 = _report("eta6_phi_equals_theta_squared", lhs1, rhs1, N)

    shifted = jacobi_phi_at(QP, (1, 0), (1, -1), N)
    lhs2 = phi.shift_monomial((0, 1))
    rhs2 = shifted.shift_monomial((1, -1))
    check2 = _report("index_one_shift", lhs2, rhs2, N)

    flipped = phi.substitute_monomials(QP, {"q": (1, 0), "p": (0, -1)})
    check3 = _report("p_inversion_symmetry", phi, flipped, N)

    theta_flipped = theta.substitute_monomials(QP, {"q": (1, 0), "p": (0, -1)})
    rhs4 = theta.shift_monomial((0, -1), -1)
    check4 = _report("theta_oddness", theta_flipped, rhs4, N)

    return [check1, check2, check3, check4]
