"""Classical q-series as truncated Laurent series, and their identities.

The unsubstituted series live over the bivariate registry ``("q", "p")``
with grading weights ``(1, 0)``: truncation is by q-order alone, and the
elliptic variable ``p`` ranges over a finite window at each q-order.
The fractional prefactors, ``q^{1/24}`` of eta and ``-i q^{1/8} p^{-1/2}``
of theta, are never stored in a series.  The builders return the reduced
products, and each combination the package forms cancels the prefactors by
hand: to ``-p^{-1}`` in ``theta^2 / eta^6``, so that ``phi = -theta^2 /
eta^6 = p^{-1} thetatilde^2 / etatilde^6``, and to +1 in the elliptic genus.

The module provides

* the reduced Jacobi theta product
  ``thetatilde = prod (1 - q^m)(1 - q^{m-1} p)(1 - q^m p^{-1})``,
* the weight -2 index 1 weak Jacobi form
  ``phi(q, p) = p^{-1}(1-p)^2 prod ((1-q^m p^{-1})^2 (1-q^m p)^2 / (1-q^m)^4)``,
* the equivariant elliptic genus of the plane, the theta quotient
  ``Ell(q, y, t) = thetatilde(q, yt) thetatilde(q, y^{-1} t) / thetatilde(q, t)^2``
  (it squares to
  ``phi(q, yt) phi(q, y^{-1} t) / phi(q, t)^2``, with no root taken),
* an identity suite checking the prefactor-free forms of the classical
  relations between these functions.

Every builder takes a target registry and the target monomials ``Q`` and
``P`` that ``q`` and ``p`` are sent to, with ``deg Q >= 1``.  Eta cubed
and theta are written term by term from their classical sums, which are
sparse (O(sqrt N) terms to order N):

* Jacobi's identity, ``etatilde^3 = sum_{k>=0} (-1)^k (2k+1) q^{k(k+1)/2}``,
* the Jacobi triple product, ``thetatilde = sum_n (-1)^n q^{n(n-1)/2} p^n``.

Each sum runs over an integer index ``k`` and puts ``Q^{a(k)} P^{n(k)}`` at
target degree ``deg Q * a(k) + deg P * n(k)``, which is strictly convex in
``k`` because ``a`` is quadratic and ``n`` linear.  So one walk from the
minimum, both ways until the degree passes the order, writes every term of
the result, exact by construction.  One private builder assembles every
theta quotient the package uses (the elliptic genus, phi ``= P^{-1}
thetatilde^2 / etatilde^6``, and both closed forms' eta and theta
factors), and it alone sets their pads.  Eta enters only there: eta
cubed joins the denominators twice, and each quotient takes one inverse.
The unsubstituted ``jacobi_phi`` is the identity image over ``QP``.  The
products are multiplied out only for the identity suite, by shifts and
sums, so its first check compares the sum-built phi, made with the product
kernel, against eta and theta made without it.
"""
from __future__ import annotations

from functools import reduce
from itertools import count
from operator import mul
from typing import Callable, NamedTuple

from .series import (
    ExponentVector,
    TruncatedSeries,
    VariableRegistry,
    _as_int,
    _as_order,
    _exact_to,
    one,
)

__all__ = [
    "QP",
    "IdentityCheck",
    "jacobi_phi",
    "theta1_at",
    "jacobi_phi_at",
    "elliptic_genus_c2",
    "elliptic_genus_c2_at",
    "check_identities",
]

#: Bivariate home of the classical series: q carries the grading, p does not.
QP = VariableRegistry(("q", "p"), (1, 0))


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


def theta1_at(
    target: VariableRegistry,
    q_image: ExponentVector,
    p_image: ExponentVector,
    order: int,
) -> TruncatedSeries:
    """Theta product with ``q -> Q`` and ``p -> P``, exact to ``order``, from
    the triple-product sum."""
    return _sum_at(
        target, q_image, p_image, order, lambda n: (n * (n - 1) // 2, n, (-1) ** (n % 2))
    )


def _theta_quotient_at(
    target: VariableRegistry,
    q_image: ExponentVector,
    numer: list,
    denom: list,
    order: int,
    over_eta6: bool,
) -> TruncatedSeries:
    """The product of ``thetatilde(Q, P)`` over the images ``P`` in ``numer``,
    divided by the product over ``denom``, and by ``etatilde(Q)^6`` if
    ``over_eta6``, exact to ``order`` in the target grading.

    A build at order 0 reads off each distinct theta's floor: its constant
    term 1 is stored at every order of 0 or more, and a theta that vanishes
    (at ``P = Q^k``) reads 1.  By the width rule of :mod:`bananagv.series`,
    each distinct theta is built once to the quotient's width plus the
    largest floor, and eta cubed, of floor 0, to the width.  Eta cubed
    joins the denominators twice, and their product is inverted once; a
    quotient with a numerator alone takes no inverse.
    """
    floors = {p: theta1_at(target, q_image, p, 0).floor for p in dict.fromkeys(numer + denom)}
    floor = sum(floors[p] for p in numer) - sum(floors[p] for p in denom)
    width = max(order - floor, 0)
    thetas = {p: theta1_at(target, q_image, p, width + max(floors.values())) for p in floors}
    result = reduce(mul, [thetas[p] for p in numer])
    denominators = [thetas[p] for p in denom]
    if over_eta6:
        eta_cubed = _eta_cubed_at(target, q_image, width)
        denominators += [eta_cubed, eta_cubed]
    if denominators:
        result = result * reduce(mul, denominators).invert_unit()
    return _exact_to(result, order)


def jacobi_phi_at(
    target: VariableRegistry,
    q_image: ExponentVector,
    p_image: ExponentVector,
    order: int,
) -> TruncatedSeries:
    """``phi(Q, P) = P^{-1} thetatilde(Q, P)^2 / etatilde(Q)^6``, exact to
    ``order`` in the target grading."""
    quotient = _theta_quotient_at(
        target, q_image, [p_image, p_image], [], _as_int(order, "order") + target.degree(p_image), True
    )
    return quotient.shift_monomial(tuple(-e for e in p_image))


def jacobi_phi(N: int) -> TruncatedSeries:
    """The weight -2, index 1 weak Jacobi form as an honest integer series.

    ``phi(q,p) = p^{-1}(1-p)^2 prod_m (1-q^m p^{-1})^2 (1-q^m p)^2 (1-q^m)^{-4}``
    over ``QP``, exact to q-order N.
    """
    return jacobi_phi_at(QP, (1, 0), (0, 1), _as_order(N))


# -- product forms: the identity suite's independent reference ---------------


def _eta_product(N: int) -> TruncatedSeries:
    """``prod_{m=1}^{N} (1 - q^m)`` over ``QP``: each factor ``1 - X`` is a
    shift and a subtraction, ``acc - X acc``, largest ``m`` first, so the
    accumulator stays sparse until the last factors."""
    acc = one(QP, N)
    for m in range(N, 0, -1):
        acc = acc + acc.shift_monomial((m, 0), -1)
    return acc


def _theta_product(N: int) -> TruncatedSeries:
    """``prod (1-q^m)(1-q^{m-1}p)(1-q^m p^{-1})`` over ``QP``, multiplied
    out as :func:`_eta_product`, from q-degree N down to ``1 - p``."""
    acc = one(QP, N)
    for m in range(N, 0, -1):
        for x in (m, 0), (m, -1), (m, 1):
            acc = acc + acc.shift_monomial(x, -1)
    return acc + acc.shift_monomial((0, 1), -1)


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

    The eta factors of ``phi`` cancel from this quotient, and so do the
    thetas' prefactors: ``(-i)^{1+1-2} Q^{(1+1-2)/8} (YT)^{-1/2}
    (Y^{-1}T)^{-1/2} T^{+1} = 1``.
    """
    yt = tuple(a + b for a, b in zip(y_image, t_image))
    ymt = tuple(b - a for a, b in zip(y_image, t_image))
    return _theta_quotient_at(target, q_image, [yt, ymt], [t_image, t_image], order, False)


#: Trivariate home of the elliptic genus: q-order counts double so that the
#: y/t window at each q-order is finite and symmetric.
QYT = VariableRegistry(("q", "y", "t"), (2, 1, 1))


def elliptic_genus_c2(N: int) -> TruncatedSeries:
    """The elliptic genus over ``("q","y","t")`` with weights ``(2,1,1)``,
    exact to weighted order 2N (so complete through q-order N)."""
    return elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, 1), 2 * _as_order(N))


class IdentityCheck(NamedTuple):
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
    N = _as_order(N)
    phi = jacobi_phi(N)
    theta = _theta_product(N)
    eta3 = _eta_product(N) ** 3

    # eta cubed is much sparser than eta^6 (32 against 296 terms at 512),
    # so two products by it form fewer pairs than one by eta^6
    lhs1 = (phi * eta3) * eta3
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
