"""Tests for the classical q-series, their builders, and the identity suite."""
import re
import sys
from functools import cache, reduce
from operator import mul

import pytest
from hypothesis import assume, example, given, strategies as st

from bananagv import gvpf, qseries
from bananagv.qseries import (
    _eta_cubed_at,
    _triple_product,
    QP,
    QYT,
    check_identities,
    elliptic_genus_c2,
    elliptic_genus_c2_at,
    jacobi_phi,
    jacobi_phi_at,
    theta1_at,
)
from bananagv.series import TruncatedSeries, VariableRegistry, one, polynomial
from planted_faults import double_theta_term, drop_top_degree_pairs

#: Univariate registry for eta-like series.
Q_ONLY = VariableRegistry(("q",))


def q_slice(series, a):
    """Coefficients of q^a as a map p-exponent -> coefficient."""
    return {e[1]: c for e, c in series.terms.items() if e[0] == a}


def _not_an_int(bad):
    """The refusal of a non-int order, naming the value as passed."""
    return re.escape(f"order must be an int, not {type(bad).__name__} {bad!r}")


# ------------------------------------------------------------------- eta


def test_eta_at_doubles_exponents():
    doubled = _eta_cubed_at(Q_ONLY, (2,), 12)
    assert doubled.order >= 12
    base = _eta_cubed_at(Q_ONLY, (1,), 6)
    expected = {(2 * m,): c for (m,), c in base.terms.items() if 2 * m <= 12}
    assert doubled.truncate(12).terms == expected


def test_eta_at_rejects_degenerate_image():
    reg = VariableRegistry(("q", "p"), (1, 0))
    with pytest.raises(ValueError):
        _eta_cubed_at(reg, (0, 1), 4)


# ----------------------------------------------------------------- theta


def test_theta_low_order_slices():
    t = theta1_at(QP, (1, 0), (0, 1), 6)
    assert q_slice(t, 0) == {0: 1, 1: -1}
    assert q_slice(t, 1) == {-1: -1, 2: 1}


# ------------------------------------------------------------------- phi


def test_phi_low_order_slices():
    f = jacobi_phi(6)
    assert q_slice(f, 0) == {-1: 1, 0: -2, 1: 1}
    assert q_slice(f, 1) == {-2: -2, -1: 8, 0: -12, 1: 8, 2: -2}


def test_phi_vanishes_at_p_equal_one():
    f = jacobi_phi(8)
    collapsed = f.substitute_monomials(Q_ONLY, {"q": (1,), "p": (0,)})
    assert collapsed.terms == {}
    # theta, and with it phi, vanishes at every p = q^k, at every order
    for k in range(-3, 4):
        for order in (-2, 0, 1, 5):
            assert jacobi_phi_at(QP, (1, 0), (k, 0), order) == TruncatedSeries(QP, {}, order)


def test_phi_corner_coefficients():
    # along |p-exponent| = q-order + 1 the only nonzero entries are
    # q^0 p^{+-1}, q^1 p^{+-2}, q^2 p^{+-3} with coefficients 1, -2, 1
    f = jacobi_phi(8)
    for a, expect in enumerate([1, -2, 1, 0, 0, 0, 0, 0, 0]):
        assert f.coefficient((a, a + 1)) == expect
        assert f.coefficient((a, -(a + 1))) == expect


def test_phi_at_with_negative_image_degree_matches_inversion():
    # phi(q, p^{-1}) computed two ways: by substitution into the target, and
    # by the p <-> p^{-1} symmetry of the double product
    direct = jacobi_phi_at(QP, (1, 0), (0, -1), 6)
    f = jacobi_phi(6)
    assert direct.same_series(f.substitute_monomials(QP, {"q": (1, 0), "p": (0, -1)}))


# ------------------------------------------------- sum forms vs products


def _one_minus(exps, N):
    return polynomial(QP, {(0, 0): 1, exps: -1}, N)


def _phi_double_product(N):
    """``p^{-1}(1-p)^2 prod_m (1-q^m p^{-1})^2 (1-q^m p)^2 (1-q^m)^{-4}`` by
    multiplying out the factors: an independent reference for ``jacobi_phi``."""
    acc = polynomial(QP, {(0, -1): 1, (0, 0): -2, (0, 1): 1}, N)
    eta_like = one(QP, N)
    for m in range(1, N + 1):
        f = _one_minus((m, -1), N)
        g = _one_minus((m, 1), N)
        acc = acc * f * f * g * g
        eta_like = eta_like * _one_minus((m, 0), N)
    inv = eta_like.invert_unit()
    return acc * inv * inv * inv * inv


def _assert_identical(a, b):
    assert (a.registry, a.order, a.floor, a.terms) == (b.registry, b.order, b.floor, b.terms)


def _theta_and_eta_cubed(N):
    """Theta and eta cubed read off the multiplied-out triple product ``G``,
    as the identity suite reads them: ``(1 - p) G``, and ``G`` at ``p = 1``."""
    product = _triple_product(N)
    theta = product + product.shift_monomial((0, 1), -1)
    return theta, product.substitute_monomials(QP, {"q": (1, 0), "p": (0, 0)})


def test_eta_cubed_sum_is_the_cube_of_eta():
    for N in range(41):
        _assert_identical(_eta_cubed_at(QP, (1, 0), N), _theta_and_eta_cubed(N)[1])


def test_sum_forms_equal_the_product_builders():
    # the double product is built once; its truncation to N is exact, so it
    # stands for the order-N product with the same order and floor
    phi_reference = _phi_double_product(40)
    for N in range(41):
        _assert_identical(theta1_at(QP, (1, 0), (0, 1), N), _theta_and_eta_cubed(N)[0])
        _assert_identical(jacobi_phi(N), phi_reference.truncate(N))


def _ascending_product(factors, N):
    """``prod (1 - X)`` over ``factors``, by the product kernel in that order."""
    return reduce(mul, [_one_minus(x, N) for x in factors], one(QP, N))


def test_product_builders_equal_the_ascending_products():
    # the builder shifts and subtracts, largest factor first; the reference
    # multiplies two-term series, smallest first
    for N in range(41):
        factors = [x for m in range(1, N + 1) for x in ((m, 0), (m, -1), (m, 1))]
        _assert_identical(_triple_product(N), _ascending_product(factors, N))


# ------------------------------- substituted sums vs mapped product forms


@cache
def _products(M):
    theta, eta_cubed = _theta_and_eta_cubed(M)
    return eta_cubed, theta, _phi_double_product(M)


def _mapped(product, target, q_image, p_image, order):
    """A product over ``(q, p)`` with ``q -> Q`` and ``p -> P``, term by
    term; the constructor keeps the terms of degree <= order."""
    terms = {}
    for (a, n), c in product.terms.items():
        image = tuple(a * x + n * y for x, y in zip(q_image, p_image))
        terms[image] = terms.get(image, 0) + c
    return TruncatedSeries(target, terms, order)


@st.composite
def _sum_images(draw):
    target = draw(st.sampled_from([QP, QYT, Q_ONLY, VariableRegistry(("x", "y"))]))
    vector = st.tuples(*[st.integers(-2, 2)] * target.size)
    q_image, p_image = draw(vector), draw(vector)
    # raise the exponent of the first variable, which has positive weight,
    # until deg Q > |deg P|
    short = abs(target.degree(p_image)) + 1 - target.degree(q_image)
    lift = max(0, -(-short // target.weights[0]))
    return target, (q_image[0] + lift, *q_image[1:]), p_image


@given(_sum_images(), st.integers(-4, 8))
@example((QP, (1, 0), (0, -3)), 8)  # p has weight 0
@example((QYT, (1, 0, 0), (0, 1, -2)), 8)  # deg P < 0
@example((QYT, (1, 0, 0), (0, 0, 0)), 8)  # y = t in Y^{-1} T: every theta term cancels
@example((Q_ONLY, (2,), (-1,)), 8)  # Q = P^{-2}: terms collide
@example((QYT, (0, 2, 1), (0, -2, 1)), -2)  # the order is below the k = 0 term
@example((QP, (1, 0), (1, 0)), 8)  # P = Q: theta and phi vanish
@example((QYT, (1, 0, 0), (2, 0, 0)), 7)  # P = Q^2
def test_sum_builders_match_the_mapped_products(images, order):
    target, q_image, p_image = images
    dq, dp = target.degree(q_image), abs(target.degree(p_image))
    # only the examples P = Q^k, k >= 1, reach dp >= dq
    vanishing = dp >= dq
    # theta and phi have |p| <= a + 1 at q-order a, so a term beyond q-order
    # M lands above degree (M + 1)(dq - dp) - dp > order
    M = max(0, order // dq if vanishing else (order + dp) // (dq - dp))
    eta_cubed, theta, phi = _products(M)
    _assert_identical(
        _eta_cubed_at(target, q_image, order),
        _mapped(eta_cubed, target, q_image, p_image, order),
    )
    for builder, product in ((theta1_at, theta), (jacobi_phi_at, phi)):
        expected = (
            TruncatedSeries(target, {}, order)
            if vanishing
            else _mapped(product, target, q_image, p_image, order)
        )
        _assert_identical(builder(target, q_image, p_image, order), expected)


@pytest.mark.parametrize(
    "target, q_image, p_image",
    [(QYT, (1, 0, 0), (0, 3, 2)), (QYT, (1, 0, 0), (0, -3, -2)), (QYT, (1, 0, 0), (0, 3, 1))],
    ids=["minimum-below-zero", "minimum-above-zero", "tied-minimum"],
)
def test_theta_at_a_negative_order_is_the_truncation(target, q_image, p_image):
    # with |deg P| > deg Q the lowest terms sit at negative degree away from
    # the k = 0 term, so the walk must first find the minimum
    full = theta1_at(target, q_image, p_image, 0)
    assert full.floor < 0
    for order in range(full.floor - 1, 0):
        assert theta1_at(target, q_image, p_image, order) == full.truncate(order)


# -------------------------------------------------------------- identities


def test_identity_suite_passes():
    for N in (8, 48):
        checks = check_identities(N)
        assert [c.name for c in checks] == [
            "eta6_phi_equals_theta_squared",
            "index_one_shift",
            "p_inversion_symmetry",
            "theta_oddness",
        ]
        for c in checks:
            assert c.passed, f"{c.name}: {c.detail}"
            assert c.detail == f"exact to order {N}"


def test_identity_suite_rejects_negative_order():
    with pytest.raises(ValueError):
        check_identities(-1)
    for bad in (0.5, 2.0, True):
        with pytest.raises(TypeError, match=_not_an_int(bad)):
            check_identities(bad)


def _failing_checks(top):
    """The ``(N, name)`` pairs of the identity checks that fail at q-orders
    1 to ``top``."""
    return [(N, c.name) for N in range(1, top + 1) for c in check_identities(N) if not c.passed]


def test_identity_suite_catches_a_doubled_theta_term(monkeypatch):
    # the n = 5 term q^10 p^5 reaches phi, which is built from the sums, at
    # q-order 10; the product side builds no sum, so check 1 fails there
    # with both checks of phi alone, and theta's oddness still holds
    double_theta_term(monkeypatch, 5)
    names = ["eta6_phi_equals_theta_squared", "index_one_shift", "p_inversion_symmetry"]
    assert _failing_checks(12) == [(N, name) for N in (10, 11, 12) for name in names]


def test_identity_suite_catches_a_product_that_drops_its_top_degree_pairs(monkeypatch):
    # both sides of check 1 end in a product to q-order N, so both lose
    # their top slice and still agree; phi at q p^{-1} is built one degree
    # higher and shifted down, so its lost slice is another one
    drop_top_degree_pairs(monkeypatch)
    assert _failing_checks(12) == [(N, "index_one_shift") for N in range(1, 13)]


def test_unsubstituted_builders_refuse_bad_orders():
    # elliptic_genus_c2 doubles its order; the refusal names the order passed
    for builder in (jacobi_phi, elliptic_genus_c2):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            builder(-1)
        for bad in (2.0, True):
            with pytest.raises(TypeError, match=_not_an_int(bad)):
                builder(bad)


@pytest.mark.parametrize("bad", [True, 2.0])
@pytest.mark.parametrize(
    "builder",
    [
        pytest.param(lambda order: theta1_at(QP, (1, 0), (0, 1), order), id="theta1_at"),
        pytest.param(lambda order: jacobi_phi_at(QP, (1, 0), (0, 1), order), id="jacobi_phi_at"),
        pytest.param(
            lambda order: elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, 1), order),
            id="elliptic_genus_c2_at",
        ),
    ],
)
def test_mapped_builders_refuse_non_int_orders(builder, bad):
    with pytest.raises(TypeError, match=_not_an_int(bad)):
        builder(bad)


# ---------------------------------------------------------- elliptic genus


def test_elliptic_genus_constant_term_is_one():
    assert elliptic_genus_c2(2).constant_term() == 1


def test_elliptic_genus_q0_slice():
    # the q^0 part is (y + 1/y - t - 1/t) / (2 - t - 1/t)
    ell = elliptic_genus_c2(6)
    q0 = TruncatedSeries(QYT, {e: c for e, c in ell.terms.items() if e[0] == 0}, ell.order)
    denom = polynomial(QYT, {(0, 0, 0): 2, (0, 0, 1): -1, (0, 0, -1): -1}, ell.order)
    lhs = q0 * denom
    numer = polynomial(
        QYT, {(0, 1, 0): 1, (0, -1, 0): 1, (0, 0, 1): -1, (0, 0, -1): -1}, lhs.order
    )
    assert lhs.same_series(numer)


def test_elliptic_genus_fixed_parameter_gives_one():
    reg = VariableRegistry(("q", "t"), (2, 1))
    ell = elliptic_genus_c2_at(reg, (1, 0), (0, 0), (0, 1), 10)
    assert ell.terms == {(0, 0): 1}


def test_elliptic_genus_mirror_symmetry():
    plain = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, 1), 10)
    mirrored = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, -1), 10)
    assert plain.same_series(mirrored, up_to=min(plain.order, mirrored.order))


def _genus_identity_sides(y_image, t_image, order):
    """``Ell^2 phi(Q,T)^2`` and ``phi(Q,YT) phi(Q,Y^{-1}T)``: the genus is
    the theta quotient, and phi is ``p^{-1}`` theta squared over eta^6, so
    the two agree with no square root taken."""
    q_image = (1, 0, 0)
    yt = tuple(a + b for a, b in zip(y_image, t_image))
    ymt = tuple(b - a for a, b in zip(y_image, t_image))
    ell = elliptic_genus_c2_at(QYT, q_image, y_image, t_image, order)
    phi_t = jacobi_phi_at(QYT, q_image, t_image, order)
    lhs = ell * ell * phi_t * phi_t
    rhs = jacobi_phi_at(QYT, q_image, yt, order) * jacobi_phi_at(QYT, q_image, ymt, order)
    return lhs, rhs


@pytest.mark.parametrize(
    "y_image, t_image",
    [((0, 1, 0), (0, 0, 1)), ((0, 1, 0), (0, 0, -1)), ((0, 3, 0), (0, 0, 1))],
    ids=["plain", "mirrored", "y-cubed"],
)
def test_elliptic_genus_squared_is_the_phi_quotient(y_image, t_image):
    lhs, rhs = _genus_identity_sides(y_image, t_image, 16)
    common = min(lhs.order, rhs.order)
    assert common >= 7  # the y-cubed genus has floor -4, and each factor costs order
    assert lhs.same_series(rhs, up_to=common)


@given(st.tuples(*[st.integers(-2, 2)] * 4))
def test_elliptic_genus_squared_is_the_phi_quotient_on_qyt_images(exps):
    y1, y2, t1, t2 = exps
    y_image, t_image = (0, y1, y2), (0, t1, t2)
    if (t1 + t2) % 2 == 0:
        # with Q of degree 2, thetatilde(Q, T) has a unique minimal term
        # only for T of odd degree; otherwise the inverse is refused
        with pytest.raises(ValueError):
            elliptic_genus_c2_at(QYT, (1, 0, 0), y_image, t_image, 10)
        return
    lhs, rhs = _genus_identity_sides(y_image, t_image, 10)
    common = min(lhs.order, rhs.order)
    assume(common >= 0)
    assert lhs.same_series(rhs, up_to=common)


def test_elliptic_genus_at_y_equal_t_is_zero():
    # Y^{-1}T = 1 and thetatilde(Q, 1) = 0
    ell = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 0, 1), (0, 0, 1), 8)
    assert ell.terms == {} and ell.order == 8


def _weierstrass_difference(order):
    """``P(y) - P(t)`` over ``QYT``, exact to ``order``, from the Lambert
    sums of ``wp / (2 pi i)^2``: ``sum_{k>=1} k (y^k - t^k) + sum_{n>=1} q^n
    sum_{d|n} d (y^d + y^-d - t^d - t^-d)``.  The constants of ``P`` cancel,
    and every term of q-degree n has weighted degree at least n."""
    terms = {}
    for k in range(1, order + 1):
        terms[0, k, 0], terms[0, 0, k] = k, -k
    for n in range(1, order + 1):
        for d in range(1, n + 1):
            if n % d == 0:
                for e in (d, -d):
                    terms[n, e, 0], terms[n, 0, e] = d, -d
    return TruncatedSeries(QYT, terms, order)


def _weierstrass_holds(N):
    """Whether ``Ell(q, y, t) = phi(q, y) (P(y) - P(t))`` holds to q-order
    N: the Weierstrass addition law ``wp(u) - wp(v) = -sigma(u+v) sigma(u-v)
    / (sigma(u)^2 sigma(v)^2)`` in this package's reduced form.  Both
    factors are built to ``2N + 1``; phi's floor -1 and the difference's
    floor 1 leave the product exact to ``2N``."""
    product = jacobi_phi_at(QYT, (1, 0, 0), (0, 1, 0), 2 * N + 1) * _weierstrass_difference(2 * N + 1)
    return elliptic_genus_c2(N) == product


def test_elliptic_genus_is_phi_times_a_weierstrass_difference():
    # no theta of t enters the right side, so this ties the genus to the
    # theta sums in a way no rearrangement of the quotient could
    for N in range(17):
        assert _weierstrass_holds(N), N


@pytest.mark.parametrize("index, first", [(5, 10), (-3, 3)])
def test_weierstrass_check_catches_a_doubled_theta_term(monkeypatch, index, first):
    double_theta_term(monkeypatch, index)
    assert [N for N in range(first + 1) if not _weierstrass_holds(N)] == [first]


def test_elliptic_genus_pads_by_the_theta_floors(monkeypatch):
    requested = []

    def recording_theta1_at(target, q_image, p_image, order):
        requested.append(order)
        return theta1_at(target, q_image, p_image, order)

    monkeypatch.setattr(qseries, "theta1_at", recording_theta1_at)
    # one order-0 probe per distinct theta reads its floor, then one build
    # each at K = order - floor(quotient) + max floor
    plain = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, 1), 10)
    assert requested == [0, 0, 0, 10, 10, 10]
    requested.clear()
    # thetatilde(Q, y^3 t) and thetatilde(Q, y^{-3} t) have floor -2 and
    # thetatilde(Q, t) floor 0, so the quotient has floor -4
    cubed = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 3, 0), (0, 0, 1), 10)
    assert requested == [0, 0, 0, 14, 14, 14]
    assert plain.order == cubed.order == 10
    requested.clear()
    # phi's pad comes from the same rule: thetatilde(q, q^{-2} p) has floor
    # -3, so theta^2, needed to order 6 + deg P = 4, has floor -6 and its
    # theta is built to 4 + 6 - 3
    phi = jacobi_phi_at(QP, (1, 0), (-2, 1), 6)
    assert requested == [0, 7]
    # the index-one elliptic shift: phi(q, q^{-2} p) = q^{-4} p^4 phi(q, p)
    assert phi == jacobi_phi(10).shift_monomial((-4, 4))


def test_each_theta_quotient_and_phi_ratio_inverts_once(monkeypatch):
    callers = []
    invert_unit = TruncatedSeries.invert_unit

    def recording_invert_unit(self):
        callers.append(sys._getframe(1).f_code.co_name)
        return invert_unit(self)

    monkeypatch.setattr(TruncatedSeries, "invert_unit", recording_invert_unit)
    one_quotient = ["_theta_quotient_at"]
    # denominators alone, eta alone, and both: eta cubed joins the
    # denominator product, which is inverted once
    elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, 1), 10)
    assert callers == one_quotient
    callers.clear()
    jacobi_phi_at(QP, (1, 0), (0, 1), 6)
    assert callers == one_quotient
    callers.clear()
    gvpf.pf_22_theta(10)
    assert callers == one_quotient
    callers.clear()
    # a numerator alone needs no inverse
    qseries._theta_quotient_at(QYT, (1, 0, 0), [(0, 1, 0), (0, 0, 1)], [], 6, False)
    assert callers == []
    # six phis, one quotient each, and one inverse of the product of the
    # two pair phis
    ratio = gvpf._phi_ratio(10)
    assert callers == one_quotient * 6 + ["_phi_ratio"]
    assert (ratio.order, ratio.floor, ratio.constant_term()) == (10, 0, 1)


def _quotient_reference(numer, denom, order, pad, over_eta6):
    """The theta quotient built factor by factor, every theta and eta cubed
    to order + pad."""
    acc = one(QYT, order + pad)
    for p in numer:
        acc = acc * theta1_at(QYT, (1, 0, 0), p, order + pad)
    for p in denom:
        acc = acc * theta1_at(QYT, (1, 0, 0), p, order + pad).invert_unit()
    if over_eta6:
        inv = _eta_cubed_at(QYT, (1, 0, 0), order + pad).invert_unit()
        acc = acc * inv * inv
    return acc


_numerator_images = st.tuples(st.integers(0, 1), st.integers(-2, 2), st.integers(-2, 2))
# with Q of degree 2, thetatilde(Q, T) is a unit only for T of odd degree
_denominator_images = st.tuples(st.just(0), st.integers(-2, 2), st.integers(-2, 2)).filter(
    lambda p: sum(p) % 2
)


@given(
    st.lists(_numerator_images, min_size=2, max_size=2),
    st.lists(_denominator_images, min_size=2, max_size=2),
    st.integers(-4, 8),
    st.booleans(),
)
@example([(0, 3, 1), (0, -3, 1)], [(0, 0, 1), (0, 0, 1)], 10, False)  # the y-cubed genus
@example([(1, 0, 0), (0, 1, 0)], [(0, 0, 1), (0, 1, 0)], 6, True)  # P = Q: theta vanishes
@example([(0, 1, 0), (0, 1, 0)], [(0, 0, 1), (0, 0, 1)], 6, True)  # repeated thetas
@example([(0, 0, 1), (0, 1, 1)], [(0, 0, 1), (0, 1, 0)], 6, False)  # a theta cancels
def test_theta_quotient_matches_the_factor_by_factor_reference(numer, denom, order, over_eta6):
    # every theta floor here is at least -6, so a pad of 16 is generous; the
    # kernel's own order tracking confirms it
    reference = _quotient_reference(numer, denom, order, 16, over_eta6)
    assert reference.order >= order
    got = qseries._theta_quotient_at(QYT, (1, 0, 0), numer, denom, order, over_eta6)
    assert got.order == order
    assert got == reference.truncate(order)


def test_elliptic_genus_at_a_negative_order_is_the_truncation():
    # the thetas are built from order 0 up, where their constant terms fix
    # the floors the pad is read off
    full = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 3, 0), (0, 0, 1), 0)
    assert full.floor == -4
    for order in range(-5, 0):
        got = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 3, 0), (0, 0, 1), order)
        assert got == full.truncate(order)


def test_elliptic_genus_sign_does_not_depend_on_variable_order():
    # the theta quotient has constant term +1 whichever registry variable
    # plays y, so renaming the variables renames the series
    plain = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, 1), 8)
    swapped = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 0, 1), (0, 1, 0), 8)
    assert swapped.constant_term() == 1
    renamed = swapped.substitute_monomials(
        QYT, {"q": (1, 0, 0), "y": (0, 0, 1), "t": (0, 1, 0)}
    )
    assert renamed == plain
