"""Tests for the classical q-series, their builders, and the identity suite."""
from fractions import Fraction

import pytest
from hypothesis import assume, given, strategies as st

from bananagv import qseries
from bananagv.qseries import (
    PHI_P_WIDTH,
    _eta_cubed_sum,
    _eta_product,
    _one_minus,
    _theta_product,
    QP,
    QYT,
    Q_ONLY,
    THETA_P_WIDTH,
    check_identities,
    elliptic_genus_c2,
    elliptic_genus_c2_at,
    eta_at,
    eta_reduced,
    jacobi_phi,
    jacobi_phi_at,
    theta1_at,
    theta1_reduced,
)
from bananagv.series import InvariantError, TruncatedSeries, VariableRegistry, one, polynomial


def q_slice(series, a):
    """Coefficients of q^a as a map p-exponent -> coefficient."""
    return {e[1]: c for e, c in series.terms.items() if e[0] == a}


# ------------------------------------------------------------------- eta


def test_eta_is_the_pentagonal_number_series():
    e = eta_reduced(12)
    assert e.series.terms == {(0,): 1, (1,): -1, (2,): -1, (5,): 1, (7,): 1, (12,): -1}
    assert e.ledger.q_exp == Fraction(1, 24)
    assert e.ledger.i_power == 0 and e.ledger.var_exps == ()


def test_eta_at_doubles_exponents():
    doubled = eta_at(Q_ONLY, (2,), 12).series
    assert doubled.order >= 12
    base = eta_reduced(6).series
    expected = {(2 * m,): c for (m,), c in base.terms.items() if 2 * m <= 12}
    assert doubled.truncate(12).terms == expected


def test_eta_at_rejects_degenerate_image():
    reg = VariableRegistry(("q", "p"), (1, 0))
    with pytest.raises(ValueError):
        eta_at(reg, (0, 1), 4)


# ----------------------------------------------------------------- theta


def test_theta_low_order_slices():
    t = theta1_reduced(6).series
    assert q_slice(t, 0) == {0: 1, 1: -1}
    assert q_slice(t, 1) == {-1: -1, 2: 1}


def test_theta_ledger():
    led = theta1_reduced(2).ledger
    assert led.i_power == 3
    assert led.q_exp == Fraction(1, 8)
    assert led.var_exps == (("p", Fraction(-1, 2)),)


def test_theta_support_obeys_width_certificate():
    t = theta1_reduced(60).series
    for (a, b), c in t.terms.items():
        assert c != 0
        assert abs(b) <= THETA_P_WIDTH.fn(a)
        assert THETA_P_WIDTH.check_certificate(a)


# ------------------------------------------------------------------- phi


def test_phi_low_order_slices():
    f = jacobi_phi(6)
    assert q_slice(f, 0) == {-1: 1, 0: -2, 1: 1}
    assert q_slice(f, 1) == {-2: -2, -1: 8, 0: -12, 1: 8, 2: -2}


def test_phi_vanishes_at_p_equal_one():
    f = jacobi_phi(8)
    collapsed = f.substitute_monomials(Q_ONLY, {"q": (1, (1,)), "p": (1, (0,))})
    assert collapsed.is_zero()


def test_phi_corner_coefficients():
    # along |p-exponent| = q-order + 1 the only nonzero entries are
    # q^0 p^{+-1}, q^1 p^{+-2}, q^2 p^{+-3} with coefficients 1, -2, 1
    f = jacobi_phi(8)
    for a, expect in enumerate([1, -2, 1, 0, 0, 0, 0, 0, 0]):
        assert f.coefficient((a, a + 1)) == expect
        assert f.coefficient((a, -(a + 1))) == expect


def test_phi_support_obeys_width_certificate():
    f = jacobi_phi(60)
    for (a, b), _ in f.terms.items():
        assert abs(b) <= PHI_P_WIDTH.fn(a)
        assert PHI_P_WIDTH.check_certificate(a)


def test_phi_at_with_negative_image_degree_matches_inversion():
    # phi(q, p^{-1}) computed two ways: by substitution into the target, and
    # by the p <-> p^{-1} symmetry of the double product
    direct = jacobi_phi_at(QP, (1, 0), (0, -1), 6)
    f = jacobi_phi(6)
    assert direct.same_series(f.substitute_monomials(QP, {"q": (1, (1, 0)), "p": (1, (0, -1))}))


# ------------------------------------------------- sum forms vs products


def _phi_double_product(N):
    """``p^{-1}(1-p)^2 prod_m (1-q^m p^{-1})^2 (1-q^m p)^2 (1-q^m)^{-4}`` by
    multiplying out the factors: an independent reference for ``jacobi_phi``."""
    acc = polynomial(QP, {(0, -1): 1, (0, 0): -2, (0, 1): 1}, N)
    eta_like = one(QP, N)
    for m in range(1, N + 1):
        f = _one_minus(QP, (m, -1), N)
        g = _one_minus(QP, (m, 1), N)
        acc = acc * f * f * g * g
        eta_like = eta_like * _one_minus(QP, (m, 0), N)
    inv = eta_like.invert_unit()
    return acc * inv * inv * inv * inv


def _assert_identical(a, b):
    assert (a.registry, a.order, a.floor, a.terms) == (b.registry, b.order, b.floor, b.terms)


def test_sum_forms_equal_the_product_builders():
    # the double product is built once; its truncation to N is exact, so it
    # stands for the order-N product with the same order and floor
    phi_reference = _phi_double_product(40)
    for N in range(41):
        _assert_identical(eta_reduced(N).series, _eta_product(N))
        _assert_identical(theta1_reduced(N).series, _theta_product(N))
        _assert_identical(jacobi_phi(N), phi_reference.truncate(N))


def test_eta_cubed_sum_is_the_cube_of_eta():
    for N in range(41):
        eta = _eta_product(N).substitute_monomials(QP, {"q": (1, (1, 0))})
        _assert_identical(_eta_cubed_sum(N), eta * eta * eta)


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
    assert ell.is_zero() and ell.order == 8


def test_elliptic_genus_pads_by_the_theta_floors(monkeypatch):
    requested = []

    def recording_theta1_at(target, q_image, p_image, order):
        requested.append(order)
        return theta1_at(target, q_image, p_image, order)

    monkeypatch.setattr(qseries, "theta1_at", recording_theta1_at)
    plain = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, 1), 10)
    assert requested == [10, 10, 10]
    requested.clear()
    # thetatilde(Q, y^3 t) and thetatilde(Q, y^{-3} t) have floor -2, so the
    # quotient needs a pad of 4
    cubed = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 3, 0), (0, 0, 1), 10)
    assert requested == [10, 10, 10, 14, 14, 14]
    assert plain.order == cubed.order == 10


def test_elliptic_genus_refuses_prefactors_that_do_not_cancel(monkeypatch):
    # a ledger that forgets negative exponents of the p-image leaves y^{-1/2}
    ledger_for_p_image = qseries._ledger_for_p_image

    def positive_part_only(i_power, target, p_image):
        return ledger_for_p_image(i_power, target, tuple(max(e, 0) for e in p_image))

    monkeypatch.setattr(qseries, "_ledger_for_p_image", positive_part_only)
    with pytest.raises(InvariantError, match="prefactors"):
        elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, 1), 4)


def test_elliptic_genus_sign_does_not_depend_on_variable_order():
    # the theta quotient has constant term +1 whichever registry variable
    # plays y, so renaming the variables renames the series
    plain = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, 1), 8)
    swapped = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 0, 1), (0, 1, 0), 8)
    assert swapped.constant_term() == 1
    renamed = swapped.substitute_monomials(
        QYT, {"q": (1, (1, 0, 0)), "y": (1, (0, 0, 1)), "t": (1, (0, 1, 0))}
    )
    assert renamed == plain
