"""Tests for the closed-form partition functions, tables, and cross-checks."""
import re

import pytest
from hypothesis import given, strategies as st

from bananagv import gvpf, oracle, qseries
from bananagv.geometry import BananaShape, registry_for
from bananagv.gvpf import (
    CrossCheckReport,
    _certified,
    cross_check,
    pf_1w,
    pf_22,
    pf_22_theta,
    pf_for_shape,
)
from bananagv.qseries import jacobi_phi_at
from bananagv.series import InvariantError, TruncatedSeries, grlex_key, polynomial

TWO = BananaShape(2, 2)


def _not_an_int(bad):
    """The refusal of a non-int order, naming the value as passed."""
    return re.escape(f"order must be an int, not {type(bad).__name__} {bad!r}")


# ------------------------------------------------------------------ (2,2)


def test_pf_22_low_degrees():
    pf = pf_22(4)
    assert pf.constant_term() == 2
    reg = pf.registry
    for name in ("r0", "r1", "s0", "s1"):
        assert pf.coefficient(reg.exps(**{name: 1})) == -2
        assert pf.coefficient(reg.exps(**{name: 2})) == 0
    assert pf.coefficient(reg.exps(r0=1, s0=1)) == 6
    assert pf.coefficient(reg.exps(r1=1, s1=1)) == 6
    assert pf.coefficient(reg.exps(r0=1, s1=1)) == 2
    assert pf.coefficient(reg.exps(r1=1, s0=1)) == 2
    assert pf.coefficient(reg.exps(r0=1, r1=1)) == 2
    assert pf.coefficient(reg.exps(s0=1, s1=1)) == 2


def test_pf_22_supports_only_nonnegative_exponents():
    assert all(min(e) >= 0 for e in pf_22(5).terms)


def test_negative_exponent_guard_raises_invariant_error():
    reg = pf_22(1).registry
    bad = polynomial(reg, {(0, 0, 0, 0): 1, (1, -1, 0, 0): 1}, 1)
    with pytest.raises(InvariantError, match="probe kept a negative exponent at"):
        _certified(bad, 1, "probe")
    good = polynomial(reg, {(0, 0, 0, 0): 1, (1, 0, 0, 0): 1}, 1)
    assert _certified(good, 0, "probe") == good.truncate(0)
    with pytest.raises(InvariantError, match="order propagation fell short"):
        _certified(good, 2, "probe")
    with pytest.raises(InvariantError, match="probe constant term at B location 0 is not 1"):
        _certified(2 * good, 1, "probe")
    assert issubclass(InvariantError, AssertionError)


def test_pf_22_symmetries():
    pf = pf_22(5)
    reg = pf.registry

    def swapped(mapping):
        images = {a: reg.exps(**{b: 1}) for a, b in mapping.items()}
        return pf.substitute_monomials(reg, images)

    assert swapped({"r0": "s0", "s0": "r0", "r1": "s1", "s1": "r1"}) == pf
    assert swapped({"r0": "r1", "r1": "r0", "s0": "s1", "s1": "s0"}) == pf


def test_theta_route_agrees_with_sqrt_route():
    # ``==`` compares registry, order and every slice
    for N in range(25):
        assert pf_22_theta(N) == pf_22(N), N
    assert pf_22_theta(0).constant_term() == 2


def test_theta_route_squared_is_four_times_the_phi_ratio():
    # the identity the 2x2 cross-check squares the theta route against
    for N in range(13):
        ratio = gvpf._phi_ratio(N)
        assert (ratio.order, ratio.floor, ratio.constant_term()) == (N, 0, 1), N
        assert pf_22_theta(N) * pf_22_theta(N) == 4 * ratio, N
        location = gvpf._closed_location_0(TWO, N)
        assert location * location == ratio, N


def test_theta_route_certifies_its_exponents_and_order(monkeypatch):
    # the quotient's floor and the eta it is multiplied by set the order, and
    # its exponents must stay in the nonnegative orthant
    theta_quotient_at = gvpf._theta_quotient_at

    def with_negative_exponent(*args):
        quotient = theta_quotient_at(*args)
        return quotient + polynomial(quotient.registry, {(2, -1, 0, 0): 1}, quotient.order)

    monkeypatch.setattr(gvpf, "_theta_quotient_at", with_negative_exponent)
    with pytest.raises(InvariantError, match="pf_22_theta kept a negative exponent"):
        pf_22_theta(4)
    monkeypatch.undo()

    eta_cubed_at = qseries._eta_cubed_at
    monkeypatch.setattr(
        qseries, "_eta_cubed_at", lambda reg, q, order: eta_cubed_at(reg, q, order - 1)
    )
    with pytest.raises(InvariantError, match="order propagation fell short"):
        pf_22_theta(4)


def test_theta_route_constant_term_pins_the_sign(monkeypatch):
    # one theta of the wrong sign flips the whole quotient; the constant
    # term is the only guard on the sign the prefactors and the branch leave
    theta1_at = qseries.theta1_at

    def theta_r0_negated(target, q_image, p_image, order):
        sign = -1 if p_image == target.exps(r0=1) else 1
        return sign * theta1_at(target, q_image, p_image, order)

    monkeypatch.setattr(qseries, "theta1_at", theta_r0_negated)
    with pytest.raises(InvariantError, match="constant term at B location 0 is not 1"):
        pf_22_theta(4)


def test_square_root_route_constant_term_pins_the_branch(monkeypatch):
    # the negated root is as good a root; only the constant term refuses it
    sqrt_unit = TruncatedSeries.sqrt_unit
    monkeypatch.setattr(TruncatedSeries, "sqrt_unit", lambda self: -1 * sqrt_unit(self))
    with pytest.raises(InvariantError, match="pf_22 constant term at B location 0 is not 1"):
        pf_22(4)


def test_pf_22_validation():
    with pytest.raises(ValueError):
        pf_22(-1)
    with pytest.raises(ValueError):
        pf_22_theta(-2)
    # the refusal names the order passed, not the padded one
    for bad in (2.0, True):
        for route in (pf_22, pf_22_theta):
            with pytest.raises(TypeError, match=_not_an_int(bad)):
                route(bad)


# ------------------------------------------------------------------ (1,w)


def test_pf_11_reduces_to_the_single_banana_form():
    # one cell: the partition function is s * phi(q -> r0 s, p -> s)
    pf = pf_1w(1, 10)
    reg = registry_for(BananaShape(1, 1))
    phi = jacobi_phi_at(reg, (1, 1), (0, 1), 10)
    expected = phi.shift_monomial(reg.exps(s=1))
    assert pf.same_series(expected, up_to=10)


def test_pf_11_spot_values():
    pf = pf_1w(1, 5)
    spots = {
        (0, 0): 1,
        (0, 1): -2,
        (1, 0): -2,
        (0, 2): 1,
        (1, 1): 8,
        (2, 0): 1,
        (1, 2): -12,
        (2, 1): -12,
        (1, 3): 8,
        (3, 1): 8,
        (2, 2): 39,
    }
    for exps, value in spots.items():
        assert pf.coefficient(exps) == value


def test_pf_12_spot_values():
    pf = pf_1w(2, 5)
    reg = pf.registry
    assert pf.constant_term() == 2
    assert pf.coefficient(reg.exps(r0=1)) == -2
    assert pf.coefficient(reg.exps(r1=1)) == -2
    assert pf.coefficient(reg.exps(s=1)) == -4


def test_pf_1w_is_cyclically_symmetric():
    pf = pf_1w(3, 4)
    reg = pf.registry
    images = {
        "r0": reg.exps(r1=1),
        "r1": reg.exps(r2=1),
        "r2": reg.exps(r0=1),
        "s": reg.exps(s=1),
    }
    assert pf.substitute_monomials(reg, images) == pf


def _location_built_directly(w, i, N):
    """``s phi(Q, s) * prod_{k=i}^{i+w-2} Ell(Q, s, R_{i,k})``, r indices mod
    w, built from its own factors with no rotation."""
    reg = registry_for(BananaShape(1, w))
    q_img = (1,) * w + (w,)
    s_img = reg.exps(s=1)
    location = jacobi_phi_at(reg, q_img, s_img, N).shift_monomial(s_img)
    for k in range(i, i + w - 1):
        r_span = [0] * (w + 1)
        for j in range(i, k + 1):
            r_span[j % w] += 1
        r_span[w] = k - i + 1
        location = location * qseries.elliptic_genus_c2_at(reg, q_img, s_img, tuple(r_span), N)
    return location


@pytest.mark.parametrize("w", range(1, 9))
def test_pf_1w_locations_built_directly_are_rotations_of_location_0(w):
    N = 8 + w % 3
    locations = [_location_built_directly(w, i, N) for i in range(w)]
    rotated = locations[0]
    for i in range(1, w):
        rotated = rotated._rotate_block(0, w)
        assert rotated == locations[i]
    closed = gvpf._closed_location_0(BananaShape(1, w), N)
    assert closed.same_series(locations[0], up_to=N)
    if w <= 6:
        total = locations[0]
        for location in locations[1:]:
            total = total + location
        assert total.order >= N
        assert total.truncate(N) == pf_1w(w, N)


def test_pf_1w_constant_counts_locations():
    for w in (1, 2, 3, 4):
        assert pf_1w(w, 2).constant_term() == w


def test_pf_1w_supports_only_nonnegative_exponents():
    assert all(min(e) >= 0 for e in pf_1w(2, 5).terms)


def test_pf_1w_validation():
    with pytest.raises(ValueError, match="shape parameter w must be at least 1"):
        pf_1w(0, 4)
    with pytest.raises(TypeError, match="shape parameter w must be an int"):
        pf_1w(0.5, 3)
    with pytest.raises(ValueError):
        pf_1w(2, -1)
    for bad in (2.0, True):
        with pytest.raises(TypeError, match=_not_an_int(bad)):
            pf_1w(2, bad)


def test_pf_for_shape_dispatch(monkeypatch):
    assert pf_for_shape(TWO, 3) == pf_22_theta(3)
    assert pf_for_shape(BananaShape(1, 2), 3) == pf_1w(2, 3)
    for shape in (TWO, BananaShape(1, 3)):
        assert pf_for_shape(shape, 7).order == 7
    # the enumeration serves these shapes, but the closed form refuses them
    # before any enumeration runs
    monkeypatch.setattr(oracle, "_naive_location_0", None)
    for shape in (BananaShape(2, 3), BananaShape(3, 1)):
        for call in (pf_for_shape, cross_check):
            with pytest.raises(ValueError, match=f"no closed form for shape {shape}"):
                call(shape, 3)


# ------------------------------------------------------- cover identities


def _collapse_r(w, onto):
    """Send r_i to r_{i mod onto} and keep s."""
    return {f"r{i}": f"r{i % onto}" for i in range(w)} | {"s": "s"}


@pytest.mark.parametrize(
    "source,rename,expected",
    [
        pytest.param(
            lambda: pf_22(10), {"r0": "r0", "r1": "r1", "s0": "s", "s1": "s"},
            lambda: pf_1w(2, 10), id="2x2-s0=s1-is-1x2",
        ),
        pytest.param(
            lambda: pf_22(10), {"r0": "s", "r1": "s", "s0": "r0", "s1": "r1"},
            lambda: pf_1w(2, 10), id="2x2-r0=r1-is-1x2-with-r-and-s-exchanged",
        ),
        pytest.param(
            lambda: pf_1w(4, 10), _collapse_r(4, 2),
            lambda: 2 * pf_1w(2, 10), id="1x4-covers-1x2-twice",
        ),
        pytest.param(
            lambda: pf_1w(6, 8), _collapse_r(6, 3),
            lambda: 2 * pf_1w(3, 8), id="1x6-covers-1x3-twice",
        ),
        pytest.param(
            lambda: pf_22(10), {"r0": "r0", "r1": "r0", "s0": "s", "s1": "s"},
            lambda: 2 * pf_1w(1, 10), id="2x2-covers-1x1-twice",
        ),
    ]
    + [
        pytest.param(
            lambda w=w: pf_1w(w, 10), _collapse_r(w, 1),
            lambda w=w: w * pf_1w(1, 10), id=f"1x{w}-covers-1x1-{w}-times",
        )
        for w in (2, 3, 4)
    ],
)
def test_cover_identities(source, rename, expected):
    """For v' | v and w' | w, sending r_i -> r_{i mod w'} and
    s_j -> s_{j mod v'} maps pf_{v,w} to lcm(v,w)/lcm(v',w') times
    pf_{v',w'}; the 2x2 shape with r0 = r1 is the 2x1 shape, which is 1x2
    with r and s exchanged.  These identities link the Jacobi-form 2x2
    formula to the elliptic-genus 1xW formula.  They test only the closed
    forms: on the enumeration side they hold by construction of the
    lattice-walk branch rule, which maps the branch labels at location k of
    (v, w) to those at location k mod lcm(v', w') of (v', w')."""
    want = expected()
    reg = want.registry
    images = {a: reg.exps(**{b: 1}) for a, b in rename.items()}
    assert source().substitute_monomials(reg, images) == want


# ------------------------------------------------------------ cross-checks


@pytest.mark.parametrize(
    "shape,order",
    [(BananaShape(1, 1), 6), (BananaShape(1, 2), 5), (TWO, 5)]
    + [(BananaShape(1, w), 12) for w in (1, 2, 3, 4)]
    + [(TWO, 12)],
    ids=str,
)
def test_closed_form_matches_twisted_enumeration(shape, order):
    report = cross_check(shape, order)
    assert report.passed, report.describe()
    assert "matches" in report.describe()


def test_cross_check_reports_the_grlex_first_mismatch(monkeypatch):
    shape = BananaShape(1, 2)
    true = gvpf._closed_location_0(shape, 5)
    reg = true.registry
    later, first = reg.exps(r0=1, s=1), reg.exps(r1=1, s=1)  # same degree, first < later
    assert grlex_key(first) < grlex_key(later)
    perturbed = true + polynomial(reg, {later: 7, first: 3}, 5)
    monkeypatch.setattr(gvpf, "_closed_location_0", lambda shape, N: perturbed)
    report = cross_check(shape, 5)
    c = true.coefficient(first)
    assert not report.passed
    assert report.first_mismatch == (first, c + 3, c)
    assert "at B location 0, mismatch at (0, 1, 1)" in report.describe()


# a root that differs from the true one by a few low-degree terms
_ROOT_SHIFTS = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 4).filter(any),
    st.integers(-3, 3).filter(bool),
    min_size=1,
    max_size=3,
)


@given(_ROOT_SHIFTS, st.integers(0, 10))
def test_square_check_reports_what_the_square_root_route_would(shift, N):
    # the ratio is the square of root + shift (cut at N), so its sqrt_unit
    # is the square-root route at B location 0 that the check stands for;
    # the report names its graded-lex first mismatch with location 0 of the
    # enumeration, and its coefficient
    ratio = (gvpf._phi_ratio(N).sqrt_unit() + TruncatedSeries(gvpf.R22, shift, N)) ** 2
    twisted = oracle.behrend_twist(oracle._naive_location_0(TWO, N))
    expected = ratio.sqrt_unit().first_difference(twisted, N)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gvpf, "_phi_ratio", lambda order: ratio)
        report = cross_check(TWO, N)
    assert report.passed == (expected is None)
    assert report.first_mismatch == expected
    if expected is not None:
        assert report.route == "closed form (square-root route)"


def test_cross_check_report_describes_mismatches():
    report = CrossCheckReport(TWO, 3, False, ((1, 0, 0, 0), -2, 5))
    text = report.describe()
    assert "mismatch" in text and "-2" in text and "5" in text


# ----------------------------------------------------------------- tables


def test_compute_rows_2x2():
    pf = pf_for_shape(TWO, 3)
    assert pf.order == 3
    rows = list(pf.sorted_terms())
    first_exps, first_value = rows[0]
    assert first_value == 2
    assert first_exps == (0, 0, 0, 0)
    assert all(value != 0 for _, value in rows)
    assert all(len(exps) == 4 for exps, _ in rows)
    degrees = [sum(exps) for exps, _ in rows]
    assert degrees == sorted(degrees)


def test_compute_rows_1xw_classes():
    shape = BananaShape(1, 2)
    rows = list(pf_for_shape(shape, 4).sorted_terms())
    for exps, value in rows:
        assert len(exps) == shape.w + 1 and min(exps) >= 0
        assert value != 0
    degrees = [sum(exps) for exps, _ in rows]
    assert degrees == sorted(degrees)
    assert rows[0][1] == 2


def test_compute_rows_follow_the_series_order():
    rows = list(pf_for_shape(BananaShape(1, 1), 4).sorted_terms())
    pf = pf_1w(1, 4)
    keys = [e for e, _ in rows]
    assert keys == sorted(keys, key=grlex_key)
    assert rows == sorted(pf.terms.items(), key=lambda item: grlex_key(item[0]))
