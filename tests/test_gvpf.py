"""Tests for the closed-form partition functions, tables, and cross-checks."""
import hashlib
import json
import re
from functools import reduce
from operator import add
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from bananagv import gvpf, oracle, qseries
from bananagv.cli import main
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
from bananagv.qseries import check_identities, jacobi_phi_at
from bananagv.series import InvariantError, TruncatedSeries, grlex_key, polynomial
from planted_faults import (
    double_eta_cubed_term,
    double_theta_term,
    drop_top_degree_pairs,
    fix_last_rotated_variable,
)

TWO = BananaShape(2, 2)
REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)


def _not_an_int(bad):
    """The refusal of a non-int order, naming the value as passed."""
    return re.escape(f"order must be an int, not {type(bad).__name__} {bad!r}")


# ------------------------------------------------------------------ (2,2)


def test_readme_library_example():
    # the README's "Library" snippet, as written there
    from bananagv import cross_check, parse_shape, pf_22

    pf = pf_22(6)
    assert pf.coefficient((1, 0, 1, 0)) == 6
    assert cross_check(parse_shape("1xW", w=3), 8).passed


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
    reg = locations[0].registry
    # r_i -> r_{i+1}, and s to itself, by substitution
    images = {"s": reg.exps(s=1), **{f"r{i}": reg.exps(**{f"r{(i + 1) % w}": 1}) for i in range(w)}}
    rotated = locations[0]
    for i in range(1, w):
        rotated = rotated.substitute_monomials(reg, images)
        assert rotated == locations[i]
    closed = gvpf._closed_location_0(BananaShape(1, w), N)
    assert closed.same_series(locations[0], up_to=N)
    if w <= 6:
        total = locations[0]
        for location in locations[1:]:
            total = total + location
        assert total.order >= N
        assert total.truncate(N) == pf_1w(w, N)


def test_crosscheck_is_blind_to_a_wrong_location_sum(monkeypatch, capsys):
    # a rotation that fixes r2 sums the wrong orbit on 1x3; crosscheck
    # compares location 0 alone and passes, while the locations built on
    # their own and the table_1x3 digest of the benchmark reference see it
    call = REFERENCE["calls"]["table_1x3"]
    assert call["argv"] == ["compute", "--shape", "1xW", "--w", "3", "--order", "10"]
    fix_last_rotated_variable(monkeypatch)
    assert cross_check(BananaShape(1, 3), 10).passed
    total = reduce(add, [_location_built_directly(3, i, 10) for i in range(3)])
    assert not total.same_series(pf_1w(3, 10), up_to=10)
    assert main(call["argv"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() != call["sha256"]


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


#: The two covers of 1x2 by 2x2: s0 = s1, and r0 = r1 with r and s exchanged.
_COVERS_OF_1X2 = {
    "s0=s1-is-1x2": {"r0": "r0", "r1": "r1", "s0": "s", "s1": "s"},
    "r0=r1-is-1x2-with-r-and-s-exchanged": {"r0": "s", "r1": "s", "s0": "r0", "s1": "r1"},
}


def _renamed(series, rename, reg):
    """``series`` with each variable sent to the ``reg`` variable ``rename`` names."""
    return series.substitute_monomials(reg, {a: reg.exps(**{b: 1}) for a, b in rename.items()})


@pytest.mark.parametrize(
    "source,rename,expected",
    [
        pytest.param(
            lambda: pf_22(10), rename, lambda: pf_1w(2, 10), id=f"2x2-{which}",
        )
        for which, rename in _COVERS_OF_1X2.items()
    ]
    + [
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
            lambda N=N: pf_22_theta(N), rename,
            lambda N=N: pf_1w(2, N), id=f"2x2-theta-{which}-order-{N}",
        )
        for N in (10, 32, 64)
        for which, rename in _COVERS_OF_1X2.items()
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
    formula to the elliptic-genus 1xW formula; both 1x2 images also run on
    ``pf_22_theta``, the route ``compute`` serves, at orders 10, 32 and 64,
    its cap.  They test only the closed
    forms: on the enumeration side they hold by construction of the
    lattice-walk branch rule, which maps the branch labels at location k of
    (v, w) to those at location k mod lcm(v', w') of (v', w')."""
    want = expected()
    assert _renamed(source(), rename, want.registry) == want


def test_cover_identities_catch_a_doubled_theta_term(monkeypatch):
    # the n = 5 term of theta first reaches the 2x2 table at degree 45, past
    # the crosscheck cap of 32, where the enumeration cannot see it
    double_theta_term(monkeypatch, 5)
    assert cross_check(TWO, 32).passed
    for N, holds in ((44, True), (48, False)):
        table, want = pf_22_theta(N), pf_1w(2, N)
        for rename in _COVERS_OF_1X2.values():
            assert (_renamed(table, rename, want.registry) == want) is holds, (N, rename)


def test_the_square_check_is_blind_to_a_doubled_eta_term(monkeypatch):
    # the k = 3 term of eta cubed first reaches q-order 6; both sides of the
    # square check carry the same eta^-6, so only the enumeration and the
    # identity suite, whose eta is a product, see it
    double_eta_cubed_term(monkeypatch, 3)
    closed = gvpf._closed_location_0(TWO, 24)
    assert gvpf._phi_ratio(24) == closed * closed
    report = cross_check(TWO, 24)
    assert not report.passed and report.route == "closed form (theta route)"
    failing = [(N, c.name) for N in range(7) for c in check_identities(N) if not c.passed]
    assert failing == [(6, "eta6_phi_equals_theta_squared")]


def test_only_the_square_check_sees_a_product_that_drops_its_top_degree_pairs(monkeypatch):
    # on 1xW both routes end location 0 in a product to order N, so both
    # lose the same top slice and agree; on 2x2 the theta route agrees
    # too, and only the square check, ``closed * closed`` against the
    # ratio of phis, sees the fault, at every order
    drop_top_degree_pairs(monkeypatch)
    for N in range(1, 13):
        for w in (1, 2, 3):
            assert cross_check(BananaShape(1, w), N).passed, (w, N)
        report = cross_check(TWO, N)
        assert not report.passed, N
        assert report.route == "closed form (square-root route)", N


# ------------------------------------------------------ quasi-periodicity


def _tau_22(e):
    """The elliptic shift ``r1 -> Q r1``, ``s1 -> s1 / Q`` of the 2x2 table,
    on the exponents ``(a, b, c, d)`` of ``(r0, r1, s0, s1)``.  It fixes the
    argument of every denominator theta, and each numerator theta picks up a
    monomial by ``thetatilde(q, q p) = -p^{-1} thetatilde(q, p)``, so the
    table's coefficient at ``e`` equals its coefficient at ``tau(e)``."""
    a, b, c, d = e
    return a + b - d + 1, 2 * b - d + 2, c + b - d + 1, b


def _tau_22_inverse(e):
    a, b, c, d = e
    b0, d0 = d, 2 * d - b + 2
    return a - b0 + d0 - 1, b0, c - b0 + d0 - 1, d0


def _swap_locations(e):
    """``(r0, s0) <-> (r1, s1)``, which exchanges the two B locations."""
    a, b, c, d = e
    return b, a, d, c


def _tau_1w(w):
    """The elliptic shift ``r_i -> Q r_i``, ``s -> s / Q`` of the 1xw table
    and its inverse, with ``q = (1, ..., 1, w)`` the exponents of Q: the
    table picks up the factor ``s^{2w} Q^{-(w+1)}``, of exponents ``m``, so
    ``tau(e) = e + k q - m`` with ``k = sum_i e_{r_i} - e_s``.  ``k`` grows
    by ``2w`` under ``tau``."""
    q = (1,) * w + (w,)
    m = (-(w + 1),) * w + (2 * w - (w + 1) * w,)

    def tau(e):
        k = sum(e[:w]) - e[w]
        return tuple(x + k * y - z for x, y, z in zip(e, q, m))

    def tau_inverse(e):
        k = sum(e[:w]) - e[w] - 2 * w
        return tuple(x - k * y + z for x, y, z in zip(e, q, m))

    return tau, tau_inverse


def _quasi_period_mismatches(table, maps):
    """``(pairs, mismatches)``: the pairs ``e, tau(e)`` over the stored terms
    ``e`` and each map ``tau``, whose image has degree at most the table's
    order, and how many of them have ``T[tau(e)] != T[e]``.  Checking a
    relation and its inverse this way also sees a term missing at ``e``."""
    terms, reg = table.terms, table.registry
    pairs = mismatches = 0
    for tau in maps:
        for e, c in terms.items():
            image = tau(e)
            if reg.degree(image) <= table.order:
                pairs += 1
                mismatches += terms.get(image, 0) != c
    return pairs, mismatches


@given(st.integers(0, 24))
def test_2x2_table_is_quasi_periodic_and_swaps_locations(N):
    table = pf_22_theta(N)
    assert _quasi_period_mismatches(table, [_tau_22, _tau_22_inverse])[1] == 0
    assert _quasi_period_mismatches(table, [_swap_locations])[1] == 0


@given(st.integers(1, 4), st.integers(0, 24))
@example(3, 24)
@example(4, 24)
def test_1xw_table_is_quasi_periodic(w, N):
    assert _quasi_period_mismatches(pf_1w(w, N), _tau_1w(w))[1] == 0


def test_quasi_periodicity_catches_a_doubled_theta_term(monkeypatch):
    # the fault reaches the table at degree 45; at 48 every pair still
    # forms, and some of them now differ
    maps = [_tau_22, _tau_22_inverse]
    assert _quasi_period_mismatches(pf_22_theta(48), maps) == (24260, 0)
    double_theta_term(monkeypatch, 5)
    pairs, mismatches = _quasi_period_mismatches(pf_22_theta(48), maps)
    assert pairs == 24260 and mismatches > 0


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
