"""Unit and property tests for the truncated Laurent series engine."""
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bananagv.series import (
    TruncatedSeries,
    VariableRegistry,
    monomial,
    one,
    polynomial,
)

QP = VariableRegistry(("q", "p"), (1, 0))
XY = VariableRegistry(("x", "y"))


def P(terms, order, reg=QP):
    return polynomial(reg, terms, order)


# ---------------------------------------------------------------- basics


def test_registry_rejects_duplicates_and_negative_weights():
    with pytest.raises(ValueError):
        VariableRegistry(("x", "x"))
    with pytest.raises(ValueError):
        VariableRegistry(("x",), (-1,))
    with pytest.raises(ValueError):
        VariableRegistry(("x", "y"), (1,))


def test_weighted_degree():
    assert QP.degree((3, -7)) == 3
    assert XY.degree((2, 1)) == 3
    assert QP.exps(p=-2) == (0, -2)


def test_monomial_order_must_cover_degree():
    with pytest.raises(ValueError):
        monomial(XY, (2, 1), 1, 2)
    m = monomial(XY, (2, 1), 5, 3)
    assert m.coefficient((2, 1)) == 5


def test_polynomial_rejects_terms_beyond_order():
    with pytest.raises(ValueError):
        polynomial(XY, {(4, 0): 1}, 3)


def test_polynomial_checks_each_vector_once(monkeypatch):
    calls = []
    checked = VariableRegistry._checked

    def counting(self, exps):
        calls.append(exps)
        return checked(self, exps)

    monkeypatch.setattr(VariableRegistry, "_checked", counting)
    polynomial(XY, {(0, 0): 1, (1, 0): 2, (0, 2): -3}, 3)
    assert calls == [(0, 0), (1, 0), (0, 2)]


def test_polynomial_drops_a_zero_term_beyond_order():
    # as the constructor does: a zero coefficient is no term, at any degree
    assert polynomial(XY, {(0, 0): 1, (4, 0): 0}, 3) == one(XY, 3)


def test_constructor_drops_zero_coefficients_and_truncates():
    s = TruncatedSeries(XY, {(0, 0): 1, (1, 0): 0, (5, 5): 3}, 4)
    assert s.terms == {(0, 0): 1}
    assert list(s.coefficients()) == [1]
    assert s.floor == 0


def test_terms_hands_out_a_copy():
    x = polynomial(XY, {(0, 0): 1, (1, 0): 2}, 3)
    x.terms[(0, 0)] = 5
    x.terms[(0, 1)] = 7
    assert x.terms == {(0, 0): 1, (1, 0): 2}
    assert x.coefficient((0, 0)) == 1
    assert x == polynomial(XY, {(0, 0): 1, (1, 0): 2}, 3)


@pytest.mark.parametrize(
    "build_bad",
    [
        pytest.param(lambda: TruncatedSeries(XY, {(0, 0): 1.5}, 4), id="float-coefficient"),
        pytest.param(
            lambda: TruncatedSeries(XY, {(1, 0): Fraction(1, 2)}, 4), id="fraction-coefficient"
        ),
        pytest.param(
            lambda: TruncatedSeries(XY, {(0, 0): 1, (0.7, 0): 3}, 4), id="float-exponent"
        ),
        pytest.param(lambda: TruncatedSeries(XY, {(0, 0): True}, 4), id="bool-coefficient"),
        pytest.param(lambda: monomial(XY, (1.0, 0), 1, 4), id="monomial-exponent"),
        pytest.param(lambda: monomial(XY, (1, 0), 2.0, 4), id="monomial-coefficient"),
        pytest.param(lambda: one(XY, 4).coefficient((0.5, 0)), id="coefficient-query"),
        pytest.param(lambda: one(XY, 4).shift_monomial((1, 0.5)), id="shift-exponent"),
        pytest.param(lambda: one(XY, 4).shift_monomial((1, 0), Fraction(3)), id="shift-scale"),
        pytest.param(lambda: XY.exps(x=1.5), id="registry-exps"),
        pytest.param(lambda: XY.degree((1.5, 0)), id="registry-degree"),
        pytest.param(
            lambda: one(XY, 4).substitute_monomials(XY, {"x": (0, 1.0), "y": (1, 0)}),
            id="image-exponent",
        ),
        pytest.param(lambda: one(XY, 4) * True, id="scale-bool"),
        pytest.param(lambda: True * one(XY, 4), id="reflected-scale-bool"),
        pytest.param(lambda: VariableRegistry(("q",), (1.5,)), id="registry-weight"),
        pytest.param(lambda: VariableRegistry(("q",), (True,)), id="registry-weight-bool"),
        pytest.param(lambda: TruncatedSeries(XY, {(1, 0): 1}, 2.9), id="constructor-order"),
        pytest.param(lambda: one(XY, 4).truncate(2.5), id="truncate-order"),
        pytest.param(lambda: one(XY, 4).same_series(one(XY, 4), up_to=2.5), id="same-up-to"),
        pytest.param(lambda: one(XY, 4).same_series(one(XY, 4), up_to=True), id="same-up-to-bool"),
        pytest.param(lambda: one(XY, 4).first_difference(one(XY, 4), 2.5), id="diff-up-to"),
        pytest.param(lambda: one(XY, 4).first_difference(one(XY, 4), True), id="diff-up-to-bool"),
    ],
)
def test_non_integer_coefficients_and_exponents_are_refused(build_bad):
    with pytest.raises(TypeError):
        build_bad()


@pytest.mark.parametrize(
    "build_bad",
    [
        pytest.param(lambda: TruncatedSeries(XY, {(0, 0): 1, (1,): 3}, 4), id="constructor"),
        pytest.param(lambda: one(XY, 4).coefficient((0, 0, 0)), id="coefficient"),
        pytest.param(lambda: one(XY, 4).shift_monomial((1,)), id="shift"),
        pytest.param(
            lambda: one(XY, 4).substitute_monomials(QP, {"x": (1, 0, 0), "y": (1, 0)}),
            id="image",
        ),
        pytest.param(lambda: polynomial(XY, {(0, 0, 1): 1}, 4), id="polynomial"),
        pytest.param(lambda: XY.degree((1, 0, 0)), id="degree"),
    ],
)
def test_wrong_length_exponent_vectors_are_refused(build_bad):
    with pytest.raises(ValueError, match="wrong length"):
        build_bad()


def test_coefficient_beyond_order_raises():
    s = one(XY, 3)
    assert s.coefficient((0, 0)) == 1
    assert s.coefficient((3, 0)) == 0
    with pytest.raises(ValueError):
        s.coefficient((4, 0))


def test_floor_of_empty_series_is_order_plus_one():
    assert TruncatedSeries(XY, {}, 5).floor == 6


def test_immutability():
    s = one(XY, 2)
    with pytest.raises(AttributeError):
        s.order = 10


# --------------------------------------------------------- worked examples


def test_difference_of_squares():
    a = P({(0, 0): 1, (0, 1): -1}, 5)
    b = P({(0, 0): 1, (0, 1): 1}, 5)
    assert (a * b).terms == {(0, 0): 1, (0, 2): -1}


def test_laurent_product_clears_pole():
    c = P({(0, -1): 1, (0, 0): -2, (0, 1): 1}, 4)
    q = c.shift_monomial((0, 1))
    assert q.terms == {(0, 0): 1, (0, 1): -2, (0, 2): 1}


def test_square_of_laurent_quadratic():
    c = P({(0, -1): 1, (0, 0): -2, (0, 1): 1}, 4)
    assert (c * c).terms == {
        (0, -2): 1,
        (0, -1): -4,
        (0, 0): 6,
        (0, 1): -4,
        (0, 2): 1,
    }


def test_geometric_series_inverse():
    g = P({(0, 0): 1, (1, 0): -1}, 6)
    inv = g.invert_unit()
    assert inv.terms == {(n, 0): 1 for n in range(7)}
    assert inv.order == 6


def test_inverse_of_negated_monomial():
    s = P({(0, 1): -1}, 3)
    assert s.invert_unit().terms == {(0, -1): -1}


def test_inverse_in_unit_weight_registry():
    reg = VariableRegistry(("r0", "s0", "r1", "s1"))
    u = polynomial(reg, {(0, 0, 0, 0): 1, (1, 1, 0, 0): -1}, 6)
    inv = u.invert_unit()
    assert inv.coefficient((3, 3, 0, 0)) == 1
    assert inv.coefficient((2, 2, 0, 0)) == 1
    assert inv.coefficient((1, 0, 0, 0)) == 0


def test_invert_requires_unique_unit_minimal_term():
    with pytest.raises(ValueError):
        P({(0, 0): 1, (0, 1): -1}, 3).invert_unit()  # two degree-0 terms
    with pytest.raises(ValueError):
        P({(0, 0): 2}, 3).invert_unit()  # coefficient not a unit


def test_sqrt_of_perfect_square_polynomial():
    s = P({(0, 0): 1, (1, 0): 2, (2, 0): 1}, 6)
    assert s.sqrt_unit().terms == {(0, 0): 1, (1, 0): 1}


def test_sqrt_refuses_a_polynomial_minimal_slice():
    # p^{-2} (1-p)^4 is the square of p^{-1} (1-p)^2, but its minimal slice
    # at weighted degree 0 has five terms; only monomial minimal terms are
    # rooted
    t4 = P({(0, -2): 1, (0, -1): -4, (0, 0): 6, (0, 1): -4, (0, 2): 1}, 5)
    with pytest.raises(ValueError, match="unique minimal-degree term"):
        t4.sqrt_unit()


def test_sqrt_normalizes_leading_coefficient_positive():
    u = P({(0, 0): 1, (1, 0): 1}, 4)
    sq = u * u
    assert sq.sqrt_unit().same_series(u)


def test_sqrt_rejects_non_squares():
    with pytest.raises(ValueError):
        P({(1, 0): 1}, 4).sqrt_unit()  # odd minimal degree
    with pytest.raises(ValueError):
        P({(0, 0): 2}, 4).sqrt_unit()  # 2 is not a perfect square
    with pytest.raises(ValueError):
        P({(0, 0): 1, (1, 0): 1}, 4).sqrt_unit()  # 1 + q is not a square


@pytest.mark.parametrize(
    "slice_terms",
    [
        {(0, 2): 1, (0, 0): 4},  # formal root p + 2/p - 2/p^3 + ... never ends
        {(0, 2): 1, (0, 0): 8},
        {(0, 2): 1, (0, -1): 4},
    ],
)
def test_sqrt_refuses_non_square_laurent_slice_early(slice_terms):
    # a two-term minimal slice is refused before any root is formed
    with pytest.raises(ValueError, match="unique minimal-degree term"):
        P(slice_terms, 2).sqrt_unit()


def test_shift_monomial_gains_order():
    a = P({(0, 0): 1, (2, 0): 5}, 4)
    shifted = a.shift_monomial((3, -1), -2)
    assert shifted.order == 7
    assert shifted.terms == {(3, -1): -2, (5, -1): -10}


def test_sorted_terms_uses_graded_lex():
    # graded by the weighted degree (p has weight 0), not the raw exponent sum
    s = P({(0, 2): 1, (1, 0): 2, (0, -1): 3, (2, -2): 4}, 9)
    keys = [e for e, _ in s.sorted_terms()]
    assert keys == sorted(keys, key=lambda e: (QP.degree(e), e))
    assert keys == [(0, -1), (0, 2), (1, 0), (2, -2)]


def test_first_difference_is_the_first_by_degree_then_grlex():
    a = P({(0, 0): 1, (1, 2): 4, (1, -1): 5, (2, 0): 6}, 4)
    b = P({(0, 0): 1, (1, 2): 3, (2, 0): 0}, 4)
    # degree 1 holds both differences; (1, -1) precedes (1, 2) in grlex
    assert a.first_difference(b) == ((1, -1), 5, 0)
    assert b.first_difference(a) == ((1, -1), 0, 5)
    assert a.first_difference(a) is None
    assert a.first_difference(b, up_to=0) is None
    with pytest.raises(ValueError):
        a.first_difference(P({}, 3), up_to=4)


def test_same_series_respects_comparison_window():
    a = P({(0, 0): 1}, 3)
    b = P({(0, 0): 1, (4, 0): 9}, 4)
    assert a.same_series(b)  # only degrees <= 3 are comparable
    with pytest.raises(ValueError):
        a.same_series(b, up_to=4)


def test_registry_mismatch_is_an_error():
    with pytest.raises(ValueError):
        one(QP, 3) + one(XY, 3)
    with pytest.raises(ValueError):
        one(QP, 3).first_difference(one(XY, 3))


@pytest.mark.parametrize("other", [1, 0, 1.5, None])
def test_adding_a_non_series_is_a_type_error(other):
    s = one(XY, 3)
    for combine in (lambda: s + other, lambda: other + s):
        with pytest.raises(TypeError):
            combine()


# ---------------------------------------------------------- substitution


def test_degree_preserving_substitution_keeps_order():
    f = P({(0, 0): 1, (1, 1): 2, (2, -1): 3}, 4)
    g = f.substitute_monomials(QP, {"q": (1, 0), "p": (0, -1)})
    assert g.order == 4
    assert g.terms == {(0, 0): 1, (1, -1): 2, (2, 1): 3}


def test_weight_zero_variable_may_collapse():
    f = P({(0, -1): 1, (0, 0): -2, (0, 1): 1}, 2)
    g = f.substitute_monomials(VariableRegistry(("q",)), {"q": (1,), "p": (0,)})
    assert g.terms == {}


def test_substitution_without_certificate_is_refused():
    # only degree-preserving images carry the order over; raising q's degree
    # or giving the weight-0 p a positive degree is refused
    f = P({(1, 1): 1}, 3)
    with pytest.raises(ValueError, match="degree-preserving"):
        f.substitute_monomials(XY, {"q": (2, 0), "p": (0, 0)})
    with pytest.raises(ValueError, match="degree-preserving"):
        f.substitute_monomials(XY, {"q": (1, 0), "p": (0, 1)})


# ------------------------------------------------------ property testing

exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
coefficients = st.integers(-9, 9)
term_dicts = st.dictionaries(exponents, coefficients, max_size=5)
orders = st.integers(2, 6)


def build(terms, order):
    return TruncatedSeries(XY, terms, order)


@given(term_dicts, term_dicts, term_dicts, orders)
def test_ring_axioms(ta, tb, tc, n):
    a, b, c = build(ta, n), build(tb, n), build(tc, n)
    assert (a + b).same_series(b + a)
    assert (a * b).same_series(b * a, up_to=min((a * b).order, (b * a).order))
    lhs = a * (b + c)
    rhs = a * b + a * c
    assert lhs.same_series(rhs, up_to=min(lhs.order, rhs.order))
    assoc_l = (a * b) * c
    assoc_r = a * (b * c)
    assert assoc_l.same_series(assoc_r, up_to=min(assoc_l.order, assoc_r.order))


@given(term_dicts, orders)
def test_stored_terms_never_exceed_order(terms, n):
    s = build(terms, n)
    assert all(XY.degree(e) <= s.order for e in s.terms)
    assert s.floor <= min((XY.degree(e) for e in s.terms), default=s.order + 1)


@given(term_dicts, term_dicts, orders, st.integers(0, 3))
def test_truncation_commutes_with_product_on_nonnegative_support(ta, tb, n, k):
    ta = {tuple(abs(x) for x in e): c for e, c in ta.items()}
    tb = {tuple(abs(x) for x in e): c for e, c in tb.items()}
    a, b = build(ta, n), build(tb, n)
    full = a * b
    cut = a.truncate(min(n, k)) * b.truncate(min(n, k))
    m = min(full.order, cut.order)
    assert full.same_series(cut, up_to=m)


unit_tails = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda e: sum(e) >= 1),
    coefficients,
    max_size=4,
)


@given(unit_tails, orders)
def test_inverse_roundtrip(tail, n):
    u = build({(0, 0): 1, **tail}, n)
    inv = u.invert_unit()
    prod = u * inv
    assert prod.same_series(one(XY, prod.order))


@given(unit_tails, orders, st.integers(1, 3), exponents)
def test_sqrt_roundtrip(tail, n, c, shift):
    u = build({(0, 0): 1, **tail}, n).shift_monomial(shift, c)
    sq = u * u
    root = sq.sqrt_unit()
    assert root.same_series(u, up_to=min(root.order, u.order))


@given(term_dicts, term_dicts, orders)
def test_substitution_is_a_ring_map(ta, tb, n):
    a, b = build(ta, n), build(tb, n)
    images = {"x": (0, 1), "y": (1, 0)}  # swap the variables
    fa = a.substitute_monomials(XY, images)
    fb = b.substitute_monomials(XY, images)
    lhs = (a * b).substitute_monomials(XY, images)
    rhs = fa * fb
    assert lhs.same_series(rhs, up_to=min(lhs.order, rhs.order))
    assert (a + b).substitute_monomials(XY, images).same_series(fa + fb)


@given(term_dicts, orders, orders)
@settings(max_examples=50)
def test_higher_order_computation_restricts(terms, n, m):
    lo, hi = min(n, m), max(n, m)
    a_hi = build(terms, hi)
    a_lo = build(terms, lo)
    assert a_hi.truncate(lo) == a_lo
