"""Differential tests of the graded series kernel against plain references.

The references work on the flat ``terms`` dict only and never call the
kernel's ``*``, ``+``, ``truncate`` or ``shift_monomial``: a dense multiply
that forms every pair and filters by degree, the geometric-series loop for
``invert_unit``, the full-residue loop for ``sqrt_unit`` and greedy
leading-term division on exponent tuples for slice division.  The kernel
divides slices and takes roots of minimal terms only for monomials, and the
strategies draw those shapes; other shapes must be refused.  Results must
agree exactly in ``terms``, ``order`` and ``floor``.  The kernel keys its
slices by packed ints; the slice helpers are called with packed dicts, packed
and unpacked here at the test boundary.
"""
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from bananagv.series import (
    TruncatedSeries,
    VariableRegistry,
    _homogeneous_exact_divide,
    _Packing,
    grlex_key,
    monomial,
    one,
)

QP = VariableRegistry(("q", "p"), (1, 0))  # weight-0 Laurent variable
XYZ = VariableRegistry(("x", "y", "z"))  # unit weights
QYT = VariableRegistry(("q", "y", "t"), (2, 1, 1))
MIX = VariableRegistry(("a", "b", "c", "d"), (0, 1, 2, 1))  # four digits, mixed weights
REGISTRIES = [QP, XYZ, QYT, MIX]
XY = VariableRegistry(("x", "y"))

LIMIT = 2**15  # packed keys hold |exponent| < LIMIT


# ------------------------------------------------------------- references


def dense_mul(a, b):
    reg = a.registry
    order = min(a.order + b.floor, b.order + a.floor)
    acc = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if reg.degree(e) <= order:
                acc[e] = acc.get(e, 0) + ca * cb
    return TruncatedSeries(reg, {e: c for e, c in acc.items() if c}, order)


def ref_add(a, b, sign=1):
    terms = dict(a.terms)
    for e, c in b.terms.items():
        terms[e] = terms.get(e, 0) + sign * c
    return TruncatedSeries(a.registry, terms, min(a.order, b.order))


def ref_shift(s, delta, scale):
    terms = {tuple(x + y for x, y in zip(e, delta)): scale * c for e, c in s.terms.items()}
    return TruncatedSeries(s.registry, terms, s.order + s.registry.degree(delta))


def ref_invert(s):
    """Geometric-series inverse: sum of powers of the tail ``g = 1 - u``."""
    reg = s.registry
    lead = {e: c for e, c in s.terms.items() if reg.degree(e) == s.floor}
    if len(lead) != 1:
        raise ValueError("invert_unit requires a unique minimal-degree term")
    (e0, c0), = lead.items()
    if c0 not in (1, -1):
        raise ValueError("invert_unit requires the minimal term to have coefficient +-1")
    neg_e0 = tuple(-x for x in e0)
    u = ref_shift(s, neg_e0, c0)
    g = ref_add(one(reg, u.order), u, -1)
    acc = one(reg, u.order)
    p = g
    while p.terms != {}:
        acc = ref_add(acc, p)
        p = TruncatedSeries(reg, dense_mul(p, g).terms, u.order)
    return ref_shift(acc, neg_e0, c0)


def packed(reg, terms):
    return {reg._packing.pack(e): c for e, c in terms.items()}


def unpacked(reg, slice_terms):
    return {reg._packing.unpack(k): c for k, c in slice_terms.items()}


def divide(reg, num, den):
    """``_homogeneous_exact_divide`` on exponent-tuple dicts."""
    return unpacked(reg, _homogeneous_exact_divide(packed(reg, num), packed(reg, den), reg._packing))


def ref_sqrt(s):
    """Residue loop: recompute ``s - b*b`` once per degree."""
    reg = s.registry
    m0 = s.floor
    lead = {e: c for e, c in s.terms.items() if reg.degree(e) == m0}
    if len(lead) != 1:
        raise ValueError("the minimal slice is not one term")
    (e0, c0), = lead.items()
    r0 = isqrt(c0) if c0 > 0 else 0
    if r0 * r0 != c0 or any(e % 2 for e in e0):
        raise ValueError("the minimal term is not a square monomial")
    root_lead = {tuple(e // 2 for e in e0): r0}
    result_order = s.order - m0 // 2
    b_terms = dict(root_lead)
    two_lead = {e: 2 * c for e, c in root_lead.items()}
    for j in range(1, s.order - m0 + 1):
        b = TruncatedSeries(reg, b_terms, result_order)
        residue = ref_add(s, dense_mul(b, b), -1)
        target = {e: c for e, c in residue.terms.items() if reg.degree(e) == m0 + j}
        if not target:
            continue
        for e, c in ref_divide(target, two_lead).items():
            b_terms[e] = b_terms.get(e, 0) + c
    b = TruncatedSeries(reg, b_terms, result_order)
    check = dense_mul(b, b)
    bound = min(check.order, s.order)
    if any(
        reg.degree(e) <= bound and check.terms.get(e, 0) != s.terms.get(e, 0)
        for e in check.terms.keys() | s.terms.keys()
    ):
        raise ValueError("series is not the square of a truncated Laurent series")
    return b


def ref_divide(num, den, cap=200):
    """Greedy leading-term division on exponent tuples in grlex order."""
    if not den:
        raise ValueError("division by the zero slice")
    den_lead = max(den, key=grlex_key)
    den_c = den[den_lead]
    quot, rem = {}, dict(num)
    for _ in range(cap):
        if not rem:
            return quot
        lt = max(rem, key=grlex_key)
        if rem[lt] % den_c:
            raise ValueError("slice division is not exact over the integers")
        q = tuple(x - y for x, y in zip(lt, den_lead))
        q_c = rem[lt] // den_c
        quot[q] = quot.get(q, 0) + q_c
        for e, dc in den.items():
            key = tuple(x + y for x, y in zip(q, e))
            rem[key] = rem.get(key, 0) - q_c * dc
            if rem[key] == 0:
                del rem[key]
    raise ValueError("slice division did not terminate")


def ref_pow(a, n):
    if n == 0:
        return one(a.registry, a.order)
    out = a
    for _ in range(n - 1):
        out = dense_mul(out, a)
    return out


def assert_identical(x, y):
    assert (x.terms, x.order, x.floor) == (y.terms, y.order, y.floor)


def outcome(fn, s):
    try:
        r = fn(s)
    except ValueError:
        return None
    return (r.terms, r.order, r.floor)


# ------------------------------------------------------------- strategies

registries = st.sampled_from(REGISTRIES)
coefficients = st.integers(-6, 6)


@st.composite
def series(draw, reg=None, max_terms=6):
    reg = reg if reg is not None else draw(registries)
    exps = st.tuples(*[st.integers(-2, 3)] * reg.size)
    terms = draw(st.dictionaries(exps, coefficients, max_size=max_terms))
    return TruncatedSeries(reg, terms, draw(st.integers(-1, 6)))


@st.composite
def series_pairs(draw):
    reg = draw(registries)
    return draw(series(reg)), draw(series(reg))


@st.composite
def units(draw):
    """``+-X^e0 * (1 + tail)`` with every tail term of positive degree."""
    reg = draw(registries)
    exps = st.tuples(*[st.integers(-2, 3)] * reg.size)
    tail = draw(
        st.dictionaries(exps.filter(lambda e: reg.degree(e) >= 1), coefficients, max_size=5)
    )
    base = TruncatedSeries(reg, {reg.zero_exps(): 1, **tail}, draw(st.integers(0, 7)))
    return base.shift_monomial(draw(exps), draw(st.sampled_from([1, -1])))


@st.composite
def roots(draw):
    """``c X^e0 (1 + tail)`` with ``c != 0`` and every tail term of positive
    degree: a one-term minimal slice, so the square's is a square monomial."""
    reg = draw(registries)
    exps = st.tuples(*[st.integers(-2, 2)] * reg.size)
    tail = draw(
        st.dictionaries(exps.filter(lambda e: reg.degree(e) >= 1), coefficients, max_size=4)
    )
    order = max(map(reg.degree, tail), default=0) + draw(st.integers(0, 3))
    base = TruncatedSeries(reg, {reg.zero_exps(): 1, **tail}, order)
    return base.shift_monomial(draw(exps), draw(coefficients.filter(bool)))


@st.composite
def homogeneous(draw, reg, degree, min_size=0, max_size=4):
    """A slice of one weighted degree, Laurent in every variable: the last
    unit-weight variable takes up whatever degree the others leave."""
    fix = max(i for i, w in enumerate(reg.weights) if w == 1)
    terms = {}
    for _ in range(draw(st.integers(min_size, max_size))):
        e = list(draw(st.tuples(*[st.integers(-3, 3)] * reg.size)))
        e[fix] = 0
        e[fix] = degree - reg.degree(tuple(e))
        terms[tuple(e)] = draw(coefficients.filter(bool))
    return terms


def slice_product(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


@st.composite
def divisions(draw):
    """``(num, den)``: a multiple of a one-term ``den``, sometimes with a
    stray term."""
    reg = draw(st.sampled_from([QP, XYZ, MIX]))
    den_degree, q_degree = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    den = draw(homogeneous(reg, den_degree, 1, 1))
    num = slice_product(draw(homogeneous(reg, q_degree)), den)
    for e, c in draw(homogeneous(reg, den_degree + q_degree, 0, 1)).items():
        num[e] = num.get(e, 0) + c
    return reg, {e: c for e, c in num.items() if c}, den


# ------------------------------------------------------------------ tests


@given(series_pairs())
def test_mul_matches_dense_reference(pair):
    a, b = pair
    assert_identical(a * b, dense_mul(a, b))


@given(series(), st.integers(-3, 3))
def test_int_scaling_matches_reference(a, k):
    scaled = TruncatedSeries(a.registry, {e: k * c for e, c in a.terms.items()}, a.order)
    assert_identical(a * k, scaled)


@given(series_pairs())
def test_add_matches_reference(pair):
    a, b = pair
    assert_identical(a + b, ref_add(a, b))
    assert_identical(a + b * -1, ref_add(a, b, -1))


@given(units())
def test_invert_matches_geometric_series_reference(u):
    assert_identical(u.invert_unit(), ref_invert(u))


@given(series())
def test_invert_refuses_what_the_reference_refuses(s):
    assert outcome(TruncatedSeries.invert_unit, s) == outcome(ref_invert, s)


@given(units())
def test_unit_times_inverse_is_one(u):
    prod = u * u.invert_unit()
    assert prod.same_series(one(u.registry, prod.order))


@given(roots())
@settings(max_examples=60)
def test_sqrt_matches_residue_reference(b):
    sq = b * b
    assert_identical(sq.sqrt_unit(), ref_sqrt(sq))


@given(roots(), st.data())
@settings(max_examples=60)
def test_sqrt_refuses_what_the_reference_refuses(b, data):
    # noise may land in the minimal slice, so minimal slices of several
    # terms, or of one non-square term, reach the refusals
    sq = b * b
    noise = data.draw(series(b.registry, max_terms=2))
    reg = b.registry
    tail = {e: c for e, c in noise.terms.items() if reg.degree(e) >= sq.floor}
    s = sq + TruncatedSeries(reg, tail, noise.order)
    assert outcome(TruncatedSeries.sqrt_unit, s) == outcome(ref_sqrt, s)


@given(roots())
@settings(max_examples=60)
def test_sqrt_of_square_is_plus_or_minus_root(b):
    root = (b * b).sqrt_unit()
    up_to = min(root.order, b.order)
    assert root.same_series(b, up_to=up_to) or root.same_series(b * -1, up_to=up_to)


# ------------------------------------------- packed keys, squaring, division


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(-LIMIT + 1, LIMIT - 1)] * n), min_size=2, max_size=2)
))
def test_packed_keys_round_trip_and_follow_grlex_order(vectors):
    e1, e2 = vectors
    packing = VariableRegistry(tuple(f"v{i}" for i in range(len(e1))))._packing
    k1, k2 = packing.pack(e1), packing.pack(e2)
    assert (packing.unpack(k1), packing.unpack(k2)) == (e1, e2)
    assert (k1 < k2) == (grlex_key(e1) < grlex_key(e2))
    total = tuple(x + y for x, y in zip(e1, e2))
    if max(map(abs, total)) < LIMIT:
        assert packing.unpack(k1 + k2) == total


@given(series(max_terms=10))
def test_negative_exponents_are_read_off_the_keys(s):
    assert s.has_negative_exponent() == any(min(e) < 0 for e in s.terms)


@given(series(max_terms=10))
def test_sorted_terms_is_grlex_order_of_terms(s):
    assert list(s.sorted_terms()) == sorted(s.terms.items(), key=lambda item: grlex_key(item[0]))
    assert sorted(s.coefficients()) == sorted(s.terms.values())


def test_sorted_terms_breaks_raw_degree_ties_lexicographically():
    terms = {(0, 1, -1, 0): 1, (1, -1, 0, 0): 2, (-1, 0, 0, 1): 3, (0, 0, 0, 0): 4, (-2, 0, 0, 1): 5}
    s = TruncatedSeries(MIX, terms, 6)
    assert [e for e, _ in s.sorted_terms()] == [
        (-2, 0, 0, 1), (-1, 0, 0, 1), (0, 0, 0, 0), (0, 1, -1, 0), (1, -1, 0, 0)
    ]
    assert list(s.sorted_terms()) == sorted(s.terms.items(), key=lambda item: grlex_key(item[0]))


def test_sorted_terms_unpacks_each_key_as_it_is_read(monkeypatch):
    s = TruncatedSeries(XY, {(0, 0): 1, (1, 0): 2, (0, 1): 3}, 4)
    calls = []
    unpack = _Packing.unpack

    def counted(self, key):
        calls.append(key)
        return unpack(self, key)

    monkeypatch.setattr(_Packing, "unpack", counted)
    assert next(iter(s.sorted_terms())) == ((0, 0), 1)
    assert len(calls) == 1


@given(series_pairs())
def test_mul_with_negative_raw_degrees_matches_dense_reference(pair):
    reg = pair[0].registry
    a = TruncatedSeries(reg, {tuple(-x for x in e): c for e, c in pair[0].terms.items()}, 6)
    b = pair[1]
    assert_identical(a * b, dense_mul(a, b))
    assert_identical(a * a, dense_mul(a, a))


@given(series(max_terms=10))
def test_square_matches_dense_reference(a):
    assert_identical(a * a, dense_mul(a, a))


@given(series(max_terms=4), st.integers(0, 6))
def test_pow_matches_repeated_multiplication(a, n):
    # a ** 0 is refused below order 0, where the constant 1 is not known
    assert outcome(lambda s: s ** n, a) == outcome(lambda s: ref_pow(s, n), a)


@pytest.mark.parametrize("n", range(7))
def test_pow_of_a_series_with_nonzero_floor(n):
    a = TruncatedSeries(QYT, {(1, 0, 1): 1, (1, 2, -1): -2, (2, 1, 0): 3}, 6)
    assert a.floor == 3
    assert_identical(a ** n, ref_pow(a, n))
    laurent = TruncatedSeries(XYZ, {(-1, 0, 0): 1, (0, -1, 1): 2, (1, 1, -1): -1}, 3)
    assert laurent.floor == -1
    assert_identical(laurent ** n, ref_pow(laurent, n))


@given(divisions())
def test_slice_division_matches_greedy_reference(case):
    reg, num, den = case

    def attempt(fn):
        try:
            return fn(num, den)
        except ValueError:
            return None

    assert attempt(lambda n, d: divide(reg, n, d)) == attempt(ref_divide)


@pytest.mark.parametrize(
    "num, den",
    [
        ({(1, 2): 3}, {(0, 1): 2}),  # monomial divisor, coefficient not divisible
        ({(0, 1): 1}, {(0, 1): 1, (0, 0): 1}),  # 1 / (1 + p^-1) never ends
        ({(0, 2): 1, (0, 0): 1}, {(0, 1): 1, (0, 0): 1}),  # nonzero remainder
        ({(0, 1): 1}, {}),
    ],
)
def test_slice_division_refusals(num, den):
    with pytest.raises(ValueError):
        divide(QP, num, den)
    with pytest.raises(ValueError):
        ref_divide(num, den)


@pytest.mark.parametrize(
    "reg, num, den",
    [
        (QP, {(0, 2): 1, (0, 0): -1}, {(0, 1): 1, (0, 0): 1}),  # p^2 - 1 = (p + 1)(p - 1)
        (XYZ, {(2, 0, 0): 1, (0, 2, 0): -1}, {(1, 0, 0): 1, (0, 1, 0): 1}),
        (XYZ, {(1, 1, 0): 2}, {(1, 0, 0): 1, (0, 1, 0): 1}),  # not exact either
    ],
)
def test_slice_division_refuses_polynomial_divisors(reg, num, den):
    with pytest.raises(ValueError, match="one-term divisor"):
        divide(reg, num, den)


# ----------------------------------------------------------- overflow guard


def test_constructor_refuses_exponents_outside_the_digit_range():
    for e in (LIMIT, -LIMIT):
        with pytest.raises(ValueError, match="packed monomial keys"):
            TruncatedSeries(XY, {(e, -e): 1}, 0)
    s = TruncatedSeries(XY, {(LIMIT - 1, 1 - LIMIT): 1, (1 - LIMIT, LIMIT - 1): 2}, 0)
    assert s.terms == {(LIMIT - 1, 1 - LIMIT): 1, (1 - LIMIT, LIMIT - 1): 2}
    assert s.coefficient((LIMIT, -LIMIT)) == 0


@pytest.mark.parametrize(
    "operation",
    [
        pytest.param(lambda: monomial(XY, (2**14, 0), 1, 20000) * monomial(XY, (2**14, 0), 1, 20000),
                     id="product"),
        pytest.param(lambda: monomial(XY, (0, -(2**14)), 1, 0) * monomial(XY, (0, -(2**14)), 1, 0),
                     id="negative-product"),
        pytest.param(lambda: (one(XY, 0) + monomial(XY, (2**14, -(2**14)), 1, 0)) ** 2,
                     id="square"),
        pytest.param(lambda: monomial(XY, (2**13, -(2**13)), 1, 0) ** 4, id="power"),
        pytest.param(lambda: monomial(XY, (1, 0), 1, 1).shift_monomial((LIMIT - 1, 0)),
                     id="shift"),
        pytest.param(lambda: one(XY, 0).shift_monomial((LIMIT, -LIMIT)), id="shift-delta"),
        pytest.param(
            # the weight-0 p sent to its square keeps every degree
            lambda: monomial(QP, (0, 2**14), 1, 0).substitute_monomials(
                QP, {"q": (1, 0), "p": (0, 2)}
            ),
            id="substitution",
        ),
        pytest.param(
            lambda: one(QP, 0).substitute_monomials(QP, {"q": (1, 0), "p": (0, LIMIT)}),
            id="substitution-image",
        ),
        pytest.param(
            # 4 * 10000 would carry into a digit that still looks valid
            lambda: (one(XY, 4) + monomial(XY, (10000, -9999), 1, 4)).invert_unit(),
            id="inverse-recurrence",
        ),
        pytest.param(
            lambda: (one(XY, 8) + monomial(XY, (2**12, 1 - 2**12), 4, 8)).sqrt_unit(),
            id="root-recurrence",
        ),
        pytest.param(lambda: divide(XY, {(20000, 0): 1}, {(-20000, 0): 1}), id="monomial-division"),
    ],
)
def test_overflow_guard_refuses_before_a_digit_could_carry(operation):
    with pytest.raises(ValueError, match="packed monomial keys"):
        operation()


def test_operations_just_inside_the_digit_range_match_the_references():
    big = monomial(XY, (2**14 - 1, 0), 1, 20000)
    assert (big * monomial(XY, (2**14, 0), 1, 20000)).terms == {(LIMIT - 1, 0): 1}
    u = one(XY, 3) + monomial(XY, (2**12, 1 - 2**12), 1, 3)
    assert_identical(u.invert_unit(), ref_invert(u))
    s = one(XY, 3) + monomial(XY, (2**12, 1 - 2**12), 4, 3)  # root 1 + 2t - 2t^2 + 4t^3
    assert_identical(s.sqrt_unit(), ref_sqrt(s))


def test_overflow_guard_reads_exact_exponents_before_refusing():
    # truncation drops the large term but keeps its tracked bound
    a = TruncatedSeries(XY, {(0, 0): 1, (20000, -19999): 1}, 5).truncate(0)
    b = TruncatedSeries(XY, {(0, 0): 2, (-20000, 20001): 1}, 5).truncate(0)
    assert (a * b).terms == {(0, 0): 2}
    assert (a * a).terms == {(0, 0): 1}
