"""Differential tests of the graded series kernel against plain references.

The references work on the flat ``terms`` dict only and never call the
kernel's ``*``, ``+``, ``truncate`` or ``shift_monomial``: a dense multiply
that forms every pair and filters by degree, the geometric-series loop for
``invert_unit`` and the full-residue loop for ``sqrt_unit``.  Results must
agree exactly in ``terms``, ``order`` and ``floor``.
"""
from hypothesis import given, settings, strategies as st

from bananagv.series import (
    TruncatedSeries,
    VariableRegistry,
    _homogeneous_exact_divide,
    _homogeneous_sqrt,
    one,
)

QP = VariableRegistry(("q", "p"), (1, 0))  # weight-0 Laurent variable
XYZ = VariableRegistry(("x", "y", "z"))  # unit weights
QYT = VariableRegistry(("q", "y", "t"), (2, 1, 1))
REGISTRIES = [QP, XYZ, QYT]


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
    while not p.is_zero():
        acc = ref_add(acc, p)
        p = TruncatedSeries(reg, dense_mul(p, g).terms, u.order)
    return ref_shift(acc, neg_e0, c0)


def ref_sqrt(s):
    """Residue loop: recompute ``s - b*b`` once per degree."""
    reg = s.registry
    m0 = s.floor
    if m0 % 2:
        raise ValueError("minimal degree is odd; the series is not a square")
    root_lead = _homogeneous_sqrt({e: c for e, c in s.terms.items() if reg.degree(e) == m0})
    result_order = s.order - m0 // 2
    b_terms = dict(root_lead)
    two_lead = {e: 2 * c for e, c in root_lead.items()}
    for j in range(1, s.order - m0 + 1):
        b = TruncatedSeries(reg, b_terms, result_order)
        residue = ref_add(s, dense_mul(b, b), -1)
        target = {e: c for e, c in residue.terms.items() if reg.degree(e) == m0 + j}
        if not target:
            continue
        for e, c in _homogeneous_exact_divide(target, two_lead).items():
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
    """A nonzero series whose square has a square-root-shaped minimal slice."""
    reg = draw(registries)
    exps = st.tuples(*[st.integers(-2, 2)] * reg.size)
    terms = draw(st.dictionaries(exps, coefficients, min_size=1, max_size=5))
    b = TruncatedSeries(reg, terms, max(reg.degree(e) for e in terms) + draw(st.integers(0, 3)))
    if b.is_zero():
        b = one(reg, 2)
    return b


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
    assert_identical(a - b, ref_add(a, b, -1))


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
    # noise may land in the minimal slice, so non-square minimal slices
    # reach the early refusals of the leading-term root recursion
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
    assert root.same_series(b, up_to=up_to) or root.same_series(-b, up_to=up_to)
