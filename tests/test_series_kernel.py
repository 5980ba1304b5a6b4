"""Differential tests of the graded series kernel against plain references.

The references work on the flat ``terms`` dict only and never call the
kernel's ``*``, ``+``, ``truncate`` or ``shift_monomial``: a dense multiply
that forms every pair and filters by degree, the geometric-series loop for
``invert_unit``, and for ``sqrt_unit`` a full-residue loop that divides each
residue slice by greedy leading-term division on exponent tuples.  The
kernel takes inverses and roots of minimal terms only for monomials, and the
strategies draw those shapes; other shapes must be refused.  Results must
agree exactly in ``terms``, ``order`` and ``floor``.
"""
import operator
from math import isqrt

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from bananagv import series as series_module
from bananagv.series import (
    TruncatedSeries,
    VariableRegistry,
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


def ref_pow(a, n, mul=dense_mul):
    """``a`` to the ``n``: the ``n - 1`` left products by ``mul``, the first
    of them a square; ``operator.mul`` makes them the kernel's."""
    if n == 0:
        return one(a.registry, a.order)
    out = a
    for _ in range(n - 1):
        out = mul(out, a)
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
def series(draw, reg=None, max_terms=6, exponent=st.integers(-2, 3)):
    reg = reg if reg is not None else draw(registries)
    exps = st.tuples(*[exponent] * reg.size)
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
def thin_series(draw):
    """A series over ``x, y`` led by +-1 whose every degree up to its order
    holds one to three terms, like a branch series of ``1x1``: many slice
    pairs, each with few term pairs."""
    order = draw(st.integers(4, 12))
    terms = {(0, 0): draw(st.sampled_from([1, -1]))}
    for d in range(1, order + 1):
        for i in draw(st.sets(st.integers(0, d), min_size=1, max_size=3)):
            terms[(i, d - i)] = draw(coefficients.filter(bool))
    return TruncatedSeries(XY, terms, order)


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


# ------------------------------------------------- packed keys and squaring


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(-LIMIT + 1, LIMIT - 1)] * n), min_size=2, max_size=2)
))
def test_packed_keys_round_trip_and_follow_tuple_order(vectors):
    e1, e2 = vectors
    reg = VariableRegistry(tuple(f"v{i}" for i in range(len(e1))))
    k1, k2 = reg._pack(e1), reg._pack(e2)
    assert (reg._unpack(k1), reg._unpack(k2)) == (e1, e2)
    assert (k1 < k2) == (e1 < e2)
    total = tuple(x + y for x, y in zip(e1, e2))
    if max(map(abs, total)) < LIMIT:
        assert reg._unpack(k1 + k2) == total


@given(registries.flatmap(lambda reg: st.tuples(
    st.just(reg), st.lists(st.tuples(*[st.integers(-LIMIT + 1, LIMIT - 1)] * reg.size), max_size=10)
)))
@example((XYZ, []))
@example((XYZ, [(0, 0, 0), (LIMIT - 1, 0, LIMIT - 1)]))
@example((XYZ, [(LIMIT - 1, LIMIT - 1, -1)]))
@example((XYZ, [(-1, 0, 0)]))
@example((MIX, [(LIMIT - 1, 0, LIMIT - 1, LIMIT - 1), (0, -(LIMIT - 1), 0, 0)]))
@example((QP, [(-(LIMIT - 1), LIMIT - 1)]))
def test_negative_exponents_are_read_off_the_keys(drawn):
    # every digit of the range, with its extremes and -1 and 0 as examples;
    # the order keeps every term
    reg, vectors = drawn
    s = TruncatedSeries(reg, dict.fromkeys(vectors, 1), max(map(reg.degree, vectors), default=0))
    assert set(s.terms) == set(vectors)
    assert s.has_negative_exponent() == any(min(e) < 0 for e in vectors)


@given(series(max_terms=10))
def test_sorted_terms_is_grlex_order_of_terms(s):
    rows = list(s.sorted_terms())
    assert rows == sorted(s.terms.items(), key=lambda item: (s.registry.degree(item[0]), item[0]))
    if s.registry == XYZ:  # unit weights: the weighted degree is the raw one
        assert rows == sorted(s.terms.items(), key=lambda item: grlex_key(item[0]))
    assert sorted(s.coefficients()) == sorted(s.terms.values())


def test_sorted_terms_breaks_degree_ties_lexicographically():
    # MIX weights (0, 1, 2, 1): (-1, 5, -2, 0) and (0, 1, 0, 0) share degree
    # 1, and the first comes first though its raw exponent sum is larger
    terms = {
        (0, 1, -1, 0): 1, (1, -1, 0, 0): 2, (-1, 0, 0, 1): 3, (0, 0, 0, 0): 4,
        (-2, 0, 0, 1): 5, (-1, 5, -2, 0): 6, (0, 1, 0, 0): 7,
    }
    s = TruncatedSeries(MIX, terms, 6)
    assert [e for e, _ in s.sorted_terms()] == [
        (0, 1, -1, 0), (1, -1, 0, 0),
        (0, 0, 0, 0),
        (-2, 0, 0, 1), (-1, 0, 0, 1), (-1, 5, -2, 0), (0, 1, 0, 0),
    ]
    assert list(s.sorted_terms()) == sorted(s.terms.items(), key=lambda item: (MIX.degree(item[0]), item[0]))


def test_sorted_terms_sorts_one_slice_at_a_time(monkeypatch):
    s = TruncatedSeries(XY, {(0, 0): 1, (1, 0): 2, (0, 1): 3, (2, 0): 4, (1, 1): 5, (0, 2): 6}, 4)
    sizes = []

    def recorded(items, **kwargs):
        items = list(items)
        sizes.append(len(items))
        return sorted(items, **kwargs)

    monkeypatch.setattr(series_module, "sorted", recorded, raising=False)
    assert [e for e, _ in s.sorted_terms()] == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]
    assert sizes and max(sizes) < 6


def test_first_difference_breaks_degree_ties_lexicographically():
    # QYT weights (2, 1, 1): both terms have degree 2, and (0, 1, 1) comes
    # first though its raw exponent sum is larger
    a = TruncatedSeries(QYT, {(1, 0, 0): 1, (0, 1, 1): 2}, 4)
    b = TruncatedSeries(QYT, {}, 4)
    assert a.first_difference(b) == ((0, 1, 1), 2, 0)


def test_sorted_terms_unpacks_each_key_as_it_is_read(monkeypatch):
    s = TruncatedSeries(XY, {(0, 0): 1, (1, 0): 2, (0, 1): 3}, 4)
    calls = []
    unpack = VariableRegistry._unpack

    def counted(self, key):
        calls.append(key)
        return unpack(self, key)

    monkeypatch.setattr(VariableRegistry, "_unpack", counted)
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


def pairs_formed(product):
    """The pairs of terms that ``product()`` forms, counted where the slice
    helpers form them."""
    pairs = []
    add_product, add_square = series_module._add_product, series_module._add_square

    def counted_product(acc, a, b, scale):
        a = list(a)
        pairs.append(len(a) * len(b))
        add_product(acc, a, b, scale)

    def counted_square(acc, a, scale):
        pairs.append(len(a) * (len(a) + 1) // 2)
        add_square(acc, a, scale)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series_module, "_add_product", counted_product)
        patch.setattr(series_module, "_add_square", counted_square)
        product()
    return sum(pairs)


@given(series(max_terms=10))
def test_a_square_forms_each_unordered_pair_of_terms_once(a):
    # an equal series that is another object takes the general walk, which
    # forms every ordered pair; the square forms a term times itself once
    # and every other pair once instead of twice
    b = TruncatedSeries(a.registry, a.terms, a.order)
    assert b == a and b is not a
    diagonal = sum(len(s) for d, s in a._slices.items() if 2 * d <= a.order + a.floor)
    assert 2 * pairs_formed(lambda: a * a) == pairs_formed(lambda: a * b) + diagonal


@given(thin_series(), thin_series())
def test_kernels_on_many_thin_slices_match_the_references(a, b):
    assert_identical(a * b, dense_mul(a, b))
    assert_identical(a * a, dense_mul(a, a))
    assert_identical(a.invert_unit(), ref_invert(a))
    # the root of a square is led by +1
    assert_identical((a * a).sqrt_unit(), a * a.constant_term())


@pytest.mark.parametrize("n", range(7))
def test_pow_of_a_series_with_nonzero_floor(n):
    a = TruncatedSeries(QYT, {(1, 0, 1): 1, (1, 2, -1): -2, (2, 1, 0): 3}, 6)
    assert a.floor == 3
    assert_identical(ref_pow(a, n, operator.mul), ref_pow(a, n))
    laurent = TruncatedSeries(XYZ, {(-1, 0, 0): 1, (0, -1, 1): 2, (1, 1, -1): -1}, 3)
    assert laurent.floor == -1
    assert_identical(ref_pow(laurent, n, operator.mul), ref_pow(laurent, n))


# ----------------------------------------------------------- block rotation


@st.composite
def blocks(draw):
    """A registry of 2 to 6 variables and one or two disjoint blocks
    ``(start, stop)`` of it, each of variables that share one weight; the
    other weights are free."""
    n = draw(st.integers(2, 6))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=4, unique=True)))
    spans = list(zip(cuts[::2], cuts[1::2]))
    weights = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    for start, stop in spans:
        weights[start:stop] = [weights[start]] * (stop - start)
    return VariableRegistry([f"x{v}" for v in range(n)], weights), spans


def cyclic_images(reg, spans):
    """``x_v -> x_{v+1}`` across each block, its last variable to its first,
    and every other variable to itself."""
    target = list(range(reg.size))
    for start, stop in spans:
        target[start:stop] = target[start + 1 : stop] + [start]
    return {name: tuple(int(i == target[v]) for i in range(reg.size)) for v, name in enumerate(reg.names)}


def assert_orbit_sum_is_the_sum_of_the_cyclic_substitutions(s, spans, count):
    images = cyclic_images(s.registry, spans)
    expected, image = s, s
    for _ in range(count - 1):
        image = image.substitute_monomials(s.registry, images)
        expected = ref_add(expected, image)
    total = s._orbit_sum(spans, count)
    assert_identical(total, expected)
    assert total._emax == s._emax


@given(blocks(), st.integers(1, 7), st.data())
def test_block_rotation_matches_the_cyclic_substitution(block, count, data):
    reg, spans = block
    s = data.draw(series(reg, max_terms=10))
    assert_orbit_sum_is_the_sum_of_the_cyclic_substitutions(s, spans, count)


@pytest.mark.parametrize("start, stop", [(0, 3), (0, 2), (1, 3)])
def test_block_rotation_moves_the_extreme_exponents(start, stop):
    # every digit at its most negative or most positive value, so a borrow
    # or a carry between moved digits would show in an image; one image
    # more than the block is long, so the orbit wraps around
    reg = VariableRegistry(("a", "b", "c"), (0, 0, 0))
    e = LIMIT - 1
    terms = {(e, -e, e): 1, (-e, e, -e): -2, (-e, -e, e): 3, (e, e, -e): 4, (0, -e, 0): 5}
    s = TruncatedSeries(reg, terms, 0)
    assert_orbit_sum_is_the_sum_of_the_cyclic_substitutions(s, [(start, stop)], stop - start + 1)


@given(blocks(), st.data())
def test_block_rotation_refuses_unequal_weights(block, data):
    reg, spans = block
    start, stop = spans[-1]
    assume(stop - start > 1)
    s = data.draw(series(reg, max_terms=10))
    weights = list(reg.weights)
    weights[stop - 1] += 1
    uneven = TruncatedSeries(VariableRegistry(reg.names, weights), s.terms, s.order)
    with pytest.raises(ValueError, match="equal weight"):
        uneven._orbit_sum(spans, 2)


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
        pytest.param(lambda: (s := one(XY, 0) + monomial(XY, (2**14, -(2**14)), 1, 0)) * s,
                     id="square"),
        # ((m * m) * m) * m: a square, then products, the last one refused
        pytest.param(lambda: (m := monomial(XY, (2**13, -(2**13)), 1, 0)) * m * m * m,
                     id="power"),
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
        pytest.param(
            # the shift by x^-20000 y^20000 onto the unit form would send
            # the tail term to x^-40000 y^40001
            lambda: (monomial(XY, (20000, -20000), 1, 2) + monomial(XY, (-20000, 20001), 2, 2)).sqrt_unit(),
            id="root-unit-form",
        ),
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
