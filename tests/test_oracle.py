"""Tests for the brute-force profile enumeration and the unsigned counts."""
import re

import pytest
from hypothesis import given, strategies as st

from bananagv.geometry import BananaShape, BranchSpec, b_locations, branch_specs, registry_for
from bananagv.oracle import (
    _naive_location_0,
    _profile_residues,
    admissible_profiles,
    behrend_twist,
    branch_series,
    naive_pf,
)
from bananagv.series import TruncatedSeries, VariableRegistry, one, polynomial
from profile_reference import (
    conjugate,
    count_distinct_odd_conjugate,
    is_admissible,
    partitions,
    satisfies_pairwise_rule,
    weight_exponents,
)

TWO = BananaShape(2, 2)

profiles = st.lists(st.integers(1, 8), max_size=8).map(
    lambda parts: tuple(sorted(parts, reverse=True))
)


# ------------------------------------------------------------- partitions


def test_partition_counts():
    expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
    assert [sum(1 for _ in partitions(n)) for n in range(9)] == expected


def test_partitions_respect_max_part():
    assert list(partitions(4, 2)) == [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    with pytest.raises(ValueError):
        list(partitions(-1))


def test_conjugate_examples():
    assert conjugate((3, 1)) == (2, 1, 1)
    assert conjugate((2, 2)) == (2, 2)
    assert conjugate(()) == ()


@given(profiles)
def test_conjugation_is_an_involution(parts):
    assert conjugate(conjugate(parts)) == parts


@given(profiles)
def test_pairwise_rule_is_the_local_form_of_admissibility(parts):
    assert is_admissible(parts) == satisfies_pairwise_rule(parts)


def test_admissible_profiles_of_size_four():
    assert set(admissible_profiles(4)) == {
        (2, 2),
        (2, 1, 1),
        (1, 1, 1, 1),
    }


def test_generated_profiles_are_the_filtered_partitions_in_order():
    for n in range(31):
        filtered = [p for p in partitions(n) if is_admissible(p)]
        assert list(admissible_profiles(n)) == filtered


def test_admissible_profile_counts():
    assert [count_distinct_odd_conjugate(n) for n in range(7)] == [1, 1, 1, 2, 3, 4, 5]
    assert [len(list(admissible_profiles(n))) for n in range(7)] == [1, 1, 1, 2, 3, 4, 5]


def test_negative_sizes_are_refused():
    with pytest.raises(ValueError, match="cannot partition a negative integer"):
        list(admissible_profiles(-1))


@pytest.mark.parametrize("bad", [True, 2.0])
def test_non_int_sizes_are_refused_even_with_a_warm_cache(bad):
    # lru_cache keys (True, True) and (1, 1) are equal, so a warm cache answered True
    assert admissible_profiles(1) == [(1,)]
    with pytest.raises(TypeError, match=re.escape(f"size must be an int, not {type(bad).__name__} {bad!r}")):
        admissible_profiles(bad)


def filtered_profiles(N):
    """Admissible profiles of size at most N, by filtering every partition
    through the conjugate test."""
    return [p for n in range(N + 1) for p in partitions(n) if is_admissible(p)]


def filtered_branch_series(spec, N, registry):
    """A branch's series as the tuple fold of the filtered partitions,
    independently of the walk and of the substitution kernel."""
    acc = {}
    for parts in filtered_profiles(N):
        e = weight_exponents(parts, spec, registry)
        acc[e] = acc.get(e, 0) + 1
    return TruncatedSeries(registry, acc, N)


@given(st.integers(1, 12), st.integers(0, 16))
def test_profile_residues_tally_the_filtered_partitions(period, N):
    want = {}
    for parts in filtered_profiles(N):
        res = [0] * period
        for j, mult in enumerate(parts):
            res[j % period] += mult
        key = tuple(res)
        want[key] = want.get(key, 0) + 1
    series = _profile_residues(period, N)
    assert series.registry.names == tuple(f"x{r}" for r in range(period))
    assert series.order == N and series.terms == want
    # the walk builds its slices itself, and the trusted constructor checks
    # none of their contract
    unpack = series.registry._packing.unpack
    for d, s in series._slices.items():
        assert s and 0 not in s.values()
        assert all(sum(unpack(k)) == d for k in s)
    assert series._emax >= max(map(max, series.terms))
    for n in range(N + 1):
        total = sum(count for res, count in series.terms.items() if sum(res) == n)
        assert total == count_distinct_odd_conjugate(n)


def test_weight_exponents_follow_the_branch_labels():
    ne = branch_specs(TWO, 0)[0]  # labels s0, r0, s1, r1
    reg = registry_for(TWO)  # names r0, r1, s0, s1
    assert weight_exponents((3, 2, 1), ne, reg) == (2, 0, 3, 1)
    # past the period the labels repeat: edges 5 and 6 are s0 and r0 again
    assert weight_exponents((3, 2, 1, 1, 1, 1), ne, reg) == (3, 1, 4, 1)


# ---------------------------------------------------------- branch series


def spec_registry(spec):
    """Unit-weight registry of a branch's own labels, in sorted order."""
    return VariableRegistry(tuple(sorted(set(spec.labels))))


def branch_series_product(spec, N, registry):
    """The branch generating function from its product form:
    ``prod_odd (1 + m(j)) * prod_even 1/(1 - m(j))`` where m(j) is the
    product of the branch's first j labels."""
    acc = one(registry, N)
    for j in range(1, N + 1):
        m_j = weight_exponents((1,) * j, spec, registry)
        factor = polynomial(registry, {registry.zero_exps(): 1, m_j: -1 if j % 2 == 0 else 1}, N)
        acc = acc * (factor.invert_unit() if j % 2 == 0 else factor)
    return acc


def all_specs():
    out = []
    for loc in (0, 1):
        out.extend(branch_specs(TWO, loc))
    for w in (1, 2, 3):
        out.extend(branch_specs(BananaShape(1, w), 0))
    return out


@pytest.mark.parametrize("spec", all_specs(), ids=lambda s: "-".join(s.labels))
def test_enumeration_matches_the_product_form(spec):
    reg = spec_registry(spec)
    assert branch_series(spec, 6, reg) == branch_series_product(spec, 6, reg)


def test_branch_series_degree_totals_are_the_profile_counts():
    spec = branch_specs(TWO, 0)[0]
    s = branch_series(spec, 6, spec_registry(spec))
    for n in range(7):
        total = sum(c for e, c in s.terms.items() if sum(e) == n)
        assert total == count_distinct_odd_conjugate(n)


@st.composite
def labelled_branches(draw):
    """A branch of period 2-12 whose alternating labels are drawn from
    small pools, so they repeat within the period, and a unit-weight
    registry holding its labels among unused variables."""
    period = 2 * draw(st.integers(1, 6))
    r_pool = [f"r{i}" for i in range(draw(st.integers(1, 3)))]
    s_pool = [f"s{i}" for i in range(draw(st.integers(1, 3)))]
    first, second = draw(st.sampled_from([(s_pool, r_pool), (r_pool, s_pool)]))
    labels = tuple(draw(st.sampled_from(first if j % 2 == 0 else second)) for j in range(period))
    names = draw(st.permutations(r_pool + s_pool + ["q", "t"]))
    return BranchSpec("NE", labels), VariableRegistry(names)


@given(labelled_branches(), st.integers(0, 10))
def test_branch_series_is_the_tuple_fold_of_the_filtered_partitions(branch, N):
    spec, reg = branch
    got, want = branch_series(spec, N, reg), filtered_branch_series(spec, N, reg)
    assert (got.terms, got.order, got.floor) == (want.terms, want.order, want.floor)


def test_single_branch_spot_values():
    spec = BranchSpec("NE", ("s1", "r0", "s0", "r1"))
    s = branch_series(spec, 5, spec_registry(spec))
    assert s == branch_series_product(spec, 5, s.registry)
    assert s.registry.names == ("r0", "r1", "s0", "s1")
    assert s.constant_term() == 1
    assert s.coefficient((0, 0, 0, 1)) == 1  # profile (1) on first edge s1
    assert s.coefficient((2, 0, 0, 2)) == 1  # profile (2, 2) covering s1, r0


def test_branch_series_at_order_zero_is_one():
    spec = branch_specs(BananaShape(1, 1), 0)[0]
    assert branch_series(spec, 0, spec_registry(spec)).terms == {(0, 0): 1}


def test_branch_series_requires_unit_weights():
    spec = BranchSpec("NE", ("s0", "r0"))
    heavy = VariableRegistry(("r0", "s0"), (1, 2))
    with pytest.raises(ValueError, match="must have degree 1"):
        branch_series(spec, 4, heavy)


# ------------------------------------------------------------ naive counts


def filtered_naive_pf(shape, N):
    """The naive count built by filtering every partition through the
    conjugate test, independently of the profile walk."""
    registry = registry_for(shape)
    total = TruncatedSeries(registry, {}, N)
    for loc in b_locations(shape):
        contribution = one(registry, N)
        for spec in branch_specs(shape, loc):
            contribution = contribution * filtered_branch_series(spec, N, registry)
        total = total + contribution
    return total


@pytest.mark.parametrize(
    "shape,order",
    [(BananaShape(1, 1), 20), (TWO, 10), (BananaShape(1, 3), 10), (BananaShape(1, 6), 8)],
    ids=str,
)
def test_naive_pf_matches_the_filtered_enumeration(shape, order):
    got, want = naive_pf(shape, order), filtered_naive_pf(shape, order)
    assert (got.terms, got.order, got.floor) == (want.terms, want.order, want.floor)


def location_built_directly(shape, k, N):
    """``(NE * N) * (S * SW)`` from the labels of B location k, with no
    rotation."""
    registry = registry_for(shape)
    ne, n, s, sw = (branch_series(spec, N, registry) for spec in branch_specs(shape, k))
    return (ne * n) * (s * sw)


@pytest.mark.parametrize(
    "shape", [BananaShape(v, w) for v in range(1, 5) for w in range(1, 5)], ids=str
)
def test_locations_built_directly_are_rotations_of_location_0(shape):
    # k rotations of the r block and k of the s block carry location 0 to
    # location k; naive_pf builds location 0 alone and sums its rotations
    v, w = shape
    location = _naive_location_0(shape, 10)
    assert location == location_built_directly(shape, 0, 10)
    total = location
    for k in b_locations(shape)[1:]:
        location = location._rotate_block(0, w)._rotate_block(w, w + v)
        direct = location_built_directly(shape, k, 10)
        assert location == direct, k
        total = total + direct
    assert naive_pf(shape, 10) == total


def test_naive_pf_walks_the_profiles_once():
    _profile_residues.cache_clear()
    naive_pf(BananaShape(1, 3), 6)  # location 0's 4 branches, period 6
    info = _profile_residues.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_negative_order_is_refused():
    shape = BananaShape(1, 1)
    spec = branch_specs(shape, 0)[0]
    with pytest.raises(ValueError, match="order must be nonnegative"):
        branch_series(spec, -1, spec_registry(spec))
    with pytest.raises(ValueError, match="order must be nonnegative"):
        naive_pf(shape, -1)
    for bad in (2.0, True):
        message = re.escape(f"order must be an int, not {type(bad).__name__} {bad!r}")
        with pytest.raises(TypeError, match=message):
            branch_series(spec, bad, spec_registry(spec))
        with pytest.raises(TypeError, match=message):
            naive_pf(shape, bad)


def test_naive_pf_2x2_spot_values():
    s = naive_pf(TWO, 4)
    assert s.constant_term() == 2  # one empty configuration per location
    for name in ("r0", "r1", "s0", "s1"):
        assert s.coefficient(s.registry.exps(**{name: 1})) == 2


def test_naive_pf_1x2_spot_values():
    s = naive_pf(BananaShape(1, 2), 4)
    assert s.constant_term() == 2
    assert s.coefficient((0, 0, 1)) == 4  # s starts two branches at each location


def test_naive_pf_counts_are_nonnegative():
    for shape in (TWO, BananaShape(1, 1), BananaShape(1, 3)):
        s = naive_pf(shape, 3)
        assert all(c >= 0 for c in s.terms.values())


def test_naive_pf_is_cyclically_symmetric():
    shape = BananaShape(1, 3)
    s = naive_pf(shape, 4)
    reg = s.registry  # r0, r1, r2, s
    images = {
        "r0": reg.exps(r1=1),
        "r1": reg.exps(r2=1),
        "r2": reg.exps(r0=1),
        "s": reg.exps(s=1),
    }
    assert s.substitute_monomials(reg, images) == s


# ------------------------------------------------------------------ twist


def test_twist_negates_odd_degrees():
    reg = VariableRegistry(("s",))
    assert behrend_twist(polynomial(reg, {(0,): 1, (1,): 1}, 3)).terms == {
        (0,): 1,
        (1,): -1,
    }
    s = naive_pf(TWO, 3)
    t = behrend_twist(s)
    assert t.terms == {e: (-1) ** sum(e) * c for e, c in s.terms.items()}


@pytest.mark.parametrize("shape", [BananaShape(1, w) for w in (1, 2, 3, 4)] + [TWO], ids=str)
def test_twist_equals_the_substitution_route(shape):
    # x -> -x for every variable: x -> x m over an extra weight-0 variable m,
    # which counts each term's degree, then m = -1
    s = naive_pf(shape, 8)
    reg = s.registry
    marked = VariableRegistry(reg.names + ("m",), reg.weights + (0,))
    images = {name: marked.exps(**{name: 1, "m": 1}) for name in reg.names}
    counted = s.substitute_monomials(marked, images)
    by_substitution = TruncatedSeries(
        reg, {e[:-1]: (-1) ** e[-1] * c for e, c in counted.terms.items()}, counted.order
    )
    t = behrend_twist(s)
    assert (t.terms, t.order, t.floor) == (
        by_substitution.terms, by_substitution.order, by_substitution.floor
    )


def test_twist_refuses_weighted_registries():
    reg = VariableRegistry(("q", "s"), (2, 1))
    with pytest.raises(ValueError):
        behrend_twist(polynomial(reg, {(0, 0): 1, (0, 1): 1}, 3))


def test_twist_is_an_involution():
    s = naive_pf(BananaShape(1, 2), 4)
    assert behrend_twist(behrend_twist(s)) == s
