"""End-to-end acceptance suite.

Each test pins one headline guarantee of the package — identity checks,
elliptic-genus symmetries, closed form vs. twisted enumeration, the two
independent routes to the 2x2 partition function, reduction to the single
banana, frozen spot values confirmed by the enumeration, structural support
properties, and CLI determinism — and prints a single PASS/FAIL line
(visible with ``pytest -rA`` or on failure).
"""
import io
import json
import time

from bananagv.cli import RunConfig, run
from bananagv.geometry import BananaShape, registry_for
from bananagv.gvpf import cross_check, pf_1w, pf_22, pf_22_theta
from bananagv.oracle import behrend_twist, naive_pf
from bananagv.qseries import QYT, check_identities, elliptic_genus_c2_at, jacobi_phi_at
from bananagv.series import VariableRegistry
from profile_reference import count_distinct_odd_conjugate


def _report(label: str, ok: bool, started: float) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label} ({time.perf_counter() - started:.2f}s)")


def test_identity_suite_to_order_12():
    """The classical relations between eta, theta, and the Jacobi form hold
    as exact series identities to q-order 12, within a 10 s budget."""
    start = time.perf_counter()
    checks = check_identities(12)
    ok = all(c.passed for c in checks) and len(checks) == 4
    elapsed = time.perf_counter() - start
    _report("identity suite at q-order 12", ok, start)
    assert ok, [c.name for c in checks if not c.passed]
    assert elapsed < 10


def test_elliptic_genus_degenerations_to_q_order_8():
    """Ell(q, 1, t) is identically 1 and Ell is t <-> 1/t symmetric, exactly
    through q-order 8 (weighted order 16), within a 10 s budget."""
    start = time.perf_counter()
    qt = VariableRegistry(("q", "t"), (2, 1))
    fixed = elliptic_genus_c2_at(qt, (1, 0), (0, 0), (0, 1), 16)
    plain = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, 1), 16)
    mirrored = elliptic_genus_c2_at(QYT, (1, 0, 0), (0, 1, 0), (0, 0, -1), 16)
    ok = fixed.terms == {(0, 0): 1} and plain.same_series(
        mirrored, up_to=min(plain.order, mirrored.order)
    )
    elapsed = time.perf_counter() - start
    _report("elliptic genus: unit specialization and mirror symmetry to q-order 8", ok, start)
    assert ok
    assert elapsed < 10


def test_closed_forms_match_twisted_enumeration_to_degree_8():
    """For every supported shape the closed form equals the sign-twisted
    brute-force count, term by term to total degree 8, within 2 min."""
    start = time.perf_counter()
    reports = [
        cross_check(shape, 8)
        for shape in (BananaShape(1, 1), BananaShape(1, 2), BananaShape(1, 3), BananaShape(2, 2))
    ]
    ok = all(r.passed for r in reports)
    elapsed = time.perf_counter() - start
    _report("closed form vs twisted enumeration, four shapes to degree 8", ok, start)
    assert ok, [r.describe() for r in reports if not r.passed]
    assert elapsed < 120


def test_both_2x2_routes_agree_to_degree_8():
    """The square-root route and the theta-quotient route to the 2x2
    partition function agree exactly to total degree 8, within 30 s."""
    start = time.perf_counter()
    ok = pf_22(8) == pf_22_theta(8)
    elapsed = time.perf_counter() - start
    _report("2x2 square-root route equals theta route to degree 8", ok, start)
    assert ok
    assert elapsed < 30


def test_single_banana_reduction_to_degree_10():
    """pf for the one-cell shape is exactly s * phi(q -> r0 s, p -> s)."""
    start = time.perf_counter()
    reg = registry_for(BananaShape(1, 1))
    expected = jacobi_phi_at(reg, (1, 1), (0, 1), 10).shift_monomial(reg.exps(s=1))
    ok = pf_1w(1, 10).same_series(expected, up_to=10)
    _report("one-cell shape reduces to the weight -2 Jacobi form", ok, start)
    assert ok


def test_spot_coefficients_confirmed_by_enumeration():
    """Frozen low-degree values, each re-confirmed against the twisted
    enumeration within the same test before being trusted as a regression."""
    start = time.perf_counter()
    two = pf_22(2)
    reg2 = two.registry
    twisted = behrend_twist(naive_pf(BananaShape(2, 2), 2))
    spots_22 = {
        reg2.zero_exps(): 2,
        reg2.exps(r0=1): -2,
        reg2.exps(r0=1, s0=1): 6,
    }
    ok = all(
        two.coefficient(e) == v and twisted.coefficient(e) == v
        for e, v in spots_22.items()
    )

    one_cell = pf_1w(1, 2)
    twisted_11 = behrend_twist(naive_pf(BananaShape(1, 1), 2))
    spots_11 = {(0, 0): 1, (0, 1): -2, (1, 0): -2, (1, 1): 8}
    ok = ok and all(
        one_cell.coefficient(e) == v and twisted_11.coefficient(e) == v
        for e, v in spots_11.items()
    )

    counts = [count_distinct_odd_conjugate(n) for n in range(7)]
    ok = ok and counts == [1, 1, 1, 2, 3, 4, 5]
    _report("frozen spot coefficients, re-confirmed by the enumeration", ok, start)
    assert ok, (dict(two.terms), dict(one_cell.terms), counts)


def test_structural_support_properties():
    """Partition functions live in the nonnegative orthant, unsigned counts
    are nonnegative, and the constant term counts the B locations."""
    start = time.perf_counter()
    ok = all(min(e) >= 0 for e in pf_22(6).terms)
    for w in (1, 2, 3):
        pf = pf_1w(w, 6)
        ok = ok and all(min(e) >= 0 for e in pf.terms)
        ok = ok and pf.constant_term() == w
        naive = naive_pf(BananaShape(1, w), 4)
        ok = ok and all(c >= 0 for c in naive.terms.values())
    ok = ok and all(c >= 0 for c in naive_pf(BananaShape(2, 2), 4).terms.values())
    _report("support and positivity structure", ok, start)
    assert ok


def test_cli_output_is_byte_deterministic():
    """Two identical compute invocations emit byte-identical documents, and
    the JSON document round-trips through the standard parser."""
    start = time.perf_counter()
    config = RunConfig("compute", 4, "2x2", None, "json")
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        assert run(config, out=buf) == 0
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1]
    ok = ok and json.dumps(json.loads(outputs[0]), separators=(",", ":")) == outputs[0].strip()

    csv_config = RunConfig("compute", 4, "1xW", 2, "csv")
    csv_outputs = []
    for _ in range(2):
        buf = io.StringIO()
        assert run(csv_config, out=buf) == 0
        csv_outputs.append(buf.getvalue())
    ok = ok and csv_outputs[0] == csv_outputs[1]
    _report("CLI byte determinism and JSON round-trip", ok, start)
    assert ok
