"""Self-tests of the benchmark code.  Run from the root of the repository:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import Span, Tracer, layer_metrics, self_times  # noqa: E402


class SelfTimeArithmetic(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            Span("root", 0.0, 10.0, None),
            Span("a", 1.0, 4.0, 0),
            Span("a.child", 2.0, 3.0, 1),
            Span("b", 5.0, 7.5, 0),
            Span("leaf", 8.0, 8.25, 0),
        ]
        self.assertEqual(self_times(spans), [10.0 - 5.75, 2.0, 1.0, 2.5, 0.25])

    def test_overlapping_children_are_covered_once(self):
        spans = [Span("p", 0.0, 4.0, None), Span("x", 1.0, 3.0, 0), Span("y", 2.0, 5.0, 0)]
        self.assertEqual(self_times(spans)[0], 1.0)

    def test_child_spans_feed_layer_counts(self):
        spans = [
            Span("qseries.elliptic_genus_c2_at", 0.0, 9.0, None),
            *[Span("qseries.jacobi_phi_at", float(i), i + 0.5, 0) for i in range(6)],
            Span("qseries.jacobi_phi_at", 9.5, 10.0, None),
        ]
        metrics = layer_metrics(spans)
        self.assertEqual(metrics["qseries.jacobi_phi_at.calls"], 7)
        self.assertEqual(metrics["qseries.elliptic_genus_c2_at.attempts"], 2)
        self.assertEqual(metrics["qseries.elliptic_genus_c2_at.self_s"], 6.0)


class WrappersAreTransparent(unittest.TestCase):
    def _snapshot(self):
        import bananagv
        from bananagv import series

        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "bananagv"]
        state = {(id(m), k): v for m in modules for k, v in vars(m).items()}
        state.update({("TruncatedSeries", k): v for k, v in vars(series.TruncatedSeries).items()})
        return bananagv, state

    def test_results_identical_and_originals_restored(self):
        bananagv, before = self._snapshot()
        shape = bananagv.parse_shape("1xW", 1)
        plain = (bananagv.pf_22(3), bananagv.pf_1w(2, 5), bananagv.cross_check(shape, 6))
        t = Tracer()
        with t:
            traced = (bananagv.pf_22(3), bananagv.pf_1w(2, 5), bananagv.cross_check(shape, 6))
            self.assertIsNot(bananagv.series.TruncatedSeries.__dict__["__mul__"], before[
                ("TruncatedSeries", "__mul__")])
        self.assertEqual(t.missing, [])
        self.assertEqual(plain, traced)  # TruncatedSeries.__eq__ and report equality
        _, after = self._snapshot()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])

        metrics = layer_metrics(t.spans)
        # a passing check compares every term of the closed form
        self.assertEqual(metrics["gvpf.cross_check.coefficients_compared"],
                         len(bananagv.pf_1w(1, 6).terms))
        self.assertGreater(metrics["series.sqrt_unit.calls"], 0)
        self.assertGreater(metrics["oracle.profiles_enumerated"], 0)
        self.assertEqual(metrics["series.mul.calls"],
                         sum(1 for s in t.spans if s.name == "series.mul"))

    def test_rmul_alias_is_traced(self):
        from bananagv.series import one
        from bananagv.gvpf import R22

        t = Tracer()
        with t:
            doubled = 2 * one(R22, 2)
        self.assertEqual(doubled.constant_term(), 2)
        self.assertEqual([s.name for s in t.spans if s.name == "series.mul"], ["series.mul"])


class DigestChecks(unittest.TestCase):
    def setUp(self):
        run.OUT_DIR.mkdir(exist_ok=True)

    def test_reference_call_passes(self):
        self.assertTrue(run.cli_call(run.REFERENCE["setup"]).ok)

    def test_peak_rss_is_the_child_own(self):
        ballast = bytearray(64 << 20)  # the parent's peak must not leak into the child's
        ballast[:: 4096] = b"x" * len(ballast[:: 4096])
        self.assertLess(run.cli_call(run.REFERENCE["setup"]).peak_rss_mb, 60)
        del ballast

    def test_wrong_digest_is_a_failed_call(self):
        wrong = dict(run.REFERENCE["setup"], sha256="0" * 64)
        for call in (run.cli_call, run.in_process_call):
            result = call(wrong)
            self.assertFalse(result.ok)
            self.assertIn("sha256", result.detail)

    def test_wrong_digest_counts_in_the_run_tally(self):
        wrong = dict(run.REFERENCE["setup"], sha256="0" * 64)
        saved = run.REFERENCE
        run.REFERENCE = dict(saved, verify_q24=wrong)
        try:
            result = run.run_end_to_end("verify_q24", seed=0, seconds=0)
        finally:
            run.REFERENCE = saved
        self.assertEqual((result.attempted, result.failed), (1 + run.PROBES_PER_CALL, 1))

    def test_failing_exit_status_is_a_failed_call(self):
        bad = dict(run.REFERENCE["setup"], argv=["compute", "--shape", "2x2", "--w", "1",
                                                 "--order", "0"])
        for call in (run.cli_call, run.in_process_call):
            result = call(bad)
            self.assertFalse(result.ok)
            self.assertIn("exit status 2", result.detail)

    def test_count_mismatch_is_a_failed_call(self):
        stdout = b"PASS a\n"
        ref = {"sha256": run.hashlib.sha256(stdout).hexdigest(), "count": 2}
        self.assertEqual(run.check_output(ref, 0, stdout), "stdout count 1 != reference 2")


if __name__ == "__main__":
    unittest.main()
