"""In-memory span tracer that wraps bananagv's layer boundaries from outside.

The package itself has no tracing hooks, so :class:`Tracer` replaces each
layer entry point *where its callers look it up*: a module-level function is
replaced in every ``bananagv`` module whose globals hold it (``gvpf`` calls
``jacobi_phi_at`` through its own import, ``qseries`` through its
definition), and a method is replaced under every class attribute that
aliases it (``TruncatedSeries.__rmul__ is __mul__``).  ``uninstall`` puts
every original object back.

Each wrapped call records one :class:`Span` (name, start, end, parent index)
plus exact work counts taken from its arguments and result.  Self time is
the span's duration minus the part of it its child spans cover.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from statistics import median

__all__ = [
    "Span",
    "Tracer",
    "LAYERS",
    "PER_LAYER_UNITS",
    "self_times",
    "layer_metrics",
    "median_metrics",
]


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "result")

    def __init__(self, name: str, start: float, end: float, parent: int | None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.counts: dict = {}
        self.result = None

    def as_dict(self, index: int) -> dict:
        return {
            "id": index,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "counts": self.counts,
        }


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, cursor), min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out.append((s.end - s.start) - covered)
    return out


# -- work counts taken at each boundary ---------------------------------------


def _terms(x) -> int:
    return len(x.terms) if hasattr(x, "terms") else 1


def _count_mul(args, kwargs, result):
    a, b = args[0], args[1]
    if result is NotImplemented:
        return {}
    return {"pairs": _terms(a) * _terms(b), "terms_out": len(result.terms)}


def _count_init(args, kwargs, result):
    terms = args[2] if len(args) > 2 else kwargs["terms"]
    return {"terms_in": len(terms)}


def _count_terms_in(args, kwargs, result):
    return {"terms_in": len(args[0].terms)}


def _count_terms_out(args, kwargs, result):
    return {"terms_out": len(result.terms)}


def _count_first_arg(args, kwargs, result):
    return {"arg": args[0]}


def _count_branch_partitions(args, kwargs, result):
    return {"arg": args[0], "admissible": len(result)}


#: (span name, defining module, attribute path, work counter, keep result).
#: The result is kept only where a parent's count needs it.
LAYERS = [
    ("series.init", "bananagv.series", "TruncatedSeries.__init__", _count_init, False),
    ("series.mul", "bananagv.series", "TruncatedSeries.__mul__", _count_mul, False),
    ("series.add", "bananagv.series", "TruncatedSeries.__add__", None, False),
    ("series.invert_unit", "bananagv.series", "TruncatedSeries.invert_unit", None, False),
    ("series.sqrt_unit", "bananagv.series", "TruncatedSeries.sqrt_unit", None, False),
    ("series.substitute", "bananagv.series", "TruncatedSeries.substitute_monomials",
     _count_terms_in, False),
    ("series.required_source_order", "bananagv.series", "required_source_order", None, False),
    ("qseries.eta_reduced", "bananagv.qseries", "eta_reduced", None, False),
    ("qseries.theta1_reduced", "bananagv.qseries", "theta1_reduced", None, False),
    ("qseries.jacobi_phi", "bananagv.qseries", "jacobi_phi", _count_first_arg, False),
    ("qseries.eta_at", "bananagv.qseries", "eta_at", None, False),
    ("qseries.theta1_at", "bananagv.qseries", "theta1_at", None, False),
    ("qseries.jacobi_phi_at", "bananagv.qseries", "jacobi_phi_at", None, False),
    ("qseries.elliptic_genus_c2_at", "bananagv.qseries", "elliptic_genus_c2_at", None, False),
    ("qseries.check_identities", "bananagv.qseries", "check_identities", None, False),
    ("geometry.parse_shape", "bananagv.geometry", "parse_shape", None, False),
    ("geometry.registry_for", "bananagv.geometry", "registry_for", None, False),
    ("geometry.b_locations", "bananagv.geometry", "b_locations", None, False),
    ("geometry.branch_specs", "bananagv.geometry", "branch_specs", None, False),
    ("oracle.BranchPartition", "bananagv.oracle", "BranchPartition", None, False),
    ("oracle.branch_partitions", "bananagv.oracle", "branch_partitions",
     _count_branch_partitions, False),
    ("oracle.branch_series", "bananagv.oracle", "branch_series", None, False),
    ("oracle.naive_pf", "bananagv.oracle", "naive_pf", None, False),
    ("oracle.behrend_twist", "bananagv.oracle", "behrend_twist", _count_terms_out, True),
    ("gvpf.pf_22", "bananagv.gvpf", "pf_22", _count_terms_out, True),
    ("gvpf.pf_1w", "bananagv.gvpf", "pf_1w", _count_terms_out, True),
    ("gvpf.cross_check", "bananagv.gvpf", "cross_check", None, True),
    ("gvpf.gv_table", "bananagv.gvpf", "gv_table", None, False),
    ("cli.run", "bananagv.cli", "run", None, False),
]


class Tracer:
    """Records spans for the layers in :data:`LAYERS` while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, count, keep_result: bool):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None)
            spans.append(span)
            stack.append(index)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            if keep_result:
                span.result = result
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        package = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "bananagv"]
        for name, module_name, path, count, keep in LAYERS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner).get(attr)
            if original is None:
                # a later version of the package may rename a layer; its
                # metrics then read 0 and the run says which one went missing
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(name, original, count, keep)
            holders = [owner] if outer else package
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)
        return self

    def uninstall(self):
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps(s.as_dict(i)) + "\n")


# -- per-layer metrics ----------------------------------------------------------

#: Every per-layer metric, with its unit, in report order.
PER_LAYER_UNITS = {
    "series.mul.calls": "count",
    "series.mul.pairs": "count",
    "series.mul.terms_out": "count",
    "series.mul.yield": "ratio",
    "series.mul.self_s": "s",
    "series.sqrt_unit.calls": "count",
    "series.sqrt_unit.self_s": "s",
    "series.invert_unit.calls": "count",
    "series.invert_unit.self_s": "s",
    "series.add.calls": "count",
    "series.add.self_s": "s",
    "series.init.calls": "count",
    "series.init.terms_in": "count",
    "series.init.self_s": "s",
    "series.substitute.calls": "count",
    "series.substitute.terms_in": "count",
    "series.substitute.self_s": "s",
    "series.required_source_order.calls": "count",
    "series.required_source_order.self_s": "s",
    "qseries.jacobi_phi.calls": "count",
    "qseries.jacobi_phi.distinct_args": "count",
    "qseries.jacobi_phi.self_s": "s",
    "qseries.theta1_reduced.calls": "count",
    "qseries.theta1_reduced.self_s": "s",
    "qseries.eta_reduced.calls": "count",
    "qseries.eta_reduced.self_s": "s",
    "qseries.jacobi_phi_at.calls": "count",
    "qseries.jacobi_phi_at.self_s": "s",
    "qseries.elliptic_genus_c2_at.calls": "count",
    "qseries.elliptic_genus_c2_at.attempts": "count",
    "qseries.elliptic_genus_c2_at.self_s": "s",
    "qseries.check_identities.calls": "count",
    "qseries.check_identities.self_s": "s",
    "oracle.branch_partitions.calls": "count",
    "oracle.branch_partitions.distinct_n": "count",
    "oracle.branch_partitions.self_s": "s",
    "oracle.profiles_enumerated": "count",
    "oracle.profiles_admissible": "count",
    "oracle.profile_yield": "ratio",
    "oracle.branch_series.self_s": "s",
    "oracle.naive_pf.self_s": "s",
    "oracle.behrend_twist.self_s": "s",
    "gvpf.pf_22.self_s": "s",
    "gvpf.pf_1w.self_s": "s",
    "gvpf.cross_check.self_s": "s",
    "gvpf.cross_check.coefficients_compared": "count",
    "gvpf.gv_table.self_s": "s",
    "geometry.self_s": "s",
    "cli.run.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
}


def _coefficients_compared(spans: list[Span], index: int) -> int:
    """Coefficients one ``cross_check`` call compared: the union of the
    closed-form and twisted supports, up to and including the first mismatch."""
    keys = set()
    for s in spans[index + 1:]:
        if s.parent == index and s.name in ("gvpf.pf_22", "gvpf.pf_1w", "oracle.behrend_twist"):
            keys |= set(s.result.terms)
    report = spans[index].result
    if report.passed:
        return len(keys)
    from bananagv.series import grlex_key

    return sorted(keys, key=grlex_key).index(report.first_mismatch[0]) + 1


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Aggregate one traced call's spans into the per-layer metrics that the
    spans alone determine (all but the ``cli.*`` and ``trace.*`` ones)."""
    self_s = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    totals: dict[str, float] = defaultdict(float)
    sums: dict[str, int] = defaultdict(int)
    args: dict[str, set] = defaultdict(set)
    for s, t in zip(spans, self_s):
        calls[s.name] += 1
        totals[s.name] += t
        for key, value in s.counts.items():
            if key == "arg":
                args[s.name].add(value)
            else:
                sums[f"{s.name}.{key}"] += value

    out: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        layer, _, key = name.rpartition(".")
        if key == "calls":
            out[name] = calls[layer]
        elif key == "self_s":
            out[name] = totals[layer]
        elif key in ("pairs", "terms_out", "terms_in"):
            out[name] = sums[name]
    out["series.mul.yield"] = _ratio(sums["series.mul.terms_out"], sums["series.mul.pairs"])
    out["qseries.jacobi_phi.distinct_args"] = len(args["qseries.jacobi_phi"])
    egc = {i for i, s in enumerate(spans) if s.name == "qseries.elliptic_genus_c2_at"}
    out["qseries.elliptic_genus_c2_at.attempts"] = (
        sum(1 for s in spans if s.name == "qseries.jacobi_phi_at" and s.parent in egc) / 3
    )
    out["oracle.branch_partitions.distinct_n"] = len(args["oracle.branch_partitions"])
    enumerated = calls["oracle.BranchPartition"]
    admissible = sums["oracle.branch_partitions.admissible"]
    out["oracle.profiles_enumerated"] = enumerated
    out["oracle.profiles_admissible"] = admissible
    out["oracle.profile_yield"] = _ratio(admissible, enumerated)
    out["gvpf.cross_check.coefficients_compared"] = sum(
        _coefficients_compared(spans, i) for i, s in enumerate(spans) if s.name == "gvpf.cross_check"
    )
    out["geometry.self_s"] = sum(t for n, t in totals.items() if n.startswith("geometry."))
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Per-key median over several traced calls."""
    return {k: median(s[k] for s in samples) for k in samples[0]}
