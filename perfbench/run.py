"""Benchmark of the bananagv command line: fixed workloads timed end to end,
and a separate traced run that reports per-layer self time and work counts.

Run one workload (run from the root of the repository; needs only the stdlib)::

    python3 perfbench/run.py --workload table_2x2 --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload table_2x2 --seed 1 --seconds 27 --trace 1

or every workload in both modes, with a metric table per workload::

    python3 perfbench/run.py --workload all --seed 1 --seconds 27

``--trace 0`` times fresh processes that run ``python -m bananagv`` (through
``child.py``, which also reports their peak RSS), one at a time (closed loop,
one caller), and reports the end-to-end metrics.  ``--trace 1``
runs the same call in this process under :class:`tracer.Tracer` and reports
the per-layer metrics.  Every call's exit status and stdout are checked
against ``reference.json``; a mismatch counts as a failed call.  The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The inputs are fixed (shape, order) points, since exact arithmetic has no
random inputs; ``--seed`` only sets the order in which the calls of a run
are interleaved.
"""
from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = json.loads((HERE / "reference.json").read_text())["calls"]
WORKLOADS = [name for name in REFERENCE if name != "setup"]

#: Start-up probes per workload call in an end-to-end run; ``setup_s`` is
#: their median.
PROBES_PER_CALL = 2


@dataclass
class CallResult:
    ok: bool
    wall_s: float
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    output_bytes: int = 0
    detail: str = ""


def output_count(stdout: bytes) -> int:
    """Coefficients in a ``compute`` document, or PASS lines of a check."""
    if stdout.startswith(b"{"):
        return len(json.loads(stdout)["coefficients"])
    return sum(1 for line in stdout.splitlines() if line.startswith(b"PASS "))


def check_output(ref: dict, status: int, stdout: bytes) -> str:
    """Why a call's result differs from its reference; empty when it matches."""
    if status != 0:
        return f"exit status {status}"
    digest = hashlib.sha256(stdout).hexdigest()
    if digest != ref["sha256"]:
        return f"stdout sha256 {digest} != reference {ref['sha256']}"
    try:
        count = output_count(stdout)
    except ValueError as exc:
        return f"stdout does not parse: {exc}"
    if count != ref["count"]:
        return f"stdout count {count} != reference {ref['count']}"
    return ""


def cli_call(ref: dict) -> CallResult:
    """One fresh process running ``python -m bananagv`` through ``child.py``,
    timed from spawn to reap."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    peak_r, peak_w = os.pipe()
    argv = [sys.executable, str(HERE / "child.py"), str(peak_w), *ref["argv"]]
    with open(OUT_DIR / "stderr.txt", "wb") as err, os.fdopen(peak_r, "rb") as peak:
        try:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, stdout=subprocess.PIPE, stderr=err, env=env, cwd=ROOT, pass_fds=(peak_w,)
            )
        finally:
            os.close(peak_w)
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        peak_kb = peak.read()
    proc.returncode = os.waitstatus_to_exitcode(status)
    detail = check_output(ref, proc.returncode, stdout)
    if not detail and not peak_kb:
        detail = "child reported no peak RSS"
    if detail and proc.returncode:
        tail = (OUT_DIR / "stderr.txt").read_text(errors="replace").strip().splitlines()
        detail += f" ({tail[-1]})" if tail else ""
    return CallResult(
        ok=not detail,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=int(peak_kb or 0) / 1024,
        output_bytes=len(stdout),
        detail=detail,
    )


def in_process_call(ref: dict, tracer=None) -> CallResult:
    """``bananagv.cli.main`` in this process, optionally under a tracer.

    ``cli.run`` binds ``sys.stdout`` as a default argument at import time, so
    the output is captured by substituting the streams at that boundary.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from bananagv import cli

    out, err = io.StringIO(), io.StringIO()
    original = cli.run
    cli.run = functools.partial(original, out=out, err=err)
    gc.collect()
    try:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            status = cli.main(list(ref["argv"]))
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else 2
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
        cli.run = original
    stdout = out.getvalue().encode()
    detail = check_output(ref, status, stdout)
    return CallResult(ok=not detail, wall_s=wall, output_bytes=len(stdout), detail=detail)


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]


def _tally(results: list[CallResult], label: str) -> int:
    failed = [r for r in results if not r.ok]
    for r in failed[:3]:
        print(f"{label}: failed call: {r.detail}", file=sys.stderr)
    return len(failed)


def run_end_to_end(workload: str, seed: int, seconds: float) -> RunResult:
    """Closed loop of workload calls for ``seconds``.  Each call brings
    ``PROBES_PER_CALL`` start-up probes, each placed just before or just
    after it by the seed, so the probes sample the whole run."""
    ref, probe_ref = REFERENCE[workload], REFERENCE["setup"]
    rng = random.Random(seed)
    cli_call(probe_ref)  # untimed: compiles bytecode and warms the file cache
    calls: list[CallResult] = []
    probes: list[CallResult] = []
    deadline = time.perf_counter() + seconds
    while not calls or time.perf_counter() < deadline:
        before = [rng.random() < 0.5 for _ in range(PROBES_PER_CALL)]
        probes += [cli_call(probe_ref) for b in before if b]
        calls.append(cli_call(ref))
        probes += [cli_call(probe_ref) for b in before if not b]

    failed = _tally(calls + probes, workload)
    good = [c for c in calls if c.ok] or calls
    good_probes = [p for p in probes if p.ok] or probes
    return RunResult(
        attempted=len(calls) + len(probes),
        failed=failed,
        metrics={
            "wall_s": (median(c.wall_s for c in good), "s"),
            "peak_rss_mb": (median(c.peak_rss_mb for c in good), "MB"),
            "setup_s": (median(p.wall_s for p in good_probes), "s"),
        },
    )


def run_traced(workload: str, seed: int, seconds: float) -> RunResult:
    """One untraced process call, one untraced in-process call and one
    traced in-process call per cycle, in seed-shuffled order, until
    ``seconds`` have passed and each kind has run at least once."""
    ref = REFERENCE[workload]
    rng = random.Random(seed)
    results: dict[str, list[CallResult]] = {"process": [], "untraced": [], "traced": []}
    samples: list[dict[str, float]] = []
    cycle: list[str] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not all(results.values()):
        if not cycle:
            cycle = rng.sample(sorted(results), len(results))
        kind = cycle.pop()
        if kind == "process":
            results[kind].append(cli_call(ref))
        elif kind == "untraced":
            results[kind].append(in_process_call(ref))
        else:
            tracer = tracing.Tracer()
            results[kind].append(in_process_call(ref, tracer))
            samples.append(tracing.layer_metrics(tracer.spans))
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.jsonl")
    for name in tracer.missing:
        print(f"{workload}: layer not found, its metrics read 0: {name}", file=sys.stderr)

    every = [r for kind in results.values() for r in kind]
    failed = _tally(every, workload)
    layer = tracing.median_metrics(samples)
    layer["cli.output_bytes"] = median(r.output_bytes for r in results["traced"])
    layer["cli.cpu_s"] = median(r.cpu_s for r in results["process"])
    layer["trace.overhead_s"] = median(r.wall_s for r in results["traced"]) - median(
        r.wall_s for r in results["untraced"]
    )
    units = tracing.PER_LAYER_UNITS
    return RunResult(
        attempted=len(every),
        failed=failed,
        metrics={name: (layer[name], unit) for name, unit in units.items()},
    )


def emit(result: RunResult, prefix: str = "") -> dict:
    metrics = {}
    for name, (value, unit) in result.metrics.items():
        print(f"{prefix}{name} = {value:.6g} {unit}")
        metrics[f"{prefix}{name}"] = {"value": value, "unit": unit}
    rate = result.failed / result.attempted
    print(f"{prefix}error_rate = {rate:.6g} (failed {result.failed} of {result.attempted} calls)")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bananagv" / "__init__.py").is_file():
        print(f"error: no bananagv sources under {SRC}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    if args.workload == "all":
        runs = [(w, mode) for w in WORKLOADS for mode in (run_end_to_end, run_traced)]
    else:
        runs = [(args.workload, run_traced if args.trace else run_end_to_end)]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for workload, mode in runs:
        result = mode(workload, args.seed, args.seconds)
        attempted += result.attempted
        failed += result.failed
        prefix = f"{workload}." if args.workload == "all" else ""
        metrics.update(emit(result, prefix))
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
