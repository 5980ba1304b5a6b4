"""Command-line front end.

Three subcommands, all writing to standard output:

* ``compute``: emit the invariant table of a shape as JSON (default) or CSV.
* ``verify``: run the q-series identity suite at a given order.
* ``crosscheck``: compare closed form and sign-twisted enumeration.

Output for a fixed invocation is byte-deterministic (canonical graded-lex
term order, canonical JSON separators), and the JSON document round-trips:
``json.dumps(json.loads(s), separators=(",", ":")) == s.strip()``.
Coefficients are serialized as decimal strings so arbitrary-precision values
survive any JSON reader.

Exit status: 0 on success, 1 when a check fails, 2 on a usage error, and 3
when a computation breaks an internal invariant (``InvariantError``); the
last prints one line on standard error.

Inputs are capped so that every accepted run finishes: ``--order`` at most 32
for ``compute`` and ``crosscheck`` and at most 256 for ``verify``, and
``--w`` at most 6.  Larger values are a usage error.  At the caps the slowest
run measured, ``crosscheck --shape 1xW --w 6 --order 32``, takes 7-9 s and
77 MB on a 2-vCPU Linux VM; ``compute --shape 2x2 --order 32`` takes about
1 s and ``verify --order 256`` about 2 s.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from typing import IO

from .geometry import BananaShape, parse_shape, registry_for
from .gvpf import cross_check, gv_table
from .qseries import check_identities
from .series import InvariantError

__all__ = ["RunConfig", "build_parser", "run", "main"]

#: Largest accepted ``--order`` per command (see the module docstring).
MAX_ORDER = {"compute": 32, "crosscheck": 32, "verify": 256}

#: Largest accepted ``--w``.
MAX_W = 6


@dataclass(frozen=True)
class RunConfig:
    command: str  # "compute" | "verify" | "crosscheck"
    order: int
    shape: str | None = None
    w: int | None = None
    fmt: str = "json"

    def __post_init__(self):
        if self.command not in ("compute", "verify", "crosscheck"):
            raise ValueError(f"unknown command {self.command!r}")
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        if self.command == "verify" and self.order < 1:
            raise ValueError("order must be at least 1 for verify")
        if self.order > MAX_ORDER[self.command]:
            raise ValueError(f"order must be at most {MAX_ORDER[self.command]} for {self.command}")
        if self.w is not None and self.w > MAX_W:
            raise ValueError(f"width must be at most {MAX_W}")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")

    def banana_shape(self) -> BananaShape:
        if self.shape is None:
            raise ValueError(f"{self.command} requires --shape")
        return parse_shape(self.shape, self.w)


def _serialize_json(config: RunConfig, shape: BananaShape, table) -> str:
    doc: dict = {"shape": config.shape}
    if shape.v == 1:
        doc["w"] = shape.w
    doc["order"] = table.order
    doc["variables"] = list(registry_for(shape).names)
    doc["coefficients"] = [
        {"exponents": list(exps), "value": str(value)} for exps, value in table.entries
    ]
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _serialize_csv(shape: BananaShape, table) -> str:
    lines = [",".join(registry_for(shape).names) + ",value"]
    for exps, value in table.entries:
        lines.append(",".join(str(e) for e in exps) + f",{value}")
    return "\n".join(lines) + "\n"


def run(config: RunConfig, out: IO[str] | None = None, err: IO[str] | None = None) -> int:
    """Execute a configuration; returns the process exit status.  The streams
    default to ``sys.stdout`` and ``sys.stderr`` as they are at call time."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if config.command == "compute":
        shape = config.banana_shape()
        table = gv_table(shape, config.order)
        if config.fmt == "json":
            out.write(_serialize_json(config, shape, table))
        else:
            out.write(_serialize_csv(shape, table))
        return 0
    if config.command == "verify":
        checks = check_identities(config.order)
        for check in checks:
            out.write(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}\n")
        failed = [c for c in checks if not c.passed]
        if failed:
            err.write(f"{len(failed)} identity check(s) failed\n")
            return 1
        return 0
    report = cross_check(config.banana_shape(), config.order)
    out.write(("PASS " if report.passed else "FAIL ") + report.describe() + "\n")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bananagv",
        description="Genus-0 invariant tables and consistency checks for banana configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="emit the invariant table of a shape")
    crosscheck = sub.add_parser(
        "crosscheck", help="compare closed form against brute-force enumeration"
    )
    for p in (compute, crosscheck):
        p.add_argument("--shape", required=True, choices=["2x2", "1xW"])
        p.add_argument("--w", type=int, help="width parameter (required for 1xW)")
        p.add_argument("--order", type=int, required=True, help="total-degree truncation")
    compute.add_argument("--format", choices=["json", "csv"], default="json")

    verify = sub.add_parser("verify", help="run the q-series identity suite")
    verify.add_argument("--order", type=int, required=True, help="q-order of the checks")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        config = RunConfig(
            command=ns.command,
            order=ns.order,
            shape=getattr(ns, "shape", None),
            w=getattr(ns, "w", None),
            fmt=getattr(ns, "format", "json"),
        )
        if config.command != "verify":
            config.banana_shape()
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return run(config)
    except InvariantError as exc:
        print(f"bananagv: internal invariant violated: {exc}", file=sys.stderr)
        return 3
