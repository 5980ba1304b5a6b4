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

``compute`` writes its table as it goes: the head (shape, order and
variables), then one coefficient row at a time, then the close, so the
output is never held as one document or one string.  The table itself is
built in full before the first write, so an ``InvariantError`` leaves
standard output empty.

Exit status: 0 on success, 1 when a check fails, 2 on a usage error, and 3
when a computation breaks an internal invariant (``InvariantError``); the
last prints one line on standard error.

Inputs are capped so that every accepted run finishes: ``--order`` at most 32
for ``compute`` and ``crosscheck`` and at most 256 for ``verify``, and
``--w`` at most 6.  Larger values are a usage error.  The README's "Command
line" section records the time and peak memory of runs at the caps.

Each input is checked in one place.  ``argparse`` refuses an unknown
subcommand and a missing or non-integer option.  ``RunConfig`` checks the
rest when it is constructed: the command, the order's type, sign and cap,
and the format; ``verify`` refuses a shape or a width, and ``compute`` and
``crosscheck`` parse theirs through :meth:`RunConfig.banana_shape`.  There
:func:`parse_shape` refuses an unknown or missing selector and a missing or
stray ``--w``, :class:`BananaShape` refuses a width that is not an int or
is below 1, and the cap is applied to the parsed width.  ``main`` turns a
``ValueError`` from the constructor into a usage error, so every
``RunConfig`` that ``run`` receives is valid.
"""
from __future__ import annotations

import argparse
import json
import sys
from collections import namedtuple
from typing import IO

from .geometry import BananaShape, parse_shape, registry_for
from .gvpf import cross_check, gv_table
from .qseries import check_identities
from .series import InvariantError, _as_order

__all__ = ["RunConfig", "build_parser", "run", "main"]

#: Largest accepted ``--order`` per command (see the module docstring).
MAX_ORDER = {"compute": 32, "crosscheck": 32, "verify": 256}

#: Largest accepted ``--w``.
MAX_W = 6


class RunConfig(namedtuple("RunConfig", "command order shape w fmt")):
    """One validated invocation: ``command`` is "compute", "verify" or
    "crosscheck", ``shape`` a selector for :func:`parse_shape`, which
    ``compute`` and ``crosscheck`` require and construction parses."""

    __slots__ = ()

    def __new__(
        cls, command: str, order: int, shape: str | None = None, w: int | None = None, fmt="json"
    ):
        if command not in ("compute", "verify", "crosscheck"):
            raise ValueError(f"unknown command {command!r}")
        order = _as_order(order)
        if command == "verify" and order < 1:
            raise ValueError("order must be at least 1 for verify")
        if order > MAX_ORDER[command]:
            raise ValueError(f"order must be at most {MAX_ORDER[command]} for {command}")
        if fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {fmt!r}")
        self = super().__new__(cls, command, order, shape, w, fmt)
        if command == "verify":
            if shape is not None or w is not None:
                raise ValueError("verify takes no shape")
        elif self.banana_shape().w > MAX_W:
            raise ValueError(f"width must be at most {MAX_W}")
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own skips __new__, and so would _replace, which calls it
        return cls(*iterable)

    def banana_shape(self) -> BananaShape:
        return parse_shape(self.shape, self.w)


def _write_json(out: IO[str], config: RunConfig, shape: BananaShape, table) -> None:
    head: dict = {"shape": config.shape}
    if shape.v == 1:
        head["w"] = shape.w
    head["order"] = table.order
    head["variables"] = list(registry_for(shape).names)
    # the head without its closing brace, then one row at a time
    out.write(json.dumps(head, separators=(",", ":"))[:-1] + ',"coefficients":[')
    sep = ""
    for exps, value in table.entries:
        out.write(f'{sep}{{"exponents":[{",".join(map(str, exps))}],"value":"{value}"}}')
        sep = ","
    out.write("]}\n")


def _write_csv(out: IO[str], shape: BananaShape, table) -> None:
    out.write(",".join(registry_for(shape).names) + ",value\n")
    for exps, value in table.entries:
        out.write(f"{','.join(map(str, exps))},{value}\n")


def run(config: RunConfig, out: IO[str] | None = None, err: IO[str] | None = None) -> int:
    """Execute a configuration; returns the process exit status.  The streams
    default to ``sys.stdout`` and ``sys.stderr`` as they are at call time."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if config.command == "compute":
        shape = config.banana_shape()
        table = gv_table(shape, config.order)
        if config.fmt == "json":
            _write_json(out, config, shape, table)
        else:
            _write_csv(out, shape, table)
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
        p.add_argument("--shape", required=True, metavar="{2x2,1xW}")
        p.add_argument("--w", type=int, help="width parameter (required for 1xW)")
        p.add_argument("--order", type=int, required=True, help="total-degree truncation")
    compute.add_argument("--format", metavar="{json,csv}", default="json")

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
    except ValueError as exc:
        parser.error(str(exc))
    try:
        return run(config)
    except InvariantError as exc:
        print(f"bananagv: internal invariant violated: {exc}", file=sys.stderr)
        return 3
