"""Command-line front end.

Three subcommands, all writing to standard output:

* ``compute``: emit the invariant table of a shape as JSON (default) or CSV.
* ``verify``: run the q-series identity suite at a given order.
* ``crosscheck``: compare the closed form (on ``2x2`` both of its routes)
  with the sign-twisted enumeration.

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

Inputs are capped so that every accepted run finishes.  ``MAX_ORDER`` is
the one table of ``--order`` caps, keyed by command and shape: 64 for
``compute --shape 2x2``, which runs the theta form, 32 for ``compute
--shape 1xW`` and for ``crosscheck`` on both shapes (``2x2``'s is set by
the square-root route it also checks), and 512 for ``verify``.  ``--w`` is
at most 6.  Larger values are a usage error.  The README's "Command line"
section records the time and peak memory of runs at the caps.

Each input is checked in one place.  ``argparse`` refuses an unknown
subcommand and a missing or non-integer option.  ``RunConfig`` checks the
rest when it is constructed: the command, the order's type and sign, and
the format; ``verify`` refuses a shape or a width, and ``compute`` and
``crosscheck`` parse theirs through :meth:`RunConfig.banana_shape`.  There
:func:`parse_shape` refuses an unknown or missing selector and a missing or
stray ``--w``, :class:`BananaShape` refuses a width that is not an int or
is below 1, and the caps are applied to the parsed width and then, by
command and shape, to the order.  ``main`` turns a ``ValueError`` from the
constructor into a usage error, printed under the subcommand's usage line
as ``argparse``'s own errors are, so every ``RunConfig`` that ``run``
receives is valid.

Each subcommand imports only the modules it runs, inside the function that
runs it: ``verify`` loads :mod:`bananagv.qseries`; ``compute`` and
``crosscheck`` load :mod:`bananagv.geometry` to parse their shape and
:mod:`bananagv.gvpf` (with ``qseries`` and ``oracle``) to run.  No
subcommand loads ``json``: ``compute`` writes its JSON head by hand, as it
writes every row.
"""
from __future__ import annotations

import argparse
import sys
from collections import namedtuple
from typing import IO, TYPE_CHECKING

from .series import InvariantError, _as_order

if TYPE_CHECKING:
    from .geometry import BananaShape

__all__ = ["RunConfig", "build_parser", "run", "main"]

#: Largest accepted ``--order`` per command and shape selector (see the
#: module docstring); ``verify`` takes no shape.
MAX_ORDER = {
    ("compute", "2x2"): 64,
    ("compute", "1xW"): 32,
    ("crosscheck", "2x2"): 32,
    ("crosscheck", "1xW"): 32,
    ("verify", None): 512,
}

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
        if fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {fmt!r}")
        self = super().__new__(cls, command, order, shape, w, fmt)
        if command == "verify":
            if shape is not None or w is not None:
                raise ValueError("verify takes no shape")
        elif self.banana_shape().w > MAX_W:
            raise ValueError(f"width must be at most {MAX_W}")
        # the shape is parsed by now, so ``shape`` is a key of the table
        cap = MAX_ORDER[command, shape]
        if order > cap:
            where = "" if shape is None else f" --shape {shape}"
            raise ValueError(f"order must be at most {cap} for {command}{where}")
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own skips __new__, and so would _replace, which calls it
        return cls(*iterable)

    def banana_shape(self) -> BananaShape:
        from .geometry import parse_shape

        return parse_shape(self.shape, self.w)


def _write_json(out: IO[str], config: RunConfig, shape: BananaShape, table) -> None:
    from .geometry import registry_for

    # the head holds ints, the parsed selector and variable names such as
    # ``r0``, none of which needs escaping; then one row at a time
    w = f',"w":{shape.w}' if shape.v == 1 else ""
    names = ",".join(f'"{name}"' for name in registry_for(shape).names)
    out.write(
        f'{{"shape":"{config.shape}"{w},"order":{table.order},'
        f'"variables":[{names}],"coefficients":['
    )
    sep = ""
    for exps, value in table.entries:
        out.write(f'{sep}{{"exponents":[{",".join(map(str, exps))}],"value":"{value}"}}')
        sep = ","
    out.write("]}\n")


def _write_csv(out: IO[str], shape: BananaShape, table) -> None:
    from .geometry import registry_for

    out.write(",".join(registry_for(shape).names) + ",value\n")
    for exps, value in table.entries:
        out.write(f"{','.join(map(str, exps))},{value}\n")


def run(config: RunConfig, out: IO[str] | None = None, err: IO[str] | None = None) -> int:
    """Execute a configuration; returns the process exit status.  The streams
    default to ``sys.stdout`` and ``sys.stderr`` as they are at call time."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if config.command == "compute":
        from .gvpf import gv_table

        shape = config.banana_shape()
        table = gv_table(shape, config.order)
        if config.fmt == "json":
            _write_json(out, config, shape, table)
        else:
            _write_csv(out, shape, table)
        return 0
    if config.command == "verify":
        from .qseries import check_identities

        checks = check_identities(config.order)
        for check in checks:
            out.write(f"{'PASS' if check.passed else 'FAIL'} {check.name}: {check.detail}\n")
        failed = [c for c in checks if not c.passed]
        if failed:
            err.write(f"{len(failed)} identity check(s) failed\n")
            return 1
        return 0
    from .gvpf import cross_check

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
    for p in sub.choices.values():
        # main reports what RunConfig refuses under the subcommand's usage line
        p.set_defaults(command_parser=p)
    return parser


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        config = RunConfig(
            command=ns.command,
            order=ns.order,
            shape=getattr(ns, "shape", None),
            w=getattr(ns, "w", None),
            fmt=getattr(ns, "format", "json"),
        )
    except ValueError as exc:
        ns.command_parser.error(str(exc))
    try:
        return run(config)
    except InvariantError as exc:
        print(f"bananagv: internal invariant violated: {exc}", file=sys.stderr)
        return 3
