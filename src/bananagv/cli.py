"""Command-line front end.

Three subcommands, all writing to standard output:

* ``compute``: emit the invariant table of a shape as JSON (default) or CSV.
* ``verify``: run the q-series identity suite at a given order.
* ``crosscheck``: compare the closed form with the sign-twisted
  enumeration at B location 0, which fixes every other location by
  rotation; on ``2x2`` it also checks the square-root formula, by squaring
  the theta form rather than taking a root.  A failed line names location
  0 and gives its coefficients.

Output for a fixed invocation is byte-deterministic (canonical graded-lex
term order, canonical JSON separators), and the JSON document round-trips:
``json.dumps(json.loads(s), separators=(",", ":")) == s.strip()``.
Coefficients are serialized as decimal strings so arbitrary-precision values
survive any JSON reader.

``compute`` writes its table straight from the certified closed-form
series: the head (shape, order and variables), then one coefficient row at
a time, each exponent key unpacked as its row is written, then the close.
The series is built and certified in full before the first write, so an
``InvariantError`` leaves standard output empty.

Exit status: 0 on success, 1 when a check fails, 2 on a usage error, 3
when a computation breaks an internal invariant (``InvariantError``), which
prints one line on standard error, and 141 (128 + SIGPIPE) when the reader
closes standard output early, which prints nothing.

Inputs are capped so that every accepted run finishes.  ``SHAPES`` is
the one table of shape selectors: the ``--shape`` metavar lists its keys,
:func:`parse_shape` reads the shape each names, and it holds the
``--order`` caps by command: 64 for ``compute --shape 2x2``, which runs
the theta form, and 32 for ``compute --shape 1xW`` and for ``crosscheck``
on both shapes (on ``2x2`` the enumeration and the squared theta form set
it).  ``MAX_VERIFY_ORDER`` caps ``verify`` at 512.
``--w`` is at most 6.  Larger values are a usage error.  The README's
"Command line" section records the time and peak memory of runs at the
caps.

Each input is checked in one place.  :func:`parse_args` reads the options
of :data:`COMMANDS` (``--opt VALUE``, ``--opt=VALUE`` or a unique prefix of
the option's name; the last of a repeated option wins) and refuses an
unknown subcommand, an unknown option or stray argument, and a missing or
non-integer option.  ``RunConfig`` checks the rest when it is constructed:
the command, the order's type and sign, and the format; ``verify`` refuses
a shape or a width, and ``compute`` and ``crosscheck`` parse theirs with
:func:`parse_shape`, which sits here beside :data:`SHAPES`: the selectors
belong to the CLI, and no library module imports this one.  It refuses an
unknown or missing selector and a missing or stray ``--w``,
:class:`BananaShape` refuses a width that is not an int or is below 1, and
the caps are applied to the parsed width and then, by command and shape, to
the order.  ``parse_args`` prints a ``ValueError`` from the constructor, as
it prints its own errors, under the subcommand's usage line and exits 2,
so every ``RunConfig`` that ``run`` receives is valid.

Each subcommand imports only the modules it runs, inside the function that
runs it: ``verify`` loads :mod:`bananagv.qseries`; ``compute`` and
``crosscheck`` load :mod:`bananagv.geometry` to parse their shape and
:mod:`bananagv.gvpf` (with ``qseries``) to run, and ``crosscheck`` loads
:mod:`bananagv.oracle` for the enumeration.  No subcommand loads ``json``:
``compute`` writes its JSON head by hand, as it writes every row.
"""
from __future__ import annotations

import os
import sys
from collections import namedtuple
from typing import IO, TYPE_CHECKING, NoReturn

from .keys import _as_order
from .series import InvariantError, TruncatedSeries

if TYPE_CHECKING:
    from .geometry import BananaShape

__all__ = ["RunConfig", "parse_shape", "parse_args", "run", "main"]

#: The ``--shape`` selectors, the one list of them: the ``(v, w)`` each
#: names, where a w of None is read from ``--w``, and the largest accepted
#: ``--order`` of each command that takes it (see the module docstring).
SHAPES = {
    "2x2": ((2, 2), {"compute": 64, "crosscheck": 32}),
    "1xW": ((1, None), {"compute": 32, "crosscheck": 32}),
}

#: Largest accepted ``--order`` of ``verify``, which takes no shape.
MAX_VERIFY_ORDER = 512

#: Largest accepted ``--w``.
MAX_W = 6

_DESCRIPTION = "Genus-0 invariant tables and consistency checks for banana configurations"

#: The ``--format`` values of ``compute``; the first is the default.
FORMATS = ("json", "csv")


def parse_shape(text: str, w: int | None = None) -> BananaShape:
    """Build a shape from a ``--shape`` selector, a key of :data:`SHAPES`:
    ``"2x2"``, or ``"1xW"`` plus ``w``."""
    # imported here, so that ``verify`` loads no ``geometry``
    from .geometry import BananaShape

    if text not in SHAPES:
        raise ValueError(f"unknown shape selector {text!r}")
    (v, fixed), _ = SHAPES[text]
    if fixed is None:
        if w is None:
            raise ValueError(f"shape {text} requires --w")
        return BananaShape(v, w)
    if w is not None:
        raise ValueError("--w is only meaningful for shape 1xW")
    return BananaShape(v, fixed)


def _braced(names) -> str:
    """argparse's metavar for a choice among ``names``."""
    return "{" + ",".join(names) + "}"


_SHAPE = ("--shape", _braced(SHAPES), "", True)
_W = ("--w", "W", "width parameter (required for 1xW)", False)
_ORDER = ("--order", "ORDER", "total-degree truncation", True)

#: Each subcommand's one-line description and its options, as (flag,
#: metavar, help, required), in the order of the help; ``--order`` and
#: ``--w`` take ints.
COMMANDS = {
    "compute": (
        "emit the invariant table of a shape",
        (_SHAPE, _W, _ORDER, ("--format", _braced(FORMATS), "", False)),
    ),
    "crosscheck": ("compare closed form against brute-force enumeration", (_SHAPE, _W, _ORDER)),
    "verify": (
        "run the q-series identity suite",
        (("--order", "ORDER", "q-order of the checks", True),),
    ),
}
_CHOICES = _braced(COMMANDS)


class RunConfig(namedtuple("RunConfig", "command order shape w fmt")):
    """One validated invocation: ``command`` is "compute", "verify" or
    "crosscheck", ``shape`` a selector for :func:`parse_shape`, which
    ``compute`` and ``crosscheck`` require and construction parses."""

    __slots__ = ()

    def __new__(
        cls, command: str, order: int, shape: str | None = None, w: int | None = None, fmt=FORMATS[0]
    ):
        if command not in COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        order = _as_order(order)
        if command == "verify" and order < 1:
            raise ValueError("order must be at least 1 for verify")
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}")
        self = super().__new__(cls, command, order, shape, w, fmt)
        if command == "verify":
            if shape is not None or w is not None:
                raise ValueError("verify takes no shape")
            cap = MAX_VERIFY_ORDER
        elif parse_shape(shape, w).w > MAX_W:
            raise ValueError(f"width must be at most {MAX_W}")
        else:
            # the shape is parsed by now, so ``shape`` is a key of the table
            cap = SHAPES[shape][1][command]
        if order > cap:
            where = "" if shape is None else f" --shape {shape}"
            raise ValueError(f"order must be at most {cap} for {command}{where}")
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's own skips __new__, and so would _replace, which calls it
        return cls(*iterable)


def _write_json(out: IO[str], config: RunConfig, pf: TruncatedSeries) -> None:
    # the head holds ints, the parsed selector and variable names such as
    # ``r0``, none of which needs escaping; then one row at a time
    w = "" if config.w is None else f',"w":{config.w}'
    names = ",".join(f'"{name}"' for name in pf.registry.names)
    out.write(
        f'{{"shape":"{config.shape}"{w},"order":{config.order},'
        f'"variables":[{names}],"coefficients":['
    )
    sep = ""
    for exps, value in pf.sorted_terms():
        out.write(f'{sep}{{"exponents":[{",".join(map(str, exps))}],"value":"{value}"}}')
        sep = ","
    out.write("]}\n")


def _write_csv(out: IO[str], pf: TruncatedSeries) -> None:
    out.write(",".join(pf.registry.names) + ",value\n")
    for exps, value in pf.sorted_terms():
        out.write(f"{','.join(map(str, exps))},{value}\n")


def run(config: RunConfig, out: IO[str] | None = None, err: IO[str] | None = None) -> int:
    """Execute a configuration; returns the process exit status.  The streams
    default to ``sys.stdout`` and ``sys.stderr`` as they are at call time."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    if config.command == "compute":
        from .gvpf import pf_for_shape

        pf = pf_for_shape(parse_shape(config.shape, config.w), config.order)
        if config.fmt == "json":
            _write_json(out, config, pf)
        else:
            _write_csv(out, pf)
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

    report = cross_check(parse_shape(config.shape, config.w), config.order)
    out.write(("PASS " if report.passed else "FAIL ") + report.describe() + "\n")
    return 0 if report.passed else 1


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: bananagv [-h] {_CHOICES} ..."
    words = [f"usage: bananagv {command} [-h]"]
    for flag, metavar, _, required in COMMANDS[command][1]:
        words.append(f"{flag} {metavar}" if required else f"[{flag} {metavar}]")
    return " ".join(words)


def _help(command: str | None) -> str:
    """argparse's layout: usage, the description, then each section with
    every help text in one column."""
    text = [_usage(command)]
    sections = {"options:": [("-h, --help", "show this help message and exit")]}
    if command is None:
        text += ["", _DESCRIPTION]
        choices = [(f"  {name}", line) for name, (line, _) in COMMANDS.items()]
        sections = {"positional arguments:": [(_CHOICES, ""), *choices], **sections}
    else:
        sections["options:"] += [(f"{f} {m}", line) for f, m, line, _ in COMMANDS[command][1]]
    # help texts start by column 24 at the latest; a longer name gets a line
    width = min(max(len(name) for rows in sections.values() for name, _ in rows), 20)
    for title, rows in sections.items():
        text += ["", title]
        for name, line in rows:
            fits = len(name) <= width
            text.append(f"  {name:<{width}}  {line}".rstrip() if fits else f"  {name}")
    return "\n".join(text) + "\n"


def _fail(command: str | None, message: str) -> NoReturn:
    prog = "bananagv" if command is None else f"bananagv {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv: list[str]) -> RunConfig:
    """The configuration a command line asks for.  After printing help it
    raises ``SystemExit(0)``, and on a usage error ``SystemExit(2)`` with the
    usage line of the subcommand, or of ``bananagv`` before one is named."""
    if not argv:
        _fail(None, "the following arguments are required: command")
    command = argv[0]
    if command not in COMMANDS:
        # ``--h`` and ``--he`` abbreviate ``--help``; ``--`` alone does not
        if command == "-h" or len(command) > 2 and "--help".startswith(command):
            sys.stdout.write(_help(None))
            raise SystemExit(0)
        choices = ", ".join(map(repr, COMMANDS))
        _fail(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    options = COMMANDS[command][1]
    flags = ["--help"] + [flag for flag, *_ in options]
    values: dict[str, str | int] = {}
    # as argparse does, an unknown token is reported only after the rest
    # parsed, so a later ``-h`` still prints help
    unrecognized = []
    tokens = iter(argv[1:])
    for token in tokens:
        name, eq, value = token.partition("=")
        matches = [flag for flag in flags if flag.startswith(name)] if name[:2] == "--" else []
        if len(matches) > 1:
            _fail(command, f"ambiguous option: {token} could match {', '.join(matches)}")
        if token == "-h" or matches == ["--help"]:
            if eq:
                _fail(command, f"argument -h/--help: ignored explicit argument {value!r}")
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        if not matches:
            unrecognized.append(token)
            continue
        (flag,) = matches
        if not eq:
            # the next token is the value even when it looks like ``-1``
            value = next(tokens, None)
            if value is None:
                _fail(command, f"argument {flag}: expected one argument")
        if flag in ("--order", "--w"):
            try:
                value = int(value)
            except ValueError:
                _fail(command, f"argument {flag}: invalid int value: {value!r}")
        values[flag[2:]] = value
    missing = [flag for flag, _, _, required in options if required and flag[2:] not in values]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        _fail(command, f"unrecognized arguments: {' '.join(unrecognized)}")
    fmt = values.get("format", FORMATS[0])
    try:
        return RunConfig(command, values["order"], values.get("shape"), values.get("w"), fmt)
    except ValueError as exc:
        _fail(command, str(exc))


def main(argv: list[str] | None = None) -> int:
    try:
        try:
            return run(parse_args(sys.argv[1:] if argv is None else argv))
        finally:
            # flushed here, and not at exit, so that a closed pipe is
            # caught below, also after help has raised SystemExit
            sys.stdout.flush()
    except InvariantError as exc:
        print(f"bananagv: internal invariant violated: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader is gone; send what is still buffered to /dev/null so
        # the interpreter's flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
