"""Tests for the command-line front end: formats, determinism, exit codes,
help, the parser against the argparse one it replaced, and the modules each
entry point loads."""
import argparse
import ast
import contextlib
import hashlib
import importlib
import io
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import bananagv
from bananagv import gvpf, qseries
from bananagv.cli import RunConfig, main, parse_args, parse_shape, run
from bananagv.geometry import BananaShape, registry_for
from bananagv.gvpf import pf_for_shape
from bananagv.series import InvariantError, TruncatedSeries, polynomial

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)

EXPECTED_11_CSV = """\
r0,s,value
0,0,1
0,1,-2
1,0,-2
0,2,1
1,1,8
2,0,1
1,2,-12
2,1,-12
1,3,8
2,2,39
3,1,8
"""


def child_env():
    """The environment of a fresh interpreter that imports the ``bananagv``
    under test."""
    src = str(Path(bananagv.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def run_child(argv):
    """Run a fresh interpreter that imports the ``bananagv`` under test."""
    return subprocess.run(
        [sys.executable, *argv], env=child_env(), capture_output=True, text=True, check=True
    )


def invoke(argv):
    """Run ``main`` in process; returns its exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# ----------------------------------------------------------------- compute


def test_compute_csv_single_banana():
    code, out, err = invoke(
        ["compute", "--shape", "1xW", "--w", "1", "--order", "4", "--format", "csv"]
    )
    assert code == 0 and err == ""
    assert out == EXPECTED_11_CSV


def test_compute_csv_2x2_header_and_first_row():
    code, out, _ = invoke(["compute", "--shape", "2x2", "--order", "2", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r0,r1,s0,s1,value"
    assert lines[1] == "0,0,0,0,2"


def test_compute_json_document_shape():
    code, out, _ = invoke(["compute", "--shape", "1xW", "--w", "2", "--order", "3"])
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["shape", "w", "order", "variables", "coefficients"]
    assert doc["shape"] == "1xW" and doc["w"] == 2 and doc["order"] == 3
    assert doc["variables"] == ["r0", "r1", "s"]
    assert doc["coefficients"][0] == {"exponents": [0, 0, 0], "value": "2"}
    assert all(isinstance(row["value"], str) for row in doc["coefficients"])


def test_compute_json_omits_w_for_2x2():
    _, out, _ = invoke(["compute", "--shape", "2x2", "--order", "1"])
    doc = json.loads(out)
    assert list(doc) == ["shape", "order", "variables", "coefficients"]


def test_json_output_is_deterministic_and_round_trips():
    args = ["compute", "--shape", "2x2", "--order", "3"]
    _, first, _ = invoke(args)
    _, second, _ = invoke(args)
    assert first == second
    assert json.dumps(json.loads(first), separators=(",", ":")) == first.strip()


def _whole_document_json(config, shape, pf):
    doc = {"shape": config.shape}
    if shape.v == 1:
        doc["w"] = shape.w
    doc["order"] = pf.order
    doc["variables"] = list(registry_for(shape).names)
    doc["coefficients"] = [
        {"exponents": list(exps), "value": str(value)} for exps, value in pf.sorted_terms()
    ]
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _whole_document_csv(config, shape, pf):
    lines = [",".join(registry_for(shape).names) + ",value"]
    for exps, value in pf.sorted_terms():
        lines.append(",".join(str(e) for e in exps) + f",{value}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "shape,w,top",
    [("1xW", w, 8) for w in range(1, 7)] + [("2x2", None, 12)],
    ids=[f"1x{w}" for w in range(1, 7)] + ["2x2"],
)
def test_streamed_tables_match_the_whole_document_serializers(shape, w, top):
    # ``run`` writes row by row; the reference builds each document whole
    for order in range(top + 1):
        for fmt, reference in (("json", _whole_document_json), ("csv", _whole_document_csv)):
            config = RunConfig("compute", order, shape, w, fmt)
            banana = parse_shape(shape, w)
            out = io.StringIO()
            assert run(config, out=out) == 0
            expected = reference(config, banana, pf_for_shape(banana, order))
            assert out.getvalue() == expected, (order, fmt)


def test_module_entry_point_matches_in_process_output():
    # a fresh interpreter imports each subcommand's modules itself, so an
    # import that went missing from ``cli`` fails here and not in process
    for args in (
        ["compute", "--shape", "2x2", "--order", "1"],
        ["compute", "--shape", "1xW", "--w", "2", "--order", "5", "--format", "csv"],
        ["crosscheck", "--shape", "1xW", "--w", "2", "--order", "6"],
        ["verify", "--order", "4"],
    ):
        code, expected, _ = invoke(args)
        child = run_child(["-m", "bananagv", *args])
        assert (child.returncode, child.stdout) == (code, expected), args


# sha256 and byte length of ``compute --shape 2x2 --order 32`` as the
# square-root route wrote it, before ``compute`` served the theta form
ORDER_32_2X2 = {
    "json": ("20ee34aade7ed37c63678fbc095dea44caf70bfc455a3b48093d614f1ff31536", 211454),
    "csv": ("84b0d67b55f535d64db4901206e0916522286d4c49775065c3aa059cafd2553e", 71904),
}


@pytest.mark.parametrize("fmt", sorted(ORDER_32_2X2))
def test_compute_2x2_serves_the_theta_form_with_the_square_root_bytes(fmt, monkeypatch):
    def square_root_route(N):
        raise AssertionError("compute reached pf_22")

    monkeypatch.setattr(gvpf, "pf_22", square_root_route)
    out = io.StringIO()
    assert run(RunConfig("compute", 32, "2x2", fmt=fmt), out=out) == 0
    data = out.getvalue().encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == ORDER_32_2X2[fmt]


@pytest.mark.parametrize("name", sorted(REFERENCE["calls"]))
def test_stdout_matches_the_benchmark_reference_digest(name, capsys):
    call = REFERENCE["calls"][name]
    assert main(call["argv"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == call["bytes"]
    assert hashlib.sha256(out).hexdigest() == call["sha256"]


# ------------------------------------------------ what each entry point loads

# ``site`` preloads different modules on each Python, so only the package's
# modules and these are compared; each would cost start-up on every run, and
# no entry point loads any of them (``compute`` writes its JSON by hand)
WATCHED = ("bananagv", "json", "dataclasses", "inspect", "argparse", "gettext", "locale")

CORE = ["bananagv", "bananagv.keys", "bananagv.series"]
ENGINE = ["bananagv.geometry", "bananagv.gvpf", "bananagv.qseries"]
RUN_MAIN = (
    "import runpy; sys.argv = ['bananagv', {}]\n"
    "try: runpy.run_module('bananagv', run_name='__main__', alter_sys=True)\n"
    "except SystemExit: pass"
)


@pytest.mark.parametrize(
    "code,expected",
    [
        ("import bananagv", CORE),
        (
            "import bananagv; bananagv.parse_shape('1xW', w=2)",
            CORE + ["bananagv.cli", "bananagv.geometry"],
        ),
        ("import bananagv.cli", CORE + ["bananagv.cli"]),
        (
            RUN_MAIN.format("'verify', '--order', '4'"),
            CORE + ["bananagv.cli", "bananagv.qseries"],
        ),
        (
            RUN_MAIN.format("'crosscheck', '--shape', '1xW', '--w', '1', '--order', '3'"),
            CORE + ["bananagv.cli", "bananagv.oracle"] + ENGINE,
        ),
        (
            RUN_MAIN.format("'compute', '--shape', '2x2', '--order', '1', '--format', 'csv'"),
            CORE + ["bananagv.cli"] + ENGINE,
        ),
        (
            RUN_MAIN.format("'compute', '--shape', '1xW', '--w', '2', '--order', '1'"),
            CORE + ["bananagv.cli"] + ENGINE,
        ),
    ],
    ids=[
        "import bananagv", "library parse_shape", "import bananagv.cli", "verify", "crosscheck",
        "compute csv", "compute json",
    ],
)
def test_each_entry_point_loads_only_the_modules_it_runs(code, expected):
    # compared against the modules the child had loaded before ``code``
    probe = (
        f"import sys\nbefore = set(sys.modules)\n{code}\n"
        f"sys.stderr.write(repr(sorted(m for m in set(sys.modules) - before "
        f"if m.split('.')[0] in {WATCHED!r})))"
    )
    assert run_child(["-c", probe]).stderr == repr(sorted(expected))


PACKAGE_SOURCES = sorted(Path(bananagv.__file__).parent.glob("*.py"))


def imported_modules(path):
    """Every module an import statement anywhere in ``path`` may load, with
    relative imports read as ``bananagv`` ones; ``from m import n`` counts
    both ``m`` and ``m.n``."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["bananagv" if node.level else "", node.module]))
            modules.update([base] + [f"{base}.{alias.name}" for alias in node.names])
    return modules


def test_only_the_front_end_imports_the_cli():
    # the shape selectors and caps live in ``cli``, so a library module that
    # imported it would load the front end under the library; ``__main__``
    # is the one importer, which also shows that the scan finds imports
    importers = {path.name for path in PACKAGE_SOURCES if "bananagv.cli" in imported_modules(path)}
    assert importers == {"__main__.py"}


def test_the_key_layer_imports_no_other_package_module():
    # ``series`` and every module above it build on ``keys``, never the
    # other way round
    keys = Path(bananagv.__file__).with_name("keys.py")
    assert {m for m in imported_modules(keys) if m.split(".")[0] == "bananagv"} == set()


def test_only_the_key_layer_reads_a_keys_digits():
    # the digit width and the registry's packed-key layout stay inside
    # ``keys``; every other module packs, unpacks and rotates keys through
    # the registry's methods
    readers = {}
    for path in PACKAGE_SOURCES:
        if path.name == "keys.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (
                node.id if isinstance(node, ast.Name)
                else node.name if isinstance(node, ast.alias)
                else node.attr if isinstance(node, ast.Attribute)
                else None
            )
            if name in {"_DIGIT_BITS", "_offset", "_struct"}:
                readers.setdefault(path.name, set()).add((node.lineno, name))
    assert readers == {}


def test_no_module_takes_a_large_heap_to_compile():
    # without cached bytecode, as the benchmark runs, every command compiles
    # each module it loads from source, and the largest compile's transient
    # heap sets the command's peak memory; ``keys`` is a module of its own,
    # apart from ``series``, to keep that transient small
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    peaks = {}
    try:
        for path in PACKAGE_SOURCES:
            source = path.read_bytes()
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            compile(source, str(path), "exec", dont_inherit=True)
            peaks[path.name] = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    largest = max(peaks, key=peaks.get)
    assert peaks[largest] < 1.6 * 2**20, f"{largest} takes {peaks[largest] / 2**20:.2f} MiB"


def test_every_public_name_is_its_home_modules_object():
    homes = {
        "keys": ["VariableRegistry"],
        "series": ["InvariantError", "TruncatedSeries"],
        "cli": ["parse_shape"],
        "geometry": ["BananaShape", "BranchSpec"],
        "gvpf": ["CrossCheckReport", "cross_check", "pf_1w", "pf_22", "pf_22_theta"],
        "oracle": ["behrend_twist", "naive_pf"],
        "qseries": ["check_identities", "elliptic_genus_c2", "jacobi_phi"],
    }
    assert sorted(n for names in homes.values() for n in names) == sorted(bananagv.__all__)
    for module, names in homes.items():
        home = importlib.import_module(f"bananagv.{module}")
        for name in names:
            assert getattr(bananagv, name) is getattr(home, name), name


def test_star_import_and_dir_cover_the_public_names():
    namespace: dict = {}
    exec("from bananagv import *", namespace)
    assert set(bananagv.__all__) <= set(namespace)
    assert set(bananagv.__all__) <= set(dir(bananagv))
    assert {"__version__", "series"} <= set(dir(bananagv))


def test_an_unknown_public_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'bananagv' has no attribute 'frobnicate'"):
        bananagv.frobnicate


def test_from_import_still_loads_a_submodule():
    probe = "from bananagv import gvpf; print(gvpf.__name__, gvpf.pf_for_shape.__name__)"
    assert run_child(["-c", probe]).stdout == "bananagv.gvpf pf_for_shape\n"


def test_version_is_a_literal_that_needs_no_import():
    # ``pyproject.toml`` reads it with ``attr =``, which parses the source
    tree = ast.parse(Path(bananagv.__file__).read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__version__"]
    ]
    assert ast.literal_eval(value) == bananagv.__version__


# ------------------------------------------------------- verify, crosscheck


def test_verify_all_identities_pass(capsys):
    # ``run`` writes to the streams it is given, not to sys.stdout
    out, err = io.StringIO(), io.StringIO()
    assert run(RunConfig("verify", 3), out=out, err=err) == 0
    assert capsys.readouterr() == ("", "")
    assert err.getvalue() == ""
    lines = out.getvalue().splitlines()
    assert len(lines) == 4
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_reports_each_failed_identity(monkeypatch):
    original = qseries._triple_product

    # theta is (1 - p) times the triple product, so a term added there must
    # depend on p to break theta's oddness: with q p, theta gains q p - q p^2
    def perturbed(N):
        return original(N) + polynomial(qseries.QP, {(1, 1): 1}, N)

    monkeypatch.setattr(qseries, "_triple_product", perturbed)
    out, err = io.StringIO(), io.StringIO()
    assert run(RunConfig("verify", 6), out=out, err=err) == 1
    assert out.getvalue().splitlines() == [
        "FAIL eta6_phi_equals_theta_squared: series differ",
        "PASS index_one_shift: exact to order 6",
        "PASS p_inversion_symmetry: exact to order 6",
        "FAIL theta_oddness: series differ",
    ]
    assert err.getvalue() == "2 identity check(s) failed\n"


def test_crosscheck_single_banana():
    code, out, _ = invoke(["crosscheck", "--shape", "1xW", "--w", "1", "--order", "5"])
    assert code == 0
    assert out.startswith("PASS ")


def test_crosscheck_2x2_passes_on_both_routes():
    code, out, _ = invoke(["crosscheck", "--shape", "2x2", "--order", "5"])
    assert (code, out) == (
        0,
        "PASS shape 2x2 order 5: closed form (theta and square-root routes) matches "
        "sign-twisted enumeration\n",
    )


def _plus_r0_s0(pf, N, c=1):
    return pf + polynomial(pf.registry, {(1, 0, 1, 0): c}, N)


# a perturbation of what each 2x2 route builds at B location 0, and the
# coefficient at r0 s0 it then gives there, where the enumeration reads 3
PERTURBED_ROUTES = {
    "_closed_location_0": lambda original: lambda shape, N: _plus_r0_s0(original(shape, N), N),
    # the square of a root one more at r0 s0
    "_phi_ratio": lambda original: lambda N: (
        (root := _plus_r0_s0(original(N).sqrt_unit(), N)) * root
    ),
}


@pytest.mark.parametrize(
    "name,route", [("_closed_location_0", "theta route"), ("_phi_ratio", "square-root route")]
)
def test_crosscheck_2x2_names_the_route_that_mismatches(name, route, monkeypatch):
    monkeypatch.setattr(gvpf, name, PERTURBED_ROUTES[name](getattr(gvpf, name)))
    code, out, _ = invoke(["crosscheck", "--shape", "2x2", "--order", "5"])
    assert (code, out) == (
        1,
        f"FAIL shape 2x2 order 5: at B location 0, mismatch at (1, 0, 1, 0): "
        f"closed form ({route}) 4 vs twisted enumeration 3\n",
    )


def test_crosscheck_2x2_reports_a_ratio_that_is_no_square(monkeypatch):
    # sqrt_unit refuses R + 2 r0 s0, whose root is not integral; the check
    # still fails on one line, with the coefficient of the root at r0 s0,
    # one more
    original = gvpf._phi_ratio
    monkeypatch.setattr(gvpf, "_phi_ratio", lambda N: _plus_r0_s0(original(N), N, 2))
    with pytest.raises(ValueError, match="not exact over the integers"):
        gvpf._phi_ratio(5).sqrt_unit()
    assert invoke(["crosscheck", "--shape", "2x2", "--order", "5"]) == (
        1,
        "FAIL shape 2x2 order 5: at B location 0, mismatch at (1, 0, 1, 0): "
        "closed form (square-root route) 4 vs twisted enumeration 3\n",
        "",
    )


def test_crosscheck_1xw_fails_at_location_0_where_the_sums_agree(monkeypatch):
    # +1 at r1 s and -1 at r0 s of location 0 rotate to -1 and +1 at
    # location 1, so the sum over locations is unchanged; the check compares
    # location 0 and fails there
    original = gvpf._closed_location_0
    shift = {(0, 1, 1): 1, (1, 0, 1): -1}
    shape = parse_shape("1xW", 2)
    summed = pf_for_shape(shape, 5)
    monkeypatch.setattr(
        gvpf,
        "_closed_location_0",
        lambda shape, N: original(shape, N) + polynomial(registry_for(shape), shift, N),
    )
    assert pf_for_shape(shape, 5) == summed
    assert invoke(["crosscheck", "--shape", "1xW", "--w", "2", "--order", "5"]) == (
        1,
        "FAIL shape 1x2 order 5: at B location 0, mismatch at (0, 1, 1): "
        "closed form 5 vs twisted enumeration 4\n",
        "",
    )


def test_crosscheck_2x2_takes_no_square_root(monkeypatch):
    # the square-root route is checked by squaring the theta route, so no
    # command reaches sqrt_unit; the line is the one the root gave
    def sqrt_unit(self):
        raise AssertionError("crosscheck reached sqrt_unit")

    monkeypatch.setattr(TruncatedSeries, "sqrt_unit", sqrt_unit)
    assert invoke(["crosscheck", "--shape", "2x2", "--order", "6"]) == (
        0,
        "PASS shape 2x2 order 6: closed form (theta and square-root routes) matches "
        "sign-twisted enumeration\n",
        "",
    )


# ------------------------------------------------------------- exit codes


# usage errors in the shape or the width, each with the RunConfig arguments
# it names
BAD_SHAPES = [
    (["compute", "--shape", "1xW", "--order", "3"], ("compute", 3, "1xW")),  # missing --w
    # stray --w
    (["compute", "--shape", "2x2", "--w", "2", "--order", "3"], ("compute", 3, "2x2", 2)),
    (["compute", "--shape", "3x3", "--order", "3"], ("compute", 3, "3x3")),  # unknown shape
]


@pytest.mark.parametrize(
    "argv",
    [argv for argv, _ in BAD_SHAPES]
    + [
        ["compute", "--shape", "2x2", "--order", "-1"],  # negative order
        ["compute", "--shape", "2x2"],  # missing --order
        ["verify", "--order", "0"],  # verify needs a positive order
        ["frobnicate"],  # unknown subcommand
        ["compute", "--shape", "2x2", "--order", "3", "--format", "xml"],  # unknown format
        [],  # no subcommand
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()  # swallow the usage message


@pytest.mark.parametrize("args", [args for _, args in BAD_SHAPES], ids=str)
def test_bad_shapes_are_refused_at_construction(args):
    with pytest.raises(ValueError):
        RunConfig(*args)


def test_usage_errors_after_parsing_print_the_subcommands_usage_line(capsys):
    # as the parser's own errors do, not the top-level ``bananagv {compute,...}``
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--shape", "2X2", "--order", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bananagv compute [-h] --shape")
    assert "bananagv compute: error: unknown shape selector '2X2'" in err
    # a stray argument, which argparse reported under the top-level line
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--shape", "2x2", "--order", "3", "extra"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: bananagv compute [-h] --shape")
    assert "bananagv compute: error: unrecognized arguments: extra" in err
    with pytest.raises(SystemExit):
        main(["verify", "--order", "0"])
    assert capsys.readouterr().err.startswith("usage: bananagv verify [-h] --order ORDER\n")


def test_zero_width_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--shape", "1xW", "--w", "0", "--order", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "w must be at least 1" in err


# The documented input caps: --order 64 for compute on 2x2, 32 for compute on
# 1xW and for crosscheck, 512 for verify, --w 6.


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["compute", "--shape", "1xW", "--w", "1", "--order", "33"],
            "order must be at most 32 for compute",
        ),
        (
            ["crosscheck", "--shape", "1xW", "--w", "1", "--order", "33"],
            "order must be at most 32 for crosscheck",
        ),
        (["verify", "--order", "513"], "order must be at most 512 for verify"),
        (["compute", "--shape", "1xW", "--w", "7", "--order", "3"], "width must be at most 6"),
        (["crosscheck", "--shape", "1xW", "--w", "7", "--order", "3"], "width must be at most 6"),
        # a stray --w is refused as stray, whatever its value
        (
            ["compute", "--shape", "2x2", "--w", "7", "--order", "3"],
            "--w is only meaningful for shape 1xW",
        ),
        # compute serves 2x2 from the theta form; crosscheck also enumerates
        (
            ["compute", "--shape", "2x2", "--order", "65"],
            "order must be at most 64 for compute --shape 2x2",
        ),
        (
            ["crosscheck", "--shape", "2x2", "--order", "33"],
            "order must be at most 32 for crosscheck --shape 2x2",
        ),
    ],
)
def test_values_above_the_caps_exit_2(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and message in err


def test_values_at_the_caps_build_a_run_config():
    assert RunConfig("compute", 64, "2x2").order == 64
    assert RunConfig("crosscheck", 32, "2x2").order == 32
    for command in ("crosscheck", "compute"):
        config = RunConfig(command, 32, "1xW", w=6)
        assert parse_shape(config.shape, config.w) == BananaShape(1, 6)
    assert RunConfig("verify", 512).order == 512


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig("explode", 3)
    with pytest.raises(ValueError):
        RunConfig("compute", -1, "2x2")
    with pytest.raises(ValueError):
        RunConfig("verify", 0)
    with pytest.raises(ValueError):
        RunConfig("compute", 3, "2x2", fmt="xml")
    # compute and crosscheck parse their shape when the config is built
    with pytest.raises(ValueError):
        RunConfig("compute", 3, "2x2", w=0)
    with pytest.raises(ValueError):
        RunConfig("compute", 3, "1xW")
    with pytest.raises(ValueError):
        RunConfig("crosscheck", 3)
    # verify refuses a shape and a width, whatever their values
    with pytest.raises(ValueError, match="verify takes no shape"):
        RunConfig("verify", 3, "2x2")
    with pytest.raises(ValueError, match="verify takes no shape"):
        RunConfig("verify", 3, None, 9)


def test_replace_and_make_validate_run_configs():
    # namedtuple's own _make, which _replace calls, skips __new__
    config = RunConfig("compute", 3, "2x2")
    assert config._replace(order=32).order == 32
    with pytest.raises(ValueError, match="order must be at most 64 for compute --shape 2x2"):
        config._replace(order=10**6)
    with pytest.raises(ValueError, match="verify takes no shape"):
        config._replace(command="verify")
    with pytest.raises(ValueError, match="width must be at most 6"):
        RunConfig._make(("crosscheck", 3, "1xW", 7, "json"))


def test_run_config_order_and_width_must_be_ints():
    for bad in (3.0, True):
        with pytest.raises(TypeError, match="order must be an int"):
            RunConfig("compute", bad, "2x2")
        with pytest.raises(TypeError, match="shape parameter w must be an int"):
            RunConfig("crosscheck", 3, "1xW", w=bad)


def test_parse_shape():
    assert parse_shape("2x2") == BananaShape(2, 2)
    assert parse_shape("1xW", w=3) == BananaShape(1, 3)
    with pytest.raises(ValueError):
        parse_shape("2x2", w=2)
    with pytest.raises(ValueError):
        parse_shape("1xW")
    with pytest.raises(ValueError):
        parse_shape("1xW", w=0)
    with pytest.raises(ValueError):
        parse_shape("3x3")
    for bad in (2.0, 0.5):
        with pytest.raises(TypeError, match="shape parameter w must be an int"):
            parse_shape("1xW", w=bad)


def test_main_returns_zero_on_success(capsys):
    assert main(["compute", "--shape", "1xW", "--w", "1", "--order", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_invariant_violation_exits_3_with_one_line(fmt, monkeypatch, capsys):
    def broken(shape, N):
        raise InvariantError("pf_1w constant term at B location 0 is not 1")

    monkeypatch.setattr(gvpf, "_closed_location_0", broken)
    argv = ["compute", "--shape", "1xW", "--w", "2", "--order", "3", "--format", fmt]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "pf_1w constant term at B location 0 is not 1" in captured.err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--shape", "1xW", "--w", "2", "--order", "6"],
        ["compute", "--shape", "1xW", "--w", "2", "--order", "6", "--format", "csv"],
        ["verify", "--order", "4"],
        ["compute", "--help"],
    ],
    ids=" ".join,
)
def test_a_closed_stdout_pipe_exits_141_and_writes_no_stderr(argv, unbuffered):
    # the read end is closed before the child starts up, so its first
    # write to stdout fails, at the write or at the flush
    child = subprocess.Popen(
        [sys.executable, "-m", "bananagv", *argv],
        env={**child_env(), "PYTHONUNBUFFERED": unbuffered},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert (child.wait(), err) == (141, b"")


# ------------------------------------------------------------------ help

DESCRIPTIONS = {
    "compute": "emit the invariant table of a shape",
    "crosscheck": "compare closed form against brute-force enumeration",
    "verify": "run the q-series identity suite",
}
SHAPE_OPTIONS = [
    ("--shape {2x2,1xW}", ""),
    ("--w W", "width parameter (required for 1xW)"),
    ("--order ORDER", "total-degree truncation"),
]
OPTIONS = {
    "compute": SHAPE_OPTIONS + [("--format {json,csv}", "")],
    "crosscheck": SHAPE_OPTIONS,
    "verify": [("--order ORDER", "q-order of the checks")],
}


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"]] + [[command, "-h"] for command in DESCRIPTIONS], ids=" ".join
)
def test_help_exits_0_and_writes_only_to_stdout(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    command = f"{argv[0]} " if len(argv) == 2 else ""
    assert out.startswith(f"usage: bananagv {command}[-h]")


def test_top_level_help_lists_each_subcommand_with_its_description(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = capsys.readouterr().out
    assert out.startswith("usage: bananagv [-h] {compute,crosscheck,verify} ...\n")
    listed = re.findall(r"^    (\S+) +(.+)$", out, re.M)
    assert listed == list(DESCRIPTIONS.items())


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_subcommand_help_lists_every_option_with_its_help(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    rows = [re.split(r"  +", line.strip()) for line in out.splitlines() if line.startswith("  -")]
    assert rows[0] == ["-h, --help", "show this help message and exit"]
    assert [(row[0], row[1] if len(row) > 1 else "") for row in rows[1:]] == OPTIONS[command]


# ---------------------------------------- the parser against argparse


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser that the command line used before ``parse_args``
    replaced it; the reference of the differential test below."""
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


def argparse_config(argv):
    ns = build_parser().parse_args(argv)
    try:
        return RunConfig(
            ns.command,
            ns.order,
            getattr(ns, "shape", None),
            getattr(ns, "w", None),
            getattr(ns, "format", "json"),
        )
    except ValueError:
        raise SystemExit(2)


def outcome(parse, argv):
    """The ``RunConfig`` that ``parse`` returns, or the status it exits
    with, and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(argv)
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


CORPUS = [
    # accepted: each spelling, option order and repeat
    ["compute", "--shape", "2x2", "--order", "3"],
    ["compute", "--shape=2x2", "--order=3"],
    ["compute", "--sh", "2x2", "--ord", "3"],
    ["compute", "--s=1xW", "--w=2", "--o=5", "--f=csv"],
    ["compute", "--order", "3", "--shape", "2x2"],
    ["compute", "--shape", "2x2", "--order", "3", "--order", "5"],
    ["compute", "--shape", "3x3", "--shape", "2x2", "--order", "3"],
    ["compute", "--shape", "1xW", "--w", "3", "--order", "4", "--format", "csv"],
    ["compute", "--format", "csv", "--w", "1", "--shape", "1xW", "--order", "0"],
    ["compute", "--shape", "2x2", "--order", "3", "--format", "json"],
    ["compute", "--shape", "2x2", "--order", "3", "--format", "csv", "--format", "json"],
    ["compute", "--shape", "2x2", "--order", " 7 "],
    ["compute", "--shape", "2x2", "--order", "1_0"],
    ["compute", "--shape", "2x2", "--order", "-0"],
    ["crosscheck", "--shape", "1xW", "--w", "1", "--order", "5"],
    ["crosscheck", "--shape", "2x2", "--order", "4"],
    ["crosscheck", "--o", "4", "--s", "1xW", "--w", "6"],
    ["verify", "--order", "4"],
    ["verify", "--order=12"],
    ["verify", "--o", "1"],
    ["verify", "--order", "3", "--order", "512"],
    # help, also after a stray or unknown argument
    ["-h"],
    ["--help"],
    ["--he"],
    ["compute", "-h"],
    ["crosscheck", "--help"],
    ["verify", "--h"],
    ["compute", "--shape", "2x2", "-h"],
    ["compute", "extra", "-h"],
    ["verify", "--bogus", "--help"],
    # refused: no, unknown or misspelt subcommand
    [],
    ["frobnicate"],
    ["Compute", "--shape", "2x2", "--order", "3"],
    ["--bogus"],
    # a missing option or value
    ["compute", "--shape", "2x2"],
    ["compute", "--order", "3"],
    ["verify"],
    ["compute", "--shape", "2x2", "--order"],
    ["compute", "--shape"],
    ["compute", "--shape", "1xW", "--order", "3", "--w"],
    # a value that is not an int
    ["compute", "--shape", "2x2", "--order", "three"],
    ["compute", "--shape", "2x2", "--order", "3.0"],
    ["compute", "--shape", "2x2", "--order="],
    ["compute", "--shape", "1xW", "--w", "x", "--order", "3"],
    # a stray argument, or an option the subcommand does not take
    ["compute", "--shape", "2x2", "--order", "3", "extra"],
    ["verify", "--order", "3", "4"],
    ["crosscheck", "--shape", "2x2", "--order", "3", "--format", "csv"],
    ["crosscheck", "--shape", "2x2", "--order", "3", "--f", "csv"],
    ["verify", "--order", "3", "--w", "2"],
    ["compute", "--shape", "2x2", "--order", "3", "--bogus"],
    ["compute", "--shape", "2x2", "--order", "3", "-x"],
    ["compute", "--help=yes"],
    ["compute", "-hv"],
    # values that RunConfig refuses, a negative one among them
    ["compute", "--shape", "2x2", "--order", "-1"],
    ["compute", "--shape", "2x2", "--order=-1"],
    ["verify", "--order", "-1"],
    ["compute", "--shape", "1xW", "--w", "-1", "--order", "3"],
    ["compute", "--shape", "2x2", "--order", "3", "--format", "xml"],
    ["compute", "--shape", "2x2", "--order", "65"],
]


@pytest.mark.parametrize("argv", CORPUS, ids=lambda argv: " ".join(argv) or "no arguments")
def test_parse_args_agrees_with_argparse(argv):
    expected, _, _ = outcome(argparse_config, argv)
    result, out, err = outcome(parse_args, argv)
    assert result == expected
    if result == 0:
        assert out.startswith("usage: bananagv") and err == ""
    elif result == 2:
        assert out == "" and err.startswith("usage: bananagv")
    else:
        assert isinstance(result, RunConfig) and (out, err) == ("", "")
