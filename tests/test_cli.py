"""Tests for the command-line front end: formats, determinism, exit codes."""
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bananagv
from bananagv import gvpf
from bananagv.cli import RunConfig, main, run
from bananagv.geometry import registry_for
from bananagv.gvpf import gv_table
from bananagv.series import InvariantError

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


def run_child(argv):
    """Run a fresh interpreter that imports the ``bananagv`` under test."""
    src = str(Path(bananagv.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, check=True
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


def _whole_document_json(config, shape, table):
    doc = {"shape": config.shape}
    if shape.v == 1:
        doc["w"] = shape.w
    doc["order"] = table.order
    doc["variables"] = list(registry_for(shape).names)
    doc["coefficients"] = [
        {"exponents": list(exps), "value": str(value)} for exps, value in table.entries
    ]
    return json.dumps(doc, separators=(",", ":")) + "\n"


def _whole_document_csv(config, shape, table):
    lines = [",".join(registry_for(shape).names) + ",value"]
    for exps, value in table.entries:
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
            banana = config.banana_shape()
            out = io.StringIO()
            assert run(config, out=out) == 0
            expected = reference(config, banana, gv_table(banana, order))
            assert out.getvalue() == expected, (order, fmt)


def test_module_entry_point_matches_in_process_output():
    args = ["compute", "--shape", "2x2", "--order", "1"]
    _, expected, _ = invoke(args)
    assert run_child(["-m", "bananagv", *args]).stdout == expected


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # both cost start-up on every run; compared against the modules the
    # child had loaded before the import, whatever its ``site`` brought in
    probe = (
        "import sys; before = set(sys.modules); import bananagv.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))"
    )
    assert run_child(["-c", probe]).stdout == "[]\n"


@pytest.mark.parametrize("name", sorted(REFERENCE["calls"]))
def test_stdout_matches_the_benchmark_reference_digest(name, capsys):
    call = REFERENCE["calls"][name]
    assert main(call["argv"]) == 0
    out = capsys.readouterr().out.encode()
    assert len(out) == call["bytes"]
    assert hashlib.sha256(out).hexdigest() == call["sha256"]


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


def test_crosscheck_single_banana():
    code, out, _ = invoke(["crosscheck", "--shape", "1xW", "--w", "1", "--order", "5"])
    assert code == 0
    assert out.startswith("PASS ")


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
    ],
)
def test_usage_errors_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    capsys.readouterr()  # swallow argparse noise


@pytest.mark.parametrize("args", [args for _, args in BAD_SHAPES], ids=str)
def test_bad_shapes_are_refused_at_construction(args):
    with pytest.raises(ValueError):
        RunConfig(*args)


def test_zero_width_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["compute", "--shape", "1xW", "--w", "0", "--order", "3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "w must be at least 1" in err


# The documented input caps: --order 32 for compute and crosscheck, 256 for
# verify, --w 6.


@pytest.mark.parametrize(
    "argv,message",
    [
        (["compute", "--shape", "2x2", "--order", "33"], "order must be at most 32 for compute"),
        (
            ["crosscheck", "--shape", "1xW", "--w", "1", "--order", "33"],
            "order must be at most 32 for crosscheck",
        ),
        (["verify", "--order", "257"], "order must be at most 256 for verify"),
        (["compute", "--shape", "1xW", "--w", "7", "--order", "3"], "width must be at most 6"),
        (["crosscheck", "--shape", "1xW", "--w", "7", "--order", "3"], "width must be at most 6"),
        # a stray --w is refused as stray, whatever its value
        (
            ["compute", "--shape", "2x2", "--w", "7", "--order", "3"],
            "--w is only meaningful for shape 1xW",
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
    assert RunConfig("compute", 32, "2x2").order == 32
    assert RunConfig("crosscheck", 32, "1xW", w=6).banana_shape().w == 6
    assert RunConfig("compute", 32, "1xW", w=6).banana_shape().w == 6
    assert RunConfig("verify", 256).order == 256


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
    with pytest.raises(ValueError, match="order must be at most 32 for compute"):
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


def test_main_returns_zero_on_success(capsys):
    assert main(["compute", "--shape", "1xW", "--w", "1", "--order", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_invariant_violation_exits_3_with_one_line(fmt, monkeypatch, capsys):
    def broken(w, N):
        raise InvariantError("constant term must count the B locations")

    monkeypatch.setattr(gvpf, "pf_1w", broken)
    argv = ["compute", "--shape", "1xW", "--w", "2", "--order", "3", "--format", fmt]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "constant term must count the B locations" in captured.err
