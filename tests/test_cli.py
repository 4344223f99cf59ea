"""Command-line front end: text grammar parsing, scenario assembly,
exit statuses, and deterministic structured output."""

import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from braidcalc.cli import (
    Scenario,
    build_parser,
    main,
    parse_hopf_monomial,
    parse_poly,
    parse_scalar,
)
from braidcalc.errors import MissingSection, SchemaError, UnknownName
from braidcalc.ring import RATIONAL, PolyAlgebra, Ring

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FIXTURES = Path(__file__).resolve().parent / "fixtures"

SERIES = Ring("series", 3)


def plane_data():
    return {
        "ring": {"kind": "rational"},
        "lie_algebra": {"generators": ["P1", "P2"]},
        "action": {
            "coordinates": ["x", "y"],
            "images": {"P1": {"x": "1"}, "P2": {"y": "1"}},
        },
    }


def test_parse_scalar():
    assert parse_scalar(RATIONAL, "1") == RATIONAL.one()
    assert parse_scalar(RATIONAL, "-2/3") == RATIONAL.scalar(Fraction(-2, 3))
    assert parse_scalar(SERIES, "h") == SERIES.h()
    got = parse_scalar(SERIES, "3/2 h^2")
    assert got == SERIES.scalar(Fraction(3, 2)) * SERIES.h(2)
    assert parse_scalar(SERIES, "1 + -1") == SERIES.zero()


def test_parse_scalar_rejects_h_over_rationals():
    with pytest.raises(SchemaError):
        parse_scalar(RATIONAL, "h")


def test_parse_scalar_rejects_non_string():
    with pytest.raises(SchemaError):
        parse_scalar(RATIONAL, 7)


@pytest.mark.parametrize("text", ["1 - - h", "h -", "-"])
def test_parse_scalar_rejects_bare_sign(text):
    """A sign with no factor after it is not the constant -1."""
    with pytest.raises(SchemaError):
        parse_scalar(SERIES, text)


def test_parse_poly():
    alg = PolyAlgebra(RATIONAL, ("x", "y"))
    p = parse_poly(alg, "1 + x^2")
    assert p == alg.one() + alg.coord(0) * alg.coord(0)
    q = parse_poly(alg, "-2/3 x^2 y + x")
    expect = (
        alg.coord(0) * alg.coord(0) * alg.coord(1)
    ).scale(RATIONAL.scalar(Fraction(-2, 3))) + alg.coord(0)
    assert q == expect


def test_parse_poly_unknown_coordinate():
    alg = PolyAlgebra(RATIONAL, ("x", "y"))
    with pytest.raises(UnknownName):
        parse_poly(alg, "x + q")


def test_parse_poly_malformed_factor():
    alg = PolyAlgebra(RATIONAL, ("x", "y"))
    for text in ("x^y", "2x", "1/2^3", "^2"):
        with pytest.raises(SchemaError):
            parse_poly(alg, text)


def test_parse_hopf_monomial():
    sc = Scenario(plane_data())
    assert parse_hopf_monomial(sc.lie, "1") == (0, 0)
    assert parse_hopf_monomial(sc.lie, "P1^2 P2") == (2, 1)
    with pytest.raises(SchemaError):
        parse_hopf_monomial(sc.lie, "2 P1")
    with pytest.raises(UnknownName):
        parse_hopf_monomial(sc.lie, "Q1")


@pytest.mark.parametrize("text", ["- - P1", "-1 -1 P1", "2 1/2 P1",
                                  "- P1", "1 P1", "-1 P1 P2"])
def test_parse_hopf_monomial_refuses_signs_and_coefficients(text):
    sc = Scenario(plane_data())
    with pytest.raises(SchemaError):
        parse_hopf_monomial(sc.lie, text)


def test_scenario_builds_structures():
    sc = Scenario(plane_data())
    assert sc.lie.generators == ("P1", "P2")
    assert sc.algebra.names == ("x", "y")
    img = sc.action.images[0]
    assert img[0] == sc.algebra.one() and img[1] == sc.algebra.zero()


def test_scenario_rejects_unknown_section():
    data = plane_data()
    data["extras"] = {}
    with pytest.raises(UnknownName):
        Scenario(data)


def test_scenario_requires_ring():
    data = plane_data()
    del data["ring"]
    with pytest.raises(MissingSection):
        Scenario(data)


def test_scenario_rejects_bad_ring_kind():
    data = plane_data()
    data["ring"] = {"kind": "float"}
    with pytest.raises(SchemaError):
        Scenario(data)


def test_scenario_rejects_h_as_generator():
    data = plane_data()
    data["lie_algebra"] = {"generators": ["h"]}
    with pytest.raises(SchemaError):
        Scenario(data)


def test_scenario_refuses_a_malformed_section_at_construction():
    """A Scenario built directly, not through the command line, parses
    every section present: a malformed metric is refused before any
    structure is built."""
    data = json.loads((SCENARIOS / "curved-metric.json").read_text())
    data["metric"] = [["1"]]
    with pytest.raises(SchemaError):
        Scenario(data)


def test_reversed_bracket_key_builds_the_same_algebra():
    """[X2, X1] = -X3 declares the same bracket as [X1, X2] = X3."""
    def heisenberg(key, coeff):
        data = plane_data()
        del data["action"]          # its images name P1 and P2
        data["lie_algebra"] = {"generators": ["X1", "X2", "X3"],
                               "brackets": {key: {"X3": coeff}}}
        return Scenario(data).lie

    forward, reversed_ = heisenberg("X1 X2", "1"), heisenberg("X2 X1", "-1")
    assert reversed_.brackets == forward.brackets
    assert reversed_.brackets == {(0, 1): {2: RATIONAL.one()}}


COMMANDS = ("check-hopf", "check-twist", "star", "cartan", "gauge",
            "levi-civita", "project", "all")


def _namespace(command, scenario, **given):
    """The parsed options of one command line: `given` over the defaults."""
    out = {"command": command, "scenario": scenario, "depth": None,
           "degree": None, "order": None, "seed": None, "format": "text"}
    out.update(given)
    return out


# (command line, its parsed options): every command, then the option
# spellings of the README, the CI steps and perfbench's items
PARSES = [([name, "s.json"], _namespace(name, "s.json")) for name in COMMANDS] + [
    (["levi-civita", "scenarios/curved-metric.json", "--format", "structured"],
     _namespace("levi-civita", "scenarios/curved-metric.json",
                format="structured")),
    (["star", "scenarios/moyal.json", "--order", "4", "--degree", "3"],
     _namespace("star", "scenarios/moyal.json", order=4, degree=3)),
    (["check-hopf", "scenarios/heisenberg.json", "--depth", "8", "--format",
      "structured"],
     _namespace("check-hopf", "scenarios/heisenberg.json", depth=8,
                format="structured")),
    (["cartan", "tests/fixtures/filiform.json", "--degree", "0"],
     _namespace("cartan", "tests/fixtures/filiform.json", degree=0)),
    (["all", "scenarios/moyal.json", "--order", "6", "--format", "structured",
      "--seed", "1"],
     _namespace("all", "scenarios/moyal.json", order=6, seed=1,
                format="structured")),
    (["project", "--degree=4", "--format=text", "scenarios/surface.json"],
     _namespace("project", "scenarios/surface.json", degree=4)),
    (["gauge", "--depth", "1", "--degree", "1", "m.json"],
     _namespace("gauge", "m.json", depth=1, degree=1)),
]


@pytest.mark.parametrize("argv, parsed", PARSES,
                         ids=[" ".join(argv) for argv, _ in PARSES])
def test_command_lines_parse_to_their_options(argv, parsed):
    assert vars(build_parser().parse_args(argv)) == parsed


@pytest.mark.parametrize("argv", [
    [], ["star"], ["stars", "s.json"], ["star", "s.json", "--format", "xml"],
    ["star", "s.json", "--depth", "two"]])
def test_unusable_command_lines_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: braidcalc") and "Traceback" not in err


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert all(name in out for name in COMMANDS)


def test_main_pass_exit_zero(capsys):
    code = main(["check-hopf", str(SCENARIOS / "abelian-plane.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "OVERALL: PASS" in out


@pytest.mark.parametrize("name", ["abelian-plane", "curved-metric",
                                  "heisenberg-twisted", "heisenberg", "moyal",
                                  "surface-twisted", "surface"])
def test_all_passes_on_working_scenario(capsys, name):
    """`all` runs every suite of a working bundled scenario, project
    included, and every check passes in both formats."""
    path = str(SCENARIOS / (name + ".json"))
    assert main(["all", path]) == 0
    assert "OVERALL: PASS" in capsys.readouterr().out
    assert main(["all", path, "--format", "structured"]) == 0
    out = json.loads(capsys.readouterr().out)
    failing = [(r["title"], c["name"]) for r in out["reports"]
               for c in r["checks"] if not c["passed"]]
    assert out["passed"] and not failing, failing


@pytest.mark.parametrize("command", ["cartan", "levi-civita"])
def test_filiform_frame_passes(capsys, command):
    """The filiform frame e0 = d_x, e1 = d_y + x d_z + x^2/2 d_w,
    e2 = d_z + x d_w, e3 = d_w on 4 coordinates, with the identity
    metric.  Two of its coframe differentials are nonzero and a 3-form
    survives, so `cartan` sees the sign of theta^{w0} ^ d theta^{w1} in
    the differential of a word; `levi-civita` sees the sign of the
    f_bc g_wa term of the Koszul formula.  No bundled scenario sees
    either."""
    path = str(FIXTURES / "filiform.json")
    code = main([command, path, "--degree", "0", "--format", "structured"])
    out = json.loads(capsys.readouterr().out)
    failing = [(r["title"], c["name"]) for r in out["reports"]
               for c in r["checks"] if not c["passed"]]
    assert code == 0 and not failing, failing


def _structured(capsys, argv):
    """Exit status and failing rows (title, name, counterexample) of one
    structured run."""
    code = main(argv + ["--format", "structured"])
    out = json.loads(capsys.readouterr().out)
    return code, [(r["title"], c["name"], c["counterexample"])
                  for r in out["reports"] for c in r["checks"] if not c["passed"]]


FIXTURE_PASSES = [
    ("check-twist", "rotation-frame", []), ("star", "rotation-frame", []),
    ("cartan", "rotation-frame", ["--degree", "1"]),
    ("levi-civita", "twisted-metric", [])]


@pytest.mark.parametrize("command, fixture, options", FIXTURE_PASSES,
                         ids=["%s-%s" % case[:2] for case in FIXTURE_PASSES])
def test_fixture_passes(capsys, command, fixture, options):
    """rotation-frame: the frame d_x, d_y, y d_x - x d_y + d_z under the
    symmetric twist exp(h (P1 (x) P1 + P2 (x) P2)), so R_F = 1 and every
    suite but `gauge` holds (CI runs `all` on it at the default degree).
    twisted-metric: a curved equivariant metric under exp(h P1 ^ P2),
    whose R_F is not the identity, so every R leg of the twisted
    geometry is read."""
    code, failing = _structured(
        capsys, [command, str(FIXTURES / (fixture + ".json"))] + options)
    assert code == 0 and not failing, failing


def test_rotation_frame_gauge_is_refused(capsys):
    """The legs of F move the rotation field, so the structural gauge
    transport does not apply: one refusal row, no law row."""
    code, failing = _structured(
        capsys, ["gauge", str(FIXTURES / "rotation-frame.json")])
    assert code == 1
    assert [(title, name) for title, name, _ in failing] == [
        ("gauge", "construction")]
    assert failing[0][2]["error"] == "UnsupportedFrameBraiding"
    assert "F leg" in failing[0][2]["detail"]


def test_main_failure_exit_one(capsys):
    code = main(["all", str(SCENARIOS / "falsification" / "wrong-antipode.json")])
    out = capsys.readouterr().out
    assert code == 1
    assert "OVERALL: FAIL" in out
    assert "antipode" in out


def test_main_missing_file_exit_two(capsys):
    code = main(["check-hopf", str(SCENARIOS / "no-such-scenario.json")])
    err = capsys.readouterr().err
    assert code == 2
    assert "SchemaError" in err


def test_main_invalid_json_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["check-hopf", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "SchemaError" in err


def test_main_unknown_suite_exit_two(tmp_path, capsys):
    data = plane_data()
    data["suites"] = ["check-hopf", "frobnicate"]
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    code = main(["all", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "UnknownName" in err


def test_main_unknown_param_exit_two(tmp_path, capsys):
    data = json.loads((SCENARIOS / "heisenberg.json").read_text())
    data["params"] = {"degre": 9}
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    code = main(["all", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "UnknownName" in err and "degre" in err


def _rename(key):
    def edit(sec):
        sec[key + "z"] = sec.pop(key)
    return edit


def _add(key, value):
    def edit(sec):
        sec[key] = value
    return edit


@pytest.mark.parametrize("name, section, edit, command", [
    ("heisenberg.json", "ring", _add("ordre", 5), "check-hopf"),
    ("heisenberg.json", "lie_algebra", _rename("brackets"), "check-hopf"),
    ("moyal.json", "action", _rename("images"), "star"),
    ("moyal.json", "twist", _add("swap", True), "check-twist"),
    ("surface.json", "ideal", _add("normal_coordinate", ["x"]), "project"),
])
def test_main_unknown_section_key_exit_two(tmp_path, capsys, name, section,
                                           edit, command):
    """A misspelt key inside a section is refused, not ignored: with
    `images` misspelt the action would silently be trivial."""
    data = json.loads((SCENARIOS / name).read_text())
    edit(data[section])
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    code = main([command, str(path), "--depth", "1", "--degree", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "UnknownName" in err and section + " key" in err


def test_main_missing_section_exit_two(tmp_path, capsys):
    data = plane_data()
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    code = main(["check-twist", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "MissingSection" in err


def test_structured_output_deterministic(capsys):
    args = ["check-hopf", str(SCENARIOS / "abelian-plane.json"),
            "--format", "structured"]
    code = main(args)
    first = capsys.readouterr().out
    assert code == 0
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["passed"] is True
    assert payload["command"] == "check-hopf"
    names = [c["name"] for r in payload["reports"] for c in r["checks"]]
    assert "antipode" in names


@pytest.mark.parametrize("args, digest", [
    (["all", "moyal.json", "--order", "5"],
     "610f030cbbc9a9675a95d2bfccbd055984200fda7e697b92a89b9e06900b1d46"),
    (["levi-civita", "curved-metric.json", "--order", "4"],
     "a906f5aefa702b52f5d014a160aff7b92d9f0cad48eec671f12dfe71d9ef6d7f"),
    (["project", "surface-twisted.json", "--order", "4"],
     "b5f52f95de973db83de758e452c222b03aead5c2f5e9ffa213b4f8aa97e4d394"),
])
def test_series_orders_keep_structured_output(capsys, args, digest):
    """Byte identity of the structured output at series orders that
    perfbench/reference.json does not cover (it runs the scenario's own
    order and --order 6)."""
    command, name, *rest = args
    argv = [command, str(SCENARIOS / name), *rest, "--format", "structured"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("name, digest", [
    ("abelian-plane.json",
     "fc7689d0df95f2ab95ba549c48f99b93071774fd1942bc3e0bf61e79d7a4dc0f"),
    ("heisenberg-twisted.json",
     "d66f7f794e431e6311e85c28b64c6dec79ea86e62d74528d60e4b2ad0cb4c8ed"),
])
def test_larger_cartan_families_keep_structured_output(capsys, name, digest):
    """Byte identity of `cartan --degree 3`, whose field families are
    larger than those of any benchmark item (the bundled scenarios run
    degree 2)."""
    argv = ["cartan", str(SCENARIOS / name), "--degree", "3",
            "--format", "structured"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


BENCHMARK_REFERENCE = json.loads(
    (SCENARIOS.parent / "perfbench" / "reference.json").read_text())


@pytest.mark.parametrize("item", sorted(BENCHMARK_REFERENCE))
def test_benchmark_items_keep_their_reference_verdicts(capsys, monkeypatch,
                                                       item):
    """Each benchmark item, run in-process as perfbench/run.py runs it,
    keeps the exit status, the failing (report, check) pairs and the
    sha256 of the structured output recorded in perfbench/reference.json
    (the digest at the scenario's own seed)."""
    ref = BENCHMARK_REFERENCE[item]
    monkeypatch.chdir(SCENARIOS.parent)
    assert main(item.split() + ["--format", "structured"]) == ref["status"]
    out = capsys.readouterr().out
    failing = sorted([r["title"], c["name"]] for r in json.loads(out)["reports"]
                     for c in r["checks"] if not c["passed"])
    assert failing == ref["failing"]
    assert hashlib.sha256(out.encode()).hexdigest() == ref["sha256"]


def test_text_rows_carry_search_time(capsys):
    """A text row shows how long its check's search took; the structured
    output carries no wall time and stays byte-identical."""
    args = ["star", str(SCENARIOS / "heisenberg.json")]
    assert main(args) == 0
    text = capsys.readouterr().out
    row = next(line for line in text.splitlines() if "] leibniz " in line)
    assert float(re.search(r"\((\d+\.\d+)s\)$", row).group(1)) > 0, row
    runs = []
    for _ in range(2):
        assert main(args + ["--format", "structured"]) == 0
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_order_override_truncates_series(capsys):
    from braidcalc.cli import _load_scenario, build_parser

    opts = build_parser().parse_args(
        ["check-twist", str(SCENARIOS / "moyal.json"), "--order", "2"])
    sc = _load_scenario(opts)
    assert sc.ring.is_series and sc.ring.order == 2
    code = main(["check-twist", str(SCENARIOS / "moyal.json"), "--order", "2"])
    assert code == 0
    assert "OVERALL: PASS" in capsys.readouterr().out


def test_order_override_rejected_for_rational(capsys):
    code = main(["check-hopf", str(SCENARIOS / "abelian-plane.json"),
                 "--order", "2"])
    err = capsys.readouterr().err
    assert code == 2
    assert "series" in err


def test_depth_flag_beats_params(tmp_path, capsys):
    data = plane_data()
    data["params"] = {"depth": 4}
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    sc = Scenario(json.loads(path.read_text()))

    class Opts:
        depth = 2

    assert sc.knob(Opts, "depth", 3) == 2
    Opts.depth = None
    assert sc.knob(Opts, "depth", 3) == 4


def test_engine_error_becomes_failing_construction_row(capsys):
    path = SCENARIOS / "falsification" / "non-tangent-twist.json"
    code = main(["all", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "construction" in out
    assert "NotTangent" in out


def bad_bracket_data():
    """Heisenberg brackets with X2 acting as d/dy: the action breaks
    [X1, X2] = X3 on the coordinate y."""
    data = json.loads((SCENARIOS / "heisenberg.json").read_text())
    data["action"]["images"]["X2"] = {"y": "1"}
    return data


def test_bracket_incompatible_action_is_a_failing_construction_row(
        tmp_path, capsys):
    path = tmp_path / "bad-bracket.json"
    path.write_text(json.dumps(bad_bracket_data()))
    code = main(["star", str(path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "construction" in out and "BracketIncompatible" in out
    assert "[X1, X2] acts on y" in out


class RawJSON(str):
    """A literal spliced into the scenario file as raw JSON text."""


@pytest.mark.parametrize("section, literal", [
    ("brackets", "1/0"),
    ("brackets", "abc"),
    ("brackets", RawJSON("1e400")),
    ("brackets", 0.1),
    ("brackets", True),
    ("brackets", "0.1"),
    ("brackets", "1e-3"),
    ("images", "1/0 x"),
    ("images", "x -"),
    ("images", "x - - y"),
])
def test_malformed_rational_exits_two(tmp_path, capsys, section, literal):
    data = json.loads((SCENARIOS / "heisenberg.json").read_text())
    if section == "brackets":
        data["lie_algebra"]["brackets"]["X1 X2"] = {"X3": literal}
    else:
        data["action"]["images"]["X1"] = {"x": literal}
    text = json.dumps(data)
    if isinstance(literal, RawJSON):
        text = text.replace(json.dumps(literal), literal)
    path = tmp_path / "sc.json"
    path.write_text(text)
    code = main(["all", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "SchemaError" in err and "Traceback" not in err


@pytest.mark.parametrize("brackets", [True, "x^0", 3, ["X1 X2"]])
def test_non_object_brackets_exit_two(tmp_path, capsys, brackets):
    data = json.loads((SCENARIOS / "heisenberg.json").read_text())
    data["lie_algebra"]["brackets"] = brackets
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    code = main(["all", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "SchemaError" in err and "Traceback" not in err


def run_cli(args, optimize):
    """`braidcalc` in a fresh interpreter, optionally under python -O."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable] + (["-O"] if optimize else []) + [
        "-m", "braidcalc.cli"] + args
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=300)


@pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
def test_closed_stdout_keeps_the_verdict_without_traceback(unbuffered):
    """`braidcalc cartan moyal.json | head -1`: a reader that goes away
    must not turn the verdict into a traceback, whether the report meets
    the closed pipe in `print` (unbuffered) or at the flush.  The read
    end is closed before the interpreter starts, so no write can race
    past it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "braidcalc.cli", "cartan",
             str(SCENARIOS / "moyal.json")],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env,
            timeout=300)
    finally:
        os.close(write)
    assert "Traceback" not in run.stderr, run.stderr
    assert run.stderr == "" and run.returncode == 0, run.stderr


def test_verdicts_survive_python_O(tmp_path):
    """Assertions vanish under -O; no verdict may depend on them.  The
    structured output holds every verdict and counterexample, and no
    wall time."""
    bad = tmp_path / "bad-bracket.json"
    bad.write_text(json.dumps(bad_bracket_data()))
    inputs = sorted((SCENARIOS / "falsification").glob("*.json")) + [bad]
    assert len(inputs) == 6
    for path in inputs:
        args = ["all", str(path), "--format", "structured"]
        plain = run_cli(args, optimize=False)
        opt = run_cli(args, optimize=True)
        assert opt.returncode == plain.returncode == 1, (path, opt.stdout)
        assert "Traceback" not in plain.stderr + opt.stderr, path
        assert opt.stdout == plain.stdout, path


def _zero_unit(data):
    data["action"]["unit"] = "0"


def _unit_one(data):
    data["action"]["unit"] = "1"


def _unit_half(data):
    data["action"]["unit"] = "1/2"


def _unit_two(data):
    data["action"]["unit"] = "2"


def _ideal_without_tangent(data):
    data["ideal"]["normal_coordinates"] = list(data["action"]["coordinates"])


def _boolean_order(data):
    data["ring"] = {"kind": "series", "order": True}


def _boolean_depth(data):
    data["params"]["depth"] = True


@pytest.mark.parametrize("edit", [_zero_unit, _unit_one, _unit_half,
                                  _unit_two, _ideal_without_tangent,
                                  _boolean_order, _boolean_depth])
def test_degenerate_declarations_refused_under_python_O(tmp_path, edit):
    """A zero or constant declared unit, an ideal with no tangent coordinate and a
    JSON boolean where an integer belongs are scenario errors: exit 2
    with a typed message, also under -O."""
    data = json.loads((SCENARIOS / "surface.json").read_text())
    edit(data)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    plain = run_cli(["all", str(path)], optimize=False)
    opt = run_cli(["all", str(path)], optimize=True)
    assert opt.returncode == plain.returncode == 2, plain.stderr
    assert opt.stdout == plain.stdout
    for run in (plain, opt):
        assert "Traceback" not in run.stderr, run.stderr
        assert "SchemaError" in run.stderr, run.stderr


def test_unit_on_a_normal_coordinate_refused_under_python_O(tmp_path):
    """A declared unit that depends on a normal coordinate is refused
    when the projection is built, after the normal coordinates check
    out and before the ideal's invariance is searched: one failing
    construction row, the same under -O."""
    data = json.loads((SCENARIOS / "surface.json").read_text())
    data["action"]["unit"] = "1 + z^2"
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    args = ["project", str(path), "--format", "structured"]
    plain = run_cli(args, optimize=False)
    opt = run_cli(args, optimize=True)
    assert plain.returncode == opt.returncode == 1, plain.stderr
    assert opt.stdout == plain.stdout
    assert plain.stderr == opt.stderr == ""
    checks = [check for report in json.loads(plain.stdout)["reports"]
              for check in report["checks"]]
    assert checks == [{
        "name": "construction",
        "law": "instance builds without engine errors",
        "passed": False,
        "counterexample": {
            "error": "NotTangent",
            "detail": "localized unit depends on a normal coordinate"},
    }]


def _run_edited(tmp_path, capsys, name, edit, argv):
    """Run `argv` on the bundled scenario `name` after `edit(data)`;
    returns (exit status, stdout, stderr)."""
    data = json.loads((SCENARIOS / name).read_text())
    edit(data)
    path = tmp_path / "sc.json"
    path.write_text(json.dumps(data))
    code = main([argv[0], str(path), *argv[1:]])
    out, err = capsys.readouterr()
    return code, out, err


def _set(key, value, suites=None):
    def edit(data):
        data[key] = value
        if suites is not None:
            data["suites"] = suites
    return edit


def _set_param(key, value, suites=None):
    def edit(data):
        data.setdefault("params", {})[key] = value
        if suites is not None:
            data["suites"] = suites
    return edit


def _images(value):
    def edit(data):
        data["action"]["images"] = value
    return edit


def _twist_kind(kind):
    def edit(data):
        data["twist"]["kind"] = kind
        data["suites"] = ["check-hopf"]
    return edit


def _refused_unit(frame):
    """A unit the engine refuses (a construction row, not a load error)
    next to a malformed frame, whose shape is still checked at load."""
    def edit(data):
        data["action"]["unit"] = "1 + h x^2"
        data["frame"] = frame
    return edit


@pytest.mark.parametrize("name, edit, argv, error", [
    ("heisenberg.json", _set("metric", "garbage"), ["all"], "SchemaError"),
    ("heisenberg.json", _set("connection", [["x"]]), ["all"], "SchemaError"),
    ("heisenberg.json", _set("ideal", {"normal_coordinates": ["nope"]}),
     ["all"], "UnknownName"),
    ("heisenberg.json", _set("frame", "garbage", ["check-hopf"]), ["all"],
     "SchemaError"),
    ("moyal.json", _twist_kind("bogus"), ["all"], "SchemaError"),
    ("moyal.json", _twist_kind(["exp"]), ["all"], "SchemaError"),
    ("heisenberg.json",
     _set_param("antipode_override", {"X1": [["X9", "1"]]}, ["star"]),
     ["all"], "UnknownName"),
    ("heisenberg.json", _set("suites", ["bogus"]), ["check-hopf"],
     "UnknownName"),
    ("heisenberg.json", _set_param("trials", "x"), ["check-hopf"],
     "SchemaError"),
    ("heisenberg.json", _set("params", []), ["check-hopf"], "SchemaError"),
    ("heisenberg.json", _set("frame", [{"x": "1"}] * 3, ["check-hopf"]),
     ["all"], "SchemaError"),
    ("heisenberg.json", _images(False), ["star"], "SchemaError"),
    ("heisenberg.json", _set("ring", {"kind": "rational", "order": 5}),
     ["check-hopf"], "SchemaError"),
    ("heisenberg.json", _set("ring", {"kind": "rational", "order": "x"}),
     ["check-hopf"], "SchemaError"),
    ("curved-metric.json", _refused_unit([{"q": "1"}]), ["all"],
     "SchemaError"),
    ("curved-metric.json", _refused_unit([{"q": "1"}, {"y": "1"}]), ["all"],
     "UnknownName"),
], ids=["metric", "connection", "ideal", "frame", "twist-kind",
        "unhashable-twist-kind", "antipode-override", "suites", "trials",
        "params-list", "images-false", "frame-rows", "rational-order",
        "rational-order-string", "unit-and-frame-rows", "unit-and-frame-name"])
def test_malformed_section_refused_at_load(tmp_path, capsys, name, edit,
                                           argv, error):
    """Every section present, every param and the suites list are checked
    when the scenario loads, whatever the command: a malformed one exits
    2 even when no suite that runs would read it."""
    code, out, err = _run_edited(tmp_path, capsys, name, edit, argv)
    assert code == 2, out
    assert error in err and "Traceback" not in err


def _edits(*edits):
    def edit(data):
        for one in edits:
            one(data)
    return edit


def _drop(key):
    def edit(data):
        del data[key]
    return edit


@pytest.mark.parametrize("name, edit, argv, line", [
    ("heisenberg.json",
     _edits(_set_param("depth", "x"), _set("metric", "garbage")),
     ["check-hopf"], "error: SchemaError: ('bad depth', 'x')"),
    ("heisenberg.json",
     _edits(_set("frame", "garbage"), _set("metric", "garbage")),
     ["check-hopf"],
     "error: SchemaError: frame must be a list of one row per coordinate"),
    ("moyal.json",
     _edits(_twist_kind("bogus"),
            _set("ideal", {"normal_coordinates": ["nope"]})),
     ["check-hopf"],
     "error: SchemaError: ('twist kind must be exp or tensor', 'bogus')"),
    ("moyal.json",
     _edits(_set_param("classical_shadow", "no"), _set("suites", ["bogus"])),
     ["check-hopf"],
     "error: SchemaError: ('classical_shadow must be true or false', 'no')"),
    ("heisenberg.json",
     _edits(_set("suites", ["bogus"]), _images(False)),
     ["star"], "error: UnknownName: ('bogus', ('check-hopf', 'check-twist',"
     " 'star', 'cartan', 'gauge', 'levi-civita', 'project'))"),
    ("heisenberg.json",
     _edits(_set_param("antipode_override", {"X1": [["X9", "1"]]}),
            _set("connection", [["x"]])),
     ["check-hopf"],
     "error: SchemaError: connection must be a dim x dim x dim table of"
     " polynomials"),
    ("heisenberg-twisted.json",
     _edits(_drop("action"), _twist_kind("bogus"),
            _set("frame", "garbage")),
     ["check-hopf"],
     "error: SchemaError: ('twist kind must be exp or tensor', 'bogus')"),
    ("heisenberg.json",
     _edits(_drop("action"), _set("metric", [["1"]]),
            _set_param("antipode_override", {"X1": [["X9", "1"]]})),
     ["check-hopf"], "error: MissingSection: action"),
    ("curved-metric.json",
     _edits(_refused_unit("garbage"), _set("metric", "garbage")),
     ["check-hopf"],
     "error: SchemaError: frame must be a list of one row per coordinate"),
    ("curved-metric.json",
     _edits(_refused_unit([{"x": "1"}, {"y": "1"}]), _set("metric", "garbage")),
     ["check-hopf"],
     "error: SchemaError: metric must be a dim x dim table of polynomials"),
], ids=["knob-then-metric", "frame-then-metric", "twist-kind-then-ideal",
        "flag-then-suites", "suites-then-images", "connection-then-override",
        "twist-then-missing-action", "missing-action-then-override",
        "refused-unit-frame-then-metric", "refused-unit-then-metric"])
def test_first_malformed_section_in_load_order_is_refused(
        tmp_path, capsys, name, edit, argv, line):
    """With two malformed sections the load refuses the first in its
    order: the params, the suites list, then the sections (action, twist,
    frame, metric, connection, ideal, antipode override), a section read
    over the coordinates needing the action first."""
    code, out, err = _run_edited(tmp_path, capsys, name, edit, argv)
    assert code == 2, out
    assert err.splitlines() == [line]


@pytest.mark.parametrize("param, value", [
    ("transport_swap", "false"), ("classical_shadow", "no"),
    ("classical_shadow", 1), ("transport_swap", None),
])
def test_boolean_params_must_be_json_booleans(tmp_path, capsys, param, value):
    """A string such as "false" is truthy: read as a flag it would turn
    the swapped-twist falsifier or the shadow rows on."""
    code, out, err = _run_edited(tmp_path, capsys, "moyal.json",
                                 _set_param(param, value), ["gauge"])
    assert code == 2, out
    assert "SchemaError" in err and param in err


def test_engine_error_at_load_keeps_its_status(tmp_path, capsys):
    """A declared unit whose leading coefficient has no inverse is an
    engine error, not a shape error: the load check leaves it to the
    suites, which report a failing construction row, and a suite that
    never builds the algebra still passes."""
    def edit(data):
        data["action"]["unit"] = "1 + h x^2"

    code, out, _ = _run_edited(tmp_path, capsys, "curved-metric.json", edit,
                               ["all"])
    assert code == 1
    assert "construction" in out and "NotInvertible" in out
    code, out, _ = _run_edited(tmp_path, capsys, "curved-metric.json", edit,
                               ["check-hopf"])
    assert code == 0 and "OVERALL: PASS" in out


def _series_image(data):
    data["action"]["images"]["P1"] = {"x": "1 + h"}


def _series_metric_entry(data):
    data["metric"][0][0] = "1 + h"


@pytest.mark.parametrize("name, edit, command", [
    ("moyal.json", _series_image, "gauge"),
    ("moyal.json", _series_image, "all"),
    ("curved-metric.json", _series_metric_entry, "levi-civita"),
    ("curved-metric.json", _series_metric_entry, "all"),
])
def test_classical_shadow_accepts_h_outside_the_twist(tmp_path, capsys, name,
                                                       edit, command):
    """The shadow rows compare at h^0 inside the scenario's series ring,
    so a scenario that carries h outside its twist runs them."""
    code, out, err = _run_edited(tmp_path, capsys, name, edit,
                                 [command, "--format", "structured"])
    assert code == 0, err
    rows = [c for r in json.loads(out)["reports"] for c in r["checks"]
            if c["name"] == "classical-shadow"]
    assert len(rows) == 1 and rows[0]["passed"]


def _asymmetric_metric(data):
    del data["twist"]
    data["metric"] = [["1", "x"], ["0", "1"]]
    data["params"] = {"seed": 1, "trials": 2}


def test_failed_solve_is_one_construction_row(tmp_path, capsys):
    """The runner solves the metric connection once, after the metric
    checks; a refused solve replaces all its reports with one failing
    construction row."""
    code, out, _ = _run_edited(tmp_path, capsys, "curved-metric.json",
                               _asymmetric_metric,
                               ["levi-civita", "--format", "structured"])
    assert code == 1
    rows = [c for r in json.loads(out)["reports"] for c in r["checks"]]
    assert [c["name"] for c in rows] == ["construction"]
    assert rows[0]["counterexample"]["error"] == "MetricCheckFailed"
    assert "frame matrix not symmetric at (0, 1)" in rows[0]["counterexample"]["detail"]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0dc1e3f1894c419b690d8bfd76e3b97f0b5798bfe22bb3860cea35b27c791076")


@pytest.mark.parametrize("name, solves", [
    ("curved-metric.json", 2),
    ("falsification/asymmetric-connection.json", 1),
])
def test_one_levi_civita_solve_per_metric(monkeypatch, capsys, name, solves):
    """`levi-civita` solves each metric it meets once (the scenario's,
    and its twist's when it has one); every suite checks that solve."""
    from braidcalc import cli, geometry, submanifold

    metrics = []
    solve = geometry.levi_civita

    def counted(metric):
        metrics.append(metric)
        return solve(metric)

    for mod in (geometry, cli, submanifold):
        monkeypatch.setattr(mod, "levi_civita", counted)
    main(["levi-civita", str(SCENARIOS / name), "--format", "structured"])
    capsys.readouterr()
    assert len(metrics) == solves
    assert len({id(m) for m in metrics}) == solves


@pytest.mark.parametrize("argv, builds", [
    (["all", "surface-twisted.json"], 1),
    (["all", "heisenberg-twisted.json"], 1),
    (["all", "moyal.json"], 1),
    # the swapped twist of the transport falsifier is a second Twist
    (["all", "falsification/wrong-transport.json"], 2),
    (["check-twist", "falsification/broken-cocycle.json"], 1),
])
def test_one_twisted_hopf_structure_per_twist(monkeypatch, capsys, argv,
                                              builds):
    """A Twist is its twisted Hopf structure, and each twisted one is
    built once: check-twist, the star products, the calculus and the
    projection's quotient all read the same per-monomial memos.  Trivial
    twists (F = 1(x)1, built for the untwisted instances) are not
    counted."""
    from braidcalc import twist

    built = []
    init = twist.Twist.__init__

    def counted(self, *args):
        init(self, *args)
        if not self.is_trivial:
            built.append(self)

    monkeypatch.setattr(twist.Twist, "__init__", counted)
    code = main([argv[0], str(SCENARIOS / argv[1]), "--format", "structured"])
    out = capsys.readouterr().out
    assert len(built) == builds
    if argv[0] == "check-twist":
        rows = [c for r in json.loads(out)["reports"] for c in r["checks"]]
        assert code == 1
        assert len([c for c in rows if not c["passed"]]) == 4


def _singular_metric(data):
    data["metric"][1][1] = "1 + 3/2 x^2"


def test_degenerate_metric_is_named_in_its_construction_row(tmp_path, capsys):
    """A metric whose determinant is not a unit of the localized algebra
    is refused by name, with the determinant, not as a bare pairing."""
    code, out, _ = _run_edited(tmp_path, capsys, "curved-metric.json",
                               _singular_metric,
                               ["levi-civita", "--format", "structured"])
    assert code == 1
    rows = [c for r in json.loads(out)["reports"] for c in r["checks"]
            if c["name"] == "construction"]
    assert rows and not rows[0]["passed"]
    detail = rows[0]["counterexample"]["detail"]
    assert "metric inverse" in detail
    assert "determinant" in detail and "is not a unit" in detail


def _adjoint_open_frame(data):
    data["frame"] = [{"x": "1"}, {"x": "x^2", "y": "1"}]


def test_frame_off_adjoint_closure_is_named_in_its_construction_row(
        tmp_path, capsys):
    """A frame the adjoint action leaves with a non-constant coefficient
    ([d_x, x^2 d_x + d_y] = 2x d_x) is refused by the hypothesis it
    breaks, with the generator, the frame element and the coefficient."""
    code, out, _ = _run_edited(tmp_path, capsys, "abelian-plane.json",
                               _adjoint_open_frame,
                               ["cartan", "--format", "structured"])
    assert code == 1
    rows = [c for r in json.loads(out)["reports"] for c in r["checks"]
            if c["name"] == "construction"]
    assert rows and not rows[0]["passed"]
    assert rows[0]["counterexample"] == {
        "error": "NotInFrameSpan",
        "detail": "frame not closed under the adjoint action with constant "
                  "coefficients: P1 |> e1 has coefficient 2*x on e0",
    }
