"""The batch front end: exit codes, report format, determinism."""

import ast
import functools
import inspect
import io
import json
import math
import operator
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from diracgen import cli
from diracgen.calculus import OneForm, PontryaginSection, VectorField
from diracgen.invariant_gen import MAX_LINE_STEPS, FoliatedProblem
from diracgen.symexpr import MAX_SAMPLES, parse

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = os.path.join(ROOT, "problems")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "diracgen.cli", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )


def records(stdout: str):
    return [json.loads(line) for line in stdout.splitlines() if line]


def problem(name: str) -> str:
    return os.path.join(PROBLEMS, name)


def problem_data(name: str) -> dict:
    with open(problem(name)) as f:
        return json.load(f)


def edited(tmp_path, name: str, edit) -> str:
    """Path of a copy of a shipped problem with ``edit`` applied to its data."""
    data = problem_data(name)
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def readme_problem() -> dict:
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    block = text.split("```json\n", 1)[1].split("```", 1)[0]
    return json.loads(block)


class TestCheck:
    def test_e1_passes(self):
        out = run_cli("check", problem("e1.json"))
        assert out.returncode == 0
        recs = records(out.stdout)
        assert recs[0]["record"] == "provenance"
        assert recs[-1] == {"record": "verdict", "passed": True, "exit_code": 0}

    def test_leaf_form_component_rejected(self, tmp_path):
        data = problem_data("e1.json")
        data["sections"]["D"][0]["form"] = ["exp(x1)", "0", "0"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = run_cli("check", str(path))
        assert out.returncode == 2
        assert "sections.D[0]" in out.stderr

    @pytest.mark.parametrize("command", ["check", "invariant-generators"])
    def test_leaf_form_component_vanishing_at_midpoint_rejected(self, tmp_path, command):
        def edit(data):
            data["sections"]["D"][0]["form"][0] = "x2"

        out = run_cli(command, edited(tmp_path, "e1.json", edit))
        assert out.returncode == 2
        assert "Traceback" not in out.stderr

    def test_malformed_expression_reports_position(self, tmp_path):
        data = problem_data("e1.json")
        data["sections"]["D"][0]["vector"][1] = "exp(x1"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        out = run_cli("check", str(path))
        assert out.returncode == 2
        assert "position" in out.stderr
        assert "sections.D[0].vector[1]" in out.stderr

    def test_invalid_json_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        out = run_cli("check", str(path))
        assert out.returncode == 2
        assert "line" in out.stderr

    def test_wrong_format_version(self, tmp_path):
        data = problem_data("e1.json")
        data["format_version"] = 99
        path = tmp_path / "v99.json"
        path.write_text(json.dumps(data))
        out = run_cli("check", str(path))
        assert out.returncode == 2


class TestExitCodes:
    @pytest.mark.parametrize("command", ["check", "invariant-generators"])
    @pytest.mark.parametrize("expr", ["exp(exp(exp(10*x2)))", "1/x2"])
    def test_undefined_value_is_numerical_breakdown(self, tmp_path, command, expr):
        def edit(data):
            data["sections"]["D"][0]["vector"][1] = f"exp(x1)*({expr})"

        out = run_cli(command, edited(tmp_path, "e1.json", edit))
        assert out.returncode == 3
        assert "Traceback" not in out.stderr
        assert len(out.stderr.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["check", "invariant-generators"])
    @pytest.mark.parametrize("expr", ["(" * 3000 + "x1" + ")" * 3000, " + ".join(["x1"] * 3000)])
    def test_too_deep_expression_is_input_error(self, tmp_path, command, expr):
        def edit(data):
            data["sections"]["D"][0]["vector"][1] = expr

        out = run_cli(command, edited(tmp_path, "e1.json", edit))
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        assert len(out.stderr.strip().splitlines()) == 1
        assert "sections.D[0].vector[1]" in out.stderr and "deeper than" in out.stderr
        verdict = records(out.stdout)[-1]
        assert verdict["record"] == "verdict" and verdict["exit_code"] == 2

    def test_overflow_prints_no_runtime_warning(self, tmp_path):
        # the Step-1 residual and the bracket-hypothesis scale overflow to inf
        def edit(data):
            data["sections"]["D"][0]["vector"][1] = "exp(x2*(1000*x1 - 700))"

        path = edited(tmp_path, "e1.json", edit)
        for command in ("check", "invariant-generators"):
            out = run_cli(command, path)
            assert out.returncode == 1
            assert "RuntimeWarning" not in out.stderr
            assert len(out.stderr.strip().splitlines()) == (2 if command == "check" else 1)

    def test_leaf_invariance_of_values_near_the_largest_float(self, tmp_path):
        # a family constant along the leaves whose stencil differences would
        # overflow (8 * 1.5e308 is inf) unless taken at the values' scale
        def edit(data):
            data["sections"]["D"][0] = {"vector": ["0", "1.5e308", "1.5e308"], "form": ["0", "0", "0"]}

        out = run_cli("invariant-generators", edited(tmp_path, "e1.json", edit))
        assert out.returncode == 0
        # stderr holds the summary of passing records and nothing else (no numpy warning)
        lines = out.stderr.splitlines()
        assert lines[-1] == "verdict: pass" and all(line.startswith("[pass] ") for line in lines[:-1])

    def test_overlong_exponent_is_input_error(self, tmp_path):
        # int() raises a bare ValueError above 4300 digits; the parser rejects
        # every exponent longer than the largest float's 309 digits first
        def edit(data):
            data["sections"]["D"][0]["vector"][2] = "x1^" + "9" * 5000

        code, out, err = _main_in_process(["check", edited(tmp_path, "e1.json", edit)])
        assert code == 2
        assert err.splitlines() == ["input error: sections.D[0].vector[2]: integer exponent of 5000 digits, "
                                    "more than 309 (at position 3)"]
        assert records(out)[-1]["exit_code"] == 2

    def test_overflowing_partial_the_bracket_never_reads(self, tmp_path):
        # the x2-partial of 3.2e306*exp(4*x2) overflows at most samples, its
        # value and its x1-partial do not: the bracket with the leaf field d1
        # reads only x1-partials, so the hypothesis fails (exit 1); a bracket
        # from all partials of the sections would break down (exit 3) instead
        def edit(data):
            data["sections"]["D"][0]["vector"][2] = "3.2e306*exp(4*x2)"

        code, out, err = _main_in_process(["check", edited(tmp_path, "e1.json", edit)])
        assert code == 1
        assert err.splitlines() == ["[FAIL] bracket-hypothesis-generators[0,0]: worst residual 7.532e-01 (tol 1.0e-07)",
                                    "verdict: FAIL (checks)"]

    @pytest.mark.parametrize("slot, expr, message", [
        # the x1-partial of the component, a row of the bracket with d1, overflows
        ("vector", "exp(1000*x1)", "overflow evaluating exp(1000.0*x1)*1000.0 at [0.7693365420419682, "
                                   "0.29686717516911143, 0.24073484202850604]"),
        # every bracket row evaluates at every sample before the span meets x3/x2
        ("form", "x3/x2", "division by zero in x3/x2 at [-0.5, 0.0, -0.5]"),
    ])
    def test_breakdown_in_the_bracket_hypothesis(self, tmp_path, slot, expr, message):
        def edit(data):
            data["sections"]["D"][0][slot][2] = expr

        code, out, err = _main_in_process(["check", edited(tmp_path, "e1.json", edit)])
        assert code == 3
        assert err.splitlines() == [f"numerical breakdown: {message}"]

    def test_degenerate_box_is_input_error(self, tmp_path):
        def edit(data):
            data["chart"]["box"][1] = [0.5, 0.5]

        out = run_cli("dirac-reduce", edited(tmp_path, "translation_reduce.json", edit))
        assert out.returncode == 2
        assert "Traceback" not in out.stderr


class TestVerdictOnError:
    """Every non-zero exit ends the report with a verdict record that names
    the exit code, stage, point and message."""

    @pytest.mark.parametrize(
        "slot, expr, command, code",
        [
            ("form", "x2", "check", 2),
            ("form", "x2", "invariant-generators", 2),
            ("vector", "1/x2", "check", 3),
            ("vector", "1/x2", "invariant-generators", 1),
        ],
    )
    def test_failed_run_ends_with_verdict(self, tmp_path, slot, expr, command, code):
        index = 0 if slot == "form" else 1

        def edit(data):
            data["sections"]["D"][0][slot][index] = expr

        out = run_cli(command, edited(tmp_path, "e1.json", edit))
        assert out.returncode == code
        recs = records(out.stdout)
        assert recs[0]["record"] == "provenance"
        verdict = recs[-1]
        assert verdict["record"] == "verdict" and verdict["passed"] is False
        assert verdict["exit_code"] == code
        assert verdict["message"] and verdict["message"] in out.stderr
        assert set(verdict) == {"record", "passed", "exit_code", "failed_stage", "point", "message"}
        assert "np.float64" not in out.stderr + out.stdout
        if code == 3:  # 1/x2 at the first sample with x2 = 0
            assert verdict["point"] == [-0.5, 0.0, -0.5]
        if code == 1:
            assert verdict["failed_stage"] == "Step 1"

    @pytest.mark.parametrize("command", ["check", "invariant-generators"])
    @pytest.mark.parametrize(
        "block, key, value",
        [("chart", "names", 5), ("numerics", "samples", "many")],
    )
    def test_wrongly_typed_value_is_input_error(self, tmp_path, command, block, key, value):
        def edit(data):
            data[block][key] = value

        out = run_cli(command, edited(tmp_path, "e1.json", edit))
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        *before, verdict = records(out.stdout)
        assert [r["record"] for r in before] in ([], ["provenance"])
        assert verdict["record"] == "verdict" and verdict["exit_code"] == 2
        assert f"{block}.{key}" in verdict["message"]

    @pytest.mark.parametrize("command", ["check", "invariant-generators"])
    @pytest.mark.parametrize(
        "case, key",
        [
            ("chart-not-object", "chart"),
            ("names-not-strings", "chart.names[0]"),
            ("D-not-list", "sections.D"),
            ("negative-seed", "numerics.seed"),
        ],
    )
    def test_wrongly_shaped_block_is_input_error(self, tmp_path, command, case, key):
        def edit(data):
            if case == "chart-not-object":
                data["chart"] = 5
            elif case == "names-not-strings":
                data["chart"]["names"] = [1, 2, 3]
            elif case == "negative-seed":
                data["numerics"]["seed"] = -1
            else:
                data["sections"]["D"] = data["sections"]["D"][0]

        out = run_cli(command, edited(tmp_path, "e1.json", edit))
        assert out.returncode == 2
        assert "Traceback" not in out.stderr
        *before, verdict = records(out.stdout)
        assert [r["record"] for r in before] in ([], ["provenance"])
        assert verdict["record"] == "verdict" and verdict["exit_code"] == 2
        assert verdict["message"].startswith(f"{key}:")

    def test_values_that_convert_are_still_read(self, tmp_path):
        def edit(data):
            data["chart"]["k"] = 1.0
            data["chart"]["box"] = [["-1", "1"]] * 3
            data["numerics"].update(samples=20.0, tol="1e-7")

        out = run_cli("check", edited(tmp_path, "e1.json", edit))
        assert out.returncode == 0
        assert records(out.stdout)[-1] == {"record": "verdict", "passed": True, "exit_code": 0}

    def test_unreadable_input_still_gets_a_verdict(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ not json")
        out = run_cli("check", str(path))
        assert out.returncode == 2
        assert [r["record"] for r in records(out.stdout)] == ["verdict"]


class TestReadmeExample:
    @pytest.mark.parametrize("command", ["check", "invariant-generators", "dirac-reduce"])
    def test_readme_problem_runs(self, tmp_path, command):
        path = tmp_path / "readme.json"
        path.write_text(json.dumps(readme_problem()))
        out = run_cli(command, str(path), "--samples", "8")
        assert out.returncode == 0, out.stderr
        assert records(out.stdout)[-1]["passed"] is True


class TestInvariantGenerators:
    def test_e1_frame_matches_oracle(self):
        out = run_cli("invariant-generators", problem("e1.json"), "--samples", "4")
        assert out.returncode == 0
        frames = [r for r in records(out.stdout) if r["record"] == "frame"]
        assert frames
        for rec in frames:
            col = rec["columns"][0]
            assert abs(col[1] - 1.0) < 1e-6 and abs(col[4] - 1.0) < 1e-6
            for idx in (0, 2, 3, 5):
                assert abs(col[idx]) < 1e-6

    def test_e2_pi_column(self):
        out = run_cli(
            "invariant-generators", problem("e2.json"),
            "--samples", "4", "--dump-intermediates",
        )
        assert out.returncode == 0
        dumps = [r for r in records(out.stdout) if r["record"] == "intermediates"]
        assert dumps
        for rec in dumps:
            x1 = rec["point"][0]
            assert abs(rec["Pi"][0] + x1) < 1e-6
            assert abs(rec["Pi"][1] + x1) < 1e-6

    def test_hypothesis_violation_exit_one_with_stage(self):
        out = run_cli("invariant-generators", problem("bad_hypothesis.json"))
        assert out.returncode == 1
        assert "Step 1" in out.stderr


@pytest.mark.parametrize("command", ["invariant-generators", "check"])
def test_a_family_of_large_scale_passes(tmp_path, command):
    # norms near 1e300: their squares overflow, the norms do not
    def edit(data):
        data["sections"]["D"] = [{"vector": ["0", "1e300*exp(x1)", "0"], "form": ["0", "0", "0"]}]

    out = run_cli(command, edited(tmp_path, "e1.json", edit))
    assert out.returncode == 0, out.stderr


class TestDiracReduce:
    def test_translation_all_pass(self):
        out = run_cli("dirac-reduce", problem("translation_reduce.json"), "--samples", "8")
        assert out.returncode == 0
        verdict = records(out.stdout)[-1]
        assert verdict["passed"] is True

    def test_rotation_annulus_all_pass(self):
        out = run_cli("dirac-reduce", problem("rotation_reduce.json"), "--samples", "8")
        assert out.returncode == 0

    def test_rank_jump_fails_with_witnesses(self):
        out = run_cli("dirac-reduce", problem("rank_jump.json"), "--samples", "8")
        assert out.returncode == 1
        recs = records(out.stdout)
        scan = [r for r in recs if r.get("check") == "constant-rank-intersection"]
        assert scan and not scan[0]["passed"]
        assert "rank 1" in scan[0]["detail"] and "rank 2" in scan[0]["detail"]
        assert recs[-1]["failed_stage"] == "rank scan"

    def test_determinism_byte_identical(self):
        a = run_cli("dirac-reduce", problem("translation_reduce.json"), "--seed", "5")
        b = run_cli("dirac-reduce", problem("translation_reduce.json"), "--seed", "5")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_a_tiny_transverse_action_component_is_input_error(self, tmp_path):
        # the action must be written on the leaf block: run() integrates no
        # line across it, so however small, a transverse component is rejected
        def edit(data):
            data["action"]["generators"] = [["1", "1e-12"]]

        code, out, err = _main_in_process(["dirac-reduce", edited(tmp_path, "translation_reduce.json", edit)])
        message = ("chart is not foliated for this action: generator 0 has a component along x2 (coordinate 1), "
                   "beyond the leaf block; write 0 for a component that vanishes")
        assert code == 2
        assert records(out)[-1] == {"record": "verdict", "passed": False, "exit_code": 2, "failed_stage": "",
                                    "point": None, "message": message}
        assert err.splitlines() == [f"input error: {message}"]

    @pytest.mark.parametrize("command, name, rounds", [
        ("invariant-generators", "e1.json", 1),
        ("invariant-generators", "e2.json", 1),
        ("dirac-reduce", "translation_reduce.json", 2),
        ("dirac-reduce", "rotation_reduce.json", 2),
    ])
    @pytest.mark.parametrize("dump", [False, True])
    def test_step_2_rounds_per_command(self, step_2_rounds, command, name, rounds, dump):
        """One Step-2 round (a _Solver._H call) in run(), which the criterion-6
        checks and the dump read, and one more in dirac-reduce's pushforward
        check."""
        code, _, _ = _main_in_process([command, problem(name), *(["--dump-intermediates"] if dump else [])])
        assert code == 0
        assert len(step_2_rounds) == rounds

    def test_output_flag_writes_file(self, tmp_path):
        target = tmp_path / "report.jsonl"
        out = run_cli(
            "dirac-reduce", problem("translation_reduce.json"),
            "--samples", "4", "--output", str(target),
        )
        assert out.returncode == 0
        assert out.stdout == ""
        recs = [json.loads(line) for line in target.read_text().splitlines()]
        assert recs[0]["record"] == "provenance"
        assert recs[-1]["record"] == "verdict"


# A problem file each command runs to the end on; a malformed numerics value
# must stop every command with exit 2 before any pipeline runs.
_COMMAND_FILES = {"check": "e2.json", "invariant-generators": "e2.json", "dirac-reduce": "rotation_reduce.json"}
_NOT_POSITIVE = st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]) | st.floats(max_value=-1e-300)
_MALFORMED = {
    "tol": _NOT_POSITIVE,
    "ode_step": _NOT_POSITIVE,
    "quad_step": _NOT_POSITIVE,
    "samples": st.integers(max_value=-1),
}


def _main_in_process(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _run_document(command, data, *flags) -> tuple[int, str, str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as f:
            f.write(json.dumps(data))
        return _main_in_process([command, path, *flags])


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(sorted(_COMMAND_FILES)),
       case=st.sampled_from(sorted(_MALFORMED)).flatmap(lambda key: st.tuples(st.just(key), _MALFORMED[key])),
       via_flag=st.booleans())
def test_malformed_numerics_exit_2_with_a_verdict(command, case, via_flag):
    key, value = case
    data = problem_data(_COMMAND_FILES[command])
    flags = []
    if via_flag:
        flags = [f"--{key.replace('_', '-')}={value!r}"]
    else:
        data.setdefault("numerics", {})[key] = value
    code, out, err = _run_document(command, data, *flags)
    assert code == 2
    recs = records(out)
    assert [r["record"] for r in recs] == ["verdict"]
    assert recs[0]["exit_code"] == 2 and recs[0]["message"].startswith(f"numerics.{key}:")
    assert "Traceback" not in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["check", "dirac-reduce"])
@pytest.mark.parametrize("constants", [[[[float("nan")]]], [[[float("inf")]]], [[1.0, 2.0]], [[["x"]]], 3])
def test_malformed_structure_constants_exit_2(tmp_path, command, constants):
    def edit(data):
        data["action"]["structure_constants"] = constants

    code, out, err = _main_in_process([command, edited(tmp_path, "rotation_reduce.json", edit)])
    assert code == 2
    verdict = records(out)[-1]
    assert verdict["record"] == "verdict" and verdict["exit_code"] == 2
    assert verdict["message"].startswith("action.structure_constants:")


def _set(data, path, value):
    *parents, key = path
    functools.reduce(operator.getitem, parents, data)[key] = value


# Values each command once misread: crashed on, truncated, or read as
# something else.  Each is an input error naming its key.
_DEFECTS = {
    "tol-null": (("numerics", "tol"), None, "numerics.tol"),
    "names-string": (("chart", "names"), "xyz", "chart.names"),
    "names-object": (("chart", "names"), {"x1": 1, "x2": 2, "x3": 3}, "chart.names"),
    "k-fraction": (("chart", "k"), 1.7, "chart.k"),
    "k-true": (("chart", "k"), True, "chart.k"),
    "samples-fraction": (("numerics", "samples"), 3.9, "numerics.samples"),
    "box-empty": (("chart", "box"), [], "chart.box"),
    "numerics-pairs": (("numerics",), [["tol", 1e-7], ["seed", 0]], "numerics"),
    "no-coordinates": (("chart",), {"names": [], "k": 0}, "chart"),
}


@pytest.mark.parametrize("command", sorted(_COMMAND_FILES))
@pytest.mark.parametrize("case", sorted(_DEFECTS))
def test_schema_defect_is_input_error_naming_its_key(command, case):
    path, value, key = _DEFECTS[case]
    data = problem_data(_COMMAND_FILES[command])
    _set(data, path, value)
    code, out, err = _run_document(command, data)
    assert code == 2
    *before, verdict = records(out)
    assert [r["record"] for r in before] == ([] if key.startswith("numerics") else ["provenance"])
    assert verdict["record"] == "verdict" and verdict["exit_code"] == 2
    assert verdict["message"].startswith(f"{key}:")
    assert "Traceback" not in err and len(err.splitlines()) == 1


# Any JSON value, with the schema's keys among the object keys and
# expression texts (random tokens, deep nesting, huge literals, non-ASCII
# names) among the strings.
_KEYS = ["names", "k", "box", "D", "extra", "dkperp", "vector", "form", "generators", "structure_constants",
         "target", "components", "tol", "samples", "seed", "ode_step", "quad_step"]
_TOKENS = ["x1", "x2", "x3", "theta", "r", "é", "(", ")", "+", "-", "*", "/", "^", "exp", "sin", "0", "2", "0.5"]
_TEXT = (
    st.text(max_size=6)
    | st.lists(st.sampled_from(_TOKENS), max_size=8).map("".join)
    | st.sampled_from(["(" * 150 + "x1" + ")" * 150, " + ".join(["x1"] * 150), "1e400", "9" * 400, "x1^999999"])
)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=16,
)
# Well-formed expressions over the shipped problems' coordinate names, so a
# mutant still reaches the pipelines.
_EXPRESSION = st.recursive(
    st.sampled_from(["x1", "x2", "x3", "theta", "r", "0", "1", "0.5", "1e200"]),
    lambda e: st.builds("({} {} {})".format, e, st.sampled_from("+-*/"), e)
    | st.builds("{}({})".format, st.sampled_from(["exp", "sin", "cos"]), e)
    | st.builds("{}^{}".format, e, st.integers(-3, 40)),
    max_leaves=6,
)
_BLOCK_KEYS = ["chart", "sections", "poisson", "dirac", "action", "quotient", "numerics"]
_DOCUMENT = st.fixed_dictionaries({"format_version": st.just(1)}, optional=dict.fromkeys(_BLOCK_KEYS, _JSON))
# The shipped problems each command reads through to a verdict
_RUNS = {
    "check": sorted(os.listdir(PROBLEMS)),
    "invariant-generators": ["bad_hypothesis.json", "e1.json", "e2.json", "numerical_breakdown.json"],
    "dirac-reduce": ["rank_jump.json", "rotation_reduce.json", "translation_reduce.json"],
}


def _paths(value, path=()):
    """Every key path in a JSON document, the document's own () first."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, v in items:
        yield from _paths(v, path + (key,))


@st.composite
def _mutant(draw, command):
    """A shipped problem the command reads through, with one key dropped or
    one value replaced: a block by any JSON value, a text or a number by
    another of its kind."""
    data = problem_data(draw(st.sampled_from(_RUNS[command])))
    path = draw(st.sampled_from([p for p in _paths(data) if p]))
    parent = functools.reduce(operator.getitem, path[:-1], data)
    old = parent[path[-1]]
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[path[-1]]
    elif isinstance(old, str):
        _set(data, path, draw(_EXPRESSION | _TEXT))
    elif isinstance(old, (int, float)):
        _set(data, path, draw(st.integers(-3, 40) | st.floats()))
    else:
        _set(data, path, draw(_JSON))
    return data


_RUN = st.sampled_from(sorted(_RUNS)).flatmap(lambda command: st.tuples(st.just(command),
                                                                         _mutant(command) | _DOCUMENT))


def _keeps_the_exit_contract(command, data, *flags):
    """Runs a document through cli.main and checks what every exit shares;
    returns the exit code."""
    code, out, err = _run_document(command, data, *flags)
    assert code in (0, 1, 2, 3)
    verdict = records(out)[-1]
    assert verdict["record"] == "verdict" and verdict["exit_code"] == code
    assert "Traceback" not in err
    *checks, summary = err.splitlines()
    assert all(line.startswith(("[pass] ", "[FAIL] ")) for line in checks)
    if code >= 2:
        assert checks == [] and summary.startswith(("input error", "numerical breakdown"))
    return code


@settings(max_examples=60, deadline=None)
@given(_RUN)
def test_every_document_keeps_the_exit_contract(run):
    """Through cli.main, any document exits 0-3 with a verdict record that
    carries the exit code.  Stderr holds one summary line, after the check
    lines of the stages that finished when the exit is 0 or 1, and alone on
    exit 2 or 3 (also when the error is raised in a later dirac-reduce
    stage).  Two random samples keep each run short."""
    _keeps_the_exit_contract(*run, "--samples", "2")


# One size beside --samples 2: valid and small, or rejected before any work.
# A valid but large size is never drawn, as one run at a cap takes minutes; a
# step of 1e-300 takes far more than MAX_LINE_STEPS on any leaf line, and is
# valid on a chart without leaves.
_SIZE = st.sampled_from([("--samples", 0), ("--samples", MAX_SAMPLES + 1)]) | st.tuples(
    st.sampled_from(["--ode-step", "--quad-step"]), st.sampled_from([1e-300, 0.0, -1.0, math.nan])
)


@settings(max_examples=30, deadline=None)
@given(run=_RUN, size=_SIZE)
def test_every_size_keeps_the_exit_contract(run, size):
    """A drawn sample count or step keeps the exit contract, and exits 2
    when it is rejected."""
    flag, value = size
    code = _keeps_the_exit_contract(*run, "--samples=2", f"{flag}={value!r}")
    if value > MAX_SAMPLES if flag == "--samples" else not value > 0.0:
        assert code == 2


# Values a problem file may hold where another is expected: null, bools,
# huge and non-finite numbers, expressions that fail, unknown names, empty lists.
_ODD_VALUE = st.sampled_from([None, True, False, 1e308, -1e308, 10**400, math.inf, -math.inf, math.nan,
                              "1/0", "exp(1000)", "y9", "nowhere(x1)", []])


@st.composite
def _damaged(draw):
    """(command, problem file bytes): a shipped problem the command reads
    through, with one or two of its key paths (no one inside the other) set
    to an odd value, or with one byte of its text flipped."""
    command = draw(st.sampled_from(sorted(_RUNS)))
    data = problem_data(draw(st.sampled_from(_RUNS[command])))
    if draw(st.booleans()):
        text = bytearray(json.dumps(data).encode())
        text[draw(st.integers(0, len(text) - 1))] ^= draw(st.integers(1, 255))
        return command, bytes(text)
    paths = [p for p in _paths(data) if p]
    first = draw(st.sampled_from(paths))
    chosen = [first] + draw(st.lists(st.sampled_from([p for p in paths if p[: len(first)] != first
                                                      and first[: len(p)] != p]), max_size=1))
    for path in chosen:
        _set(data, path, draw(_ODD_VALUE))
    return command, json.dumps(data).encode()


@settings(max_examples=300, deadline=None)
@given(_damaged())
def test_damaged_problems_keep_the_exit_contract(tmp_path_factory, damaged):
    """Through cli.main with --output, a damaged problem file exits 0-3 and
    raises nothing; stderr holds no traceback, and exit 1 ends the report
    with a failed verdict."""
    command, text = damaged
    tmp = tmp_path_factory.mktemp("damaged")
    path, report = tmp / "problem.json", tmp / "report.jsonl"
    path.write_bytes(text)
    err = io.StringIO()
    with redirect_stderr(err):
        code = cli.main([command, str(path), "--output", str(report), "--ode-step", "0.05"])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        verdict = records(report.read_text())[-1]
        assert verdict["record"] == "verdict" and verdict["passed"] is False


def test_error_in_a_later_stage_prints_one_line(tmp_path):
    """A dkperp form on the leaves is found after the validity and rank-scan
    checks have passed: the run writes their records, and stderr only the
    error."""
    def edit(data):
        data["sections"]["dkperp"][0]["form"][0] = "1"

    code, out, err = _main_in_process(["dirac-reduce", edited(tmp_path, "rotation_reduce.json", edit)])
    assert code == 2
    assert [r["record"] for r in records(out)].count("check") > 0
    assert err.splitlines() == [f"input error: {records(out)[-1]['message']}"]
    assert err.startswith("input error: sections.dkperp: form component 0")


def test_an_overflowing_H_prints_one_line(tmp_path):
    """W_1 along x2 overflows where H multiplies it into W_0's product: the
    run exits 3 at B's condition check, and stderr holds only the error,
    with no RuntimeWarning from the product."""
    s, theta = "exp(770*(x1 + x2) - 705)", "(x1 + x2)"
    data = {
        "format_version": 1,
        "chart": {"names": ["x1", "x2", "x3", "x4"], "k": 2, "box": [[0, 1], [0, 1], [-1, 1], [-1, 1]]},
        "sections": {"D": [
            {"vector": ["0", "0", f"{s}*cos{theta}", f"{s}*sin{theta}"], "form": ["0", "0", "0", "0"]},
            {"vector": ["0", "0", f"-{s}*sin{theta}", f"{s}*cos{theta}"], "form": ["0", "0", "0", "0"]},
        ]},
        "numerics": {"tol": 1e-7, "seed": 0},
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    out = run_cli("invariant-generators", str(path))
    assert out.returncode == 3
    verdict = records(out.stdout)[-1]
    assert verdict["failed_stage"] == "Step 2"
    assert out.stderr.splitlines() == [f"numerical breakdown [Step 2]: {verdict['message']}"]


class TestStreamFaults:
    """Input and output streams that used to end in a traceback and exit 1:
    each exits 2 with one stderr line, and stdout holds no partial record."""

    @staticmethod
    def run(*args, **streams):
        return subprocess.run([sys.executable, "-m", "diracgen.cli", *args], stderr=subprocess.PIPE, cwd=ROOT,
                              env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}, **streams)

    def test_problem_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_bytes(b"\xff\xfe{}")
        out = self.run("check", str(path), stdout=subprocess.PIPE)
        message = "cannot read problem file: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
        assert out.returncode == 2
        assert out.stderr == f"input error: {message}\n".encode()
        verdict = {"exit_code": 2, "failed_stage": "", "message": message, "passed": False, "point": None,
                   "record": "verdict"}
        assert out.stdout == (json.dumps(verdict, sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize("target, reason", [
        ("", "[Errno 21] Is a directory"),
        ("missing/report.jsonl", "[Errno 2] No such file or directory"),
    ])
    def test_output_that_cannot_be_opened(self, tmp_path, target, reason):
        path = str(tmp_path / target) if target else str(tmp_path)
        out = self.run("check", problem("e1.json"), "--output", path, stdout=subprocess.PIPE)
        assert (out.returncode, out.stdout) == (2, b"")
        assert out.stderr == f"output error: cannot write the report: {reason}: {path!r}\n".encode()

    @pytest.mark.parametrize("stream", ["closed pipe", "full device", "full device as --output"])
    def test_report_stream_that_fails_on_write(self, stream):
        if stream == "closed pipe":
            read, write = os.pipe()
            os.close(read)
            try:
                out = self.run("check", problem("e1.json"), stdout=write)
            finally:
                os.close(write)
            reason = "[Errno 32] Broken pipe"
        else:
            if not os.path.exists("/dev/full"):
                pytest.skip("no /dev/full on this system")
            with open("/dev/full", "w") as full:
                if stream == "full device":
                    out = self.run("check", problem("e1.json"), stdout=full)
                else:
                    out = self.run("check", problem("e1.json"), "--output", "/dev/full", stdout=subprocess.PIPE)
                    assert out.stdout == b""
            reason = "[Errno 28] No space left on device"
        assert out.returncode == 2
        assert out.stderr == f"output error: cannot write the report: {reason}\n".encode()


class TestBoundedWork:
    """Sizes that would bound no work are input errors before any work."""

    @pytest.mark.parametrize("command, name, flag, value, key", [
        ("invariant-generators", "e1.json", "--ode-step", "1e-7", "ode_step: "),
        ("invariant-generators", "e2.json", "--quad-step", "1e-7", "quad_step: "),
        ("dirac-reduce", "translation_reduce.json", "--ode-step", "1e-7", "ode_step: "),
        ("check", "e1.json", "--samples", "10001", "numerics.samples: "),
    ])
    def test_oversized_work_exits_2_with_one_line(self, command, name, flag, value, key):
        out = run_cli(command, problem(name), flag, value, *(["--samples", "2"] if flag != "--samples" else []))
        assert out.returncode == 2
        assert len(out.stderr.splitlines()) == 1 and out.stderr.startswith(f"input error: {key}")
        verdict = records(out.stdout)[-1]
        assert verdict["exit_code"] == 2 and "above the cap" in verdict["message"]

    def test_shipped_problems_stay_far_below_the_caps(self):
        for path in sorted(os.listdir(PROBLEMS)):
            data = problem_data(path)
            chart = cli._chart(data["chart"], "chart")
            numerics = cli._numerics(data, cli.build_parser().parse_args(["check", path]))
            problem = FoliatedProblem(chart=chart, generators=(_free_section(chart),),
                                      ode_step=numerics["ode_step"], quad_step=numerics["quad_step"])
            reach = max((max(-lo, hi) for lo, hi in chart.box[: chart.leaf_count]), default=0.0)
            assert reach / problem.ode_step <= MAX_LINE_STEPS / 100
            assert reach / (2.0 * problem.quad_step) <= MAX_LINE_STEPS / 100
            assert numerics["samples"] <= MAX_SAMPLES / 100


def _free_section(chart):
    """A section with no form part, which every chart admits."""
    zero = parse("0", chart)
    return PontryaginSection(VectorField(chart, (zero,) * chart.n), OneForm(chart, (zero,) * chart.n))


def test_traced_cli_names_are_cli_functions():
    """bench/tracer.py spans the cli functions it names in CLI_FUNCTIONS."""
    with open(os.path.join(ROOT, "bench", "tracer.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "CLI_FUNCTIONS")
    for name in names:
        fn = getattr(cli, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == cli.__name__, name


@pytest.mark.parametrize("name", ["translation_reduce", "rotation_reduce"])
def test_reduction_does_not_import_numpy_ma(name):
    # the first one-dimensional np.unique of a process imports numpy.ma
    block = (
        "import contextlib, io, sys\n"
        "from diracgen import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    code = cli.main(['dirac-reduce', {problem(name + '.json')!r}])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, cwd=ROOT)
    assert out.stdout.split() == ["0", "False"], out.stderr


def test_readme_python_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        block = f.read().split("```python\n", 1)[1].split("```", 1)[0]
    tree = ast.parse(block)
    imported = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - used == set()  # the example imports only what it uses
    out = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "True"


def test_readme_documents_every_schema_key():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        section = f.read().split("## Problem files", 1)[1].split("\n## ", 1)[0]
    keys = ["chart", "chart.names", "chart.k", "chart.box", "action", "action.structure_constants", "quotient",
            "quotient.target", "numerics", *cli._BLOCKS, *(f"numerics.{key}" for key in cli._NUMERICS)]
    assert [key for key in keys if f"`{key}`" not in section] == []
