"""The batch front end: exit codes, report format, determinism."""

import argparse
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from diracgen import cli
from diracgen.errors import InputError
from diracgen.symexpr import Chart

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
            ("names-not-strings", "chart.names"),
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


# Any JSON value, with keys the readers look for among the object keys.
_KEYS = ["names", "k", "box", "vector", "form", "generators", "structure_constants",
         "target", "components", "tol", "samples", "seed", "ode_step", "quad_step"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["x1", "x2", "x3", "y1", "1", "-1", "0.5", "1e400"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=16,
)
_CHART = Chart(coord_names=("x1", "x2", "x3"), leaf_count=1)
_NO_FLAGS = argparse.Namespace(tol=None, ode_step=None, quad_step=None, samples=None, seed=None)
_READERS = {
    "chart": lambda v: cli._chart_from(v),
    "sections": lambda v: cli._section_list(v, _CHART, "sections.D"),
    "action": lambda v: cli._action_from({"action": v}, _CHART),
    "poisson": lambda v: cli._poisson_from({"poisson": v}, _CHART),
    "quotient": lambda v: cli._quotient_from({"quotient": v}, _CHART),
    "numerics": lambda v: cli._numerics({"numerics": v}, _NO_FLAGS),
}


@settings(max_examples=300, deadline=None)
@given(reader=st.sampled_from(sorted(_READERS)), value=_JSON)
def test_readers_return_or_raise_input_error(reader, value):
    """Each problem-file reader either reads a JSON value or rejects it with
    an InputError (exit 2); it never raises anything else."""
    try:
        _READERS[reader](value)
    except InputError:
        pass
