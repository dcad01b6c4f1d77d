"""Checks of the benchmark's own inputs, answers and tracing.

    PYTHONPATH=src python3 -m pytest -q bench/test_workloads.py

Generated positives must pass with their oracle, generated negatives must
fail at their known stage, the shipped CLI pairs must match the known-answer
table, and two traced passes with one seed must count the same work.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = (3, 4)


def _judged(op):
    op.prepare()
    result, failure = wl.run_guarded(op)
    return failure or op.judge(result)


@pytest.mark.parametrize("seed", SEEDS)
def test_straighten_positives_pass_with_oracle(seed):
    for op in wl.straighten_cycle(seed, 0):
        outcome = _judged(op)
        assert outcome.ok, (op.name, outcome.note)
        assert outcome.oracle_dev < 1e-6, op.name
        assert max(outcome.margins) < 1.0, op.name


@pytest.mark.parametrize("seed", SEEDS)
def test_reduce_positives_pass_and_negatives_fail_at_rank_scan(seed):
    for op in wl.reduce_cycle(seed, 0):
        op.prepare()
        result, failure = wl.run_guarded(op)
        assert failure is None, failure.note
        stages, _ = result
        failed = [name for name, rep in stages if not rep.passed]
        if op.inp.negative:
            assert failed == ["rank scan"], op.name
        else:
            assert failed == [], op.name
            outcome = op.judge(result)
            assert outcome.ok and outcome.oracle_dev < 1e-9, op.name


def test_inputs_repeat_for_a_seed():
    a, b = wl.straighten_input(5, 2), wl.straighten_input(5, 2)
    assert a.generators == b.generators and a.extra == b.extra
    assert all((p == q).all() for p, q in zip(a.samples, b.samples))
    assert wl.reduce_input(5, 1).pi == wl.reduce_input(5, 1).pi
    assert wl.straighten_input(6, 2).generators != a.generators


@pytest.mark.parametrize("pair", wl.CLI_PAIRS, ids=lambda p: f"{p[0]}:{p[1]}")
def test_shipped_cli_pairs_match_known_answers(pair):
    op = wl.CliOp(ROOT, dict(os.environ), pair, seed=wl.op_seed(SEEDS[0], 0), in_process=True)
    outcome = _judged(op)
    assert outcome.ok, outcome.note
    if pair[1] in ("e1", "e2") and pair[0] == "invariant-generators":
        assert outcome.oracle_dev < 1e-9


def test_cli_judge_rejects_wrong_exit_and_tracebacks():
    pair = ("dirac-reduce", "rank_jump", 1, "rank scan")
    path = os.path.join(ROOT, "problems", "rank_jump.json")
    assert not wl._judge_cli(pair, 0, path, 0, "", "").ok
    assert not wl._judge_cli(pair, 0, path, 1, "", "Traceback (most recent call last):\n x").ok


def test_breakdown_miss_is_only_accepted_out_of_reach():
    pair = next(p for p in wl.CLI_PAIRS if p[1] == "numerical_breakdown")
    path = os.path.join(ROOT, "problems", "numerical_breakdown.json")
    prov = json.dumps({"record": "provenance"}) + "\n"
    # seed 953: no sample within reach of |x1| = 0.67, so exit 0 is a sampled pass
    assert not wl._breakdown_reachable(path, 953)
    assert wl._judge_cli(pair, 953, path, 0, prov, "").missed_negative
    # seed 0 reaches the slab: exit 0 would be wrong
    assert wl._breakdown_reachable(path, 0)
    assert not wl._judge_cli(pair, 0, path, 0, prov, "").ok


def test_importtime_split():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        300 |     numpy.core",
        "import time:       200 |        500 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:       400 |        700 |   scipy.optimize",
        "import time:       300 |       1600 | diracgen",
    ])
    split = bench_run.importtime_split(text)
    assert split == pytest.approx({"numpy": 500e-6, "scipy": 700e-6, "diracgen": 400e-6})


def _traced_counts(seed):
    env = bench_run.child_env(ROOT)
    out = bench_run.worker(env, ROOT, "reduce", seed, "--cycles", "1", "--traced", "1")
    assert out["failed"] == 0, out["failures"]
    return {name: st["calls"] for name, st in out["stats"].items()}


def test_traced_counts_repeat_for_a_seed():
    first, second = _traced_counts(SEEDS[0]), _traced_counts(SEEDS[0])
    assert first == second
    assert first["symexpr.eval"] > 0 and first["symexpr.diff"] > 0
    assert first["dirac.pushforward_check"] == 3  # the three positives of one cycle


def test_bench_refuses_a_tree_without_sources():
    # bench/ itself holds no src/diracgen, like a tree with only the benchmark's files
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "reduce", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
