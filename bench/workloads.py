"""Seeded inputs, known answers and closed-form oracles for the benchmark.

Every op is built from ``(workload seed, op index)`` only, so the same seed
gives the same inputs.  An op has three parts:

* ``prepare()`` builds the inputs (untimed);
* ``execute()`` asks the library for one verdict (timed);
* ``judge(outcome)`` compares the verdict with the input's known answer and
  with a closed-form oracle (untimed), returning an :class:`Outcome`.

Workloads run their ops in fixed cycles: each cycle holds every shape of
the workload once, so the mix of shapes in a run does not depend on the
seed; the seed only moves coefficients and sample points.
"""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import diracgen
from diracgen import cli, dirac, invariant_gen
from diracgen.calculus import OneForm, PontryaginSection, VectorField
from diracgen.symexpr import Chart, parse

# -- sizing (see bench/metadata.json for the reasons) --------------------------

STRAIGHTEN_STEP = 0.02  # ode_step and quad_step of every straighten op
REDUCE_TOL = 1e-7


@dataclass
class Outcome:
    """Judgement of one op against its known answer."""

    ok: bool
    note: str = ""
    margins: list = field(default_factory=list)  # worst_residual / tol, positive ops
    oracle_dev: float | None = None
    missed_negative: bool = False


def op_seed(seed: int, index: int) -> int:
    """Per-op seed derived from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0] % (2**31))


def _margins(records) -> list[float]:
    return [r["worst_residual"] / r["tol"] for r in records if r["tol"] > 0]


def _fmt(x: float) -> str:
    return f"({x!r})"


# -- cli-cold ------------------------------------------------------------------

# (command, problem, expected exit code, text the failure names on stderr)
CLI_PAIRS = (
    ("check", "e1", 0, None),
    ("check", "e2", 0, None),
    ("check", "translation_reduce", 0, None),
    ("check", "rotation_reduce", 0, None),
    ("invariant-generators", "e1", 0, None),
    ("invariant-generators", "e2", 0, None),
    ("dirac-reduce", "translation_reduce", 0, None),
    ("dirac-reduce", "rotation_reduce", 0, None),
    ("invariant-generators", "bad_hypothesis", 1, "Step 1"),
    ("invariant-generators", "numerical_breakdown", 3, "Step 2"),
    ("dirac-reduce", "rank_jump", 1, "rank scan"),
)

# numerical_breakdown.json straightens exp(12 x1), exp(-12 x1): the Step-2
# transform is diag(e^{12 x1}, e^{-12 x1}) with condition number e^{24|x1|},
# which passes 1/tol = 1e7 at |x1| = ln(1e7)/24.  The verifier evaluates the
# frame at the samples and at finite-difference stencil points up to 0.04
# away along x1.  When no sample comes that close, the ill-conditioned slab is
# never evaluated and exit 0 is a sampled pass: the op is accepted but counted
# as a missed negative control.
BREAKDOWN_X1 = math.log(1e7) / 24.0
BREAKDOWN_REACH = 0.04


def _load(problem_path: str):
    with open(problem_path, encoding="utf-8") as fh:
        data = json.load(fh)
    c = data["chart"]
    chart = Chart(coord_names=tuple(c["names"]), leaf_count=c["k"], box=tuple(map(tuple, c["box"])))
    return data, chart


def _breakdown_reachable(problem_path: str, seed: int) -> bool:
    _, chart = _load(problem_path)
    samples = chart.sample_points(seed=seed, n_random=32, margin=0.1)
    return max(abs(float(p[0])) for p in samples) + BREAKDOWN_REACH >= BREAKDOWN_X1


def cli_foliated_problem(problem_path: str):
    """The FoliatedProblem ``invariant-generators`` builds from a shipped
    file with its default numerics."""
    data, chart = _load(problem_path)
    sections = data["sections"]
    generators = tuple(section(chart, s["vector"] + s["form"]) for s in sections["D"])
    extra = sections.get("extra")
    if extra is not None:
        extra = section(chart, extra["vector"] + extra["form"])
    return invariant_gen.FoliatedProblem(
        chart=chart, generators=generators, extra=extra, tol=data["numerics"]["tol"]
    )


def _judge_cli(pair, seed: int, problem_path: str, code: int, stdout: str, stderr: str) -> Outcome:
    command, name, expected, stage = pair
    if "Traceback (most recent call last)" in stderr:
        return Outcome(False, f"traceback on stderr: {stderr.strip().splitlines()[-1]}")
    missed = False
    if code != expected:
        if name == "numerical_breakdown" and code == 0 and not _breakdown_reachable(problem_path, seed):
            missed = True
        else:
            return Outcome(False, f"exit {code}, expected {expected}")
    if stage is not None and not missed and stage not in stderr:
        return Outcome(False, f"failure does not name {stage!r}")
    records = [json.loads(line) for line in stdout.splitlines() if line.startswith("{")]
    if not records or records[0].get("record") != "provenance":
        return Outcome(False, "no provenance record")
    if expected != 0:
        return Outcome(True, missed_negative=missed)
    verdicts = [r for r in records if r["record"] == "verdict"]
    if len(verdicts) != 1 or not verdicts[0]["passed"]:
        return Outcome(False, "missing or failed verdict record")
    checks = [r for r in records if r["record"] == "check"]
    dev = None
    frames = [r for r in records if r["record"] == "frame"]
    if command == "invariant-generators":
        if not frames:
            return Outcome(False, "no frame records")
        if name == "e1":  # frame = (0, 1, 0, 0, 1, 0) everywhere
            target = np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0])
            dev = max(float(np.abs(np.array(col) - target).max()) for r in frames for col in r["columns"])
        else:  # e2: the corrected extra section vanishes
            dev = max(float(np.abs(np.array(r["combined"])).max()) for r in frames)
    return Outcome(True, margins=_margins(checks), oracle_dev=dev)


class CliOp:
    """One fresh ``python -m diracgen.cli`` process on a shipped problem.

    With ``in_process`` set (the traced run), ``cli.main`` is called in this
    interpreter instead, so its layers can be traced.
    """

    def __init__(self, root: str, env: dict, pair, seed: int, in_process: bool = False):
        self.pair, self.seed, self.env, self.in_process = pair, seed, env, in_process
        self.path = os.path.join(root, "problems", pair[1] + ".json")
        self.argv = [pair[0], self.path, "--seed", str(seed)]
        self.name = f"{pair[0]}:{pair[1]}"

    def prepare(self):
        pass

    def execute(self):
        if not self.in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "diracgen.cli", *self.argv],
                capture_output=True,
                text=True,
                env=self.env,
                timeout=120,
            )
            return proc.returncode, proc.stdout, proc.stderr
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(self.argv)
            except Exception:  # an escaped exception is what a user sees as a traceback
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue()

    def judge(self, result) -> Outcome:
        return _judge_cli(self.pair, self.seed, self.path, *result)


def cli_cycle(root: str, env: dict, seed: int, cycle: int, in_process: bool = False):
    n = len(CLI_PAIRS)
    return [
        CliOp(root, env, pair, op_seed(seed, cycle * n + i), in_process)
        for i, pair in enumerate(CLI_PAIRS)
    ]


# -- straighten ----------------------------------------------------------------

# One cycle: (leaf count k, generator count r, with extra section, criterion-6
# shape, verification samples).  The sample counts make every op cost about
# the same (near 0.6 s here), so that the latency percentiles of a run fall
# inside one cluster of similar ops instead of between far-apart clusters.
STRAIGHTEN_SHAPES = (
    (1, 1, True, False, 18),
    (1, 2, False, False, 46),
    (1, 3, True, False, 12),
    (2, 1, False, False, 8),
    (2, 2, True, False, 2),
    (1, 1, False, True, 8),
    (1, 2, False, True, 6),
)
TRANSVERSE = 2  # transverse coordinates of every straighten chart


@dataclass
class StraightenInput:
    """A seeded foliated problem with its closed-form frame oracle.

    Generator j is sum_i M[i, j] exp(a_i . x_leaf) P_i, where the profile P_i
    has one nonzero transverse slot, (c0 + c1 sin(w x_{k+1})) exp(b x_{k+2}).
    On the slice x_leaf = 0 the straightening transform is the identity, and
    the straightened frame is leaf-invariant, so at every point it equals the
    generators at the leaf-zeroed point: M[i, j] P_i there.
    """

    chart: Chart
    k: int
    generators: tuple
    extra: PontryaginSection | None
    slots: list  # row of the 2n-vector each profile occupies
    mix: np.ndarray  # r x r
    profile: list  # (c0, c1, w, b) for c0 + c1 sin(w x_{k+1}), times exp(b x_{k+2})
    samples: list
    annihilator: bool

    def frame_oracle(self, m) -> np.ndarray:
        """Transverse rows of the frame at m (vector rows k..n-1, then form rows)."""
        n, k = self.chart.n, self.k
        full = np.zeros((2 * n, self.mix.shape[1]))
        for i, slot in enumerate(self.slots):
            c0, c1, w, b = self.profile[i]
            value = (c0 + c1 * math.sin(w * m[k])) * math.exp(b * m[k + 1])
            full[slot] = self.mix[i] * value
        return _transverse(full, n, k)


def _transverse(M: np.ndarray, n: int, k: int) -> np.ndarray:
    return np.concatenate([M[k:n], M[n + k :]])


def straighten_input(seed: int, index: int) -> StraightenInput:
    k, r, with_extra, annihilator, n_samples = STRAIGHTEN_SHAPES[index % len(STRAIGHTEN_SHAPES)]
    rng = np.random.default_rng(op_seed(seed, index))
    n = k + TRANSVERSE
    names = tuple(f"x{i + 1}" for i in range(n))
    chart = Chart(coord_names=names, leaf_count=k, box=((-1.0, 1.0),) * n)
    # transverse slots: vector rows k..n-1 and form rows n+k..2n-1
    if annihilator:
        pool = [n + j for j in range(k, n)]
    else:
        pool = [j for j in range(k, n)] + [n + j for j in range(k, n)]
    slots = [int(s) for s in rng.choice(pool, size=r, replace=False)]
    while True:
        mix = np.eye(r) + 0.4 * rng.uniform(-1.0, 1.0, size=(r, r))
        if np.linalg.cond(mix) < 8.0:
            break
    rates = rng.uniform(-0.8, 0.8, size=(r, k))
    profile = [
        (float(rng.uniform(1.0, 1.5)), float(rng.uniform(-0.4, 0.4)),
         float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.3, 0.3)))
        for _ in range(r)
    ]
    tn1, tn2 = names[k], names[k + 1]
    terms = []
    for i in range(r):
        c0, c1, w, b = profile[i]
        leaf = " + ".join(f"{_fmt(float(rates[i, l]))}*{names[l]}" for l in range(k))
        terms.append(f"exp({leaf})*({_fmt(c0)} + {_fmt(c1)}*sin({_fmt(w)}*{tn1}))*exp({_fmt(b)}*{tn2})")
    rows = []
    for j in range(r):
        comps = ["0"] * (2 * n)
        for i, slot in enumerate(slots):
            comps[slot] = f"{_fmt(float(mix[i, j]))}*{terms[i]}"
        rows.append(comps)
    generators = tuple(section(chart, comps) for comps in rows)
    extra = None
    if with_extra:
        j = int(rng.integers(0, r))
        extra = section(chart, [c if c == "0" else f"sin(x1)*{c}" for c in rows[j]])
    samples = [rng.uniform(-0.9, 0.9, size=n) for _ in range(n_samples)]
    # Leaf coordinates are stratified: each takes the magnitudes 0.9 (i + 1/2) / S
    # in a seeded order with seeded signs.  Step-2 lines run from the zero
    # slice, so their lengths, and the work of an op, do not depend on the seed.
    magnitudes = 0.9 * (np.arange(n_samples) + 0.5) / n_samples
    for l in range(k):
        leaf = rng.permutation(magnitudes) * rng.choice([-1.0, 1.0], size=n_samples)
        for m, x in zip(samples, leaf):
            m[l] = x
    return StraightenInput(chart, k, generators, extra, slots, mix, profile, samples, annihilator)


def section(chart: Chart, comps) -> PontryaginSection:
    """A section from 2n expression strings, vector components first."""
    n = chart.n
    return PontryaginSection(
        VectorField(chart, tuple(parse(c, chart) for c in comps[:n])),
        OneForm(chart, tuple(parse(c, chart) for c in comps[n:])),
    )


class StraightenOp:
    """Steps 1-4 through ``run()`` (or ``invariant_annihilator_generators``
    for the criterion-6 shape) on one seeded foliated problem."""

    def __init__(self, seed: int, index: int):
        self.seed, self.index = seed, index
        k, r, extra, ann, _ = STRAIGHTEN_SHAPES[index % len(STRAIGHTEN_SHAPES)]
        self.name = f"k{k}r{r}" + ("+extra" if extra else "") + ("+annihilator" if ann else "")

    def prepare(self):
        self.inp = straighten_input(self.seed, self.index)

    def problem(self):
        inp = self.inp
        return invariant_gen.FoliatedProblem(
            chart=inp.chart, generators=inp.generators, extra=inp.extra,
            ode_step=STRAIGHTEN_STEP, quad_step=STRAIGHTEN_STEP,
        )

    def execute(self):
        inp = self.inp
        problem = self.problem()
        if inp.annihilator:
            chart = inp.chart
            action = dirac.InfinitesimalAction(
                chart, tuple(VectorField.coordinate(chart, l) for l in range(inp.k))
            )
            return dirac.invariant_annihilator_generators(action, problem, samples=inp.samples)
        return invariant_gen.run(problem, samples=inp.samples)

    def judge(self, result) -> Outcome:
        inp = self.inp
        if not result.report.passed:
            failed = [r.check for r in result.report.failures()]
            return Outcome(False, f"positive input failed {failed}")
        n, k = inp.chart.n, inp.k
        dev = 0.0
        for m in inp.samples:
            want = inp.frame_oracle(m)
            got = _transverse(result.frame(m), n, k)
            dev = max(dev, float(np.abs(got - want).max()) / (1.0 + float(np.abs(want).max())))
            if result.combined is not None:  # extra = sin(x1) * generator: zero on the slice
                got = _transverse(result.combined(m)[:, None], n, k)
                dev = max(dev, float(np.abs(got).max()))
        records = [r.as_dict() for r in result.report]
        return Outcome(True, margins=_margins(records), oracle_dev=dev)


def straighten_cycle(seed: int, cycle: int):
    n = len(STRAIGHTEN_SHAPES)
    return [StraightenOp(seed, cycle * n + i) for i in range(n)]


# -- reduce --------------------------------------------------------------------

# One cycle: (dimension n, rank-jump negative, random samples besides the
# centre).  pushforward_check lifts the images of the first six samples, with
# a finite-difference stencil in every target direction, so its cost grows
# with n; fewer samples for larger n keep the positives near the same cost
# (about 0.65 s on a shared 2-core VM), so that the percentiles of a run fall
# inside one cluster.
# The negative stops at the rank scan and costs little.
REDUCE_SHAPES = ((2, False, 5), (3, False, 2), (4, False, 1), (3, True, 8))


@dataclass
class ReduceInput:
    """A seeded reduction by the x1 translation.

    Positives are graphs of Poisson bivectors independent of x1:
    n = 2, 4 are products of 2-D blocks f(x2) dx1^dx2 (+ g(x3, x4) dx3^dx4);
    n = 3 is a constant skew matrix times f(x2).  The intersection with the
    orthogonal of the vertical block is spanned by the graph sections of
    dx2..dxn, and the quotient is the projection onto x2..xn, so the pushed
    frame satisfies Xbar = pibar . abar with pibar the x2..xn block of pi.

    Negatives are graphs of the closed 2-form x1 f(x2) dx1^dx2 (+ the same
    g(x3, x4) dx3^dx4 for n = 4): the intersection gains a dimension on x1 = 0,
    which the sample set contains, so the rank scan must fail.
    """

    chart: Chart
    negative: bool
    pi: list  # n x n expression strings (positives)
    pi_fn: object  # m -> n x n matrix, closed form
    omega: list  # n x n expression strings (negatives)
    samples: list


def reduce_input(seed: int, index: int) -> ReduceInput:
    n, negative, n_random = REDUCE_SHAPES[index % len(REDUCE_SHAPES)]
    rng = np.random.default_rng(op_seed(seed, index))
    names = tuple(f"x{i + 1}" for i in range(n))
    chart = Chart(coord_names=names, leaf_count=1, box=((-1.0, 1.0),) * n)
    c0 = float(rng.uniform(0.8, 1.5)) * float(rng.choice([-1.0, 1.0]))
    c1 = float(rng.uniform(-0.4, 0.4))
    w = float(rng.uniform(0.5, 1.5))
    f = f"({_fmt(c0)} + {_fmt(c1)}*sin({_fmt(w)}*x2))"

    def f_val(m):
        return c0 + c1 * math.sin(w * m[1])

    entries = {}  # (i, j) with i < j -> (expression, closed form)
    if n == 3 and not negative:
        C = rng.uniform(-1.0, 1.0, size=3)
        C[0] = math.copysign(max(abs(C[0]), 0.3), C[0])
        for (i, j), c in zip(((0, 1), (0, 2), (1, 2)), C):
            entries[(i, j)] = (f"{_fmt(float(c))}*{f}", lambda m, c=float(c): c * f_val(m))
    else:
        entries[(0, 1)] = (f"x1*{f}" if negative else f, f_val)
        if n == 4:
            d0 = float(rng.uniform(0.8, 1.5))
            d1, d2 = (float(v) for v in rng.uniform(-0.4, 0.4, size=2))
            g = f"({_fmt(d0)} + {_fmt(d1)}*x3*x4 + {_fmt(d2)}*cos(x3))"
            entries[(2, 3)] = (g, lambda m: d0 + d1 * m[2] * m[3] + d2 * math.cos(m[2]))
    matrix = [["0"] * n for _ in range(n)]
    for (i, j), (expr, _) in entries.items():
        matrix[i][j] = expr
        matrix[j][i] = f"-({expr})"

    def pi_fn(m):
        P = np.zeros((n, n))
        for (i, j), (_, fn) in entries.items():
            P[i, j] = fn(m)
            P[j, i] = -P[i, j]
        return P

    samples = [np.zeros(n)] + [rng.uniform(-0.8, 0.8, size=n) for _ in range(n_random)]
    if negative:
        return ReduceInput(chart, True, [], None, matrix, samples)
    return ReduceInput(chart, False, matrix, pi_fn, [], samples)


class ReduceOp:
    """validate -> is_closed -> constant_rank_scan -> descending_generators
    -> pushforward_check on one seeded structure."""

    def __init__(self, seed: int, index: int):
        self.seed, self.index = seed, index
        n, negative, _ = REDUCE_SHAPES[index % len(REDUCE_SHAPES)]
        self.name = f"n{n}" + ("-rank-jump" if negative else "")

    def prepare(self):
        inp = self.inp = reduce_input(self.seed, self.index)
        chart = inp.chart
        n = chart.n
        self.action = dirac.InfinitesimalAction(chart, (VectorField.coordinate(chart, 0),))
        target = Chart(coord_names=tuple(f"y{i + 2}" for i in range(n - 1)), leaf_count=0,
                       box=((-1.0, 1.0),) * (n - 1))
        self.quotient = dirac.QuotientMap(chart, target, tuple(parse(f"x{i + 2}", chart) for i in range(n - 1)))
        if inp.negative:
            # graph of the 2-form: (d_j, omega(d_j, .)) for each coordinate j
            gens = []
            for j in range(n):
                vec = ["1" if i == j else "0" for i in range(n)]
                gens.append(section(chart, vec + [inp.omega[j][i] for i in range(n)]))
            self.gens = tuple(gens)
        else:
            self.pi = dirac.PoissonBivector(chart, tuple(tuple(parse(e, chart) for e in row) for row in inp.pi))
            # graph sections of dx2..dxn: (pi^{. j}, dx^j)
            family = []
            for j in range(1, n):
                form = ["1" if i == j else "0" for i in range(n)]
                family.append(section(chart, [inp.pi[i][j] for i in range(n)] + form))
            self.family = tuple(family)

    def execute(self):
        inp, action, quotient, samples = self.inp, self.action, self.quotient, self.inp.samples
        if inp.negative:
            D = dirac.DiracStructure(inp.chart, self.gens)
        else:
            D = dirac.graph_of_poisson(self.pi, samples)
        stages = []
        validity = D.validate(samples)
        validity.extend(action.validate(samples))
        validity.extend(quotient.validate(action, samples, REDUCE_TOL))
        stages.append(("validity", validity))
        if not validity.passed:
            return stages, None
        stages.append(("closedness", dirac.is_closed(D, samples, REDUCE_TOL)))
        if not stages[-1][1].passed:
            return stages, None
        record, _ = dirac.constant_rank_scan(D, action, samples)
        stages.append(("rank scan", diracgen.Report([record])))
        if not record.passed:
            return stages, None
        problem = invariant_gen.FoliatedProblem(chart=inp.chart, generators=self.family, tol=REDUCE_TOL)
        result = dirac.descending_generators(D, action, problem, samples=samples, tol=REDUCE_TOL)
        stages.append(("descending", result.report))
        if not result.report.passed:
            return stages, None
        pushed = dirac.pushforward_check(D, action, quotient, result, samples=samples, tol=1e-6,
                                         seed=self.seed)
        stages.append(("pushforward", pushed))
        return stages, result

    def judge(self, result) -> Outcome:
        stages, frame_result = result
        failed = next((name for name, rep in stages if not rep.passed), None)
        if self.inp.negative:
            if failed != "rank scan":
                return Outcome(False, f"rank-jump negative failed at {failed!r}, expected 'rank scan'")
            return Outcome(True)
        if failed is not None:
            return Outcome(False, f"positive input failed at {failed!r}")
        dev = 0.0
        for m in self.inp.samples:
            Xbar, abar, _ = dirac.push_frame(self.quotient, frame_result.frame, m, 1e-6)
            pibar = self.inp.pi_fn(m)[1:, 1:]
            dev = max(dev, float(np.abs(Xbar - pibar @ abar).max()))
        records = [r.as_dict() for _, rep in stages for r in rep]
        return Outcome(True, margins=_margins(records), oracle_dev=dev)


def reduce_cycle(seed: int, cycle: int):
    n = len(REDUCE_SHAPES)
    return [ReduceOp(seed, cycle * n + i) for i in range(n)]


def run_guarded(op):
    """Execute an op; an exception that escapes the library is a failed op,
    recorded with its type and message, and the loop goes on."""
    try:
        return op.execute(), None
    except Exception as exc:  # the loop's boundary: count the failure, keep measuring
        return None, Outcome(False, f"unexpected {type(exc).__name__}: {exc}")
