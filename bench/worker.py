"""One measuring pass of a workload, in its own interpreter.

Run by ``bench/run.py``; prints one JSON object on its last stdout line.

* ``--seconds T``: closed loop, one client.  After one untimed warm-up cycle
  (in-process workloads: the first call of each code path pays lazy set-up),
  whole cycles of ops run until the first cycle that ends after T seconds;
  every op is timed and judged.
  Then the criterion-4 convergence study runs (untimed for the ops).
* ``--cycles N [--traced 1]``: exactly N cycles, so call counts repeat for
  a seed.  With ``--traced 1`` the library is traced during the ops, and the
  Step 1/2/4 micro-measurements run afterwards on each op's own problem.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
from time import perf_counter

import numpy as np

import workloads as wl
from diracgen import invariant_gen
from diracgen.symexpr import Chart


def cycle_ops(workload: str, root: str, seed: int, cycle: int, in_process: bool):
    if workload == "cli-cold":
        return wl.cli_cycle(root, dict(os.environ), seed, cycle, in_process)
    if workload == "straighten":
        return wl.straighten_cycle(seed, cycle)
    return wl.reduce_cycle(seed, cycle)


def run_op(op):
    """Prepare (untimed), execute (timed), return (seconds, raw result or failure)."""
    op.prepare()
    t0 = perf_counter()
    result, failure = wl.run_guarded(op)
    return perf_counter() - t0, result, failure


def summarize(judged) -> dict:
    failures = [f"{name}: {o.note}" for name, o in judged if not o.ok]
    margins = [m for _, o in judged for m in o.margins]
    devs = [o.oracle_dev for _, o in judged if o.oracle_dev is not None]
    return {
        "attempted": len(judged),
        "failed": len(failures),
        "failures": failures[:20],
        "margin_max": max(margins, default=None),
        "margin_count": len(margins),
        "oracle_max": max(devs, default=None),
        "oracle_count": len(devs),
        "missed_negatives": sum(o.missed_negative for _, o in judged),
    }


# Cycle number of the untimed warm-up cycle: far from the measured cycles, so
# its inputs are distinct from theirs.
WARMUP_CYCLE = 10**6


def timed(args) -> dict:
    if args.workload != "cli-cold":  # each cli-cold op is a fresh process: nothing to warm
        for op in cycle_ops(args.workload, args.root, args.seed, WARMUP_CYCLE, False):
            run_op(op)
    deadline = perf_counter() + args.seconds
    times, names, judged = [], [], []
    cycle = 0
    while True:
        for op in cycle_ops(args.workload, args.root, args.seed, cycle, False):
            dt, result, failure = run_op(op)
            times.append(dt)
            names.append(op.name)
            judged.append((op.name, failure or op.judge(result)))
        cycle += 1
        if perf_counter() >= deadline:
            break
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    out = summarize(judged)
    out.update(
        op_times=times,
        op_names=names,
        cycles=cycle,
        peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
        order=convergence_orders(),
    )
    return out


def fixed(args) -> dict:
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer().install()
    runs = []
    total = 0.0
    try:
        for cycle in range(args.cycles):
            for op in cycle_ops(args.workload, args.root, args.seed, cycle, True):
                dt, result, failure = run_op(op)
                total += dt
                runs.append((op, result, failure))
    finally:
        if tracer is not None:
            tracer.uninstall()
    judged = [(op.name, failure or op.judge(result)) for op, result, failure in runs]
    out = summarize(judged)
    out["op_total_s"] = total
    if tracer is not None:
        out["stats"] = tracer.stats()
        out["micro"] = step_micro([op for op, _, _ in runs], args.seed)
    return out


# -- Step 1/2/4 micro-measurements ---------------------------------------------


def _problems(op):
    """The foliated problems an op straightens (none for negatives)."""
    if isinstance(op, wl.StraightenOp):
        return [op.problem()]
    if isinstance(op, wl.ReduceOp):
        if op.inp.negative:
            return []
        return [invariant_gen.FoliatedProblem(chart=op.inp.chart, generators=op.family, tol=wl.REDUCE_TOL)]
    if op.pair[0] == "invariant-generators" and op.pair[2] == 0:
        return [wl.cli_foliated_problem(op.path)]
    return []


def _line_steps(x: float, h: float) -> int:
    n = int(abs(x) // h)
    return n + (1 if abs(x) - n * h > 1e-15 * max(1.0, abs(x)) else 0)


def step_micro(ops, seed: int) -> dict:
    """Time the Step 1 coefficient solve, Step 2 RK4 and Step 4 Simpson
    panels on each op's problem, at fresh seeded points (off the sample
    sets, so each Step-2 call integrates a line of its own)."""
    acc = {"step1": [0.0, 0], "step2": [0.0, 0], "step4": [0.0, 0]}
    for index, op in enumerate(ops):
        for p in _problems(op):
            rng = np.random.default_rng(wl.op_seed(seed, 10_000 + index))
            lo = np.array([a for a, _ in p.chart.box])
            hi = np.array([b for _, b in p.chart.box])

            def fresh():
                return lo + (hi - lo) * (0.05 + 0.9 * rng.random(p.n))

            for _ in range(8):
                m = fresh()
                t0 = perf_counter()
                invariant_gen.solve_coefficients(p, m)
                acc["step1"][0] += perf_counter() - t0
                acc["step1"][1] += 1
            for _ in range(2):
                m = fresh()
                t0 = perf_counter()
                invariant_gen.fundamental_matrix(p, p.k - 1, m)
                acc["step2"][0] += perf_counter() - t0
                acc["step2"][1] += _line_steps(m[p.k - 1], p.ode_step)
            if p.extra is not None:
                for _ in range(2):
                    m = fresh()
                    t0 = perf_counter()
                    invariant_gen.compute_Pi(p, m)
                    acc["step4"][0] += perf_counter() - t0
                    acc["step4"][1] += sum(_line_steps(m[l], 2.0 * p.quad_step) for l in range(p.k))
    return {
        name: {"s": s, "count": count, "us_per": 1e6 * s / count if count else 0.0}
        for name, (s, count) in acc.items()
    }


# -- criterion-4 convergence study ---------------------------------------------


def convergence_orders() -> dict:
    """Smallest log2 of the halving factors of the fundamental-matrix defect
    and of the Pi error at x1 = 0.8, steps 0.2 ... 0.025, each step on its
    own FoliatedProblem (hence its own solver)."""
    chart = Chart(coord_names=("x1", "x2", "x3"), leaf_count=1, box=((-1.0, 1.0),) * 3)
    x, delta = 0.8, 1e-4
    steps = (0.2, 0.1, 0.05, 0.025)
    g = wl.section(chart, ["0", "exp(x1^2)", "0", "0", "0", "0"])
    defects = []
    for h in steps:
        p = invariant_gen.FoliatedProblem(chart=chart, generators=(g,), ode_step=h)

        def W(s):
            return invariant_gen.fundamental_matrix(p, 0, [s, 0.0, 0.0])[0, 0]

        fd = (-W(x + 2 * delta) + 8 * W(x + delta) - 8 * W(x - delta) + W(x - 2 * delta)) / (12 * delta)
        defects.append(abs(fd - 2.0 * x * W(x)))
    g1 = wl.section(chart, ["0", "1", "0", "0", "0", "0"])
    g2 = wl.section(chart, ["0", "0", "0", "0", "0", "1"])
    extra = wl.section(chart, ["0", "sin(x1)", "0", "0", "0", "sin(x1)"])
    errors = []
    for h in steps:
        p = invariant_gen.FoliatedProblem(chart=chart, generators=(g1, g2), extra=extra, ode_step=h, quad_step=h)
        Pi = invariant_gen.compute_Pi(p, np.array([x, 0.0, 0.0]))
        errors.append(float(np.abs(Pi + math.sin(x)).max()))
    return {
        "rk4": min(math.log2(defects[i] / defects[i + 1]) for i in range(3)),
        "simpson": min(math.log2(errors[i] / errors[i + 1]) for i in range(3)),
        "w_defects": defects,
        "pi_errors": errors,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("cli-cold", "straighten", "reduce"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--cycles", type=int)
    ap.add_argument("--traced", type=int, default=0)
    args = ap.parse_args(argv)
    out = timed(args) if args.cycles is None else fixed(args)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
