"""Batch front end: load problem files, run the pipelines, emit reports.

Problem files are JSON (schema documented in the README, versioned by the
``format_version`` field).  Machine-readable output is line-delimited
JSON with sorted keys, so a fixed input file and seed produce
byte-identical reports.  A human-readable summary goes to stderr.

Exit codes: 0 all checks pass, 1 verification failure, 2 input error,
3 numerical breakdown (including expressions that overflow or divide by
zero at a point the pipeline evaluates).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

from .calculus import OneForm, PontryaginSection, VectorField
from .dirac import (
    DiracStructure,
    InfinitesimalAction,
    PoissonBivector,
    QuotientMap,
    constant_rank_scan,
    descending_generators,
    graph_of_poisson,
    is_closed,
    pushforward_check,
)
from .distribution import GeneralizedDistribution, check_bracket_hypothesis
from .errors import (
    DiracgenError,
    EvalDomainError,
    InputError,
    NumericalBreakdownError,
    VerificationError,
)
from .invariant_gen import FoliatedProblem, require_positive, run as run_invariant, split_tilde
from .report import Report
from .symexpr import Chart, parse

FORMAT_VERSION = 1

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# -- problem file loading ---------------------------------------------------


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InputError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{where}: expected a list, got {type(value).__name__}")
    return value


def _require(block: dict, key: str, where: str):
    if key not in _object(block, where):
        raise InputError(f"{where}: missing required key '{key}'")
    return block[key]


def load_problem(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read problem file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: top level must be an object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise InputError(
            f"{path}: unsupported format_version {version!r} (expected {FORMAT_VERSION})"
        )
    data["_raw_text"] = text
    return data


def _convert(kind, value, where: str):
    """kind(value) for a JSON value, or an input error naming the key where
    the value has no such reading."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{where}: cannot read {value!r}: {exc}") from exc


def _box_interval(pair) -> tuple[float, float]:
    lo, hi = (float(v) for v in pair)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bounds must be finite")
    return lo, hi


def _chart_from(block: dict, where: str = "chart") -> Chart:
    names = _convert(tuple, _require(block, "names", where), f"{where}.names")
    for name in names:
        if not isinstance(name, str):
            raise InputError(f"{where}.names: coordinate name {name!r} is not a string")
    k = _convert(int, block.get("k", 0), f"{where}.k")
    box = block.get("box")
    if box is not None:
        box = _convert(lambda b: tuple(_box_interval(pair) for pair in b), box, f"{where}.box")
    try:
        if box is None:
            return Chart(coord_names=names, leaf_count=k)
        return Chart(coord_names=names, leaf_count=k, box=box)
    except DiracgenError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _expr(text, chart: Chart, where: str):
    try:
        return parse(str(text), chart)
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


def _section_from(block: dict, chart: Chart, where: str) -> PontryaginSection:
    vec = _list(_require(block, "vector", where), f"{where}.vector")
    form = _list(_require(block, "form", where), f"{where}.form")
    if len(vec) != chart.n or len(form) != chart.n:
        raise InputError(f"{where}: vector and form need {chart.n} components each")
    return PontryaginSection(
        VectorField(chart, tuple(_expr(c, chart, f"{where}.vector[{i}]") for i, c in enumerate(vec))),
        OneForm(chart, tuple(_expr(c, chart, f"{where}.form[{i}]") for i, c in enumerate(form))),
    )


def _section_list(blocks, chart: Chart, where: str) -> tuple[PontryaginSection, ...]:
    return tuple(
        _section_from(b, chart, f"{where}[{i}]") for i, b in enumerate(_list(blocks, where))
    )


def _action_from(data: dict, chart: Chart) -> InfinitesimalAction | None:
    block = data.get("action")
    if block is None:
        return None
    gens = []
    for i, coeffs in enumerate(_list(_require(block, "generators", "action"), "action.generators")):
        if len(_list(coeffs, f"action.generators[{i}]")) != chart.n:
            raise InputError(f"action.generators[{i}]: needs {chart.n} components")
        gens.append(
            VectorField(
                chart,
                tuple(
                    _expr(c, chart, f"action.generators[{i}][{j}]")
                    for j, c in enumerate(coeffs)
                ),
            )
        )
    try:
        return InfinitesimalAction(chart, tuple(gens), block.get("structure_constants"))
    except InputError as exc:
        raise InputError(f"action.structure_constants: {exc}") from exc


def _poisson_from(data: dict, chart: Chart) -> PoissonBivector | None:
    block = data.get("poisson")
    if block is None:
        return None
    rows = [_list(row, f"poisson[{i}]") for i, row in enumerate(_list(block, "poisson"))]
    if len(rows) != chart.n or any(len(row) != chart.n for row in rows):
        raise InputError(f"poisson: components must form an {chart.n} x {chart.n} matrix")
    comps = tuple(
        tuple(_expr(c, chart, f"poisson[{i}][{j}]") for j, c in enumerate(row))
        for i, row in enumerate(rows)
    )
    return PoissonBivector(chart, comps)


def _quotient_from(data: dict, chart: Chart) -> QuotientMap | None:
    block = data.get("quotient")
    if block is None:
        return None
    target = _chart_from(_require(block, "target", "quotient"), "quotient.target")
    comps = tuple(
        _expr(c, chart, f"quotient.components[{i}]")
        for i, c in enumerate(_list(_require(block, "components", "quotient"), "quotient.components"))
    )
    try:
        return QuotientMap(chart, target, comps)
    except DiracgenError as exc:
        raise InputError(f"quotient: {exc}") from exc


def _numerics(data: dict, args) -> dict:
    block = _convert(dict, data.get("numerics") or {}, "numerics")
    out = {
        "tol": block.get("tol", 1e-7),
        "ode_step": block.get("ode_step"),
        "quad_step": block.get("quad_step"),
        "samples": block.get("samples", 32),
        "seed": block.get("seed", 0),
    }
    for key in out:
        if getattr(args, key) is not None:
            out[key] = getattr(args, key)
    for key, kind in (("samples", int), ("seed", int)):
        out[key] = _convert(kind, out[key], f"numerics.{key}")
    for key in ("tol", "ode_step", "quad_step"):
        if out[key] is not None:
            out[key] = require_positive(out[key], f"numerics.{key}")
    for key in ("samples", "seed"):  # numpy's generators take no negative seed
        if out[key] < 0:
            raise InputError(f"numerics.{key}: must be non-negative, got {out[key]}")
    return out


# -- output -----------------------------------------------------------------

class _Emitter:
    """Write line-delimited JSON records to the output stream and a short
    human-readable summary to stderr."""

    def __init__(self, output_path: str | None):
        if output_path:
            self._fh = open(output_path, "w", encoding="utf-8")
            self._owned = True
        else:
            self._fh = sys.stdout
            self._owned = False

    def close(self):
        if self._owned:
            self._fh.close()

    def line(self, obj: dict):
        self._fh.write(json.dumps(obj, sort_keys=True, default=float))
        self._fh.write("\n")

    def provenance(self, command: str, raw_text: str, numerics: dict):
        digest = hashlib.sha256(raw_text.encode("utf-8")).hexdigest()
        self.line(
            {
                "record": "provenance",
                "command": command,
                "input_sha256": digest,
                "format_version": FORMAT_VERSION,
                **{k: numerics[k] for k in sorted(numerics)},
            }
        )

    def checks(self, report: Report):
        for r in report:
            self.line({"record": "check", **r.as_dict()})
            mark = "pass" if r.passed else "FAIL"
            print(
                f"[{mark}] {r.check}: worst residual {r.worst_residual:.3e} (tol {r.tol:.1e})",
                file=sys.stderr,
            )

    def verdict(self, passed: bool, failed_stage: str = ""):
        code = EXIT_PASS if passed else EXIT_VERIFICATION
        obj = {"record": "verdict", "passed": passed, "exit_code": code}
        if failed_stage:
            obj["failed_stage"] = failed_stage
        self.line(obj)
        print("verdict:", "pass" if passed else f"FAIL ({failed_stage or 'checks'})", file=sys.stderr)
        return code

    def error(self, code: int, kind: str, exc: DiracgenError) -> int:
        """The final verdict of a run stopped by an exception: one stderr
        line, and a record with the stage, point and message."""
        stage = exc.stage or ""
        print(f"{kind}{f' [{stage}]' if stage else ''}: {exc}", file=sys.stderr)
        self.line(
            {
                "record": "verdict",
                "passed": False,
                "exit_code": code,
                "failed_stage": stage,
                "point": exc.point,
                "message": str(exc),
            }
        )
        return code


def _sample_points(chart: Chart, numerics: dict):
    return chart.sample_points(seed=numerics["seed"], n_random=numerics["samples"], margin=0.1)


def _foliated_problem(data: dict, chart: Chart, numerics: dict) -> FoliatedProblem:
    sections = _object(data.get("sections") or {}, "sections")
    gens = sections.get("D")
    if not gens:
        raise InputError("sections.D: a spanning family is required")
    generators = _section_list(gens, chart, "sections.D")
    extra = sections.get("extra")
    if extra is not None:
        extra = _section_from(extra, chart, "sections.extra")
    return FoliatedProblem(
        chart=chart,
        generators=generators,
        extra=extra,
        ode_step=numerics["ode_step"],
        quad_step=numerics["quad_step"],
        tol=numerics["tol"],
    )


def _check_leaf_annihilation(sections, chart: Chart, where: str):
    """Reject sections whose form has components on the leaf differentials,
    naming the offending section."""
    for i, s in enumerate(sections):
        try:
            split_tilde(s, chart.leaf_count)
        except InputError as exc:
            raise InputError(f"{where}[{i}]: {exc}") from exc


# -- commands ---------------------------------------------------------------


def cmd_check(data: dict, args, out: _Emitter) -> int:
    numerics = _numerics(data, args)
    out.provenance("check", data["_raw_text"], numerics)
    chart = _chart_from(_require(data, "chart", "problem"))
    samples = _sample_points(chart, numerics)
    report = Report()
    sections = _object(data.get("sections") or {}, "sections")
    action = _action_from(data, chart)
    tol = numerics["tol"]

    gens_block = sections.get("D")
    if gens_block:
        gens = _section_list(gens_block, chart, "sections.D")
        _check_leaf_annihilation(gens, chart, "sections.D")
        extra = sections.get("extra")
        if extra is not None:
            extra = _section_from(extra, chart, "sections.extra")
            _check_leaf_annihilation([extra], chart, "sections.extra")
        if chart.leaf_count > 0:
            theta = GeneralizedDistribution(
                chart,
                tuple(
                    PontryaginSection.from_vector(VectorField.coordinate(chart, l))
                    for l in range(chart.leaf_count)
                ),
            )
            D = GeneralizedDistribution(chart, gens)
            report.extend(check_bracket_hypothesis(D, theta, extra, samples, tol))

    pi = _poisson_from(data, chart)
    if pi is not None:
        D_pi = graph_of_poisson(pi, samples)
        report.extend(D_pi.validate(samples))
        report.extend(is_closed(D_pi, samples, tol))
    dirac_block = data.get("dirac")
    if dirac_block is not None:
        D_d = DiracStructure(chart, _section_list(dirac_block, chart, "dirac"))
        report.extend(D_d.validate(samples))
    if action is not None:
        report.extend(action.validate(samples))
        quotient = _quotient_from(data, chart)
        if quotient is not None:
            report.extend(quotient.validate(action, samples, tol))
    out.checks(report)
    return out.verdict(report.passed)


def cmd_invariant_generators(data: dict, args, out: _Emitter) -> int:
    numerics = _numerics(data, args)
    out.provenance("invariant-generators", data["_raw_text"], numerics)
    chart = _chart_from(_require(data, "chart", "problem"))
    samples = _sample_points(chart, numerics)
    problem = _foliated_problem(data, chart, numerics)
    result = run_invariant(problem, samples=samples)
    out.checks(result.report)
    for m in samples:
        F = result.frame(m)
        rec = {
            "record": "frame",
            "point": [float(v) for v in m],
            "columns": [[float(v) for v in col] for col in F.T],
        }
        if result.combined is not None:
            rec["combined"] = [float(v) for v in result.combined(m)]
        out.line(rec)
    if args.dump_intermediates:
        from .invariant_gen import build_B, build_H, compute_Pi

        for m in samples:
            rec = {
                "record": "intermediates",
                "point": [float(v) for v in m],
                "H": [[float(v) for v in row] for row in build_H(problem, m)],
                "B": [[float(v) for v in row] for row in build_B(problem, m)],
            }
            if problem.extra is not None:
                rec["Pi"] = [float(v) for v in compute_Pi(problem, m)]
            out.line(rec)
    return out.verdict(result.report.passed)


def cmd_dirac_reduce(data: dict, args, out: _Emitter) -> int:
    numerics = _numerics(data, args)
    out.provenance("dirac-reduce", data["_raw_text"], numerics)
    chart = _chart_from(_require(data, "chart", "problem"))
    samples = _sample_points(chart, numerics)
    tol = numerics["tol"]
    action = _action_from(data, chart)
    if action is None:
        raise InputError("dirac-reduce needs an action block")
    quotient = _quotient_from(data, chart)
    if quotient is None:
        raise InputError("dirac-reduce needs a quotient block")
    pi = _poisson_from(data, chart)
    dirac_block = data.get("dirac")
    if pi is not None:
        D = graph_of_poisson(pi, samples)
    elif dirac_block is not None:
        D = DiracStructure(chart, _section_list(dirac_block, chart, "dirac"))
    else:
        raise InputError("dirac-reduce needs a poisson or dirac block")
    sections = _object(data.get("sections") or {}, "sections")
    dkperp = sections.get("dkperp")
    if not dkperp:
        raise InputError("sections.dkperp: a spanning family of the intersection is required")
    family = _section_list(dkperp, chart, "sections.dkperp")

    validity = Report()
    validity.extend(D.validate(samples))
    validity.extend(action.validate(samples))
    validity.extend(quotient.validate(action, samples, tol))
    out.checks(validity)
    if not validity.passed:
        return out.verdict(False, "validity")

    scan_record, _ = constant_rank_scan(D, action, samples)
    scan = Report([scan_record])
    out.checks(scan)
    if not scan.passed:
        return out.verdict(False, "rank scan")

    problem = FoliatedProblem(
        chart=chart,
        generators=family,
        ode_step=numerics["ode_step"],
        quad_step=numerics["quad_step"],
        tol=tol,
    )
    result = descending_generators(D, action, problem, samples=samples, tol=tol)
    out.checks(result.report)
    if not result.report.passed:
        return out.verdict(False, "descending")

    pushed = pushforward_check(
        D, action, quotient, result, samples=samples, tol=max(tol, 1e-6),
        seed=numerics["seed"],
    )
    out.checks(pushed)
    if args.dump_intermediates:
        from .dirac import push_frame

        for m in samples:
            Xbar, abar, _ = push_frame(quotient, result.frame, m, tol)
            out.line(
                {
                    "record": "pushed-frame",
                    "point": [float(v) for v in m],
                    "target_point": [float(v) for v in quotient(m)],
                    "vectors": [[float(v) for v in col] for col in Xbar.T],
                    "forms": [[float(v) for v in col] for col in abar.T],
                }
            )
    if not pushed.passed:
        return out.verdict(False, "pushforward")
    return out.verdict(True)


# -- entry point ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracgen",
        description="Invariant generators and Dirac reduction on explicit charts",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (
        ("check", cmd_check),
        ("invariant-generators", cmd_invariant_generators),
        ("dirac-reduce", cmd_dirac_reduce),
    ):
        p = sub.add_parser(name)
        p.add_argument("problem", help="path to a JSON problem file")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--ode-step", type=float, default=None)
        p.add_argument("--quad-step", type=float, default=None)
        p.add_argument("--samples", type=int, default=None, help="number of random sample points")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--dump-intermediates", action="store_true")
        p.add_argument("--output", default=None, help="write machine-readable report here")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = _Emitter(args.output)
    try:
        data = load_problem(args.problem)
        return args.fn(data, args, out)
    except InputError as exc:
        return out.error(EXIT_INPUT, "input error", exc)
    except (NumericalBreakdownError, EvalDomainError) as exc:
        return out.error(EXIT_NUMERICAL, "numerical breakdown", exc)
    except VerificationError as exc:
        return out.error(EXIT_VERIFICATION, "verification failure", exc)
    finally:
        out.close()


if __name__ == "__main__":
    sys.exit(main())
