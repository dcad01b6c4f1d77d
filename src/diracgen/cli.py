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
import os
import sys
from contextlib import contextmanager
from functools import partial

from .calculus import OneForm, PontryaginSection, VectorField
from .dirac import (
    DiracStructure, InfinitesimalAction, PoissonBivector, QuotientMap, _push_at, constant_rank_scan,
    descending_generators, graph_of_poisson, is_closed, pushforward_check,
)
from .distribution import GeneralizedDistribution, check_bracket_hypothesis
from .errors import DiracgenError, EvalDomainError, InputError, NumericalBreakdownError, VerificationError
from .invariant_gen import FoliatedProblem, require_positive, run as run_invariant, split_tilde
from .report import Report
from .symexpr import Chart, parse

FORMAT_VERSION = 1

EXIT_PASS = 0
EXIT_VERIFICATION = 1
EXIT_INPUT = 2
EXIT_NUMERICAL = 3


# -- problem file schema ----------------------------------------------------
#
# One walker reads every block, and every error names the key path of the
# value it rejects (``sections.D[0].vector[1]``).  A key whose default is
# null (an optional block, ``box``, ``structure_constants``, ``ode_step``,
# ``quad_step``) may be given as null, which is the same as leaving it out;
# any other key given as null is an input error.


def _expect(value, kind, what: str, where: str):
    """value if it is of the JSON kind (a type or a tuple of types, never
    met by a bool), else an input error naming its key."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InputError(f"{where}: expected {what}, got {type(value).__name__}")
    return value


def _require(block, key: str, where: str):
    value = _expect(block, dict, "an object", where).get(key)
    if value is None:
        raise InputError(f"{where}: missing required key '{key}'")
    return value


def _block(data: dict, key: str) -> dict:
    """The object at a top-level key; {} when it is absent or null."""
    value = data.get(key)
    return {} if value is None else _expect(value, dict, "an object", key)


@contextmanager
def _at(where: str):
    """Prefix the key path to an input error raised inside."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{where}: {exc}") from exc


_NUMBER = (int, float, str)  # a number may also be written as a string


def _real(value, where: str) -> float:
    try:
        number = float(_expect(value, _NUMBER, "a number", where))
    except (ValueError, OverflowError):
        number = math.nan
    if not math.isfinite(number):
        raise InputError(f"{where}: expected a finite number, got {value!r}")
    return number


def _positive(value, where: str) -> float:
    return require_positive(_expect(value, _NUMBER, "a number", where), where)


def _count(value, where: str) -> int:
    """A non-negative integer, written as any number with an integral value."""
    number = value if type(value) is int else _real(value, where)
    if number < 0 or number != int(number):
        raise InputError(f"{where}: expected a non-negative integer, got {value!r}")
    return int(number)


def _text(value, where: str) -> str:
    return _expect(value, str, "a string", where)


def _expression(text, where: str, chart: Chart):
    text = str(_expect(text, _NUMBER, "an expression text", where))
    with _at(where):
        return parse(text, chart)


# numerics key -> (default, reading); the command-line flag of the same name
# replaces the file's value
_NUMERICS = {
    "tol": (1e-7, _positive),
    "ode_step": (None, _positive),  # null: 1e-3 of the widest box interval
    "quad_step": (None, _positive),  # null: ode_step
    "samples": (32, _count),
    "seed": (0, _count),
}

# block -> (shape, entry): nested lists with one length per level ("n" the
# chart's dimension, None any length) of expression texts or of sections
# {"vector": [n texts], "form": [n texts]}; the forms of leaf-free sections
# must vanish on the leaf differentials
_BLOCKS = {
    "sections.D": ((None,), "leaf-free section"),
    "sections.extra": ((), "leaf-free section"),
    "sections.dkperp": ((None,), "section"),
    "dirac": (("n",), "section"),
    "poisson": (("n", "n"), "expression"),
    "action.generators": ((None, "n"), "expression"),
    "quotient.components": ((None,), "expression"),
}


def _walk(value, shape: tuple, read, where: str):
    """read(entry, key path) over nested lists with one length per level of
    shape (None: any length), as nested tuples."""
    if not shape:
        return read(value, where)
    entries = _expect(value, list, "a list", where)
    if shape[0] is not None and len(entries) != shape[0]:
        raise InputError(f"{where}: expected {shape[0]} entries, got {len(entries)}")
    return tuple(_walk(v, shape[1:], read, f"{where}[{i}]") for i, v in enumerate(entries))


def _section(block, where: str, chart: Chart, leaf_free: bool) -> PontryaginSection:
    vector, form = (
        _walk(_require(block, key, where), (chart.n,), partial(_expression, chart=chart), f"{where}.{key}")
        for key in ("vector", "form")
    )
    section = PontryaginSection(VectorField(chart, vector), OneForm(chart, form))
    if leaf_free:
        with _at(where):
            split_tilde(section, chart.leaf_count)
    return section


def _read(value, path: str, chart: Chart):
    """value, the block at path, read by its _BLOCKS entry; None when it is
    absent or null."""
    if value is None:
        return None
    shape, entry = _BLOCKS[path]
    if entry == "expression":
        read = partial(_expression, chart=chart)
    else:
        read = partial(_section, chart=chart, leaf_free=entry == "leaf-free section")
    return _walk(value, tuple(chart.n if d == "n" else d for d in shape), read, path)


def load_problem(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
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


def _numerics(data: dict, args) -> dict:
    block = _block(data, "numerics")
    numerics = {}
    for key, (default, read) in _NUMERICS.items():
        value = block.get(key, default) if getattr(args, key) is None else getattr(args, key)
        numerics[key] = None if value is None and default is None else read(value, f"numerics.{key}")
    return numerics


def _chart(block, where: str) -> Chart:
    names = _walk(_require(block, "names", where), (None,), _text, f"{where}.names")
    k = _count(block.get("k", 0), f"{where}.k")
    box = block.get("box")
    box = () if box is None else _walk(box, (len(names), 2), _real, f"{where}.box")
    with _at(where):
        return Chart(coord_names=names, leaf_count=k, box=box)


def _action(data: dict, chart: Chart) -> InfinitesimalAction | None:
    block = data.get("action")
    if block is None:
        return None
    generators = _read(_require(block, "generators", "action"), "action.generators", chart)
    with _at("action.structure_constants"):
        return InfinitesimalAction(
            chart, tuple(VectorField(chart, g) for g in generators), block.get("structure_constants")
        )


def _quotient(data: dict, chart: Chart) -> QuotientMap | None:
    block = data.get("quotient")
    if block is None:
        return None
    target = _chart(_require(block, "target", "quotient"), "quotient.target")
    components = _read(_require(block, "components", "quotient"), "quotient.components", chart)
    with _at("quotient"):
        return QuotientMap(chart, target, components)


def _dirac(data: dict, chart: Chart, samples):
    """The graph of the poisson block and the Dirac structure of the dirac
    block, each None when its block is absent."""
    pi = _read(data.get("poisson"), "poisson", chart)
    sections = _read(data.get("dirac"), "dirac", chart)
    return (
        None if pi is None else graph_of_poisson(PoissonBivector(chart, pi), samples),
        None if sections is None else DiracStructure(chart, sections),
    )


# -- output -----------------------------------------------------------------

class _Emitter:
    """Write line-delimited JSON records to the output stream and a short
    human-readable summary to stderr.  The summary lines of the checks are
    held until the verdict: a run stopped by an input error or a numerical
    breakdown prints that error as its one stderr line."""

    def __init__(self, output_path: str | None):
        if output_path:
            self._fh = open(output_path, "w", encoding="utf-8")
            self._owned = True
        else:
            self._fh = sys.stdout
            self._owned = False
        self._held: list = []  # stderr lines of the checks so far

    def close(self):
        if self._owned:
            self._fh.close()

    def line(self, obj: dict):
        self._fh.write(json.dumps(obj, sort_keys=True, default=float) + "\n")
        self._fh.flush()  # a stream that fails on write fails here, before the summary

    def provenance(self, command: str, raw_text: str, numerics: dict):
        digest = hashlib.sha256(raw_text.encode("utf-8")).hexdigest()
        self.line({"record": "provenance", "command": command, "input_sha256": digest,
                   "format_version": FORMAT_VERSION, **numerics})

    def checks(self, report: Report):
        for r in report:
            self.line({"record": "check", **r.as_dict()})
            mark = "pass" if r.passed else "FAIL"
            self._held.append(f"[{mark}] {r.check}: worst residual {r.worst_residual:.3e} (tol {r.tol:.1e})")

    def _summary(self, line: str):
        print(*self._held, line, sep="\n", file=sys.stderr)

    def verdict(self, passed: bool, failed_stage: str = ""):
        code = EXIT_PASS if passed else EXIT_VERIFICATION
        obj = {"record": "verdict", "passed": passed, "exit_code": code}
        if failed_stage:
            obj["failed_stage"] = failed_stage
        self.line(obj)
        self._summary("verdict: " + ("pass" if passed else f"FAIL ({failed_stage or 'checks'})"))
        return code

    def error(self, code: int, kind: str, exc: DiracgenError) -> int:
        """The final verdict of a run stopped by an exception: its stderr
        line (after the checks' lines only when verification failed), and a
        record with the stage, point and message."""
        stage = exc.stage or ""
        if code != EXIT_VERIFICATION:
            self._held = []
        self._summary(f"{kind}{f' [{stage}]' if stage else ''}: {exc}")
        self.line({"record": "verdict", "passed": False, "exit_code": code, "failed_stage": stage,
                   "point": exc.point, "message": str(exc)})
        return code


# -- commands ---------------------------------------------------------------
#
# main reads the numerics, writes the provenance record and reads the chart
# and its samples; each command reads the blocks it needs.


def cmd_check(data: dict, chart: Chart, samples, numerics: dict, args, out: _Emitter) -> int:
    tol = numerics["tol"]
    sections = _block(data, "sections")
    gens = _read(sections.get("D"), "sections.D", chart)
    extra = _read(sections.get("extra"), "sections.extra", chart)
    action = _action(data, chart)
    quotient = _quotient(data, chart)
    report = Report()
    if gens and chart.leaf_count > 0:
        report.extend(check_bracket_hypothesis(GeneralizedDistribution(chart, gens), extra, samples, tol))
    graph, dirac = _dirac(data, chart, samples)
    if graph is not None:
        report.extend(graph.validate(samples))
        report.extend(is_closed(graph, samples, tol))
    if dirac is not None:
        report.extend(dirac.validate(samples))
    if action is not None:
        report.extend(action.validate(samples))
        if quotient is not None:
            report.extend(quotient.validate(action, samples, tol))
    out.checks(report)
    return out.verdict(report.passed)


def cmd_invariant_generators(data: dict, chart: Chart, samples, numerics: dict, args, out: _Emitter) -> int:
    sections = _block(data, "sections")
    gens = _read(sections.get("D"), "sections.D", chart)
    if not gens:
        raise InputError("sections.D: a spanning family is required")
    problem = FoliatedProblem(
        chart=chart, generators=gens, extra=_read(sections.get("extra"), "sections.extra", chart),
        ode_step=numerics["ode_step"], quad_step=numerics["quad_step"], tol=numerics["tol"],
    )
    result = run_invariant(problem, samples=samples)
    out.checks(result.report)
    for i, m in enumerate(samples):
        rec = {"record": "frame", "point": m.tolist(), "columns": result.sample_frames[i].T.tolist()}
        if result.sample_combined is not None:
            rec["combined"] = result.sample_combined[i].tolist()
        out.line(rec)
    if args.dump_intermediates:
        for i, m in enumerate(samples):
            rec = {"record": "intermediates", "point": m.tolist(), "H": result.sample_H[i].tolist(),
                   "B": result.sample_B[i].tolist()}
            if result.sample_Pi is not None:
                rec["Pi"] = result.sample_Pi[i].tolist()
            out.line(rec)
    return out.verdict(result.report.passed)


def cmd_dirac_reduce(data: dict, chart: Chart, samples, numerics: dict, args, out: _Emitter) -> int:
    tol = numerics["tol"]
    action = _action(data, chart)
    if action is None:
        raise InputError("dirac-reduce needs an action block")
    quotient = _quotient(data, chart)
    if quotient is None:
        raise InputError("dirac-reduce needs a quotient block")
    graph, dirac = _dirac(data, chart, samples)
    D = dirac if graph is None else graph
    if D is None:
        raise InputError("dirac-reduce needs a poisson or dirac block")
    family = _read(_block(data, "sections").get("dkperp"), "sections.dkperp", chart)
    if not family:
        raise InputError("sections.dkperp: a spanning family of the intersection is required")

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

    with _at("sections.dkperp"):  # its forms are checked on the leaves here, after the rank scan
        for section in family:
            split_tilde(section, chart.leaf_count)
    problem = FoliatedProblem(
        chart=chart, generators=family, ode_step=numerics["ode_step"], quad_step=numerics["quad_step"], tol=tol
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
        # one batch from run()'s frames, bit-identical to quotient(m) and push_frame at each sample
        targets, Xbar, abar, _ = _push_at(quotient, result.sample_frames, samples)
        for i, m in enumerate(samples):
            out.line({"record": "pushed-frame", "point": m.tolist(), "target_point": targets[i].tolist(),
                      "vectors": Xbar[i].T.tolist(), "forms": abar[i].T.tolist()})
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
    try:
        out = _Emitter(args.output)
        try:
            data = load_problem(args.problem)
            numerics = _numerics(data, args)
            out.provenance(args.command, data["_raw_text"], numerics)
            chart = _chart(_require(data, "chart", "problem"), "chart")
            with _at("numerics.samples"):
                samples = chart.sample_points(seed=numerics["seed"], n_random=numerics["samples"], margin=0.1)
            return args.fn(data, chart, samples, numerics, args, out)
        except InputError as exc:
            return out.error(EXIT_INPUT, "input error", exc)
        except (NumericalBreakdownError, EvalDomainError) as exc:
            return out.error(EXIT_NUMERICAL, "numerical breakdown", exc)
        except VerificationError as exc:
            return out.error(EXIT_VERIFICATION, "verification failure", exc)
        finally:
            out.close()
    except OSError as exc:  # the report stream cannot be opened or fails on write
        if not args.output:
            # what stdout still buffers goes nowhere, so exiting adds no second error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"output error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
