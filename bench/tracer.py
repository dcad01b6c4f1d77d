"""Spans and counters around the library's public functions.

The tracer replaces each public function of ``symexpr``, ``calculus``,
``distribution``, ``invariant_gen``, ``dirac`` and ``cli`` with a wrapper
that records calls, total time and self time (total minus the time of child
spans).  A function is replaced wherever a ``diracgen`` module holds it, so
``invariant_gen.run`` is also traced when ``dirac`` or ``cli`` calls it under
its own name.  ``Expr.eval`` and top-level ``Expr.diff`` are counted only,
without spans, to keep the overhead bounded.  Spans are aggregated by name in
memory; ``uninstall`` restores every original.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("symexpr", "calculus", "distribution", "invariant_gen", "dirac", "cli")
CLI_FUNCTIONS = ("main", "load_problem", "cmd_check", "cmd_invariant_generators", "cmd_dirac_reduce")
# span name -> functions it aggregates
AGGREGATES = {"calculus.bracket": ("calculus.skew_bracket", "calculus.courant_bracket")}


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self._stack = []
        self._patches = []  # (owner, attribute, original), restored in reverse

    # -- wrappers -------------------------------------------------------------

    def _span(self, name, fn):
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self._stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                calls[name] += 1
                total[name] += dt
                self_time[name] += dt - child
                if stack:
                    stack[-1] += dt

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper):
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "diracgen" or modname.startswith("diracgen.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    # -- install / uninstall --------------------------------------------------

    def install(self):
        from diracgen import dirac, symexpr

        for short in MODULES:
            mod = importlib.import_module(f"diracgen.{short}")
            names = CLI_FUNCTIONS if short == "cli" else mod.__all__
            for attr in names:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    self._replace_everywhere(fn, self._span(f"{short}.{attr}", fn))
        self._replace_everywhere(dirac.least_squares, self._span("dirac.least_squares", dirac.least_squares))
        for cls in (dirac.DiracStructure, dirac.InfinitesimalAction, dirac.QuotientMap):
            self._patch(cls, "validate", self._span("dirac.validate", cls.validate))

        counts = self.calls
        eval_orig = symexpr.Expr.eval

        def counted_eval(expr, point):
            counts["symexpr.eval"] += 1
            return eval_orig(expr, point)

        self._patch(symexpr.Expr, "eval", counted_eval)
        depth = [0]
        for cls in _expr_classes(symexpr.Expr):
            if "diff" in cls.__dict__:
                self._patch(cls, "diff", _counted_diff(cls.__dict__["diff"], counts, depth))
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def stats(self) -> dict:
        """``{name: {"calls", "s", "self_s"}}`` for every span seen, plus the
        aggregates and the eval/diff counts."""
        out = {
            name: {"calls": self.calls[name], "s": self.total[name], "self_s": self.self_time[name]}
            for name in self.total
        }
        for name, parts in AGGREGATES.items():
            out[name] = {
                key: sum(out.get(p, {}).get(key, 0) for p in parts) for key in ("calls", "s", "self_s")
            }
        for name in ("symexpr.eval", "symexpr.diff"):
            out[name] = {"calls": self.calls[name]}
        return out


def _expr_classes(base):
    seen = []
    todo = [base]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def _counted_diff(diff, counts, depth):
    """Count only the outermost ``diff`` call; recursive calls pass through."""

    def counted(expr, index):
        if depth[0]:
            return diff(expr, index)
        depth[0] = 1
        counts["symexpr.diff"] += 1
        try:
            return diff(expr, index)
        finally:
            depth[0] = 0

    return counted
