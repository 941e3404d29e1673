"""Spans and counters around calls into coordsem's public functions.

The package has no instrumentation of its own, so the tracer replaces
public functions with timing wrappers from the outside: every module of
the package that holds a reference to a traced function gets the wrapper,
so calls between modules (`judge` calling `denote_options`, `report`
calling `check_frege_theorem`) are seen too.

A span's self time is its duration minus the part its child spans cover,
where a child covers its whole wrapper, bookkeeping included; the tracer's
own work is therefore charged to no layer, and the self times of one op
never add up to more than the op's wall time.

No span is kept: as a span closes, its self time is added to its name's
total and to its op's total, which `take()` hands over and resets.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from coordsem import boolean, cli, formula, implicature, prospect, relevance, report

# The eight `*_records` sections that report.build_records concatenates.
REPORT_SECTIONS = ("law", "parity", "option", "judgment", "divergence",
                   "implicature", "brevity", "probability")

# (module, function, span name): calls timed as spans.
SPANNED = (
    [(formula, "parse", "formula.parse"),
     (boolean, "equivalent", "boolean.equivalent"),
     (boolean, "xor_parity", "boolean.xor_parity"),
     (prospect, "denote_options", "prospect.denote_options"),
     (prospect, "judge", "prospect.judge"),
     (implicature, "project", "implicature.project"),
     (relevance, "check_frege_theorem", "relevance.frege"),
     (relevance, "check_disjunction_corollary", "relevance.corollary"),
     (relevance, "check_explosion_irrelevance", "relevance.explosion"),
     (relevance, "check_relevance_ordering", "relevance.ordering"),
     (cli, "main", "cli.main")]
    + [(report, f"{s}_records", f"report.{s}_records") for s in REPORT_SECTIONS]
)


@dataclass(frozen=True)
class Unit:
    """What one unit of work (a pass over a batch, or one process) did."""

    self_ms: dict[str, float]
    calls: dict[str, int]
    counts: dict[str, int]
    op_wall_s: list[float]
    op_self_s: list[float]  # per op, the sum of its spans' self times


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "coordsem" or name.startswith("coordsem."))]


class Tracer:
    """Install with `install()`, wrap each op in `with tracer.op():`, read
    and reset the totals with `take()`, restore the package with
    `uninstall()`."""

    def __init__(self) -> None:
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[list[float]] = []  # open frames: [covered_s]
        self._self_s: defaultdict = defaultdict(float)  # per name
        self._op_self = 0.0  # the open op's spans so far
        self._ops: list[float] = []
        self._op_selves: list[float] = []
        self._calls: Counter = Counter()
        self._counts: Counter = Counter()

    # -- installation -------------------------------------------------

    def _replace(self, original, wrapper) -> None:
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        for module, attr, name in SPANNED:
            fn = getattr(module, attr)
            self._replace(fn, self._spanned(name, fn, _ON_RESULT.get(name)))
        self._replace(boolean.assignments, self._sized(
            boolean.assignments, "boolean.assignments", lambda names: 2 ** len(names)))
        self._replace(prospect.coefficient_assignments, self._yield_counted(
            prospect.coefficient_assignments, "prospect.coeff_assignments"))
        self._replace(relevance.grid, self._yield_counted(
            relevance.grid, "relevance.grid_points"))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- wrappers -----------------------------------------------------

    def _spanned(self, name, fn, on_result):
        perf = time.perf_counter
        stack = self._stack
        self_s = self._self_s

        def wrapper(*args, **kwargs):
            t_in = perf()
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                span_self = (t1 - t0) - frame[0]
                self_s[name] += span_self
                self._op_self += span_self
                self._calls[name] += 1
                if stack:
                    stack[-1][0] += perf() - t_in
            if on_result is not None:
                t_out = perf()
                on_result(self._counts, args, result)
                if stack:
                    stack[-1][0] += perf() - t_out
            return result

        return wrapper

    def _sized(self, fn, name, size):
        counts = self._counts

        def wrapper(*args, **kwargs):
            counts[name] += size(*args, **kwargs)
            return fn(*args, **kwargs)

        return wrapper

    def _yield_counted(self, fn, name):
        counts = self._counts

        def wrapper(*args, **kwargs):
            for value in fn(*args, **kwargs):
                counts[name] += 1
                yield value

        return wrapper

    # -- ops and units ------------------------------------------------

    @contextmanager
    def op(self):
        """One op: the root that spans hang from."""
        self._op_self = 0.0
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._ops.append(time.perf_counter() - t0)
            self._op_selves.append(self._op_self)

    def take(self) -> Unit:
        """Totals since the last take, then reset."""
        unit = Unit({name: s * 1e3 for name, s in self._self_s.items()},
                    dict(self._calls), dict(self._counts),
                    list(self._ops), list(self._op_selves))
        for store in (self._self_s, self._ops, self._op_selves, self._calls, self._counts):
            store.clear()
        return unit


def _count_search(counts, args, result) -> None:
    counts["relevance.checked"] += result.checked


def _count_options(counts, args, result) -> None:
    counts["prospect.options"] += len(result)


def _count_projection(counts, args, result) -> None:
    asserted = sum(1 for c in result.accepted
                   if c.provenance is implicature.Provenance.ASSERTION)
    counts["implicature.candidates"] += len(result.accepted) - asserted + len(result.suppressed)
    counts["implicature.suppressed"] += len(result.suppressed)


_ON_RESULT = {
    "relevance.frege": _count_search,
    "relevance.corollary": _count_search,
    "relevance.ordering": _count_search,
    "prospect.denote_options": _count_options,
    "implicature.project": _count_projection,
}
