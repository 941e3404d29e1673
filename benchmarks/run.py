"""coordsem benchmark: three seeded workloads, end-to-end and per-layer.

    python3 benchmarks/run.py --workload {reproduce,options,implicature}
                              --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src, nothing is installed. One client runs a closed loop: the next op
starts when the previous one has finished.

--trace 0 measures the end-to-end metrics with no tracing: ops for S
seconds, with set-up samples spread over the run. --trace 1 alternates
untraced and traced units for S seconds, and reports the per-layer metrics
plus the tracing overhead. Op times are each item's typical time over the
units of a run, scaled by the speed of the machine during the run as a
reference kernel timed between the ops measures it (see machine.py and
op_ms). Every op's output is checked. The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}; the
lines before it give the same figures for people, with sample counts, the
shapes of the input and their shares of the time, and the run's environment.
See README.md in this directory for why the workloads are what they are.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# Children cache bytecode whatever the caller's setting, as a user's do.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONPATH"] = SRC
CHILD_TIMEOUT_S = 120
SETUP_REPEATS = 15
CAVEAT = ("shared 2-core virtual machine; wall-clock timing only, no hardware counters; "
          "other tenants' load moves every time figure")


def _require_package() -> None:
    """Put this checkout's src/ first on the path; refuse to run without it."""
    if not os.path.isfile(os.path.join(SRC, "coordsem", "__init__.py")):
        sys.exit(f"run.py: no coordsem package under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)


_require_package()
import coordsem as cs  # noqa: E402  (needs the path set above)

import checks  # noqa: E402
import gen  # noqa: E402
import machine  # noqa: E402
import spans  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(cs.__file__))) != SRC:
    sys.exit(f"run.py: imported coordsem from {cs.__file__}, not from {SRC}")


# ---------------------------------------------------------------------------
# Units of work. A unit is one pass over a generated batch, or one cold
# process; it returns its op wall times and the number of ops that failed.

@dataclass
class Unit:
    op_s: list[float]  # wall time of each op, in item order
    failed: int
    traced: Optional[spans.Unit] = None  # set when the unit ran under the tracer


def _report_failure(workload: str, detail) -> None:
    print(f"FAILED {workload}: {detail}", file=sys.stderr)


class BatchWorkload:
    """options and implicature: passes over a seeded batch of formula texts.
    Item i is compared with item i-1, cyclically, so every pass does the
    same work and per-pass counts repeat exactly. A subclass sets `prev`
    (what the comparison needs of the last item) and defines `_op`,
    `_check` and `_carried`."""

    name: str

    def __init__(self, items):
        self.items = items

    def run_pass(self, tracer=None, pacer=None) -> Unit:
        times, failed = [], 0
        for item in self.items:
            t0 = time.perf_counter()
            try:
                with tracer.op() if tracer else nullcontext():
                    outputs = self._op(item)
            except Exception as err:  # anything escaping the program fails the op
                outputs = None
                failed += 1
                _report_failure(self.name, f"{item.text!r}: {err!r}")
            times.append(time.perf_counter() - t0)
            if pacer is not None:
                pacer.after_op(times[-1])
            if outputs is None:
                continue
            problems = self._check(item, outputs)
            if problems:
                failed += 1
                _report_failure(self.name, f"{item.text!r}: {problems}")
            self.prev = self._carried(outputs)
        return Unit(times, failed, tracer.take() if tracer else None)


class OptionsWorkload(BatchWorkload):
    """parse -> denote_options -> judge, then report.compare with the
    previous item."""

    name = "options"

    def __init__(self, items):
        super().__init__(items)
        f = cs.parse(items[-1].text)
        self.prev = (f, cs.denote_options(f), cs.judge(f))

    def _op(self, item):
        f = cs.parse(item.text)
        options = cs.denote_options(f)
        judgment = cs.judge(f)
        return f, options, judgment, cs.compare(self.prev[0], f)

    def _check(self, item, outputs):
        f, options, judgment, cmp = outputs
        prev_f, prev_options, prev_judgment = self.prev
        return (checks.check_options(f, item.ors, options, judgment)
                + checks.check_comparison(prev_f, f, prev_options, options,
                                          prev_judgment, judgment, cmp))

    def _carried(self, outputs):
        return outputs[:3]


def _project(f, *mode):
    try:
        return cs.project(f, *mode)
    except cs.WorkbenchError as err:
        return err


class ImplicatureWorkload(BatchWorkload):
    """parse -> project (gazdar) -> project (soames, seeded opinionated ids),
    then equivalent with the previous item."""

    name = "implicature"

    def __init__(self, items):
        super().__init__(items)
        self.prev = cs.parse(items[-1].text)

    def _op(self, item):
        f = cs.parse(item.text)
        gazdar = _project(f, cs.Mode.GAZDAR)
        soames = _project(f, cs.Mode.SOAMES, item.opinionated)
        return f, gazdar, soames, cs.equivalent(self.prev, f)

    def _check(self, item, outputs):
        f, gazdar, soames, verdict = outputs
        return (checks.check_projection(f, gazdar) + checks.check_projection(f, soames)
                + checks.check_equivalence(self.prev, f, verdict))

    def _carried(self, outputs):
        return outputs[0]


class ReproduceWorkload:
    """Cold `python -m coordsem reproduce` processes. The workload has no
    generated input; the seed is accepted and has no effect."""

    name = "reproduce"
    items = ()

    def __init__(self):
        self.reference = None

    def _child(self, argv) -> tuple[float, Optional[subprocess.CompletedProcess]]:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, *argv], env=CHILD_ENV,
                                  capture_output=True, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            _report_failure(self.name, f"no exit within {CHILD_TIMEOUT_S} s")
            proc = None
        return time.perf_counter() - t0, proc

    def _checked(self, stdout: bytes, returncode: int) -> int:
        if self.reference is None:
            self.reference = stdout
        problems = checks.check_reproduce(returncode, stdout, self.reference)
        if problems:
            _report_failure(self.name, problems)
        return int(bool(problems))

    def run_pass(self, tracer=None, pacer=None) -> Unit:
        argv = (["-m", "coordsem", "reproduce"] if tracer is None
                else [os.path.join(HERE, "traced_reproduce.py")])
        elapsed, proc = self._child(argv)
        if pacer is not None:
            pacer.after_op(elapsed)
        if tracer is None:
            if proc is None:
                return Unit([elapsed], 1)
            return Unit([elapsed], self._checked(proc.stdout, proc.returncode))
        if proc is None:
            return Unit([elapsed], 1)
        if proc.returncode != 0:
            _report_failure(self.name, proc.stderr.decode("utf-8", "replace")[-2000:])
            return Unit([elapsed], 1)
        child = json.loads(proc.stdout)
        failed = self._checked(child["stdout"].encode("utf-8"), child["returncode"])
        return Unit([elapsed], failed, spans.Unit(
            child["self_ms"], child["calls"], child["counts"], child["op_wall_s"],
            child["op_self_s"]))


# ---------------------------------------------------------------------------
# Measurement

def run_for(workload, seconds: float, pacer, before_unit=None) -> list[Unit]:
    """Whole units until `seconds` have been spent in them, with the
    pacer's kernel samples between the ops. `before_unit` gets the time
    spent so far and runs outside the measured time."""
    units, busy = [], 0.0
    while not units or busy < seconds:
        if before_unit is not None:
            before_unit(busy)
        t0 = time.perf_counter()
        units.append(workload.run_pass(pacer=pacer))
        busy += time.perf_counter() - t0
    return units


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing coordsem. Output goes
    through pipes: waiting on a child with a timeout and no pipes polls,
    which rounds the time up to the next 50 ms."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import coordsem"], env=CHILD_ENV,
                   capture_output=True, check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0


def op_ms(units: list[Unit], scale: float) -> list[float]:
    """Each item's typical time over the units, times `scale` (the pacer's,
    to the reference machine). Every unit runs the same items in the same
    order and the program does the same work each time, so the spread
    across units is the machine's, not the program's; the spread across
    items is the workload's latency distribution."""
    return [machine.typical(times) * scale * 1e3 for times in zip(*(u.op_s for u in units))]


def ops_per_s(units: list[Unit], scale: float) -> float:
    """Closed-loop throughput at each item's scaled typical time."""
    times = op_ms(units, scale)
    return 1e3 * len(times) / math.fsum(times)


def peak_rss_mb(workload) -> float:
    """Peak resident set of whatever ran the program: the children for
    reproduce, this process otherwise. ru_maxrss is in KiB on Linux."""
    who = resource.RUSAGE_CHILDREN if workload.name == "reproduce" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(workload, seconds: float, lines: list[str]) -> tuple[dict, int, int]:
    import_seconds()  # unmeasured: bytecode gets cached as it is for a user
    setup = []

    def sample_setup(busy: float) -> None:
        # spread over the run, so a slow spell of the machine hits set-up
        # and ops alike
        if len(setup) < 1 + SETUP_REPEATS * busy / seconds:
            setup.append(import_seconds())

    pacer = machine.Pacer()
    units = run_for(workload, seconds, pacer, before_unit=sample_setup)
    while len(setup) < SETUP_REPEATS:
        setup.append(import_seconds())
    scale = pacer.scale()
    times = op_ms(units, scale)
    _time_share(workload, times, lines)
    attempted = sum(len(u.op_s) for u in units)
    failed = sum(u.failed for u in units)
    deciles = statistics.quantiles(times, n=10) if len(times) > 1 else [times[0]] * 9
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (ops_per_s(units, scale), "1/s"),
        "op_ms.p50": (statistics.median(times), "ms"),
        "op_ms.p90": (deciles[8], "ms"),
        "peak_rss_mb": (peak_rss_mb(workload), "MB"),
    }
    beyond = sum(1 for t in times if t > deciles[8])
    lines.append(f"ops: {attempted} in {len(units)} units over {len(times)} distinct items; "
                 f"setup samples: {len(setup)}; op_ms.p90 has {beyond} items beyond it"
                 + ("" if beyond >= 10 else " (fewer than 10: indicative only)"))
    _machine_lines(pacer, units, lines)
    lines.append(f"failed_ratio = {failed / attempted:.6f} ratio ({failed} of {attempted})")
    return metrics, attempted, failed


def _time_share(workload, times: list[float], lines: list[str]) -> None:
    """Each shape's share of the pass time, from the items' typical times."""
    if workload.items:
        lines.append("time_share: " + json.dumps(gen.shape_histogram(workload.items, times)))


def _machine_lines(pacer, units: list[Unit], lines: list[str]) -> None:
    """The kernel's own figures and the unscaled throughput, for people:
    they show how fast the host ran, not how fast the program is."""
    kernel_ms = machine.typical(pacer.samples) * 1e3
    lines.append(f"reference kernel: {kernel_ms:.4f} ms typical over {len(pacer.samples)} "
                 f"samples, scaled to {machine.REFERENCE_MS} ms; unscaled ops_per_s = "
                 f"{ops_per_s(units, 1.0):.4f} 1/s")


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def per_layer(workload, seconds: float, lines: list[str]) -> tuple[dict, int, int]:
    # Untraced and traced units alternate in pairs, so that both meet the
    # same slow spells of the machine.
    tracer = spans.Tracer()
    in_process = workload.name != "reproduce"  # reproduce traces inside its children
    pacer = machine.Pacer()
    plain, traced, busy = [], [], 0.0
    while not traced or busy < seconds:
        t0 = time.perf_counter()
        plain.append(workload.run_pass(pacer=pacer))
        if in_process:
            tracer.install()
        try:
            traced.append(workload.run_pass(tracer, pacer))
        finally:
            tracer.uninstall()
        busy += time.perf_counter() - t0
    attempted = sum(len(u.op_s) for u in plain + traced)
    failed = sum(u.failed for u in plain + traced)
    layers = [u.traced for u in traced if u.traced is not None]
    if not layers:
        return {}, attempted, failed + 1
    first = layers[0]
    drifted = sum(1 for u in layers if (u.calls, u.counts) != (first.calls, first.counts))
    if drifted:
        _report_failure(workload.name, f"counts differ between units in {drifted} of {len(layers)}")
    calls, counts = first.calls, first.counts

    metrics = {}
    for _, _, name in spans.SPANNED:
        metrics[f"{name}.self_ms"] = (
            statistics.median(u.self_ms.get(name, 0.0) for u in layers), "ms")
    for name in ("formula.parse", "boolean.equivalent", "implicature.project"):
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("boolean.assignments", "prospect.coeff_assignments", "prospect.options",
                 "implicature.candidates", "implicature.suppressed",
                 "relevance.grid_points", "relevance.checked"):
        metrics[name] = (counts.get(name, 0), "count")
    metrics["relevance.useful_ratio"] = (
        _ratio(counts.get("relevance.checked", 0), counts.get("relevance.grid_points", 0)), "ratio")
    metrics["prospect.useful_ratio"] = (
        _ratio(counts.get("prospect.options", 0), counts.get("prospect.coeff_assignments", 0)),
        "ratio")
    metrics["implicature.suppressed_ratio"] = (
        _ratio(counts.get("implicature.suppressed", 0), counts.get("implicature.candidates", 0)),
        "ratio")
    scale = pacer.scale()
    _time_share(workload, op_ms(plain, scale), lines)
    untraced, traced_rate = ops_per_s(plain, scale), ops_per_s(traced, scale)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    # Each pair's drop in throughput, untraced to traced: a slow spell of the
    # machine usually covers both units of a pair, so the median over pairs
    # is steadier than comparing the two sides' typical times.
    drops = [1 - sum(p.op_s) / sum(t.op_s) for p, t in zip(plain, traced)]
    metrics["trace.overhead_pct"] = (100 * statistics.median(drops), "%")
    lines.append(f"units: {len(plain)} untraced ({untraced:.4f} ops/s) alternating with "
                 f"{len(layers)} traced ({traced_rate:.4f} ops/s); counts are per unit, "
                 "self times the median per unit")
    _machine_lines(pacer, plain, lines)
    return metrics, attempted, failed + drifted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("reproduce", "options", "implicature"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "reproduce":
        workload = ReproduceWorkload()
    elif args.workload == "options":
        workload = OptionsWorkload(gen.options_batch(args.seed))
    else:
        workload = ImplicatureWorkload(gen.implicature_batch(args.seed))

    lines = [
        "env: " + json.dumps({
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "caveat": CAVEAT,
        }),
        f"workload: {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}; closed loop, 1 client",
        "shapes: " + (json.dumps(gen.shape_histogram(workload.items)) if workload.items
                      else "none (no generated input)"),
    ]
    measure = per_layer if args.trace else end_to_end
    metrics, attempted, failed = measure(workload, args.seconds, lines)
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} = {value} {unit}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
