"""Measurement core shared by the four workloads.

A workload is a closed loop with one client: it owns a fixed list of items
(built from the seed during set-up) and runs them one after another.  One
pass over the list is the unit wall_s and cpu_s are computed on; a run
makes as many passes as fill the requested seconds at nominal speed and
reports medians.

Item latency covers only the calls into latticework.  Every output is
checked for exactness after its timer stops; a mismatch or an exception
counts as a failed item and the run carries on.

Reference speed.  The small shared machines this runs on change speed by
tens of percent within minutes, for every process alike, when neighbours
load the same cores.  Each workload therefore has a reference task that
does not involve latticework: a fixed pure-Python kernel for in-process
workloads, a bare interpreter start for the cli workload.  A pass times the
reference between its items, at least every `reference_every` seconds of
item time, and every item is scaled by the reference's nominal time over
its mean time at the two points around the item: seconds as they would
read with the reference at its nominal time.  Raw times are kept in the
record.

Tracing is off for end-to-end numbers.  In a traced run the workloads wrap
each of their own calls into a latticework module in a span
(`Tracer.call`), and the per-layer metrics are the per-pass totals of those
spans.  The library itself is not instrumented.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from functools import partial
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
}

# Nominal reference times: the typical uncontended medians on a 2-vCPU
# x86-64 VM with CPython 3.11.7.  They fix the unit, not the comparison.
KERNEL_S = 0.0032
START_S = 0.047


class CheckFailed(Exception):
    """An output differed from its expected value."""


def expect(label: str, actual, wanted) -> None:
    if actual != wanted:
        raise CheckFailed(f"{label}: expected {wanted!r}, got {actual!r}")


def import_latticework():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "latticework" / "__init__.py").is_file():
        raise SystemExit(f"error: no latticework package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import latticework

    where = Path(latticework.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"error: imported latticework from {where}, not from {SRC}")
    return latticework


def reference_kernel() -> int:
    """Fixed interpreter-bound work like the library's: mask bit operations,
    list appends and dict stores."""
    out = []
    seen = {}
    for m in range(1 << 14):
        x = (m & (m >> 1)) | (m ^ 0x2A5)
        out.append(x.bit_count())
        seen[x & 1023] = m
    return len(out) + len(seen)


def kernel_time() -> float:
    """Median of three timings of the reference kernel."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def start_time() -> float:
    """Wall time of one bare interpreter start, `python -c pass`."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


class Item:
    """One unit of work that gets a latency: a kind, a label and arguments."""

    __slots__ = ("kind", "label", "args")

    def __init__(self, kind: str, label: str, args: tuple = ()):
        self.kind = kind
        self.label = label
        self.args = args


class Workload:
    """Items plus how to run and check each kind.

    Subclasses build `self.items` in `__init__` (that is set-up) and define
    `run_<kind>(tracer, *args)` and `check_<kind>(out, *args)` per kind.
    `run` returns what `check` needs; `check` raises on any mismatch.
    """

    items: list[Item]
    pass_seconds = 1.0  # nominal elapsed time of one pass, checks included
    reference_every = 0.15
    # the reference task and its nominal time, assigned at set-up
    reference: Callable[[], float]
    reference_nominal: float

    def run(self, item: Item, tracer):
        return getattr(self, "run_" + item.kind)(tracer, *item.args)

    def check(self, item: Item, out) -> None:
        getattr(self, "check_" + item.kind)(out, *item.args)

    def warm_up_calls(self) -> list[Callable[[], object]]:
        """Calls that run one item of each kind untimed, so lazy caches are
        filled.  Set-up runs them one by one, with the reference between."""
        first: dict[str, Item] = {}
        for item in self.items:
            first.setdefault(item.kind, item)
        return [partial(self.run, item, NullTracer()) for item in first.values()]

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def probes(self) -> dict:
        """Extra per-layer figures measured once in a traced run."""
        return {}

    def close(self) -> None:
        pass


class NullTracer:
    """Tracing off: a call is just the call."""

    enabled = False
    covered = 0.0

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def add(self, key, amount):
        pass

    def add_seconds(self, key, seconds):
        pass


class Tracer:
    """Spans around the benchmark's own calls into each latticework module.

    A span named `mod.fn` adds its duration to `busy["mod.fn.busy_s"]`, one
    to `counts["mod.fn.calls"]` and the duration to `durations["mod.fn"]`.
    Workloads add their own quantities: integers (members, nodes, steps)
    with `add`, times with `add_seconds`.  `covered` is the span time
    inside the current item, from which glue time follows.
    """

    enabled = True

    def __init__(self):
        self.busy = defaultdict(float)
        self.counts = defaultdict(int)
        self.durations = defaultdict(list)
        self.covered = 0.0

    def call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent = time.perf_counter() - start
            self.busy[name + ".busy_s"] += spent
            self.counts[name + ".calls"] += 1
            self.durations[name].append(spent)
            self.covered += spent

    def add(self, key, amount):
        self.counts[key] += amount

    def add_seconds(self, key, seconds):
        self.busy[key] += seconds


class Pass:
    """What one pass over a workload's items measured.

    `latencies` are at reference speed, `raw_latencies` as measured;
    `scale` is their ratio over the pass and converts the pass's other raw
    times (cpu, glue, spans).
    """

    def __init__(self):
        self.raw_latencies: list[float] = []
        self.latencies: list[float] = []
        self.raw_cpu = 0.0
        self.failed = 0
        self.raw_glue = 0.0
        self.scale = 1.0
        self.tracer = None

    @property
    def raw_wall(self) -> float:
        return sum(self.raw_latencies)

    @property
    def wall(self) -> float:
        return sum(self.latencies)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Clock:
    """Times segments of work at reference speed.

    The reference runs at the start, at the end, and before a segment once
    `every` seconds of segments have run since it last ran.  Each segment is
    scaled by the nominal time over the reference's mean time at the two
    points around it.  Each reference time is first replaced by the median
    of itself and its neighbours, because a single reference now and then
    reads two or three times too slow.
    """

    def __init__(self, reference: Callable[[], float], nominal: float, every: float):
        self.reference = reference
        self.nominal = nominal
        self.every = every
        self.refs = [reference()]
        self.raw: list[float] = []
        self.segment: list[int] = []  # index of the reference before each segment
        self.since = 0.0

    def ready(self) -> None:
        """Call before each segment: runs the reference if it is due."""
        if self.since >= self.every:
            self.refs.append(self.reference())
            self.since = 0.0

    def add(self, seconds: float) -> None:
        self.raw.append(seconds)
        self.segment.append(len(self.refs) - 1)
        self.since += seconds

    def time(self, fn: Callable[[], object]):
        self.ready()
        start = time.perf_counter()
        out = fn()
        self.add(time.perf_counter() - start)
        return out

    def scaled(self) -> list[float]:
        """Runs the closing reference and returns every segment at reference speed."""
        self.refs.append(self.reference())
        refs = [statistics.median(self.refs[max(0, i - 1):i + 2]) for i in range(len(self.refs))]
        return [raw * self.nominal * 2 / (refs[k] + refs[k + 1]) for raw, k in zip(self.raw, self.segment)]


def run_pass(workload: Workload, tracer, failures: list[str]) -> Pass:
    """Time every item once; checks run after each item's timer stops.

    CPU is this process's CPU during the items plus that of the child
    processes reaped during the pass (only the cli workload has any).  The
    reference runs outside the item timers, on the workload's `Clock`.
    """
    result = Pass()
    clock = Clock(workload.reference, workload.reference_nominal, workload.reference_every)
    cpu_children = 0.0
    for item in workload.items:
        clock.ready()
        tracer.covered = 0.0
        children = _children_cpu()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            out = workload.run(item, tracer)
            error = None
        except Exception as exc:  # counted in fail_ratio, the run goes on
            out, error = None, exc
        t1 = time.perf_counter()
        c1 = time.process_time()
        cpu_children += _children_cpu() - children
        clock.add(t1 - t0)
        result.raw_cpu += c1 - c0
        result.raw_glue += (t1 - t0) - tracer.covered
        if error is None:
            try:
                workload.check(item, out)
            except Exception as exc:
                error = exc
        if error is not None:
            result.failed += 1
            if len(failures) < 20:
                failures.append(f"{item.label}: {type(error).__name__}: {error}")
    result.raw_cpu += cpu_children
    result.raw_latencies = clock.raw
    result.latencies = clock.scaled()
    result.scale = result.wall / result.raw_wall if result.raw_wall else 1.0
    if tracer.enabled:
        result.tracer = tracer
    return result


def pass_count(workload: Workload, seconds: float, trace: bool) -> int:
    """Passes that fill `seconds` at nominal speed; at least two, three
    when traced so that two traced passes can show their counts repeat.

    The count depends only on the workload, the requested seconds and the
    tracing, so every run of a workload pools the same number of items and
    its tail percentile does not move with the machine's speed.
    """
    return max(3 if trace else 2, round(seconds / workload.pass_seconds))


def measure(workload: Workload, passes: int, trace: bool) -> tuple[list[Pass], list[Pass], list[str]]:
    """Run `passes` passes.

    Untraced runs time every pass with tracing off.  Traced runs alternate
    a traced and an untraced pass, traced first, so the difference between
    the two kinds is the tracing overhead on the same inputs.
    """
    plain: list[Pass] = []
    traced: list[Pass] = []
    failures: list[str] = []
    for index in range(passes):
        if trace and index % 2 == 0:
            traced.append(run_pass(workload, Tracer(), failures))
        else:
            plain.append(run_pass(workload, NullTracer(), failures))
    return plain, traced, failures


def tail(latencies: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least ten samples beyond it.

    Nearest rank: the p-th percentile of N sorted samples is the one at rank
    ceil(p * N / 100), so ten samples lie beyond it while that rank is at
    most N - 10.  Returns (value, p); with fewer than 11 samples, the maximum
    and p = 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100
    p = 100
    while -(-p * n // 100) > n - 10:
        p -= 1
    return ordered[max(1, -(-p * n // 100)) - 1], p


def end_to_end(workload: Workload, setups: list[tuple[float, float]], passes: list[Pass]) -> tuple[dict, dict]:
    """The seven end-to-end metrics, and how they were sampled.

    `setups` holds (raw seconds, scale) per set-up.  wall_s and cpu_s are
    medians over passes; item latencies are pooled over every pass of the
    run for the median and the tail.  Times are at reference speed.
    """
    latencies = [x for p in passes for x in p.latencies]
    raw = [x for p in passes for x in p.raw_latencies]
    failed = sum(p.failed for p in passes)
    tail_value, tail_p = tail(latencies)
    metrics = {
        "setup_s": statistics.median([seconds * scale for seconds, scale in setups]),
        "wall_s": statistics.median([p.wall for p in passes]),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_tail_ms": tail_value * 1e3,
        "cpu_s": statistics.median([p.raw_cpu * p.scale for p in passes]),
        "peak_rss_mb": workload.peak_rss_mb(),
        "fail_ratio": failed / len(latencies),
    }
    sampling = {
        "passes": len(passes),
        "items_per_pass": len(workload.items),
        "items": len(latencies),
        "failed": failed,
        "tail_percentile": tail_p,
        "pass_scale": [round(p.scale, 4) for p in passes],
        "setup_samples_s": [round(seconds * scale, 6) for seconds, scale in setups],
        "raw_setup_s": [round(seconds, 6) for seconds, _ in setups],
        "raw_pass_wall_s": [round(p.raw_wall, 6) for p in passes],
        "raw_wall_s": statistics.median([p.raw_wall for p in passes]),
        "raw_item_p50_ms": statistics.median(raw) * 1e3,
        "raw_item_tail_ms": tail(raw)[0] * 1e3,
        "raw_cpu_s": statistics.median([p.raw_cpu for p in passes]),
    }
    return metrics, sampling


def per_layer(names: list[str], plain: list[Pass], traced: list[Pass],
              setup: Tracer, setup_scale: float, extra: dict) -> tuple[dict, bool]:
    """Per-pass figures of the traced passes for each name BENCHMARK.json lists.

    Times (`*_s`, `*_ms_p50`) are at reference speed, medians over traced
    passes; counts are those of one pass and must repeat exactly in every
    traced pass, which the second value reports.  Spans recorded during
    set-up (the sampling draws) are added once.  A layer the workload never
    calls reads 0.
    """
    tracers = [p.tracer for p in traced]
    repeat = all(t.counts == tracers[0].counts for t in tracers)
    counts = dict(tracers[0].counts)
    for key, value in setup.counts.items():
        counts[key] = counts.get(key, 0) + value

    def seconds(key):
        per_pass = [p.tracer.busy.get(key, 0.0) * p.scale for p in traced]
        return statistics.median(per_pass) + setup.busy.get(key, 0.0) * setup_scale

    derived = {
        "bench.glue_s": statistics.median([p.raw_glue * p.scale for p in traced]),
        "bench.tracing_overhead_s": statistics.median([p.wall for p in traced])
        - statistics.median([p.wall for p in plain]),
        **extra,
    }
    out = {}
    for name in names:
        span, _, quantity = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif quantity == "nodes_per_s":
            spent = seconds(span + ".busy_s")
            out[name] = counts.get(span + ".nodes", 0) / spent if spent else 0.0
        elif quantity == "wall_ms_p50":
            samples = [d * p.scale for p in traced for d in p.tracer.durations.get(span, ())]
            out[name] = statistics.median(samples) * 1e3 if samples else 0.0
        elif quantity.endswith("_s"):
            out[name] = seconds(name)
        else:
            out[name] = counts.get(name, 0)
    return out, repeat


def environment(seed: int, version: str) -> dict:
    """Identity of the code and machine a result came from."""
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "latticework_version": version,
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout read from .git directly; None outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None
