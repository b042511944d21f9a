"""latticework benchmark: four closed-loop workloads, one client, no threads.

    python3 perfbench/run.py --workload families --seed 1 --seconds 12 --trace 0

Workloads (see each module's docstring for why it exists):
  families  certified analyses of structured families   (families.py)
  search    exact branch-and-bound searches              (searches.py)
  suites    thousands of seeded tiny property cases      (suites.py)
  cli       sequential `python -m latticework.cli` calls  (clicalls.py)
  all       each of the above in turn, one child process per workload

With --trace 0 the run prints the seven end-to-end metrics by name and
unit.  With --trace 1 it prints the per-layer metrics that BENCHMARK.json
lists instead, from traced passes alternated with untraced ones.  The last
line of standard output is always one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {value, unit}}}.
The line before it, starting with "record ", holds the same run in full:
environment, sampling details and every metric.

--seconds sets the length of a run at nominal speed: a workload makes
max(2, round(seconds / pass_seconds)) passes over its items (at least three
when traced), whatever the machine's speed, so every run pools the same
number of item latencies.

The package is imported from this checkout's src/ and the cli workload
puts that src/ on PYTHONPATH; nothing needs installing.  The run exits
with code 2 and prints no result when src/latticework is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import subprocess
import sys
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
# module, class, and the reference task with its nominal time
WORKLOADS = {
    "families": ("families", "Families", harness.kernel_time, harness.KERNEL_S),
    "search": ("searches", "Searches", harness.kernel_time, harness.KERNEL_S),
    "suites": ("suites", "Suites", harness.kernel_time, harness.KERNEL_S),
    "cli": ("clicalls", "CliCalls", harness.start_time, harness.START_S),
}
SETUP_SAMPLES = 5


def load_spec() -> dict:
    with open(harness.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def set_up(name: str, seed: int, tracer, tiny: bool = False, expected: dict | None = None):
    """Import, input generation and warm-up: everything `setup_s` times.

    Returns the workload, the raw set-up seconds with their speed scale,
    and the package version.  The import, the input generation and each
    warm-up call are timed apart, with the reference run between each
    two, and each is scaled like an item latency.
    """
    module_name, class_name, reference, nominal = WORKLOADS[name]
    reference()  # its first run in a fresh interpreter is slow
    clock = harness.Clock(reference, nominal, every=0.0)
    lw = clock.time(harness.import_latticework)
    cls = clock.time(lambda: getattr(importlib.import_module(module_name), class_name))
    workload = clock.time(lambda: cls(seed, tiny, tracer, load_expected() if expected is None else expected))
    for call in workload.warm_up_calls():
        clock.time(call)
    workload.reference, workload.reference_nominal = reference, nominal
    raw = sum(clock.raw)
    return workload, (raw, sum(clock.scaled()) / raw), lw.__version__


def setup_in_child(args) -> tuple[float, float]:
    """One more set-up sample, from a fresh interpreter."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-only"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=harness.ROOT, check=True)
    sample = json.loads(done.stdout.splitlines()[-1])
    return sample["raw_setup_s"], sample["scale"]


def measure_run(name: str, seed: int, seconds: float, trace: bool, spec: dict,
                tiny: bool = False, expected: dict | None = None, extra_setups=()) -> dict:
    """Set up, measure and assemble the full record of one run."""
    setup_tracer = harness.Tracer() if trace else harness.NullTracer()
    workload, setup, version = set_up(name, seed, setup_tracer, tiny, expected)
    try:
        setups = [setup] + [probe() for probe in extra_setups]
        # set-up data lives as long as the run; keep it out of the collector's scans
        gc.collect()
        gc.freeze()
        passes = harness.pass_count(workload, seconds, trace)
        plain, traced, failures = harness.measure(workload, passes, trace)
        record = {
            "workload": name,
            "trace": int(trace),
            "seconds": seconds,
            "environment": harness.environment(seed, version),
            "failures": failures,
        }
        if trace:
            names = [m["name"] for m in spec["per_layer"]]
            metrics, repeat = harness.per_layer(
                names, plain, traced, setup_tracer, setup[1], workload.probes())
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            record["counts_repeat"] = repeat
            record["sampling"] = {
                "plain_pass_scale": [round(p.scale, 4) for p in plain],
                "traced_pass_scale": [round(p.scale, 4) for p in traced],
                "raw_plain_pass_wall_s": [round(p.raw_wall, 6) for p in plain],
                "raw_traced_pass_wall_s": [round(p.raw_wall, 6) for p in traced],
            }
        else:
            metrics, record["sampling"] = harness.end_to_end(workload, setups, plain)
            units = harness.END_TO_END_UNITS
            repeat = True
    finally:
        gc.unfreeze()
        workload.close()
    attempted = sum(len(p.latencies) for p in plain + traced)
    failed = sum(p.failed for p in plain + traced)
    record["correct"] = failed == 0 and repeat
    record["attempted"] = attempted
    record["failed"] = failed
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return record


def result_line(record: dict, spec: dict) -> dict:
    """The contract's last line: exactly the metrics BENCHMARK.json lists."""
    listed = spec["per_layer"] if record["trace"] else spec["end_to_end"]
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: record["metrics"][m["name"]] for m in listed},
    }


def print_table(record: dict) -> None:
    env = record["environment"]
    print(f"latticework benchmark: workload {record['workload']}, seed {env['seed']}, "
          f"trace {record['trace']}, {record['seconds']} s")
    print(f"  commit {env['commit']}, latticework {env['latticework_version']}, "
          f"python {env['python']}, nproc {env['nproc']}, {env['platform']}")
    print(f"  sampling {json.dumps(record['sampling'])}")
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {name:58s} {shown} {metric['unit']}")
    print(f"  attempted {record['attempted']}, failed {record['failed']}, correct {record['correct']}")
    for line in record["failures"]:
        print(f"  failure: {line}", file=sys.stderr)


def run_all(args) -> int:
    """Each workload in its own child process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
                str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=harness.ROOT)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("record ")))
        if done.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (harness.SRC / "latticework" / "__init__.py").is_file():
        print(f"error: no latticework package under {harness.SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        workload, (raw, scale), _ = set_up(args.workload, args.seed, harness.NullTracer())
        workload.close()
        print(json.dumps({"raw_setup_s": raw, "scale": scale}))
        return 0
    if args.workload == "all":
        return run_all(args)
    spec = load_spec()
    extra = [] if args.trace else [lambda: setup_in_child(args)] * (SETUP_SAMPLES - 1)
    record = measure_run(args.workload, args.seed, args.seconds, bool(args.trace), spec,
                         extra_setups=extra)
    print_table(record)
    print("record " + json.dumps(record))
    print(json.dumps(result_line(record, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
