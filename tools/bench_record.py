"""Record one steady benchmark set as BENCH_<k>.json at the repository root.

Usage, from the repository root:

    python3 tools/bench_record.py

It runs `perfbench/run.py`, unchanged and untraced, for each workload that
BENCHMARK.json lists, with seeds 1..10 at the run length it fixes, and keeps
the full run record that each run prints on its `record ` line.  k is one
past the highest BENCH_<k>.json on disk.  Beside the records the file holds
each end-to-end metric's median and quartiles per workload, the interpreter,
whether PYTHONDONTWRITEBYTECODE is set (then every `cli` child recompiles
the package), and the interpreter floor: the median wall time of a bare
`python -c pass` process, against which `cli` figures can be read.  A set
takes about 4 minutes on 2 vCPUs.
"""

import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import compare  # noqa: E402  (perfbench/compare.py: run_once, summary, load_spec)

SEEDS = range(1, 11)
FLOOR_RUNS = 21


def start_floor_ms() -> float:
    """Median wall time of a bare `python -c pass` process, in milliseconds."""
    times = []
    for _ in range(FLOOR_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((time.perf_counter() - start) * 1000)
    return statistics.median(times)


def write_record(root: Path) -> Path:
    """Run the set in the checkout at root and write it there; return the path."""
    spec = compare.load_spec()
    records, summary = [], {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            runs.append(compare.run_once(root, workload, seed, spec["run_seconds"]))
            print(f"{workload} seed {seed}: correct={runs[-1]['correct']}", file=sys.stderr)
        records += runs
        summary[workload] = {m["name"]: compare.summary([r["metrics"][m["name"]]["value"] for r in runs])
                             for m in spec["end_to_end"]}
    taken = [int(m[1]) for p in root.glob("BENCH_*.json") if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    path = root / f"BENCH_{max(taken, default=0) + 1}.json"
    bench = {
        "interpreter": {"version": sys.version, "implementation": platform.python_implementation()},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "python_start_floor_ms": start_floor_ms(),
        "run_seconds": spec["run_seconds"],
        "summary": summary,
        "records": records,
    }
    path.write_text(json.dumps(bench, indent=1) + "\n")
    return path


if __name__ == "__main__":
    print(write_record(ROOT))
