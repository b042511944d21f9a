"""Result sets: collect them, report their steadiness, compare two of them.

A result set is a directory of run records, one JSON file per run, as
written by `collect` or `pairs`.

    python3 perfbench/compare.py collect --out SET [--workloads w,..] [--runs 10]
    python3 perfbench/compare.py steady SET [--json FILE]
    python3 perfbench/compare.py pairs --parent DIR --change DIR --out OUT [--runs 10]
    python3 perfbench/compare.py compare PARENT_SET CHANGE_SET

`collect` runs this checkout untraced with seeds 1..runs.  `steady` gives
each end-to-end metric's median and quartiles across the runs of one
commit, and its spread: the distance between the quartiles as a share of
the median, as statistics.quantiles(values, n=4) gives them.

`pairs` runs two checkouts alternately, with seed i in pair i (parent first
when i is odd, change first when it is even), into OUT/parent and
OUT/change.  `compare` applies the rule for claiming a gain to two such
sets: the change must win at least 9 in 10 of the pairs, ties counting for
neither side, and the medians must differ by more than the parent's
interquartile range.  A metric whose spread exceeds its bound in
BENCHMARK.json is unresolved, unless every change run beats every parent
run; otherwise a change median worse than the parent's by more than the
bound is a regression.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {checkout} failed:\n{done.stderr}")
    for line in done.stdout.splitlines():
        if line.startswith("record "):
            return json.loads(line[len("record "):])
    raise SystemExit(f"{workload} seed {seed} in {checkout} printed no record")


def save(record: dict, out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    name = f"{record['workload']}-s{record['environment']['seed']}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    metrics = record["metrics"]
    shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in list(metrics.items())[:6])
    print(f"{record['workload']} seed {record['environment']['seed']}: "
          f"correct={record['correct']} {shown}", flush=True)


def load_set(path: Path) -> dict[str, list[dict]]:
    """Records of a set by workload, in seed order."""
    by_workload: dict[str, list[dict]] = {}
    for file in sorted(path.glob("*.json")):
        record = json.loads(file.read_text())
        by_workload.setdefault(record["workload"], []).append(record)
    for records in by_workload.values():
        records.sort(key=lambda r: r["environment"]["seed"])
    return by_workload


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": len(values)}


def steady(path: Path, spec: dict) -> dict:
    report = {}
    for workload, records in load_set(path).items():
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in records]
            rows[metric["name"]] = {**summary(values), "bound": metric["bound"]}
        environment = {k: v for k, v in records[0]["environment"].items() if k != "seed"}
        report[workload] = {
            "metrics": rows,
            "all_correct": all(r["correct"] for r in records),
            "seeds": [r["environment"]["seed"] for r in records],
            "seconds": records[0]["seconds"],
            "environment": environment,
        }
    return report


def print_steady(report: dict) -> None:
    print(f"{'workload':10s} {'metric':14s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s} {'runs':>4s}  verdict")
    for workload, entry in report.items():
        for name, row in entry["metrics"].items():
            if row["spread"] <= row["bound"] / 3:
                verdict = "steady"
            elif row["spread"] <= row["bound"]:
                verdict = "within bound"
            else:
                verdict = "UNSTEADY"
            print(f"{workload:10s} {name:14s} {row['median']:12.6g} {row['q1']:12.6g} "
                  f"{row['q3']:12.6g} {row['spread']:8.2%} {row['bound']:6.2f} {row['runs']:4d}  {verdict}")
        if not entry["all_correct"]:
            print(f"{workload:10s} some runs reported incorrect outputs")


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]], spec: dict) -> list[dict]:
    rows = []
    for workload in sorted(parent.keys() & change.keys()):
        by_seed = {r["environment"]["seed"]: r for r in parent[workload]}
        pairs = [(by_seed[r["environment"]["seed"]], r) for r in change[workload]
                 if r["environment"]["seed"] in by_seed]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = 1 if metric["better"] == "lower" else -1
            old = [p["metrics"][name]["value"] for p, _ in pairs]
            new = [c["metrics"][name]["value"] for _, c in pairs]
            wins = sum(1 for a, b in zip(old, new) if sign * (a - b) > 0)
            before, after = summary(old), summary(new)
            gain = sign * (before["median"] - after["median"])
            if wins >= 0.9 * len(pairs) and len(pairs) >= 10 and gain > before["q3"] - before["q1"]:
                verdict = "gain"
            elif before["spread"] > bound and not all(sign * (b - a) < 0 for a in old for b in new):
                verdict = "unresolved"
            elif -gain > bound * before["median"]:
                verdict = "REGRESSION"
            else:
                verdict = "no regression"
            rows.append({"workload": workload, "metric": name, "pairs": len(pairs), "wins": wins,
                         "parent": before, "change": after, "verdict": verdict})
    return rows


def print_compare(rows: list[dict]) -> None:
    def spread(s):
        return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}]"

    print(f"{'workload':10s} {'metric':14s} {'parent median [q1, q3]':>38s} "
          f"{'change median [q1, q3]':>38s} {'wins':>7s}  verdict")
    for row in rows:
        print(f"{row['workload']:10s} {row['metric']:14s} {spread(row['parent']):>38s} "
              f"{spread(row['change']):>38s} {row['wins']:3d}/{row['pairs']:<3d}  {row['verdict']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    spec = load_spec()
    workloads = ",".join(w["name"] for w in spec["workloads"])

    p = sub.add_parser("collect", help="run this checkout over seeds 1..runs")
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workloads", default=workloads)
    p.add_argument("--runs", type=int, default=10)

    p = sub.add_parser("pairs", help="run parent and change alternately, same seed per pair")
    p.add_argument("--parent", type=Path, required=True)
    p.add_argument("--change", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--workloads", default=workloads)
    p.add_argument("--runs", type=int, default=10)

    p = sub.add_parser("steady", help="median and quartiles of each metric across runs")
    p.add_argument("set", type=Path)
    p.add_argument("--json", type=Path, help="also write the report to this file")

    p = sub.add_parser("compare", help="parent against change, one row per workload and metric")
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)

    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    if args.command == "collect":
        for workload in args.workloads.split(","):
            for seed in range(1, args.runs + 1):
                save(run_once(ROOT, workload, seed, seconds), args.out)
    elif args.command == "pairs":
        for workload in args.workloads.split(","):
            for seed in range(1, args.runs + 1):
                sides = [("parent", args.parent), ("change", args.change)]
                for side, checkout in sides if seed % 2 else sides[::-1]:
                    save(run_once(checkout, workload, seed, seconds), args.out / side)
    elif args.command == "steady":
        report = steady(args.set, spec)
        print_steady(report)
        if args.json:
            args.json.write_text(json.dumps(report, indent=1) + "\n")
    else:
        rows = compare(load_set(args.parent), load_set(args.change), spec)
        print_compare(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
