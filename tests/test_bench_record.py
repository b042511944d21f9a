"""tools/bench_record.py fed canned run output: it runs no benchmark."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def load_tool(monkeypatch):
    # the tool puts perfbench/ on sys.path to import compare.py; undo that afterwards
    monkeypatch.setattr(sys, "path", [*sys.path])
    spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_writes_the_next_file_from_record_lines(monkeypatch, tmp_path):
    tool = load_tool(monkeypatch)
    calls = []

    def fake_run(argv, **kwargs):
        calls.append(argv)
        if argv[1:] == ["-c", "pass"]:
            return subprocess.CompletedProcess(argv, 0, "", "")
        # perfbench/run.py --workload W --seed S ...: a record whose every metric reads S
        workload, seed = argv[argv.index("--workload") + 1], int(argv[argv.index("--seed") + 1])
        metrics = {m["name"]: {"value": float(seed), "unit": m["unit"]} for m in SPEC["end_to_end"]}
        record = {"workload": workload, "environment": {"seed": seed}, "correct": True,
                  "metrics": metrics}
        out = f"table\nrecord {json.dumps(record)}\n{{}}\n"
        return subprocess.CompletedProcess(argv, 0, out, "")

    monkeypatch.setattr(subprocess, "run", fake_run)
    for k in (2, 10):
        (tmp_path / f"BENCH_{k}.json").write_text("{}")
    path = tool.write_record(tmp_path)
    assert path == tmp_path / "BENCH_11.json"
    bench = json.loads(path.read_text())
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert [(r["workload"], r["environment"]["seed"]) for r in bench["records"]] == [
        (w, s) for w in workloads for s in range(1, 11)]
    assert list(bench["summary"]) == workloads
    for rows in bench["summary"].values():
        assert {name: row["median"] for name, row in rows.items()} == {
            m["name"]: 5.5 for m in SPEC["end_to_end"]}
    assert bench["run_seconds"] == SPEC["run_seconds"]
    assert isinstance(bench["python_start_floor_ms"], float)
    assert "PYTHONDONTWRITEBYTECODE" in bench and bench["interpreter"]["version"]
    assert sum(argv[1:] == ["-c", "pass"] for argv in calls) == tool.FLOOR_RUNS
