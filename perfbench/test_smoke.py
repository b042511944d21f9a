"""Smoke test of the benchmark at tiny scale.

    python3 -m pytest -q perfbench/test_smoke.py

Every workload runs a shrunken item list for the minimum two passes, traced
and untraced.  The test checks that each metric BENCHMARK.json names is
emitted with its unit, that nothing fails at this commit, that counts repeat
across traced passes, and that a wrong expected value is caught.
"""

from __future__ import annotations

import copy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = run.load_spec()
EXPECTED = run.load_expected()


def tiny_run(workload: str, trace: bool, expected: dict = EXPECTED) -> dict:
    return run.measure_run(workload, seed=7, seconds=0, trace=trace, spec=SPEC,
                           tiny=True, expected=expected)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_emitted_with_its_unit(workload, trace):
    record = tiny_run(workload, trace)
    line = run.result_line(record, SPEC)
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in listed} == {k: v["unit"] for k, v in line["metrics"].items()}
    assert record["failures"] == []
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    if not trace:
        assert record["metrics"]["fail_ratio"]["value"] == 0
        for metric in SPEC["end_to_end"]:
            assert line["metrics"][metric["name"]]["value"] > 0
    else:
        assert record["counts_repeat"]
        assert len(record["sampling"]["traced_pass_scale"]) >= 2


def test_wrong_expected_value_is_a_failure():
    tampered = copy.deepcopy(EXPECTED)
    tampered["search"]["la/4/2"]["value"] = "7"
    record = tiny_run("search", trace=False, expected=tampered)
    assert not record["correct"]
    assert record["failed"] == record["sampling"]["passes"]
    assert record["metrics"]["fail_ratio"]["value"] > 0
    assert any(f.startswith("la/4/2:") for f in record["failures"])


def test_refuses_to_run_without_the_package(tmp_path: Path):
    here = Path(__file__).resolve().parent
    shutil.copy(here.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(here, tmp_path / here.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "search", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
