"""cli: sequential real processes of `python -m latticework.cli`.

Why: compute is kept small, so interpreter start, import, argument parsing
and JSON emission dominate, which is what a user of a short `latticework`
command waits for.  No other workload measures the cli layer.  Nothing is
warmed up: users pay the cold start on every call.

Each pass runs construct, analyze and normalize --trace on seeded family
files, a small `search la`, a small `verify` and `reproduce <name>`, one
process at a time, with this checkout's src/ on PYTHONPATH.  The analyze
and normalize inputs are drawn from a fixed pool of POOL seeded families
each, so that expected.json can record every result.  Each report is parsed
and checked against the values recorded in expected.json or against the
reproduction registry.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import tempfile

from harness import ROOT, START_S, SRC, CheckFailed, Item, Workload, expect, start_time
from latticework import normalize, sampling

# registry entries that finish in milliseconds, with their frozen values
REPRODUCE = {
    "sperner-n3": "3", "sperner-n4": "6", "katona-tarjan-n4": "6", "k2-n3": "4",
    "la-n4-t4": "8", "disconnected-n3": "4", "disconnected-n4": "10",
    "kleitman-n3-q1": "2", "madstar-t4": "2", "lambda-star-n3-t2": "2",
}
VERIFY = [("kk", ["--n", "4", "--k", "2"]), ("technical", ["--nmax", "4", "--kmax", "2"])]
POOL = 16
PROBES = 5
IMPORT_PROBE = (
    "import time\n"
    "w, c = time.perf_counter(), time.process_time()\n"
    "import latticework.cli\n"
    "print(time.perf_counter() - w, time.process_time() - c)\n"
)


def analyze_input(index: int, tracer):
    """Family number `index` of the pool the analyze items draw from."""
    rng = random.Random(f"analyze/{index}")
    return tracer.call("sampling.random_family", sampling.random_family, rng, 7, rng.randint(30, 60))


def normalize_input(index: int, tracer):
    """Family and order bound number `index` of the pool the normalize items
    draw from: the first draw that has a skip."""
    rng = random.Random(f"normalize/{index}")
    for _ in range(100):
        fam, t = tracer.call(
            "sampling.random_order_bounded_family", sampling.random_order_bounded_family, rng, 6
        )
        if normalize.skip_count(fam):
            break
    return fam, t


class CliCalls(Workload):
    pass_seconds = 1.6
    reference_every = 0.0

    def __init__(self, seed: int, tiny: bool, tracer, expected: dict):
        self.expected = expected
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
        self.workdir = tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT)
        self.peak_kb = 0
        rng = random.Random(seed)
        path = self.workdir.name

        n, k, ceil = rng.randint(5, 9), rng.randint(0, 3), rng.random() < 0.5
        construct = ["construct", "sharp", "--n", str(n), "--k", str(k), "--out", f"{path}/sharp.json"]
        if ceil:
            construct.insert(6, "--ceil-middle")

        a, b = rng.randrange(POOL), rng.randrange(POOL)
        analyzed = self._write(analyze_input(a, tracer), "analyze.json")
        fam, t = normalize_input(b, tracer)
        normalized = self._write(fam, "normalize.json")

        la_t = rng.randint(1, 4)
        suite, suite_args = rng.choice(VERIFY)
        name = rng.choice(sorted(REPRODUCE))
        self.items = [
            Item("construct", f"construct sharp n={n} k={k} ceil={int(ceil)}", (construct, (n, k, ceil))),
            Item("analyze", f"analyze pool {a}", (["analyze", "--family", analyzed], f"analyze/{a}")),
            Item("normalize", f"normalize --trace pool {b}",
                 (["normalize", "--family", normalized, "--t", str(t), "--trace"], f"normalize/{b}")),
            Item("search", f"search la --n 4 --t {la_t}", (["search", "la", "--n", "4", "--t", str(la_t)], la_t)),
            Item("verify", f"verify {suite}", (["verify", suite, *suite_args], suite)),
            Item("reproduce", f"reproduce {name}", (["reproduce", name], name)),
        ]

    def _write(self, fam, name: str) -> str:
        path = os.path.join(self.workdir.name, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(fam.to_jsonable(), fh)
        return path

    def warm_up_calls(self):
        return []

    def close(self) -> None:
        self.workdir.cleanup()

    def peak_rss_mb(self) -> float:
        return self.peak_kb / 1024.0

    def _spawn(self, argv: list[str]) -> tuple[int, str, str]:
        """Run one child to completion; its own rusage gives its peak memory."""
        err_path = os.path.join(self.workdir.name, "stderr.txt")
        with open(err_path, "w+b") as err, subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=err, env=self.env, cwd=ROOT
        ) as proc:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            message = err.read()
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, out.decode(), message.decode(errors="replace")

    def run(self, item: Item, tracer):
        argv = [sys.executable, "-m", "latticework.cli", "--format", "json", *item.args[0]]
        code, out, err = tracer.call("cli." + item.kind, self._spawn, argv)
        if code != 0:
            raise CheckFailed(f"exit code {code}: {err.strip()[-300:]}")
        report = json.loads(out)
        tracer.add_seconds(f"cli.{item.kind}.report_s", report["timing_seconds"])
        return report

    def check(self, item: Item, report) -> None:
        expect("command", report["command"], item.kind)
        results = report["results"]
        kind, want = item.kind, item.args[1]
        if kind == "construct":
            n, k, ceil = want
            expect("construct digest", results["digest"], self.expected["construct"][f"sharp/{n}/{k}/{int(ceil)}"])
        elif kind == "analyze":
            got = {key: results[key] for key in ("size", "digest", "height", "two_chains", "lubell", "skips")}
            expect("analysis", got, self.expected["cli"][want])
        elif kind == "normalize":
            got = {
                "digest": results["digest"], "size": results["size"],
                "skips_after": results["skips_after"], "steps": len(results["trace"]),
            }
            expect("normalization", got, self.expected["cli"][want])
        elif kind == "search":
            recorded = self.expected["search"][f"la/4/{want}"]
            expect("proven", results["proven_optimal"], True)
            expect("value", str(results["value"]), recorded["value"])
            expect("nodes_explored", results["nodes_explored"], recorded["nodes"])
        elif kind == "verify":
            expect("passed", results["passed"], True)
            expect("checked", results["checked"], self.expected["verify"][want]["checked"])
        elif kind == "reproduce":
            expect("passed", results["passed"], True)
            expect("reproduced value", results["actual"], REPRODUCE[want])

    def probes(self) -> dict:
        """Interpreter start, and `import latticework.cli` alone scaled to the
        nominal start time, PROBES times each."""
        starts, walls, cpus = [], [], []
        for _ in range(PROBES):
            starts.append(start_time())
            code, out, err = self._spawn([sys.executable, "-c", IMPORT_PROBE])
            if code != 0:
                raise CheckFailed(f"import probe failed: {err.strip()[-300:]}")
            wall, cpu = map(float, out.split())
            walls.append(wall)
            cpus.append(cpu)
        scale = START_S / statistics.median(starts) * 1e3
        return {
            "cli.python_start.wall_ms_p50": statistics.median(starts) * 1e3,
            "cli.import.wall_ms_p50": statistics.median(walls) * scale,
            "cli.import.cpu_ms_p50": statistics.median(cpus) * scale,
        }
