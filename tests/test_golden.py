"""Byte-level golden outputs of the CLI and the demos.

`golden.json` beside this file holds, for every case below, the exit code,
stderr and JSON report (timing removed) that `main` produced, its raw
stdout in both `--format json` and `--format text` (timing value masked),
the `--help` text of the dispatching subcommands, and the stdout of every
demo script.  Refactors that must not change behaviour are checked against
it.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from latticework.cli import main
from latticework.constructions import disconnected_extremal, sharp_family
from latticework.core import SetFamily, layer_masks

HERE = Path(__file__).parent
ROOT = HERE.parent
GOLDEN = json.loads((HERE / "golden.json").read_text())

FAMILY_FILES = {
    "antichain.json": SetFamily.from_masks(4, layer_masks(4, 2)),
    "chain.json": SetFamily.from_sets(3, [(1,), (1, 2)]),
    "sharp.json": sharp_family(5, 1),
    "disconnected.json": disconnected_extremal(4),
    # three skipless steps, two of which change the component shape
    "skips.json": SetFamily.from_sets(
        5, [(2, 4), (3, 4), (1, 3, 4), (5,), (2, 3, 5), (1, 3, 4, 5), (1, 2, 3, 4, 5)]
    ),
}

SPLIT_FILES = {"split.json": {"a": [1], "b": [0]}}

CASES = [
    ["construct", "sharp", "--n", "6", "--k", "2", "--out", "out.json"],
    ["construct", "sharp", "--n", "7", "--k", "2", "--ceil-middle", "--out", "out.json"],
    ["construct", "disconnected", "--n", "5", "--out", "out.json"],
    ["construct", "diamond", "--n", "5", "--bottom", "1", "--top", "1,3,4", "--out", "out.json"],
    ["construct", "diamond", "--n", "4", "--top", "2,3", "--out", "out.json"],
    ["construct", "full-cube", "--n", "3", "--out", "out.json"],
    ["construct", "layer-pair", "--n", "5", "--k", "2", "--out", "out.json"],
    ["construct", "diamond", "--n", "4"],
    ["construct", "layer-pair", "--n", "4"],
    ["construct", "sharp", "--n", "4"],
    ["search", "la", "--n", "4", "--t", "2"],
    ["search", "la-restricted", "--n", "4", "--t", "2", "--kmin", "2", "--kmax", "3"],
    ["search", "lambda-star", "--n", "3", "--t", "2"],
    ["search", "disconnected", "--n", "4"],
    ["search", "xi-star", "--n", "5", "--m", "6"],
    ["search", "min2chains", "--n", "3", "--m", "4"],
    ["search", "madstar", "--t", "4"],
    ["--budget-nodes", "3", "search", "la", "--n", "4", "--t", "4"],
    ["search", "la-restricted", "--n", "4", "--t", "2"],
    ["search", "madstar"],
    ["--seed", "3", "verify", "blym", "--n", "5", "--samples", "30"],
    ["verify", "blym", "--family", "antichain.json"],
    ["verify", "blym", "--family", "chain.json"],
    ["--seed", "1", "verify", "diamond-blym", "--n", "5", "--samples", "30", "--sharp-n", "5"],
    ["verify", "diamond-blym", "--family", "sharp.json"],
    ["verify", "kk", "--n", "4", "--k", "2", "--samples", "50"],
    ["--seed", "2", "verify", "kk", "--n", "6", "--k", "3", "--samples", "40"],
    # kk takes no family, so --family is neither loaded nor echoed
    ["verify", "kk", "--n", "4", "--k", "2", "--samples", "3", "--family", "chain.json"],
    ["verify", "technical", "--nmax", "4", "--kmax", "2"],
    ["--seed", "5", "verify", "colouring", "--n", "4", "--samples", "10"],
    ["verify", "colouring", "--n", "4", "--k", "1", "--samples", "10"],
    ["verify", "fact-ab", "--n", "3"],
    ["--budget-nodes", "100000", "verify", "key-lemma", "--n", "3"],
    ["verify", "fact-ab", "--n", "4", "--samples", "7"],
    ["analyze", "--family", "sharp.json"],
    ["analyze", "--family", "skips.json"],
    ["normalize", "--family", "skips.json", "--t", "7", "--trace"],
    ["normalize", "--family", "skips.json", "--t", "7", "--out", "out.json"],
    ["normalize", "--family", "chain.json", "--t", "2", "--trace"],
    ["normalize", "--family", "skips.json", "--t", "6"],
    ["normalize", "--family", "skips.json"],
    ["boundary", "--family", "disconnected.json", "--split-file", "split.json"],
    ["search", "disconnected", "--n", "5"],
    ["search", "xi-star", "--n", "5", "--m", "8"],
    ["search", "lambda-star", "--n", "4", "--t", "3"],
    ["search", "la", "--n", "5", "--t", "4"],
    ["--budget-nodes", "100000", "verify", "key-lemma", "--n", "4"],
    ["reproduce", "--list"],
    ["reproduce", "la-n4-t4"],
    ["reproduce", "xi-star-n5-m6"],
    # searches stopped before their first candidate: value and witness None
    ["--budget-nodes", "0", "search", "min2chains", "--n", "3", "--m", "4"],
    ["--budget-nodes", "0", "search", "xi-star", "--n", "5", "--m", "4"],
]

HELP = [["construct", "--help"], ["search", "--help"], ["verify", "--help"]]

DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))

# the one line of a report that differs between runs
TIMING = re.compile(r'(timing_seconds"?: )\S+')


def run_case(argv, capsys):
    code = main(["--format", "json", *argv])
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    if report is not None:
        del report["timing_seconds"]
    return {"code": code, "stderr": captured.err, "report": report}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, fam in FAMILY_FILES.items():
        (tmp_path / name).write_text(fam.to_json())
    for name, split in SPLIT_FILES.items():
        (tmp_path / name).write_text(json.dumps(split))
    return tmp_path


def test_cli_reports_match_golden(workdir, capsys):
    assert [" ".join(argv) for argv in CASES] == list(GOLDEN["cli"])
    for argv in CASES:
        got = run_case(argv, capsys)
        want = GOLDEN["cli"][" ".join(argv)]
        # dumping both keeps dict key order in the comparison
        assert json.dumps(got) == json.dumps(want), argv


def raw_stdout(argv, fmt, capsys):
    main(["--format", fmt, *argv])
    return TIMING.sub(r"\1*", capsys.readouterr().out)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cli_stdout_bytes_match_golden(workdir, capsys, fmt):
    # the parsed comparison above forgives whitespace; this one does not
    want = GOLDEN["stdout"][fmt]
    assert [" ".join(argv) for argv in CASES] == list(want)
    for argv in CASES:
        assert raw_stdout(argv, fmt, capsys) == want[" ".join(argv)], argv


def test_help_choices_match_golden(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    for argv in HELP:
        with pytest.raises(SystemExit):
            main(argv)
        assert capsys.readouterr().out == GOLDEN["help"][" ".join(argv)], argv


def test_search_reports_match_golden_under_python_O(src_env):
    # the witness checks must run, and pass, with assert statements stripped
    for argv in (["search", "lambda-star", "--n", "3", "--t", "2"],
                 ["search", "la", "--n", "4", "--t", "2"]):
        proc = subprocess.run(
            [sys.executable, "-O", "-m", "latticework.cli", "--format", "json", *argv],
            env=src_env, capture_output=True, text=True,
        )
        report = json.loads(proc.stdout)
        del report["timing_seconds"]
        got = {"code": proc.returncode, "stderr": proc.stderr, "report": report}
        assert json.dumps(got) == json.dumps(GOLDEN["cli"][" ".join(argv)]), argv


def test_demo_stdout_matches_golden(src_env):
    assert DEMOS == list(GOLDEN["demos"])
    for name in DEMOS:
        out = subprocess.run(
            [sys.executable, str(ROOT / "demos" / name)],
            env=src_env, capture_output=True, text=True, check=True,
        ).stdout
        assert out == GOLDEN["demos"][name], name


def test_bare_construct_computes_no_digest(workdir, capsys, monkeypatch):
    # a bare construct prints the family alone; with --out its report keeps the digest
    def refuse(self):
        raise AssertionError("digest computed")

    monkeypatch.setattr(SetFamily, "digest", refuse)
    bare = [argv for argv in CASES if argv[0] == "construct" and "--out" not in argv]
    for argv in bare:
        key = " ".join(argv)
        assert main(argv) == GOLDEN["cli"][key]["code"], argv
        assert capsys.readouterr().out == GOLDEN["stdout"]["json"][key], argv
    assert main(["construct", "sharp", "--n", "5", "--k", "1"]) == 0
    want = json.dumps(FAMILY_FILES["sharp.json"].to_jsonable(), indent=2) + "\n"
    assert capsys.readouterr().out == want
    monkeypatch.setattr(SetFamily, "digest", lambda self: "digest of " + self.to_json())
    assert main(["--format", "json", "construct", "sharp", "--n", "5", "--k", "1", "--out",
                 "out.json"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert list(results) == ["family", "size", "digest", "written_to"]
    assert results["digest"] == "digest of " + FAMILY_FILES["sharp.json"].to_json()
