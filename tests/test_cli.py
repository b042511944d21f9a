import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latticework import __version__
from latticework import search
from latticework.cli import CONSTRUCTIONS, SEARCHES, SUITE_NAMES, build_parser, main
from latticework.constructions import disconnected_extremal, sharp_family
from latticework.core import SetFamily
from latticework.normalize import make_skipless_with_trace
from latticework.verify import VERIFIERS


def run_json(capsys, *argv):
    code = main(["--format", "json", *argv])
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_family(tmp_path, fam, name="fam.json"):
    path = tmp_path / name
    path.write_text(json.dumps(fam.to_jsonable()))
    return str(path)


def test_construct_bare_emits_family_format(capsys):
    code = main(["construct", "sharp", "--n", "4", "--k", "2"])
    out = capsys.readouterr().out
    assert code == 0
    fam = SetFamily.from_jsonable(json.loads(out))
    assert fam == sharp_family(4, 2)


def test_construct_out_writes_and_reports(capsys, tmp_path):
    path = tmp_path / "disc.json"
    code, report = run_json(
        capsys, "construct", "disconnected", "--n", "4", "--out", str(path)
    )
    assert code == 0
    assert report["command"] == "construct"
    assert report["results"]["size"] == 10
    assert report["results"]["written_to"] == str(path)
    on_disk = SetFamily.from_jsonable(json.loads(path.read_text()))
    assert on_disk == disconnected_extremal(4)


def test_every_parameter_of_a_command_function_is_an_option():
    # options bind by parameter name, so a parameter the subcommand's parser
    # lacks could never be set, and a required one could never be given
    runs = [(["construct", name], fn) for name, fn in CONSTRUCTIONS.items()]
    runs += [(["search", op], getattr(search, name)) for op, name in SEARCHES.items()]
    runs += [(["verify", name], fn) for name, fn in VERIFIERS.items()]
    runs.append((["normalize", "--family", "fam.json"], make_skipless_with_trace))
    parser = build_parser()
    for argv, fn in runs:
        options = vars(parser.parse_args(argv))
        for name in inspect.signature(fn).parameters:
            assert name in options, (argv, name)


def test_suite_names_are_the_verifiers():
    # the verify parser reads the frozen names, so the CLI never imports
    # `verify` just to list its suites
    assert SUITE_NAMES == tuple(sorted(VERIFIERS))


def test_construct_diamond(capsys):
    code = main(["construct", "diamond", "--n", "4", "--bottom", "1", "--top", "1,2,3"])
    out = capsys.readouterr().out
    assert code == 0
    fam = SetFamily.from_jsonable(json.loads(out))
    assert len(fam) == 4 and fam.n == 4


def test_analyze_report_fields(capsys, tmp_path):
    path = write_family(tmp_path, sharp_family(3, 1))
    code, report = run_json(capsys, "analyze", "--family", path)
    assert code == 0
    res = report["results"]
    assert res["size"] == 4
    assert res["height"] == 1
    assert res["component_orders"] == [2, 2]
    assert res["lubell"] == "4/3"
    assert res["two_chains"] == 2
    assert res["skips"] == 0
    for key in ("command", "params", "results", "seed", "version", "timing_seconds"):
        assert key in report
    assert report["version"] == __version__


def test_analyze_empty_family(capsys, tmp_path):
    path = write_family(tmp_path, SetFamily.from_masks(3, []))
    code, report = run_json(capsys, "analyze", "--family", path)
    assert code == 0
    res = report["results"]
    assert res["size"] == 0 and res["height"] is None and res["lubell"] == "0"


def test_analyze_past_closure_cap_reports_null_skips(capsys, tmp_path):
    # skips need cube-wide closures, capped at n = 20; the rest is pairwise
    path = write_family(tmp_path, SetFamily.from_sets(30, [(1,), (1, 2)]))
    code, report = run_json(capsys, "analyze", "--family", path)
    assert code == 0
    res = report["results"]
    assert res["skips"] is None
    assert "capped at n=20" in res["skips_reason"]
    assert res["height"] == 1 and res["component_orders"] == [2]
    assert res["two_chains"] == 1 and res["lubell"] == "31/870"


def test_verify_blym_family_past_closure_cap(capsys, tmp_path):
    # the antichain test takes the pairwise route where the cube is too large
    path = write_family(tmp_path, SetFamily.from_sets(25, [(1,), (2,)]))
    code, report = run_json(capsys, "verify", "blym", "--family", path)
    assert code == 0
    assert report["results"]["sum"] == "2/25"
    path = write_family(tmp_path, SetFamily.from_sets(25, [(1,), (1, 2)]), "chain.json")
    code, report = run_json(capsys, "verify", "blym", "--family", path)
    assert code == 1
    assert report["results"]["failures"] == [{"reason": "family contains a 2-chain"}]


def test_normalize_trace_replays(capsys, tmp_path):
    fam = SetFamily.from_sets(3, [(), (1,), (1, 2, 3)])
    path = write_family(tmp_path, fam)
    code, report = run_json(capsys, "normalize", "--family", path, "--t", "3", "--trace")
    assert code == 0
    res = report["results"]
    assert res["skips_after"] == 0
    assert res["size"] == 3
    current = fam
    for added, removed in res["trace"]:
        current = current.add(added).remove(removed)
    assert current == SetFamily.from_jsonable(res["family"])


def test_failed_normalization_check_exits_one(capsys, monkeypatch, tmp_path):
    from latticework import normalize

    def failing_step(family, graph, skips):
        raise normalize.NormalizationError("skip count failed to decrease")

    monkeypatch.setattr(normalize, "_step", failing_step)
    path = write_family(tmp_path, SetFamily.from_sets(3, [(), (1,), (1, 2, 3)]))
    code = main(["normalize", "--family", path, "--t", "3"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("verification failed: skip count failed to decrease")


def test_boundary_on_extremal_split(capsys, tmp_path):
    path = write_family(tmp_path, disconnected_extremal(4))
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"a": [0], "b": [1]}))
    code, report = run_json(
        capsys, "boundary", "--family", path, "--split-file", str(split)
    )
    assert code == 0
    res = report["results"]
    assert res["excluded_count"] == 6
    assert res["family_size"] == 10
    assert res["bound_holds"]


def test_boundary_rejects_bad_split(capsys, tmp_path):
    path = write_family(tmp_path, disconnected_extremal(3))
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"a": [0, 1], "b": []}))
    assert main(["boundary", "--family", path, "--split-file", str(split)]) == 2
    assert "nonempty" in capsys.readouterr().err


@pytest.mark.parametrize(
    "split", [{"a": [0], "b": ["1"]}, {"a": 0, "b": [1]}, {"a": [True], "b": [0]}]
)
def test_boundary_rejects_malformed_split_file(capsys, tmp_path, split):
    path = write_family(tmp_path, disconnected_extremal(3))
    split_file = tmp_path / "split.json"
    split_file.write_text(json.dumps(split))
    assert main(["boundary", "--family", path, "--split-file", str(split_file)]) == 2
    assert "split file must be" in capsys.readouterr().err


def test_boundary_past_closure_cap_exits_four(capsys, tmp_path):
    path = write_family(tmp_path, SetFamily.from_sets(63, [(1,), (2,)]))
    split = tmp_path / "split.json"
    split.write_text(json.dumps({"a": [0], "b": [1]}))
    assert main(["boundary", "--family", path, "--split-file", str(split)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("size cap exceeded: ")


def test_verify_pass_and_fail_exit_codes(capsys, tmp_path):
    assert main(["verify", "technical", "--nmax", "3", "--kmax", "1"]) == 0
    capsys.readouterr()
    chained = write_family(tmp_path, SetFamily.from_sets(3, [(1,), (1, 2)]))
    assert main(["verify", "blym", "--family", chained]) == 1


def test_verify_json_report(capsys):
    code, report = run_json(capsys, "verify", "kk", "--n", "3", "--k", "1", "--samples", "20")
    assert code == 0
    assert report["results"]["passed"]
    assert report["params"]["suite"] == "kk"


def test_search_exit_codes(capsys):
    code, report = run_json(capsys, "search", "la", "--n", "3", "--t", "2")
    assert code == 0
    res = report["results"]
    assert res["value"] == 4
    assert res["proven_optimal"]
    wit = SetFamily.from_jsonable(res["witness"])
    assert len(wit) == 4


def test_search_budget_exit(capsys):
    code, report = run_json(
        capsys, "--budget-nodes", "3", "search", "la", "--n", "4", "--t", "4"
    )
    assert code == 3
    assert not report["results"]["proven_optimal"]
    assert report["results"]["value"] <= 8
    # a budget that ends before the first candidate leaves no incumbent
    for argv in (("xi-star", "--n", "5", "--m", "4"), ("min2chains", "--n", "3", "--m", "4")):
        code, report = run_json(capsys, "--budget-nodes", "0", "search", *argv)
        assert code == 3, argv
        res = report["results"]
        assert (res["value"], res["witness"], res["nodes_explored"]) == (None, None, 1), argv
        assert not res["proven_optimal"]


def test_spent_enumeration_budget_exits_three(capsys):
    code = main(["--budget-nodes", "3", "verify", "fact-ab"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err.startswith("budget exceeded: split enumeration stopped")


def test_size_cap_exits_four(capsys):
    for argv in (("construct", "full-cube", "--n", "21"), ("construct", "sharp", "--n", "21", "--k", "0")):
        code = main(list(argv))
        captured = capsys.readouterr()
        assert code == 4, argv
        assert captured.out == ""
        assert captured.err.startswith("size cap exceeded: "), argv
        assert "capped at n=20" in captured.err, argv


def test_pairwise_route_past_its_cap_exits_four():
    # the layers of [21] up to k = 4 are pair-tested, and k = 5 has 20,349
    # members; in a child process, so a lost cap fails on the timeout
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, "-m", "latticework.cli", "verify", "blym", "--n", "21", "--samples", "0"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr.startswith("size cap exceeded: pairwise comparability capped at 8192")


def test_failed_witness_check_exits_one(capsys, monkeypatch):
    from latticework import search

    # a Lubell oracle that disagrees with the search's own weights
    monkeypatch.setattr(search, "lubell", lambda family: -1)
    code = main(["search", "lambda-star", "--n", "2", "--t", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("verification failed: witness has Lubell sum -1")


def test_search_rational_values_as_strings(capsys):
    code, report = run_json(capsys, "search", "madstar", "--t", "3")
    assert code == 0
    assert report["results"]["value"] == "4/3"
    wit = report["results"]["witness"]
    assert wit["vertices"] == 3 and len(wit["edges"]) == 2


def test_search_missing_flag_is_usage_error(capsys):
    assert main(["search", "xi-star", "--n", "4"]) == 2
    assert "--m is required" in capsys.readouterr().err


def test_reproduce_and_list(capsys):
    code, report = run_json(capsys, "reproduce", "sperner-n4")
    assert code == 0
    assert report["results"]["passed"]
    assert report["results"]["expected"] == "6"
    code, report = run_json(capsys, "reproduce", "--list")
    assert code == 0
    names = {entry["name"] for entry in report["results"]["registry"]}
    assert {"sperner-n3", "madstar-t4", "sharp-size-n12-k3"} <= names


def test_reproduce_requires_name_or_list(capsys):
    assert main(["reproduce"]) == 2


def test_bad_family_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 3, "sets": [[1,')
    assert main(["analyze", "--family", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line" in err
    assert main(["analyze", "--family", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    path.write_bytes(b'\xff{"n": 3, "sets": []}')
    assert main(["analyze", "--family", str(path)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_domain_error_is_usage_error(capsys):
    # sharp needs 0 <= k <= n
    assert main(["construct", "sharp", "--n", "3", "--k", "9"]) == 2


@pytest.mark.parametrize("argv", [
    ["search", "lambda-star", "--n", "-1", "--t", "2"],
    ["search", "min2chains", "--n", "-1", "--m", "2"],
    ["search", "xi-star", "--n", "0", "--m", "1"],
    ["verify", "key-lemma", "--n", "-1"],
    ["verify", "key-lemma", "--n", "0"],
    ["verify", "fact-ab", "--n", "0"],
])
def test_bad_ground_size_is_usage_error(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "1 <= n" in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "blym", "--n", "-1"],
    ["verify", "diamond-blym", "--n", "-1"],
    ["verify", "key-lemma", "--n", "1"],
    ["verify", "technical", "--nmax", "-1", "--kmax", "1"],
    ["verify", "colouring", "--n", "0"],
    ["verify", "diamond-blym", "--n", "3", "--samples", "0", "--sharp-n", "1"],
    ["verify", "blym", "--n", "3", "--samples", "-1"],
    ["verify", "diamond-blym", "--n", "3", "--samples", "-1"],
    ["verify", "colouring", "--n", "3", "--samples", "-4"],
    ["verify", "kk", "--n", "3", "--k", "1", "--samples", "-1"],
    ["verify", "kk", "--n", "6", "--k", "3", "--samples", "-5"],
    ["verify", "kk", "--n", "6", "--k", "3", "--samples", "0"],
])
def test_degenerate_suite_size_is_usage_error(capsys, argv):
    # each used to end in a traceback or to pass with nothing checked
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_unwritable_out_is_usage_error(capsys, tmp_path):
    missing = str(tmp_path / "missing" / "out.json")
    assert main(["construct", "sharp", "--n", "4", "--k", "1", "--out", missing]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {missing}")
    path = write_family(tmp_path, sharp_family(4, 1))
    assert main(["normalize", "--family", path, "--t", "2", "--out", missing]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {missing}")


def test_truncated_split_file_is_usage_error(capsys, tmp_path):
    path = write_family(tmp_path, disconnected_extremal(3))
    split = tmp_path / "split.json"
    split.write_text('{"a": [0], "b": [')
    assert main(["boundary", "--family", path, "--split-file", str(split)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse error in {split} at line 1 column ")


def test_text_format_flattens(capsys):
    code = main(["--format", "text", "search", "min2chains", "--n", "3", "--m", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "results.value: 2" in out


@pytest.mark.parametrize("argv", [
    ["--format", "json", "search", "xi-star", "--n", "4", "--m", "4"],
    ["construct", "sharp", "--n", "14", "--k", "0"],
])
def test_closed_stdout_ends_quietly(argv):
    # the reader goes away before the first byte, as `| true` does
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "latticework.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
