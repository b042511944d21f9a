"""A fixed-seed grammar of latticework argv, replayed in-process.

Every call must end in an exit code 0-4 (argparse's own 2 included) with
no traceback on stderr, and exit 1 only for a failed check.  Accepted work
stays small: ground sizes of at most 4 (6 for `construct`) and a few
samples, so a huge node budget only reaches searches at n <= 4.  Huge
values (10^20) stand for any size a caller might pass; each must be
refused before the work it asks for, so the test needs no alarm to end.
"""

import json
import random

from latticework.cli import SEARCHES, SUITE_NAMES, main
from latticework.verify import REPRODUCTIONS

HUGE = str(10**20)
# not a size any command accepts: outside a domain, or not an integer
BAD = ["0", "-1", "64", HUGE, "x", "1.5", ""]

FAMILIES = {
    "chain.json": '{"n": 3, "sets": [[], [1], [1, 2], [1, 2, 3]]}',
    "two.json": '{"n": 4, "sets": [[1], [2, 3], [1, 2, 3, 4]]}',
    "antichain.json": '{"n": 4, "sets": [[1, 2], [1, 3], [2, 3], [4]]}',
    "empty.json": '{"n": 2, "sets": []}',
    "pair.json": '{"n": 3, "sets": [[1], [2]]}',
    "wide.json": '{"n": 30, "sets": [[1], [1, 30]]}',
    "truncated.json": '{"n": 3, "sets": [[1',
    "not_a_family.json": "[1, 2, 3]",
    "huge_n.json": '{"n": ' + HUGE + ', "sets": []}',
    "huge_element.json": '{"n": 3, "sets": [[' + HUGE + "]]}",
    "bool_element.json": '{"n": 3, "sets": [[true]]}',
    "float_n.json": '{"n": 3.0, "sets": [[1]]}',
    "duplicate.json": '{"n": 3, "sets": [[1], [1]]}',
    "outside.json": '{"n": 2, "sets": [[3]]}',
    "sets_not_list.json": '{"n": 2, "sets": {"a": 1}}',
    # past json's recursion limit and past int's 4,300-digit string limit
    "deep.json": "[" * 100_000,
    "long_int.json": '{"n": ' + "9" * 5_000 + ', "sets": []}',
}
SPLITS = {
    "split_ok.json": '{"a": [0], "b": [1]}',
    "split_three.json": '{"a": [0, 1], "b": [2]}',
    "split_four.json": '{"a": [0, 2], "b": [1, 3]}',
    "split_repeat.json": '{"a": [0], "b": [0]}',
    "split_empty_side.json": '{"a": [0, 1], "b": []}',
    "split_bool.json": '{"a": [true], "b": [0]}',
    "split_huge.json": '{"a": [' + HUGE + '], "b": [0]}',
    "split_list.json": "[[0], [1]]",
    "split_truncated.json": '{"a": [0',
    "split_deep.json": "[" * 100_000,
    "split_long_int.json": '{"a": [' + "9" * 5_000 + '], "b": [0]}',
}
MISSING = "missing.json"


class _Draws(random.Random):
    """The grammar's random source, and per option pool the turn of the next
    huge option, so that every option is huge in turn whatever came before."""

    def __init__(self, seed):
        super().__init__(seed)
        self.turns = {}


def _options(rng, pools, always=(), bad=0.7):
    """Most options with a small value each; in most calls one is bad, in half
    of those huge, each option of the pool in turn."""
    names, roll = tuple(pools), rng.random()
    pick = value = None
    if roll < bad / 2:
        turn = rng.turns.get(names, 0)
        rng.turns[names] = turn + 1
        pick, value = names[turn % len(names)], HUGE
    elif roll < bad:
        pick, value = rng.choice(names), rng.choice(BAD)
    argv = []
    for name, small in pools.items():
        if name == pick:
            argv += [f"--{name}", value]
        elif name in always or rng.random() < 0.9:
            argv += [f"--{name}", rng.choice(small)]
    return argv


def _file(rng, tmp_path, names):
    return str(tmp_path / rng.choice([*names, MISSING]))


def _construct(rng, tmp_path):
    name = rng.choice(["sharp", "disconnected", "diamond", "full-cube", "layer-pair"])
    pools = {"n": ["1", "2", "4", "6", "21"], "k": ["0", "1", "3"]}
    argv = ["construct", name, *_options(rng, pools, bad=0.4)]
    if name == "diamond":
        argv += ["--bottom", rng.choice(["", "1", "2", "x", HUGE, "0"])]
        argv += ["--top", rng.choice(["1,2", "1,2", "1," + HUGE, "a,b", ",", "3"])]
    if rng.random() < 0.3:
        argv.append("--ceil-middle")
    if rng.random() < 0.2:
        argv += ["--out", str(tmp_path / rng.choice(["out.json", "no/such/dir/out.json"]))]
    return argv


def _analyze(rng, tmp_path):
    return ["analyze", "--family", _file(rng, tmp_path, FAMILIES)]


def _normalize(rng, tmp_path):
    argv = ["normalize", "--family", _file(rng, tmp_path, FAMILIES)]
    argv += _options(rng, {"t": ["1", "2", "3", "4"]})
    if rng.random() < 0.5:
        argv.append("--trace")
    return argv


def _boundary(rng, tmp_path):
    if rng.random() < 0.3:
        # a family with a split of its own components
        matched = [("pair.json", "split_ok.json"), ("antichain.json", "split_four.json")]
        family, split = rng.choice(matched)
        return ["boundary", "--family", str(tmp_path / family),
                "--split-file", str(tmp_path / split)]
    return ["boundary", "--family", _file(rng, tmp_path, FAMILIES),
            "--split-file", _file(rng, tmp_path, SPLITS)]


def _verify(rng, tmp_path):
    name = rng.choice(SUITE_NAMES)
    pools = {"n": ["1", "2", "3", "4"], "k": ["0", "1", "2"], "samples": ["0", "1", "3"],
             "nmax": ["2", "3", "4"], "kmax": ["1", "2"], "sharp-n": ["2", "3", "4"]}
    # technical's default nmax = 6 takes a second, so nmax is always given
    argv = ["verify", name, *_options(rng, pools, always=("nmax",))]
    if rng.random() < 0.2:
        argv += ["--family", _file(rng, tmp_path, FAMILIES)]
    return argv


def _search(rng, tmp_path):
    op = rng.choice(list(SEARCHES))
    pools = {"n": ["1", "2", "3", "4"], "t": ["1", "2", "3", "4"], "m": ["1", "2", "3", "5"],
             "kmin": ["0", "1", "2"], "kmax": ["1", "2", "4"]}
    return ["search", op, *_options(rng, pools)]


def _reproduce(rng, tmp_path):
    name = rng.choice(list(REPRODUCTIONS))
    return ["reproduce", *rng.choice([["--list"], [], ["no-such-name"], [name]])]


COMMANDS = (_construct, _analyze, _normalize, _boundary, _verify, _search, _reproduce)


def _argv(rng, tmp_path):
    argv = ["--format", rng.choice(["json", "text"])]
    if rng.random() < 0.3:
        argv += ["--budget-nodes", rng.choice(["0", "3", "1000", HUGE, "-1", "x"])]
    if rng.random() < 0.1:
        argv += ["--seed", rng.choice(["1", HUGE, "-5", "x"])]
    command = rng.choice(COMMANDS)
    return command.__name__, argv + command(rng, tmp_path)


def _failed_check(argv, out):
    """True iff stdout is a report whose results say passed: false."""
    if argv[1] == "json":
        return json.loads(out)["results"].get("passed") is False
    return "results.passed: False" in out.splitlines()


def test_argv_grammar_ends_in_documented_exits(capsys, tmp_path):
    for name, text in {**FAMILIES, **SPLITS}.items():
        (tmp_path / name).write_text(text)
    rng = _Draws(20261019)
    seen, huge = set(), set()
    for _ in range(300):
        command, argv = _argv(rng, tmp_path)
        seen.add(command)
        huge.update(option for option, value in zip(argv, argv[1:]) if value == HUGE)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert code in (0, 1, 2, 3, 4), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code == 1:
            assert err.startswith("verification failed:") or _failed_check(argv, out), (argv, err)
    assert seen == {command.__name__ for command in COMMANDS}
    assert {"--samples", "--nmax", "--n", "--k", "--t", "--m", "--sharp-n"} <= huge
