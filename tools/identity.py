"""Digest a fixed corpus of latticework outputs, or diff it against another commit.

Usage, from the repository root:

    python tools/identity.py --write FILE
    python tools/identity.py --against REV

The manifest is `{corpus: {entry: sha256}}`, one digest of the JSON of each
named entry.  `--write FILE` writes this tree's manifest to FILE (`-` for
stdout).  `--against REV` unpacks REV's `src/` with `git archive` into a
temporary directory, runs the same corpus there in one child process, runs
it here in this process, and prints, for each corpus, its entry count and
the first entry that differs or is missing on one side.  It exits 1 when
any entry differs, 2 when the corpus cannot run at REV, else 0.

There is one corpus so far, `suites`: the report of every property suite
in `latticework.verify` over a fixed grid of params and seeds, with the
refusals of the grid's invalid points, plus planted-failure variants.  A
planted variant swaps one public name (a kernel or a bound the suite
imports when it runs) for a stand-in that fails, so the failure lists,
their order and the five-failure cap are in the corpus too, sampled kk and
colouring included.  Each entry is `"<suite> <params> | <plant>"`.

Standard library only; not part of the test suite.
"""

import argparse
import hashlib
import io
import json
import shutil
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def planted(module, name: str, make):
    """Swap `module.name` for `make(original)` for the duration of the block."""
    original = getattr(module, name)
    setattr(module, name, make(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def outcome(run, suite: str, params: dict) -> dict:
    """A suite's report, or the refusal it raises, as one JSON-able value."""
    try:
        return run(suite, **params)
    except Exception as exc:  # a refusal is an output of the grid too
        return {"error": type(exc).__name__, "message": str(exc)}


def suite_grid() -> list[tuple[str, dict]]:
    """(suite, params) for each plain entry of the `suites` corpus."""
    # each suite at its defaults first: the largest inputs of the corpus
    grid = [(suite, {}) for suite in ("blym", "diamond-blym", "kk", "technical", "colouring")]
    grid += [(suite, {}) for suite in ("fact-ab", "key-lemma")]
    for n in range(1, 7):
        for samples in (0, 30):
            for seed in range(3):
                grid.append(("blym", {"n": n, "samples": samples, "seed": seed}))
    for n in range(1, 6):
        for sharp_n in (2, 4, 6):
            for seed in range(3):
                params = {"n": n, "samples": 25, "seed": seed, "sharp_n": sharp_n}
                grid.append(("diamond-blym", params))
    for n in range(1, 7):
        for k in range(0, n + 2):
            grid.append(("kk", {"n": n, "k": k, "samples": 40, "seed": 0}))
    # the layers too wide to exhaust: (6, 2), (6, 3), (6, 4), (7, 2) and (7, 3)
    for n, k in ((6, 2), (6, 3), (6, 4), (7, 2), (7, 3)):
        for seed in range(1, 5):
            grid.append(("kk", {"n": n, "k": k, "samples": 60, "seed": seed}))
    grid.append(("kk", {"n": 6, "k": 3, "samples": 0, "seed": 0}))
    for nmax in range(1, 5):
        for kmax in range(0, 4):
            grid.append(("technical", {"nmax": nmax, "kmax": kmax}))
    for n in range(1, 6):
        for k in dict.fromkeys((None, 0, n // 2, n - 1, n)):
            for seed in range(3):
                grid.append(("colouring", {"n": n, "k": k, "samples": 15, "seed": seed}))
    for n in range(1, 6):
        grid.append(("fact-ab", {"n": n}))
        grid.append(("key-lemma", {"n": n}))
    return grid


def plants() -> list[tuple[str, object, str, object, list[tuple[str, dict]]]]:
    """(label, module, name, stand-in maker, (suite, params) list) per planted variant."""
    from latticework import blym, colouring, constructions, search, shadow
    from latticework.core import SetFamily

    sampled_kk = [("kk", {"n": n, "k": k, "samples": 30, "seed": s})
                  for n, k in ((6, 3), (7, 2)) for s in range(4)]
    exhaustive_kk = [("kk", {"n": n, "k": k}) for n, k in ((3, 1), (4, 2), (5, 2), (5, 3))]
    sampled_colouring = [("colouring", {"n": n, "k": k, "samples": 12, "seed": s})
                         for n, k in ((3, None), (4, 1), (5, 2)) for s in range(4)]
    blym_cases = [("blym", {"n": n, "samples": 12, "seed": s}) for n in (3, 5) for s in range(3)]
    diamond_cases = [("diamond-blym", {"n": n, "samples": 12, "seed": s, "sharp_n": 4})
                     for n in (3, 5) for s in range(3)]
    splits = [(suite, {"n": n}) for suite in ("fact-ab", "key-lemma") for n in (3, 4, 5)]

    def each_split(change):
        return lambda real: lambda n, budget=None: [change(a, b) for a, b in real(n)]

    def drop_first(a, b):  # non-maximal, so the key lemma can fail; a side stays non-empty
        return SetFamily.from_masks(a.n, a.members[1:] or a.members), b

    return [
        ("kk_shadow_bound+1", shadow, "kk_shadow_bound",
         lambda real: lambda m, k, r: real(m, k, r) + 1, exhaustive_kk + sampled_kk),
        ("technical_bound_check=False", shadow, "technical_bound_check",
         lambda real: lambda fam, mode: False,
         [("technical", {"nmax": nmax, "kmax": kmax}) for nmax, kmax in ((2, 1), (3, 2))]),
        ("is_proper=False", colouring, "is_proper",
         lambda real: lambda eg: False, sampled_colouring),
        ("find_rainbow_cycle=[0,1,2]", colouring, "find_rainbow_cycle",
         lambda real: lambda eg, max_len: [0, 1, 2], sampled_colouring),
        ("blym_sum=3/2", blym, "blym_sum", lambda real: lambda fam: Fraction(3, 2), blym_cases),
        ("blym_sum=1/2", blym, "blym_sum", lambda real: lambda fam: Fraction(1, 2), blym_cases),
        ("diamond_blym_sum=3/2", blym, "diamond_blym_sum",
         lambda real: lambda fam: Fraction(3, 2), diamond_cases),
        ("diamond_blym_sum=1", blym, "diamond_blym_sum",
         lambda real: lambda fam: Fraction(1), diamond_cases),
        ("disconnected_extremal_size+1", constructions, "disconnected_extremal_size",
         lambda real: lambda n: real(n) + 1, splits),
        ("disconnected_extremal_size-1", constructions, "disconnected_extremal_size",
         lambda real: lambda n: real(n) - 1, splits),
        ("splits with a side's first member dropped", search, "disconnected_splits",
         each_split(drop_first), splits),
        ("splits (a, a)", search, "disconnected_splits", each_split(lambda a, b: (a, a)), splits),
    ]


def entry_name(suite: str, params: dict, plant: str) -> str:
    shown = " ".join(f"{key}={value}" for key, value in params.items()) or "defaults"
    return f"{suite} {shown} | {plant}"


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def manifest() -> dict:
    """This tree's `{corpus: {entry: sha256}}`, computed in this process."""
    from latticework.verify import run_verifier

    runs = [(suite, params, "plain", None) for suite, params in suite_grid()]
    runs += [(suite, params, label, (module, name, make))
             for label, module, name, make, cases in plants() for suite, params in cases]
    suites = {}
    for suite, params, label, plant in runs:
        key = entry_name(suite, params, label)
        if key in suites:
            raise ValueError(f"corpus entry {key!r} named twice")
        with planted(*plant) if plant else nullcontext():
            suites[key] = digest(outcome(run_verifier, suite, params))
    return {"suites": suites}


def against(rev: str) -> int:
    """Run the corpus at REV in a child and here; print the first difference per corpus."""
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
        check=True,
        capture_output=True,
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        other = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(other, filter="data")
            else:
                tar.extractall(other)
        (other / "tools").mkdir()
        shutil.copy(Path(__file__), other / "tools" / "identity.py")
        child = subprocess.run(
            [sys.executable, str(other / "tools" / "identity.py"), "--write", "-"],
            capture_output=True,
            text=True,
        )
    if child.returncode != 0:
        print(f"the corpus failed to run at {rev}:\n{child.stderr}", file=sys.stderr)
        return 2
    theirs = json.loads(child.stdout)
    ours = manifest()
    differs = False
    for corpus in sorted(set(ours) | set(theirs)):
        mine, other_side = ours.get(corpus, {}), theirs.get(corpus, {})
        names = list(mine) + [name for name in other_side if name not in mine]
        first = next((name for name in names if mine.get(name) != other_side.get(name)), None)
        if first is None:
            print(f"{corpus}: {len(mine)} entries, no difference against {rev}")
            continue
        differs = True
        print(f"{corpus}: {len(mine)} entries here, {len(other_side)} at {rev}; first difference:")
        print(f"  {first}")
        print(f"    here: {mine.get(first, 'missing')}")
        print(f"    {rev}: {other_side.get(first, 'missing')}")
    return 1 if differs else 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE", help="write this tree's manifest ('-': stdout)")
    mode.add_argument("--against", metavar="REV", help="diff this tree's corpus against REV's")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))  # this tree's package, before any other
    if args.against:
        return against(args.against)
    text = json.dumps(manifest(), indent=1) + "\n"
    if args.write == "-":
        sys.stdout.write(text)
    else:
        Path(args.write).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
