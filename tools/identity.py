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
any entry differs, 2 when the corpus cannot run at REV, else 0.  REV runs
this tool's plants too, so `--against` exits 2 with an `AttributeError`
when a plant names an attribute that REV lacks.  Then compare manifests
instead: write REV's with REV's own tool in a `git archive REV` copy
(`--write`), write this tree's with this tool, and diff the two files.

There are six corpora.  `suites` holds the report of every property suite
in `latticework.verify` over a fixed grid of params and seeds, with the
refusals of the grid's invalid points, plus planted-failure variants.  A
planted variant swaps one module-level name (a kernel, a bound, or
`search._maximal_splits`, the cube-bitset splits the split suites import
when they run) for a stand-in that fails, so the failure lists, their
order and the five-failure cap are in the corpus too, sampled kk and
colouring included.  Sampled kk reaches README's sizes, (8, 4), (9, 4)
and (10, 5), plain and planted.  Each entry is
`"<suite> <params> | <plant>"`.  `splits` holds `disconnected_splits(n)`
for n = 1..5, in order, the `boundary_report` of each of those splits, and
the refusals of `boundary_report` on fixed bad splits.  `normalize` holds
`find_skips` and `make_skipless_with_trace` (the family and its trace) on
seeded order-bounded draws, on the chains {∅, [n]} and on flat random
families.  `search` holds each public search's result (value, witness,
`nodes_explored`, `proven_optimal`) at the `search` benchmark workload's
parameters, and over budget sweeps: every budget from -1 to the node count
for `max_disconnected(2..4)`, `min_two_chains(n, m)` at n <= 3,
`la_exact(n, t)` at n <= 3 (t = 1..8) and n = 4 (t = 1..7),
`lambda_star_exact(n, t)` at n <= 3 (t = 1..8), `xi_star_exact(n, m)` at
n <= 4 for every order m of an adjacent layer pair and `mad_star_probe(t)`
at t <= 7, and nine budgets for `max_disconnected(5)`,
`min_two_chains(4, 6..8)`, `disconnected_splits(5)`, `la_exact(4, 8)`,
`la_exact(5, 1..8)` and the `la_exact_restricted` items, whose refusals are
entries too.  `graph` holds `component_members`, `component_sizes`,
`count_two_chains` and `is_antichain` of `sharp_family(n, k, ceil)` for
n = 1..16, every k and both middles, `disconnected_extremal(n)` for
n = 2..16, `full_cube(n)` for n = 1..12 and one `random_family` of
`rng.randint(1, min(2^n, 600))` members per n = 3..24 and seed 0..2
(`rng = Random(seed)`): the cube's closure route with and without label
planes, the pairwise route, and ground sets past the closure cap.
`certify` holds one `certify` report per family: `sharp_claim` on each
sharp family of the `graph` corpus, `disconnected_claim` on
`disconnected_extremal(n)` for n = 2..16 and `diamond_claim` on the
`diamond_family` of each of the 81 intervals [bottom, top] of [4].  A
record in an entry is digested as the list of its fields, so an entry
hashes alike whether a version returns records or plain tuples.

Standard library only.  The full run is not part of the test suite;
`tests/test_identity.py` checks the corpus definitions.
"""

import argparse
import hashlib
import io
import json
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from contextlib import contextmanager, nullcontext
from fractions import Fraction
from math import comb
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


def outcome(run, *args, **params):
    """A run's result, or the refusal it raises, as one JSON-able value."""
    try:
        return run(*args, **params)
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
    # README's sizes: the largest sampled layers of the corpus
    for n, k in ((8, 4), (9, 4), (10, 5)):
        for seed in range(3):
            grid.append(("kk", {"n": n, "k": k, "samples": 40, "seed": seed}))
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

    sampled_kk = [("kk", {"n": n, "k": k, "samples": 30, "seed": s})
                  for n, k in ((6, 3), (7, 2)) for s in range(4)]
    sampled_kk += [("kk", {"n": 10, "k": 5, "samples": 40, "seed": s}) for s in range(4)]
    exhaustive_kk = [("kk", {"n": n, "k": k}) for n, k in ((3, 1), (4, 2), (5, 2), (5, 3))]
    sampled_colouring = [("colouring", {"n": n, "k": k, "samples": 12, "seed": s})
                         for n, k in ((3, None), (4, 1), (5, 2)) for s in range(4)]
    blym_cases = [("blym", {"n": n, "samples": 12, "seed": s}) for n in (3, 5) for s in range(3)]
    diamond_cases = [("diamond-blym", {"n": n, "samples": 12, "seed": s, "sharp_n": 4})
                     for n in (3, 5) for s in range(3)]
    splits = [(suite, {"n": n}) for suite in ("fact-ab", "key-lemma") for n in (3, 4, 5)]

    def each_split(change):  # the splits as cube bitsets, changed
        return lambda real: lambda n, budget: [change(n, a, b) for a, b in real(n, budget)]

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
        # the first drops its least member, non-maximal, so the key lemma can
        # fail while the side stays non-empty; the last leaves the cube of [n]
        ("splits with a side's first member dropped", search, "_maximal_splits",
         each_split(lambda n, a, b: (a & (a - 1) or a, b)), splits),
        ("splits (a, a)", search, "_maximal_splits", each_split(lambda n, a, b: (a, a)), splits),
        ("splits with an empty second side", search, "_maximal_splits",
         each_split(lambda n, a, b: (a, 0)), splits),
        ("splits with the second side a cube up", search, "_maximal_splits",
         each_split(lambda n, a, b: (a, b << (1 << n))), splits),
    ]


def split_entries() -> dict:
    """The `splits` corpus: each entry's JSON-able value, by name."""
    from latticework.core import SetFamily
    from latticework.search import disconnected_splits
    from latticework.shadow import boundary_report

    entries = {}
    for n in range(1, 6):
        splits = disconnected_splits(n)
        entries[f"disconnected_splits n={n}"] = [[a.to_jsonable(), b.to_jsonable()]
                                                 for a, b in splits]
        for i, (a, b) in enumerate(splits):
            entries[f"boundary_report n={n} split {i}"] = boundary_report(a, b)
    bad = {
        "empty side": ((3, (1,)), (3, ())),
        "different cubes": ((3, (1,)), (4, (2,))),
        "shared member": ((3, (1, 2)), (3, (2, 4))),
        "cross pair": ((3, (1,)), (3, (3,))),
        "n=21": ((21, (1,)), (21, (2,))),
    }
    for label, sides in bad.items():
        a, b = (SetFamily.from_masks(n, masks) for n, masks in sides)
        entries[f"boundary_report refuses {label}"] = outcome(boundary_report, a, b)
    return entries


def normalize_entries() -> dict:
    """The `normalize` corpus: each entry's JSON-able value, by name."""
    from latticework.core import SetFamily, comparability_graph
    from latticework.normalize import find_skips, make_skipless_with_trace
    from latticework.sampling import random_family, random_order_bounded_family

    def normalized(fam, t):
        out, trace = make_skipless_with_trace(fam, t)
        return {"skips": find_skips(fam), "family": out.to_jsonable(), "trace": trace}

    cases = {}
    for n in range(3, 11):
        for seed in range(50):
            cases[f"random_order_bounded_family n={n} seed={seed}"] = (
                random_order_bounded_family(random.Random(seed), n))
    for n in range(2, 15):
        cases[f"{{∅, [{n}]}} t=2"] = SetFamily.from_masks(n, (0, (1 << n) - 1)), 2
    for n in range(10, 15):
        fam = random_family(random.Random(1), n, 1 << (n - 2))
        cases[f"random_family n={n} seed=1 size={len(fam)}"] = (
            fam, comparability_graph(fam).max_component_order())
    return {name: outcome(normalized, fam, t) for name, (fam, t) in cases.items()}


# the `search` workload's items, written out here so the corpus keeps them
# when that workload changes
SEARCH_ITEMS = [
    *(("la_exact", (n, t)) for n in (4, 5) for t in range(1, 9)),
    *(("la_exact_restricted", args) for args in (
        (5, 4, 1, 3), (5, 8, 2, 3), (5, 3, 1, 4), (4, 4, 1, 2), (5, 6, 0, 3),
        (5, 2, 2, 3), (5, 2, 1, 3), (5, 3, 2, 3), (5, 4, 2, 3))),
    *(("max_disconnected", (n,)) for n in (2, 3, 4, 5)),
    *(("disconnected_splits", (n,)) for n in (4, 5)),
    *(("min_two_chains", args)
      for args in ((2, 3), (2, 4), (3, 4), (3, 5), (4, 6), (4, 7), (4, 8))),
    *(("xi_star_exact", (5, m)) for m in (4, 5, 6, 8, 10, 11, 12)),
    *(("mad_star_probe", (t,)) for t in (3, 4, 5, 6)),
    *(("lambda_star_exact", (n, t)) for n in (3, 4) for t in (1, 2, 3)),
]


def search_runs() -> list[tuple[str, str, tuple, int | None]]:
    """(entry name, search, args, budget) for each entry of the `search` corpus.

    The budget sweeps end at each search's own node count, so building this
    list runs those searches once, unbounded.
    """
    from latticework import search

    def total(name, args):
        return getattr(search, name)(*args, None).nodes_explored

    runs = [(name, args, None) for name, args in SEARCH_ITEMS]  # at the default budget
    swept = [("max_disconnected", (n,)) for n in (2, 3, 4)]
    swept += [("min_two_chains", (n, m)) for n in (1, 2, 3) for m in range(0, (1 << n) + 1)]
    swept += [("la_exact", (n, t)) for n in (1, 2, 3) for t in range(1, 9)]
    swept += [("la_exact", (4, t)) for t in range(1, 8)]
    swept += [("lambda_star_exact", (n, t)) for n in (1, 2, 3) for t in range(1, 9)]
    # the orders m of an adjacent layer pair of [n], the ones xi_star_exact accepts
    swept += [("xi_star_exact", (n, m)) for n in (1, 2, 3, 4)
              for m in range(1, max(comb(n, k) + comb(n, k + 1) for k in range(n)) + 1)]
    swept += [("mad_star_probe", (t,)) for t in range(1, 8)]
    for name, args in swept:
        runs += [(name, args, budget) for budget in range(-1, total(name, args) + 1)]
    # disconnected_splits(5) walks the enumeration that max_disconnected(5) counts
    sampled = [("max_disconnected", (5,), total("max_disconnected", (5,)))]
    sampled += [("min_two_chains", (4, m), total("min_two_chains", (4, m))) for m in (6, 7, 8)]
    sampled.append(("disconnected_splits", (5,), sampled[0][2]))
    sampled += [("la_exact", args, total("la_exact", args))
                for args in ((4, 8), *((5, t) for t in range(1, 9)))]
    sampled += [(name, args, total(name, args))
                for name, args in SEARCH_ITEMS if name == "la_exact_restricted"]
    for name, args, nodes in sampled:
        runs += [(name, args, budget)
                 for budget in (-1, 0, 1, 10, 100, 1_000, 10_000, nodes - 1, nodes)]
    return [(f"{name}{args}" + ("" if budget is None else f" budget={budget}"), name, args, budget)
            for name, args, budget in runs]


def search_entries() -> dict:
    """The `search` corpus: each entry's JSON-able value, by name."""
    from latticework import search

    def run(name, args, budget):
        found = getattr(search, name)
        result = found(*args) if budget is None else found(*args, budget)
        if name == "disconnected_splits":
            return [[a.to_jsonable(), b.to_jsonable()] for a, b in result]
        return result.to_jsonable()

    return {key: outcome(run, name, args, budget) for key, name, args, budget in search_runs()}


def graph_runs() -> list[tuple[str, str, tuple]]:
    """(entry name, builder, args) for each family of the `graph` corpus."""
    runs = [(f"sharp_family{args}", "sharp_family", args)
            for n in range(1, 17) for k in range(n + 1) for args in ((n, k, False), (n, k, True))]
    runs += [(f"disconnected_extremal({n})", "disconnected_extremal", (n,)) for n in range(2, 17)]
    runs += [(f"full_cube({n})", "full_cube", (n,)) for n in range(1, 13)]
    runs += [(f"random_family n={n} seed={seed}", "random_family", (n, seed))
             for n in range(3, 25) for seed in range(3)]
    return runs


def graph_entries() -> dict:
    """The `graph` corpus: each entry's JSON-able value, by name."""
    from latticework import constructions, core, sampling

    def drawn(n, seed):
        rng = random.Random(seed)
        return sampling.random_family(rng, n, rng.randint(1, min(1 << n, 600)))

    builders = {"sharp_family": constructions.sharp_family, "full_cube": core.full_cube,
                "disconnected_extremal": constructions.disconnected_extremal,
                "random_family": drawn}

    def facts(name, args):
        family = builders[name](*args)
        graph = core.comparability_graph(family)
        return {"component_members": graph.component_members,
                "component_sizes": graph.component_sizes,
                "count_two_chains": core.count_two_chains(family),
                "is_antichain": core.is_antichain(family)}

    return {key: outcome(facts, name, args) for key, name, args in graph_runs()}


def certify_runs() -> list[tuple[str, str, tuple]]:
    """(entry name, builder, args) for each report of the `certify` corpus."""
    runs = [run for run in graph_runs() if run[1] in ("sharp_family", "disconnected_extremal")]
    # the 81 intervals of [4]: each element below, inside or outside [bottom, top]
    runs += [(f"diamond_family({bottom}, {top})", "diamond_family", (bottom, top))
             for top in range(16) for bottom in range(16) if not bottom & ~top]
    return runs


def certify_entries() -> dict:
    """The `certify` corpus: each entry's JSON-able value, by name."""
    from latticework import constructions as c

    cases = {"sharp_family": (c.sharp_family, c.sharp_claim),
             "disconnected_extremal": (c.disconnected_extremal, c.disconnected_claim),
             "diamond_family": (lambda bottom, top: c.diamond_family(c.Diamond(bottom, top), 4),
                                lambda bottom, top: c.diamond_claim(c.Diamond(bottom, top)))}

    def report(name, args):
        build, claim = cases[name]
        return c.certify(build(*args), claim(*args))

    return {key: outcome(report, name, args) for key, name, args in certify_runs()}


def entry_name(suite: str, params: dict, plant: str) -> str:
    shown = " ".join(f"{key}={value}" for key, value in params.items()) or "defaults"
    return f"{suite} {shown} | {plant}"


def suite_runs() -> list[tuple[str, str, dict, tuple | None]]:
    """(entry name, suite, params, plant or None) for each entry of the `suites` corpus."""
    runs = [(suite, params, "plain", None) for suite, params in suite_grid()]
    runs += [(suite, params, label, (module, name, make))
             for label, module, name, make, cases in plants() for suite, params in cases]
    return [(entry_name(suite, params, label), suite, params, plant)
            for suite, params, label, plant in runs]


def fields(record) -> list:
    """A record's field values, in order: how `digest` encodes a `_Record`."""
    return [getattr(record, name) for name in record._fields]


def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, default=fields).encode()).hexdigest()


def manifest() -> dict:
    """This tree's `{corpus: {entry: sha256}}`, computed in this process."""
    from latticework.verify import run_verifier

    suites = {}
    for key, suite, params, plant in suite_runs():
        if key in suites:
            raise ValueError(f"corpus entry {key!r} named twice")
        with planted(*plant) if plant else nullcontext():
            suites[key] = digest(outcome(run_verifier, suite, **params))
    splits = {key: digest(value) for key, value in split_entries().items()}
    normalize = {key: digest(value) for key, value in normalize_entries().items()}
    searches = {key: digest(value) for key, value in search_entries().items()}
    graph = {key: digest(value) for key, value in graph_entries().items()}
    certify = {key: digest(value) for key, value in certify_entries().items()}
    return {"suites": suites, "splits": splits, "normalize": normalize, "search": searches,
            "graph": graph, "certify": certify}


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
