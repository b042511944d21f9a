"""Write expected.json: the values the benchmark checks outputs against.

    python3 perfbench/record_expected.py

Records, from the code in this checkout, every value that has no closed
form or pinned registry value: the analyze results and digests of the
structured families, the value and node count of every search item, the
case counts of the deterministic verify suites, and what the cli
`construct`, `analyze` and `normalize` items must print.  Run it only when a change is meant to alter
one of these values, and say so in the change.
"""

from __future__ import annotations

import json
import sys
import warnings
from pathlib import Path

import harness

harness.import_latticework()

from clicalls import POOL, analyze_input, normalize_input  # noqa: E402
from families import ANALYZE_CAP, _analyze  # noqa: E402
from latticework import constructions, core, normalize, search, verify  # noqa: E402
from latticework.lubell import lubell_by_permutations  # noqa: E402
from searches import (  # noqa: E402
    LA, LA_RESTRICTED, LAMBDA_STAR, MAD_STAR, MAX_DISCONNECTED, MIN_TWO_CHAINS, SPLITS, XI_STAR,
)


def analysis(fam) -> dict:
    return {"digest": fam.digest(), **_analyze(harness.NullTracer(), fam)}


def main() -> int:
    families = {}
    for n in range(1, 17):
        for k in range(n + 1):
            for ceil in (0, 1):
                fam = constructions.sharp_family(n, k, bool(ceil))
                if len(fam) <= ANALYZE_CAP:
                    families[f"sharp/{n}/{k}/{ceil}"] = analysis(fam)
    for n in range(2, 17):
        fam = constructions.disconnected_extremal(n)
        if len(fam) <= ANALYZE_CAP:
            families[f"disconnected/{n}"] = analysis(fam)

    searches = {}
    for kind, fn, table in (
        ("la", search.la_exact, LA),
        ("la_restricted", search.la_exact_restricted, LA_RESTRICTED),
        ("max_disconnected", search.max_disconnected, MAX_DISCONNECTED),
        ("min_two_chains", search.min_two_chains, MIN_TWO_CHAINS),
        ("xi_star", search.xi_star_exact, XI_STAR),
        ("mad_star", search.mad_star_probe, MAD_STAR),
        ("lambda_star", search.lambda_star_exact, LAMBDA_STAR),
    ):
        for args in table:
            args = args if isinstance(args, tuple) else (args,)
            res = fn(*args)
            searches["/".join([kind, *map(str, args)])] = {
                "value": str(res.value), "nodes": res.nodes_explored,
            }
    for n in SPLITS:
        searches[f"splits/{n}"] = {"splits": len(search.disconnected_splits(n))}

    verifiers = {
        "technical": {"checked": verify.run_verifier("technical", nmax=4, kmax=2)["checked"]},
        "kk": {"checked": verify.run_verifier("kk", n=4, k=2)["checked"]},
    }
    construct = {
        f"sharp/{n}/{k}/{ceil}": constructions.sharp_family(n, k, bool(ceil)).digest()
        for n in range(5, 10) for k in range(4) for ceil in (0, 1)
    }

    cli = {}
    for i in range(POOL):
        fam = analyze_input(i, harness.NullTracer())
        cli[f"analyze/{i}"] = {
            "size": len(fam),
            "digest": fam.digest(),
            "height": core.height(fam),
            "two_chains": core.count_two_chains(fam),
            "lubell": str(lubell_by_permutations(fam)),
            "skips": normalize.skip_count(fam),
        }
        fam, t = normalize_input(i, harness.NullTracer())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out, steps = normalize.make_skipless_with_trace(fam, t)
        cli[f"normalize/{i}"] = {
            "digest": out.digest(), "size": len(out), "skips_after": normalize.skip_count(out),
            "steps": len(steps),
        }

    out = {"cli": cli, "families": families, "search": searches, "verify": verifiers, "construct": construct}
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
