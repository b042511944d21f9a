"""families: certified analyses of seeded structured families.

Why: this is where core's pairwise comparability kernel does most of its
work, on few calls over large families, and where both certify routes and
the 2^n closures run.  search and sampling do no work here.

Items, one per family:
  * sharp_family(n, k) for 1 <= n <= 16, 0 <= k <= n; the seed picks
    ceil_middle for each (n, k);
  * disconnected_extremal(n) for 2 <= n <= 16;
  * a few small seeded unions of height-j diamonds at n 10..14, made from
    a random subset of the components of a sharp family.  They stay well
    below the median item, so the seed does not move the median's rank.

Each item builds its family and certifies it against its claim.  Families
with at most ANALYZE_CAP members also get the analyze path
(comparability_graph, height, count_two_chains, lubell, skip_count) and,
when all components are diamonds, diamond_blym_sum.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb

from harness import Item, Workload, expect
from latticework import blym, constructions, core, normalize
from latticework.lubell import lubell

ANALYZE_CAP = 2048
UNIONS = 5


def _union(n: int, j: int, bottoms: tuple[int, ...]) -> core.SetFamily:
    tail = ((1 << j) - 1) << (n - j)
    masks: list[int] = []
    for bottom in bottoms:
        d = constructions.Diamond(bottom, bottom | tail)
        masks.extend(constructions.diamond_family(d, n).members)
    return core.SetFamily.from_masks(n, masks)


def _analyze(tr, fam: core.SetFamily) -> dict:
    graph = tr.call("core.comparability_graph", core.comparability_graph, fam)
    tr.add("core.comparability_graph.members", len(fam))
    return {
        "components": graph.n_components,
        "max_order": graph.max_component_order(),
        "height": tr.call("core.height", core.height, fam),
        "two_chains": tr.call("core.count_two_chains", core.count_two_chains, fam),
        "lubell": str(tr.call("lubell.lubell", lubell, fam)),
        "skips": tr.call("normalize.skip_count", normalize.skip_count, fam),
    }


def _certify(tr, fam: core.SetFamily, claim: dict) -> bool:
    report = tr.call("constructions.certify", constructions.certify, fam, claim)
    tr.add("constructions.certify.members", len(fam))
    return report.ok


def _diamond_blym(tr, fam: core.SetFamily) -> Fraction:
    total = tr.call("blym.diamond_blym_sum", blym.diamond_blym_sum, fam)
    tr.add("blym.diamond_blym_sum.members", len(fam))
    return total


class Families(Workload):
    pass_seconds = 14.0

    def __init__(self, seed: int, tiny: bool, tracer, expected: dict):
        self.expected = expected["families"]
        rng = random.Random(seed)
        nmax = 8 if tiny else 16
        self.nmax = nmax
        items = []
        for n in range(1, nmax + 1):
            for k in range(n + 1):
                ceil = rng.random() < 0.5
                items.append(Item("sharp", f"sharp n={n} k={k} ceil={int(ceil)}", (n, k, ceil)))
        for n in range(2, nmax + 1):
            items.append(Item("disconnected", f"disconnected n={n}", (n,)))
        for _ in range(UNIONS):
            n = rng.randint(6, 8) if tiny else rng.randint(10, 14)
            j = rng.randint(1, 2)
            base = n - j
            layer = core.layer_masks(base, base // 2)
            count = rng.randint(1, min(15, len(layer)))
            bottoms = tuple(sorted(rng.sample(layer, count)))
            items.append(Item("union", f"union n={n} j={j} m={count}", (n, j, bottoms)))
        self.items = items

    def warm_up_calls(self):
        # the closure column tables are built per ground size on first use
        def closures():
            for n in range(1, self.nmax + 1):
                normalize.skip_count(core.SetFamily(n, (0,)))

        return super().warm_up_calls() + [closures]

    # sharp constructions -------------------------------------------------

    def run_sharp(self, tr, n, k, ceil):
        fam = tr.call("constructions.build", constructions.sharp_family, n, k, ceil)
        out = {"family": fam, "certified": _certify(tr, fam, constructions.sharp_claim(n, k, ceil))}
        if len(fam) <= ANALYZE_CAP:
            out["analysis"] = _analyze(tr, fam)
            out["diamond_blym"] = _diamond_blym(tr, fam)
        return out

    def check_sharp(self, out, n, k, ceil):
        base = n - k
        expect("size", len(out["family"]), (1 << k) * comb(base, (base + ceil) // 2))
        expect("certified", out["certified"], True)
        if "analysis" in out:
            got = {"digest": out["family"].digest(), **out["analysis"]}
            expect("analysis", got, self.expected[f"sharp/{n}/{k}/{int(ceil)}"])
            expect("diamond_blym_sum", out["diamond_blym"], 1)

    # extremal disconnected families --------------------------------------

    def run_disconnected(self, tr, n):
        fam = tr.call("constructions.build", constructions.disconnected_extremal, n)
        out = {"family": fam, "certified": _certify(tr, fam, constructions.disconnected_claim(n))}
        if len(fam) <= ANALYZE_CAP:
            out["analysis"] = _analyze(tr, fam)
        return out

    def check_disconnected(self, out, n):
        half = n // 2 + 1 if n % 2 == 0 else (n - 1) // 2
        floor = (1 << half) if n % 2 == 0 else 3 * (1 << half)
        expect("size", len(out["family"]), (1 << n) - floor + 2)
        expect("certified", out["certified"], True)
        if "analysis" in out:
            got = {"digest": out["family"].digest(), **out["analysis"]}
            expect("analysis", got, self.expected[f"disconnected/{n}"])

    # seeded diamond unions -----------------------------------------------

    def run_union(self, tr, n, j, bottoms):
        fam = tr.call("constructions.build", _union, n, j, bottoms)
        m = len(bottoms)
        claim = {
            "size": m << j,
            "component_count": m,
            "component_order": 1 << j,
            "diamond_components": {"height": j},
        }
        return {
            "certified": _certify(tr, fam, claim),
            "analysis": _analyze(tr, fam),
            "diamond_blym": _diamond_blym(tr, fam),
        }

    def check_union(self, out, n, j, bottoms):
        # closed forms for m pairwise incomparable height-j diamonds whose
        # bottoms lie on layer i of [n-j]
        m, i = len(bottoms), bottoms[0].bit_count()
        lubell_value = m * sum(Fraction(comb(j, r), comb(n, i + r)) for r in range(j + 1))
        expect("certified", out["certified"], True)
        expect("analysis", out["analysis"], {
            "components": m,
            "max_order": 1 << j,
            "height": j,
            "two_chains": m * (3 ** j - 2 ** j),
            "lubell": str(lubell_value),
            "skips": 0,
        })
        expect("diamond_blym_sum", out["diamond_blym"], Fraction(m, comb(n - j, i)))
