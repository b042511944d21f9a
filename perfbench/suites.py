"""suites: thousands of seeded tiny property cases at n 3..8.

Why: per-case overhead dominates.  core is used here through many calls on
tiny families, the opposite of `families`, so a kernel tuned for large
families that adds per-call set-up shows up here as a regression.

The cases are drawn during set-up through latticework.sampling from one
random.Random(seed), so their draw sequence is part of set-up.  Kinds:
  * lubell: closed form against the n! permutation oracle;
  * skipless: make_skipless_with_trace, then skip_count and the order bound
    re-checked by comparability_graph;
  * colouring: layer_colouring, is_proper and find_rainbow_cycle;
  * diamond: diamond_blym_sum on a random all-diamond family, checked
    against the share of maximal chains that meet the family;
  * shadow: iterated lower_shadow against kk_shadow_bound;
  * verify: a few small run_verifier calls.
"""

from __future__ import annotations

import random
import warnings
from fractions import Fraction
from math import factorial

from harness import Item, Workload, expect
from latticework import blym, colouring, core, normalize, sampling, shadow, verify
from latticework.lubell import lubell, lubell_by_permutations, meet_profile

VERIFIERS = [
    ("technical", {"nmax": 4, "kmax": 2}),
    ("kk", {"n": 4, "k": 2}),
    ("blym", {"n": 5, "samples": 20}),
    ("colouring", {"n": 4, "samples": 10}),
]


def _draw(tr, name, *args):
    return tr.call("sampling." + name, getattr(sampling, name), *args)


class Suites(Workload):
    pass_seconds = 1.25

    def __init__(self, seed: int, tiny: bool, tracer, expected: dict):
        self.expected = expected["verify"]
        self.chain_share: dict = {}
        rng = random.Random(seed)
        per = 12 if tiny else 240  # cases per ground size, so every seed does alike work
        items = []
        for n in range(3, 8):
            for i in range(per):
                fam = _draw(tracer, "random_family", rng, n, rng.randint(0, 1 << (n - 1)))
                items.append(Item("lubell", f"lubell n={n} case {i}", (fam,)))
        for n in range(3, 7):
            for i in range(per * 5 // 4):
                fam, t = _draw(tracer, "random_order_bounded_family", rng, n)
                items.append(Item("skipless", f"skipless n={n} case {i}", (fam, t)))
        for n in range(3, 6):
            for i in range(per):
                a, b = _draw(tracer, "random_layer_pair", rng, n, i % n)
                items.append(Item("colouring", f"colouring n={n} case {i}", (a, b)))
        for n in range(4, 9):
            for i in range(per * 3 // 4):
                fam = _draw(tracer, "random_all_diamond_family", rng, n, rng.randint(1, 4))
                if fam.members:
                    items.append(Item("diamond", f"diamond n={n} case {i}", (fam,)))
        for n in range(4, 9):
            for i in range(per * 3 // 4):
                _, upper = _draw(tracer, "random_layer_pair", rng, n, i % n)
                if upper.members:
                    items.append(Item("shadow", f"shadow n={n} case {i}", (upper,)))
        for name, params in VERIFIERS:
            if "samples" in params:
                params = {**params, "seed": seed}
            items.append(Item("verify", f"verify {name}", (name, params)))
        rng.shuffle(items)
        self.items = items

    def warm_up_calls(self):
        # the permutation chains behind the Lubell oracle are cached per n
        def chains():
            for n in range(3, 9):
                lubell_by_permutations(core.SetFamily(n, (0,)))

        return super().warm_up_calls() + [chains]

    def run_lubell(self, tr, fam):
        closed = tr.call("lubell.lubell", lubell, fam)
        oracle = tr.call("lubell.lubell_by_permutations", lubell_by_permutations, fam)
        return closed, oracle

    def check_lubell(self, out, fam):
        expect("closed form against oracle", out[0], out[1])

    def run_skipless(self, tr, fam, t):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result, steps = tr.call(
                "normalize.make_skipless_with_trace", normalize.make_skipless_with_trace, fam, t
            )
        tr.add("normalize.make_skipless_with_trace.steps", len(steps))
        tr.add("normalize.make_skipless_with_trace.shape_warnings", len(caught))
        skips = tr.call("normalize.skip_count", normalize.skip_count, result)
        order = 0
        if result.members:
            graph = tr.call("core.comparability_graph", core.comparability_graph, result)
            tr.add("core.comparability_graph.members", len(result))
            order = graph.max_component_order()
        return result, skips, order

    def check_skipless(self, out, fam, t):
        result, skips, order = out
        expect("size kept", len(result), len(fam))
        expect("skips left", skips, 0)
        expect("order bound", order <= t, True)

    def run_colouring(self, tr, a, b):
        g = colouring.LayerPairGraph(a, b)
        coloured = tr.call("colouring.layer_colouring", colouring.layer_colouring, g)
        proper = tr.call("colouring.is_proper", colouring.is_proper, coloured)
        cycle = tr.call(
            "colouring.find_rainbow_cycle", colouring.find_rainbow_cycle, coloured, max(3, g.order())
        )
        return proper, cycle

    def check_colouring(self, out, a, b):
        expect("proper", out[0], True)
        expect("rainbow cycle", out[1], None)

    def run_diamond(self, tr, fam):
        total = tr.call("blym.diamond_blym_sum", blym.diamond_blym_sum, fam)
        tr.add("blym.diamond_blym_sum.members", len(fam))
        return total

    def check_diamond(self, total, fam):
        # a maximal chain meets at most one component, and meets the diamond
        # with bottom layer i and height j with probability 1 / C(n-j, i), so
        # the sum is the share of chains meeting the family; the n! walk is
        # made once per family and run
        if fam not in self.chain_share:
            self.chain_share[fam] = Fraction(meet_profile(fam).meeting_count, factorial(fam.n))
        expect("sum against chain share", total, self.chain_share[fam])
        expect("at most one", total <= 1, True)

    def run_shadow(self, tr, fam):
        k = fam.members[0].bit_count()
        size = len(fam)
        out = []
        current = fam
        for r in range(1, k + 1):
            current = tr.call("shadow.lower_shadow", shadow.lower_shadow, current)
            out.append((len(current), tr.call("shadow.kk_shadow_bound", shadow.kk_shadow_bound, size, k, r)))
        return out

    def check_shadow(self, out, fam):
        for r, (got, bound) in enumerate(out, start=1):
            expect(f"shadow {r} against cascade bound", got >= bound, True)

    def run_verify(self, tr, name, params):
        res = tr.call("verify.run_verifier." + name, verify.run_verifier, name, **params)
        tr.add(f"verify.run_verifier.{name}.checked", res["checked"])
        return res

    def check_verify(self, res, name, params):
        expect("passed", res["passed"], True)
        if "seed" not in params:
            expect("checked", res["checked"], self.expected[name]["checked"])
