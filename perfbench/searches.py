"""search: a fixed list of exact searches, in an order the seed picks.

Why: the branch-and-bound inner loops dominate, and their node counts are
deterministic, so `search.<op>.nodes` must repeat exactly.  la_exact items
barely touch comparability_graph, while disconnected_splits(5) spends most
of its time in tens of thousands of calls to it on families of at most 30
members; per-item spans separate the two.

Every result is checked against the values pinned by the reproduction
registry and the acceptance criteria where they exist, against the value
and node count recorded in expected.json for every item, and its witness
is re-checked by the small independent checkers below, after the timer
stops.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import partial
from math import comb

from harness import CheckFailed, Item, NullTracer, Workload, expect
from latticework import colouring, search, shadow

LA = [(n, t) for n in (4, 5) for t in range(1, 9)]
LA_RESTRICTED = [
    (5, 4, 1, 3), (5, 8, 2, 3), (5, 3, 1, 4), (4, 4, 1, 2), (5, 6, 0, 3),
    (5, 2, 2, 3), (5, 2, 1, 3), (5, 3, 2, 3), (5, 4, 2, 3),
]
MAX_DISCONNECTED = [2, 3, 4, 5]
SPLITS = [4, 5]
MIN_TWO_CHAINS = [(2, 3), (2, 4), (3, 4), (3, 5), (4, 6), (4, 7), (4, 8)]
XI_STAR = [(5, m) for m in (4, 5, 6, 8, 10, 11, 12)]
MAD_STAR = [3, 4, 5, 6]
LAMBDA_STAR = [(n, t) for n in (3, 4) for t in (1, 2, 3)]

# Values fixed by the reproduction registry and tests/test_acceptance.py.
PINNED = {
    "la/4/1": 6, "la/5/1": 10, "la/4/2": 6, "la/5/2": 12, "la/4/4": 8,
    "max_disconnected/2": 2, "max_disconnected/3": 4,
    "max_disconnected/4": 10, "max_disconnected/5": 22,
    "splits/4": 78, "splits/5": 2175,
    "min_two_chains/3/4": 2, "min_two_chains/4/8": 6,
    "xi_star/5/6": Fraction(2), "mad_star/4": Fraction(2), "lambda_star/3/2": Fraction(2),
}

OPS = {
    "la": "la_exact",
    "la_restricted": "la_exact_restricted",
    "max_disconnected": "max_disconnected",
    "splits": "disconnected_splits",
    "min_two_chains": "min_two_chains",
    "xi_star": "xi_star_exact",
    "mad_star": "mad_star_probe",
    "lambda_star": "lambda_star_exact",
}


def _key(kind, args) -> str:
    return "/".join([kind, *map(str, args)])


def component_orders(masks) -> list[int]:
    """Comparability component orders by plain search, independent of core."""
    left = set(masks)
    orders = []
    while left:
        stack = [left.pop()]
        order = 1
        while stack:
            x = stack.pop()
            near = [y for y in left if (x & y) in (x, y)]
            left.difference_update(near)
            stack.extend(near)
            order += len(near)
        orders.append(order)
    return orders


def two_chains(masks) -> int:
    ms = list(masks)
    return sum(1 for i, x in enumerate(ms) for y in ms[i + 1:] if (x & y) in (x, y))


class Searches(Workload):
    pass_seconds = 3.2

    def __init__(self, seed: int, tiny: bool, tracer, expected: dict):
        self.expected = expected["search"]
        items = []
        for kind, table in (
            ("la", LA), ("la_restricted", LA_RESTRICTED), ("max_disconnected", MAX_DISCONNECTED),
            ("splits", SPLITS), ("min_two_chains", MIN_TWO_CHAINS), ("xi_star", XI_STAR),
            ("mad_star", MAD_STAR), ("lambda_star", LAMBDA_STAR),
        ):
            for args in table:
                args = args if isinstance(args, tuple) else (args,)
                if tiny and (kind, args) in (("splits", (5,)), ("la", (5, 8)), ("la", (5, 7))):
                    continue
                items.append(Item(kind, _key(kind, args), args))
        random.Random(seed).shuffle(items)
        self.items = items

    def warm_up_calls(self):
        """One cheap item per kind, plus each relabelling table and atlas entry."""
        return [partial(self.run, Item(kind, "warm-up", args), NullTracer()) for kind, args in (
            ("la", (4, 1)), ("la", (5, 1)), ("la_restricted", (4, 4, 1, 2)),
            ("la_restricted", (5, 4, 1, 3)), ("max_disconnected", (4,)), ("splits", (4,)),
            ("min_two_chains", (3, 4)), ("xi_star", (5, 4)), ("lambda_star", (3, 1)),
            *(("mad_star", (t,)) for t in MAD_STAR),
        )]

    def _search(self, tr, kind, fn, *args):
        op = OPS[kind]
        res = tr.call("search." + op, fn, *args)
        tr.add(f"search.{op}.nodes", res.nodes_explored)
        return res

    def _check_result(self, res, kind, args):
        key = _key(kind, args)
        want = self.expected[key]
        expect("proven_optimal", res.proven_optimal, True)
        if key in PINNED:
            expect("pinned value", res.value, PINNED[key])
        expect("value", str(res.value), want["value"])
        expect("nodes_explored", res.nodes_explored, want["nodes"])

    # order-bounded maxima ------------------------------------------------

    def run_la(self, tr, n, t):
        return self._search(tr, "la", search.la_exact, n, t)

    def check_la(self, res, n, t):
        self._check_band(res, "la", (n, t), t, 0, n)

    def run_la_restricted(self, tr, n, t, kmin, kmax):
        return self._search(tr, "la_restricted", search.la_exact_restricted, n, t, kmin, kmax)

    def check_la_restricted(self, res, n, t, kmin, kmax):
        self._check_band(res, "la_restricted", (n, t, kmin, kmax), t, kmin, kmax)

    def _check_band(self, res, kind, args, t, kmin, kmax):
        self._check_result(res, kind, args)
        masks = res.witness.members
        expect("witness size", len(masks), res.value)
        expect("witness order bound", max(component_orders(masks)) <= t, True)
        expect("witness band", all(kmin <= m.bit_count() <= kmax for m in masks), True)

    # disconnected families -----------------------------------------------

    def run_max_disconnected(self, tr, n):
        return self._search(tr, "max_disconnected", search.max_disconnected, n)

    def check_max_disconnected(self, res, n):
        self._check_result(res, "max_disconnected", (n,))
        masks = res.witness.members
        expect("witness size", len(masks), res.value)
        expect("witness disconnected", len(component_orders(masks)) >= 2, True)

    def run_splits(self, tr, n):
        splits = tr.call("search.disconnected_splits", search.disconnected_splits, n)
        tr.add("search.disconnected_splits.splits", len(splits))
        reports = []
        if n == 4:
            for a, b in splits:
                reports.append(tr.call("shadow.boundary_report", shadow.boundary_report, a, b))
        return splits, reports

    def check_splits(self, out, n):
        splits, reports = out
        expect("split count", len(splits), PINNED[_key("splits", (n,))])
        expect("split count", len(splits), self.expected[_key("splits", (n,))]["splits"])
        for a, b in splits:
            if not a.members or not b.members:
                raise CheckFailed("empty side in a split")
            if any((x & y) in (x, y) for x in a.members for y in b.members):
                raise CheckFailed("comparable pair across a split")
        floor = (1 << (n // 2 + 1)) - 2 if n % 2 == 0 else 3 * (1 << ((n - 1) // 2)) - 2
        for rep in reports:
            expect("bound_holds", rep["bound_holds"], True)
            expect("excluded floor", rep["excluded_count"] >= floor, True)
            expect("size bound", rep["family_size"] <= (1 << n) - rep["excluded_count"], True)

    # fewest 2-chains -------------------------------------------------------

    def run_min_two_chains(self, tr, n, m):
        return self._search(tr, "min_two_chains", search.min_two_chains, n, m)

    def check_min_two_chains(self, res, n, m):
        self._check_result(res, "min_two_chains", (n, m))
        expect("witness size", len(res.witness), m)
        expect("witness 2-chains", two_chains(res.witness.members), res.value)

    # densest layer pair ----------------------------------------------------

    def run_xi_star(self, tr, n, m):
        return self._search(tr, "xi_star", search.xi_star_exact, n, m)

    def check_xi_star(self, res, n, m):
        self._check_result(res, "xi_star", (n, m))
        a, b = res.witness.a.members, res.witness.b.members
        edges = sum(1 for x in a for y in b if x & y == x)
        expect("witness order", len(a) + len(b), m)
        expect("witness degree", Fraction(2 * edges, m), res.value)

    # rainbow-free colourings -----------------------------------------------

    def run_mad_star(self, tr, t):
        return self._search(tr, "mad_star", search.mad_star_probe, t)

    def check_mad_star(self, res, t):
        self._check_result(res, "mad_star", (t,))
        g = res.witness
        expect("witness degree", Fraction(2 * len(g.edges), t), res.value)
        seen = set()
        for u, v, c in g.edges:
            if (u, c) in seen or (v, c) in seen:
                raise CheckFailed("witness colouring is not proper")
            seen.update(((u, c), (v, c)))
        if g.edges and t >= 3:
            expect("rainbow cycle", colouring.find_rainbow_cycle(g, max(3, t)), None)

    # Lubell maximum --------------------------------------------------------

    def run_lambda_star(self, tr, n, t):
        return self._search(tr, "lambda_star", search.lambda_star_exact, n, t)

    def check_lambda_star(self, res, n, t):
        self._check_result(res, "lambda_star", (n, t))
        masks = res.witness.members
        expect("witness Lubell", sum(Fraction(1, comb(n, m.bit_count())) for m in masks), res.value)
        expect("witness order bound", max(component_orders(masks), default=0) <= t, True)

