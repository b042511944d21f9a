"""Named property suites and pinned desk-scale reproductions.

Each suite replays one of the structural facts the package is built around,
over exhaustive or seeded-random inputs, and returns a plain dict of one
shape: "suite", "params", the suite's own counts, "passed" and "failures"
(at most MAX_REPORTED_FAILURES, each enough to locate a counterexample).
A suite is a lazy stream of cases, each an iterable of failure dicts, plus
what a failing case reports.  One loop, `_collect`, counts the cases and
caps the failures; a case's draws come right before its checks.
The BLYM suites share one sum check, and given one family they report its
"sum" and "tight" without "params".  The reproduction registry is one table
of rows, each a name, a summary, an expected value and the op and args that
compute it (a search's value, or a sharp construction's member count), so a
CLI run can diff actual against expected.  `tests/known_values.json` holds
every row's expected value with how it was proven.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations, starmap
from typing import Callable, Iterable

from .core import (
    NODE_BUDGET,
    DomainError,
    PreconditionError,
    ResourceLimitError,
    SetFamily,
    binomial,
    bits_to_family,
    downset_bits,
    family_bits,
    iter_bits,
    layer_masks,
    shadow_bits,
    upset_bits,
    _full,
    _Record,
)

MAX_REPORTED_FAILURES = 5
# verify_kk checks every subfamily of a layer of at most this many sets and
# samples wider layers.
KK_EXHAUSTIVE_CAP = 12
# verify_technical refuses inputs that ask for more families than this; its
# default nmax=6, kmax=3 asks for 162,482 (0.63-0.66 s, Python 3.11.7, 2 vCPUs).
TECHNICAL_FAMILY_CAP = 1_000_000
# the sampled suites (blym, diamond-blym, colouring, kk) refuse more samples
# than this, 50 times the largest default (kk's 2,000).  At the default n
# (kk at n = 6, k = 3, its smallest sampled layer) 100,000 samples take
# 2-13 s to draw and check (Python 3.11.7, one core).
SAMPLE_CAP = 100_000


def _collect(cases: Iterable[Iterable[dict]]) -> tuple[int, list[dict]]:
    """Run each case to its end, in order: the count, and the first failures."""
    checked, failures = 0, []
    for case in cases:
        checked += 1
        for failure in case:
            if len(failures) < MAX_REPORTED_FAILURES:
                failures.append(failure)
    return checked, failures


def _cap_samples(samples: int) -> None:
    if samples > SAMPLE_CAP:
        raise ResourceLimitError(f"sampled suites capped at {SAMPLE_CAP} samples, got {samples}")


def _report(suite: str, params: dict, failures: list, passed: bool = True, **facts) -> dict:
    """A suite's result, with its own facts in keyword order."""
    return {
        "suite": suite,
        "params": params,
        **facts,
        "passed": passed and not failures,
        "failures": failures,
    }


def _sums(suite: str, params: dict, total: Callable[[SetFamily], Fraction], cases) -> dict:
    """Check a chain-meet sum over (family, label) cases, in order, as a suite result.

    A labelled case is an extremal family whose sum must be exactly 1; a
    drawn case (label None) must sum to at most 1.  The result counts the
    cases checked and the tight ones (sum 1).
    """
    tight: list[bool] = []

    def failures_of(fam: SetFamily, label: str | None):
        s = total(fam)
        tight.append(s == 1)
        if label is not None and s != 1:
            yield {"case": label, "sum": str(s)}
        elif label is None and s > 1:
            yield {"family": fam.to_jsonable(), "sum": str(s)}

    checked, failures = _collect(failures_of(fam, label) for fam, label in cases)
    return _report(suite, params, failures, checked=checked, tight_count=sum(tight))


def _family_sum(suite: str, total: Callable[[SetFamily], Fraction], family: SetFamily) -> dict:
    """One family's sum, or the precondition it fails, as a suite result."""
    try:
        s = total(family)
    except PreconditionError as exc:
        return {"suite": suite, "passed": False, "failures": [{"reason": str(exc)}]}
    return {"suite": suite, "sum": str(s), "tight": s == 1, "passed": s <= 1, "failures": []}


def _split_failure(n: int, a: int, b: int, **facts) -> tuple[dict]:
    """A case with one failure, naming its split (cube bitsets) before the facts."""
    return ({"a": bits_to_family(n, a).to_jsonable(), "b": bits_to_family(n, b).to_jsonable(),
             **facts},)


def verify_blym(
    n: int = 7,
    samples: int = 250,
    seed: int = 0,
    family: SetFamily | None = None,
) -> dict:
    """Antichain sums stay at most 1; every full layer is tight."""
    from .blym import blym_sum
    from .sampling import random_antichain

    if n < 1 or samples < 0:
        raise DomainError(f"need 1 <= n and 0 <= samples, got n={n}, samples={samples}")
    _cap_samples(samples)
    if family is not None:
        return _family_sum("blym", blym_sum, family)
    rng = random.Random(seed)
    layers = (
        (SetFamily.from_masks(n, layer_masks(n, k)), f"full layer k={k}") for k in range(n + 1)
    )
    drawn = (
        (random_antichain(rng, n, attempts=rng.randrange(1, 2 * binomial(n, n // 2) + 2)), None)
        for _ in range(samples)
    )
    params = {"n": n, "samples": samples, "seed": seed}
    return _sums("blym", params, blym_sum, chain(layers, drawn))


def verify_diamond_blym(
    n: int = 6,
    samples: int = 400,
    seed: int = 0,
    sharp_n: int = 8,
    family: SetFamily | None = None,
) -> dict:
    """Interval-component sums stay at most 1; sharp constructions are tight."""
    from .blym import diamond_blym_sum
    from .constructions import sharp_family
    from .sampling import random_all_diamond_family

    if n < 1 or samples < 0 or sharp_n < 2:
        raise DomainError(
            "need 1 <= n, 0 <= samples and 2 <= sharp_n, "
            f"got n={n}, samples={samples}, sharp_n={sharp_n}"
        )
    _full(sharp_n)  # refuses the largest sharp family before building the first
    _cap_samples(samples)
    if family is not None:
        return _family_sum("diamond-blym", diamond_blym_sum, family)
    rng = random.Random(seed)
    drawn = (
        random_all_diamond_family(rng, n, target_components=rng.randrange(1, 2 * n))
        for _ in range(samples)
    )
    sharp = (
        (sharp_family(nn, k), f"sharp n={nn} k={k}")
        for nn in range(2, sharp_n + 1)
        for k in range(nn + 1)
    )
    cases = chain(((fam, None) for fam in drawn if len(fam)), sharp)
    params = {"n": n, "samples": samples, "seed": seed, "sharp_n": sharp_n}
    return _sums("diamond-blym", params, diamond_blym_sum, cases)


def verify_kk(
    n: int = 4,
    k: int = 2,
    samples: int = 2000,
    seed: int = 0,
) -> dict:
    """Iterated shadows of single-layer families meet the cascade bound."""
    from .shadow import kk_shadow_bound

    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    layer = layer_masks(n, k)
    width = len(layer)
    exhaustive = width <= KK_EXHAUSTIVE_CAP
    # a layer too wide to exhaust is only sampled, so it needs a sample
    least = 0 if exhaustive else 1
    if samples < least:
        raise DomainError(
            f"need {least} <= samples for a layer of {width} sets, got samples={samples}"
        )
    _cap_samples(samples)

    def failures_of(masks: list[int]):
        m, cur = len(masks), sum(1 << mask for mask in masks)  # shadowed as one bitset
        for r in range(1, k + 1):
            cur = shadow_bits(n, cur)
            bound = kk_shadow_bound(m, k, r)
            if cur.bit_count() < bound:
                yield {"family_size": m, "r": r, "shadow": cur.bit_count(), "bound": bound}

    rng = random.Random(seed)  # each drawn pick draws its size, then its sets
    drawn = (rng.sample(layer, rng.randrange(1, width + 1)) for _ in range(samples))
    every = ([layer[i] for i in iter_bits(pick)] for pick in range(1, 1 << width))
    checked, failures = _collect(map(failures_of, every if exhaustive else drawn))
    params = {"n": n, "k": k, "samples": samples, "seed": seed}
    return _report("kk", params, failures, exhaustive=exhaustive, checked=checked)


def verify_technical(nmax: int = 6, kmax: int = 3) -> dict:
    """Down-closure floors hold for every qualifying family, exhaustively."""
    from .shadow import technical_bound_check

    if nmax < 2 or kmax < 1:
        raise DomainError(f"need 2 <= nmax and 1 <= kmax, got nmax={nmax}, kmax={kmax}")
    # the pools of sets of size >= k, counting their (k + 1)- and k-set families first
    pools, families = [], 0
    for n in range(2, nmax + 1):
        for k in range(1, min(kmax, n) + 1):
            pool = [m for m in range(1, 1 << n) if m.bit_count() >= k]
            pools.append((n, k, pool))
            families += binomial(len(pool), k + 1) + binomial(len(pool), k)
            if families > TECHNICAL_FAMILY_CAP:
                raise ResourceLimitError(
                    f"technical suite capped at {TECHNICAL_FAMILY_CAP} families"
                )

    def failures_of(n: int, k: int, mode: str, combo: tuple[int, ...]):
        fam = SetFamily(n, combo)  # combinations of the ascending pool ascend
        if not technical_bound_check(fam, mode):
            yield {
                "n": n,
                "k": k,
                "mode": mode,
                "family": fam.to_jsonable(),
                "closure": downset_bits(n, family_bits(fam)).bit_count(),
            }

    checked, failures = _collect(
        failures_of(n, k, mode, combo)
        for n, k, pool in pools
        for mode, size in (("k_plus_one", k + 1), ("k", k))
        for combo in combinations(pool, size)
    )
    return _report("technical", {"nmax": nmax, "kmax": kmax}, failures, checked=checked)


def verify_colouring(
    n: int = 4,
    k: int | None = None,
    samples: int = 200,
    seed: int = 0,
) -> dict:
    """Element colourings of layer pairs are proper and rainbow-cycle-free."""
    from .colouring import LayerPairGraph, find_rainbow_cycle, is_proper, layer_colouring
    from .constructions import full_layer_pair
    from .sampling import random_layer_pair

    if n < 1 or samples < 0:
        raise DomainError(f"need 1 <= n and 0 <= samples, got n={n}, samples={samples}")
    _cap_samples(samples)
    rng = random.Random(seed)
    ks = [k] if k is not None else range(n)  # not a list: the first pair refuses n > 63

    def pairs():
        for kk in ks:
            yield *full_layer_pair(n, kk), f"full layers ({kk},{kk + 1}) of [{n}]"
            for i in range(samples):  # each draws its density, then its pair
                a, b = random_layer_pair(rng, n, kk, density=rng.uniform(0.2, 0.95))
                if len(a) and len(b):
                    yield a, b, f"sample {i} at k={kk}"

    def failures_of(a: SetFamily, b: SetFamily, label: str):
        g = LayerPairGraph(a, b)
        eg = layer_colouring(g)
        if not is_proper(eg):
            return ({"case": label, "reason": "colouring not proper"},)
        cyc = find_rainbow_cycle(eg, max(3, g.order()))
        return () if cyc is None else ({"case": label, "cycle": cyc},)

    checked, failures = _collect(starmap(failures_of, pairs()))
    params = {"n": n, "k": k, "samples": samples, "seed": seed}
    return _report("colouring", params, failures, checked=checked)


def verify_fact_ab(n: int = 3, budget_nodes: int = NODE_BUDGET) -> dict:
    """Closure identities and the excluded-count floor over all maximal splits."""
    from .constructions import disconnected_extremal_size
    from .search import _maximal_splits
    from .shadow import _boundary, _side_closures

    splits = _maximal_splits(n, budget_nodes)
    best = disconnected_extremal_size(n)
    # the extremal family meets the size bound 2^n - excluded with equality
    floor = (1 << n) - best
    tight: list[bool] = []

    def failures_of(a: int, b: int):  # the split's first failure, if any
        closures = ua, da, ub, db = _side_closures(n, a, b)
        ab = a | b
        if ua & da != a or ub & db != b:
            return _split_failure(n, a, b, reason="closure meet is not the side itself")
        # covers `_boundary`'s refusal: x in a, comparable to b, is in ↑a∩↓b or ↓a∩↑b
        if ua & db or da & ub:
            return _split_failure(n, a, b, reason="cross-side closures intersect")
        fplus, fminus, _, _ = _boundary(n, a, b, *closures)
        # re-derived from the boundary itself, not read off _boundary's regions
        up_plus, down_minus = upset_bits(n, fplus), downset_bits(n, fminus)
        if up_plus & ab or down_minus & ab:
            return _split_failure(n, a, b, reason="boundary closure touches the family")
        if up_plus & down_minus:
            # Guaranteed disjoint only because these splits are maximal.
            return _split_failure(n, a, b, reason="boundary closures intersect")
        excluded = up_plus.bit_count() + down_minus.bit_count()
        size = a.bit_count() + b.bit_count()
        if excluded < floor:
            return _split_failure(n, a, b, excluded=excluded, floor=floor)
        if size > (1 << n) - excluded:
            return _split_failure(n, a, b, size=size, excluded=excluded)
        tight.append(size == best and excluded == floor)
        return ()

    _, failures = _collect(starmap(failures_of, splits))
    facts = {"splits": len(splits), "excluded_floor": floor, "extremal_tight_count": sum(tight)}
    return _report("fact-ab", {"n": n}, failures, passed=any(tight), **facts)


def verify_key_lemma(n: int = 4, budget_nodes: int = NODE_BUDGET) -> dict:
    """Each minimal missing set above forces many near-size sets below.

    For every maximal split and every F in the upper boundary of size k, the
    lower boundary holds at least k-1 sets of size at least k-2; dually, F of
    size s below forces at least n-s-1 sets of size at most s+2 above.
    """
    from .search import _maximal_splits
    from .shadow import _boundary, _side_closures

    # _maximal_splits refuses n <= 0, but passes n = 1 with no split
    if n == 1:
        raise DomainError("disconnected families need n >= 2")
    splits = _maximal_splits(n, budget_nodes)

    def cases():  # one per boundary set, so `checked` counts boundary sets
        for a, b in splits:
            fplus, fminus, _, _ = _boundary(n, a, b, *_side_closures(n, a, b))
            plus_sizes = sorted(map(int.bit_count, iter_bits(fplus)))
            minus_sizes = sorted(map(int.bit_count, iter_bits(fminus)))
            for k in plus_sizes:
                have = sum(1 for s in minus_sizes if s >= k - 2)
                yield () if have >= k - 1 else _split_failure(n, a, b, above_size=k, have=have)
            for s in minus_sizes:
                have = sum(1 for k in plus_sizes if k <= s + 2)
                yield () if have >= n - s - 1 else _split_failure(n, a, b, below_size=s, have=have)

    checked, failures = _collect(cases())
    return _report("key-lemma", {"n": n}, failures, splits=len(splits), checked=checked)


VERIFIERS: dict[str, Callable[..., dict]] = {
    "blym": verify_blym,
    "diamond-blym": verify_diamond_blym,
    "kk": verify_kk,
    "technical": verify_technical,
    "colouring": verify_colouring,
    "fact-ab": verify_fact_ab,
    "key-lemma": verify_key_lemma,
}


def run_verifier(name: str, **params) -> dict:
    """Dispatch a property suite by name, dropping params set to None."""
    if name not in VERIFIERS:
        raise DomainError(f"unknown suite {name!r}; choose from {sorted(VERIFIERS)}")
    kwargs = {k: v for k, v in params.items() if v is not None}
    return VERIFIERS[name](**kwargs)


class Reproduction(_Record):
    """A pinned desk-scale computation, `op` run on `args`, with its frozen expected value."""

    def __init__(self, name: str, summary: str, expected: object, op: str, args: tuple):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "summary", summary)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "args", args)

    def run(self) -> object:
        """The value of `search.<op>(*args)`, or the member count of `sharp_family(*args)`."""
        if self.op == "sharp_family":
            from .constructions import sharp_family

            return len(sharp_family(*self.args))
        from . import search

        return getattr(search, self.op)(*self.args).value

    def to_jsonable(self) -> dict:
        return {"name": self.name, "summary": self.summary, "expected": str(self.expected)}


# one row per reproduction, in the order `reproduce --list` prints them
REPRODUCTIONS: dict[str, Reproduction] = {rep.name: rep for rep in (
    Reproduction("sperner-n3", "largest family of [3] with all comparability components trivial",
                 3, "la_exact", (3, 1)),
    Reproduction("sperner-n4", "largest family of [4] with all comparability components trivial",
                 6, "la_exact", (4, 1)),
    Reproduction("katona-tarjan-n4", "largest family of [4] with components of order at most 2",
                 6, "la_exact", (4, 2)),
    Reproduction("katona-tarjan-n5", "largest family of [5] with components of order at most 2",
                 12, "la_exact", (5, 2)),
    Reproduction("k2-n3", "largest family of [3] with components of order at most 2",
                 4, "la_exact", (3, 2)),
    Reproduction("la-n4-t4", "largest family of [4] with components of order at most 4",
                 8, "la_exact", (4, 4)),
    Reproduction("disconnected-n3",
                 "largest disconnected family of [3] containing no isolated vertex split",
                 4, "max_disconnected", (3,)),
    Reproduction("disconnected-n4", "largest disconnected family of [4]",
                 10, "max_disconnected", (4,)),
    Reproduction("disconnected-n5", "largest disconnected family of [5]",
                 22, "max_disconnected", (5,)),
    Reproduction("kleitman-n3-q1",
                 "fewest 2-chains over families of [3] with one set past the middle layer",
                 2, "min_two_chains", (3, 4)),
    Reproduction("kleitman-n4-q2",
                 "fewest 2-chains over families of [4] with two sets past the middle layer",
                 6, "min_two_chains", (4, 8)),
    Reproduction("xi-star-n5-m6", "densest 6-vertex subgraph of an adjacent layer pair of [5]",
                 Fraction(2), "xi_star_exact", (5, 6)),
    Reproduction("madstar-t4",
                 "max average degree of a 4-vertex graph with a rainbow-cycle-free colouring",
                 Fraction(2), "mad_star_probe", (4,)),
    Reproduction("lambda-star-n3-t2",
                 "max Lubell value over families of [3] with components of order at most 2",
                 Fraction(2), "lambda_star_exact", (3, 2)),
    Reproduction("sharp-size-n12-k3", "member count of the height-3 sharp construction at n=12",
                 1008, "sharp_family", (12, 3)),
)}


def run_reproduction(name: str) -> dict:
    """Run one pinned computation and diff actual against expected."""
    if name not in REPRODUCTIONS:
        raise DomainError(f"unknown reproduction {name!r}; choose from {sorted(REPRODUCTIONS)}")
    rep = REPRODUCTIONS[name]
    actual = rep.run()
    return {**rep.to_jsonable(), "actual": str(actual), "passed": actual == rep.expected}
