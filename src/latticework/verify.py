"""Named property suites and pinned desk-scale reproductions.

Each suite replays one of the structural facts the package is built around,
over exhaustive or seeded-random inputs, and returns a plain dict of one
shape: "suite", "params", the suite's own counts, "passed" and "failures"
(at most MAX_REPORTED_FAILURES, each enough to locate a counterexample).
The BLYM suites share one sum check, and given one family they report its
"sum" and "tight" without "params".  The reproduction registry pins small
search anchors to frozen values so a CLI run can diff actual against
expected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations
from typing import Callable

from .core import (
    NODE_BUDGET,
    DomainError,
    PreconditionError,
    SetFamily,
    binomial,
    downset_bits,
    family_bits,
    layer_masks,
    upset_bits,
)

MAX_REPORTED_FAILURES = 5
# verify_kk checks every subfamily of a layer of at most this many sets and
# samples wider layers.
KK_EXHAUSTIVE_CAP = 12


def _push(failures: list, item: dict) -> None:
    if len(failures) < MAX_REPORTED_FAILURES:
        failures.append(item)


def _report(suite: str, params: dict, failures: list, passed: bool = True, **facts) -> dict:
    """A suite's result, with its own facts in keyword order."""
    return {
        "suite": suite,
        "params": params,
        **facts,
        "passed": passed and not failures,
        "failures": failures,
    }


def _sums(total: Callable[[SetFamily], Fraction], cases) -> tuple[int, int, list[dict]]:
    """Check a chain-meet sum over (family, label) cases, in order.

    A labelled case is an extremal family whose sum must be exactly 1; a
    drawn case (label None) must sum to at most 1.  Returns the cases
    checked, the tight ones (sum 1) and the failures.
    """
    failures: list[dict] = []
    checked = tight = 0
    for fam, label in cases:
        s = total(fam)
        checked += 1
        tight += s == 1
        if label is not None and s != 1:
            _push(failures, {"case": label, "sum": str(s)})
        elif label is None and s > 1:
            _push(failures, {"family": fam.to_jsonable(), "sum": str(s)})
    return checked, tight, failures


def _family_sum(suite: str, total: Callable[[SetFamily], Fraction], family: SetFamily) -> dict:
    """One family's sum, or the precondition it fails, as a suite result."""
    try:
        s = total(family)
    except PreconditionError as exc:
        return {"suite": suite, "passed": False, "failures": [{"reason": str(exc)}]}
    return {"suite": suite, "sum": str(s), "tight": s == 1, "passed": s <= 1, "failures": []}


def verify_blym(
    n: int = 7,
    samples: int = 250,
    seed: int = 0,
    family: SetFamily | None = None,
) -> dict:
    """Antichain sums stay at most 1; every full layer is tight."""
    from .blym import blym_sum
    from .sampling import random_antichain

    if family is not None:
        return _family_sum("blym", blym_sum, family)
    if n < 1 or samples < 0:
        raise DomainError(f"need 1 <= n and 0 <= samples, got n={n}, samples={samples}")
    rng = random.Random(seed)
    layers = (
        (SetFamily.from_masks(n, layer_masks(n, k)), f"full layer k={k}") for k in range(n + 1)
    )
    drawn = (
        (random_antichain(rng, n, attempts=rng.randrange(1, 2 * binomial(n, n // 2) + 2)), None)
        for _ in range(samples)
    )
    checked, tight, failures = _sums(blym_sum, chain(layers, drawn))
    params = {"n": n, "samples": samples, "seed": seed}
    return _report("blym", params, failures, checked=checked, tight_count=tight)


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

    if family is not None:
        return _family_sum("diamond-blym", diamond_blym_sum, family)
    if n < 1 or samples < 0 or sharp_n < 2:
        raise DomainError(
            "need 1 <= n, 0 <= samples and 2 <= sharp_n, "
            f"got n={n}, samples={samples}, sharp_n={sharp_n}"
        )
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
    checked, tight, failures = _sums(diamond_blym_sum, cases)
    params = {"n": n, "samples": samples, "seed": seed, "sharp_n": sharp_n}
    return _report("diamond-blym", params, failures, checked=checked, tight_count=tight)


def verify_kk(
    n: int = 4,
    k: int = 2,
    samples: int = 2000,
    seed: int = 0,
) -> dict:
    """Iterated shadows of single-layer families meet the cascade bound."""
    from .shadow import kk_shadow_bound, lower_shadow

    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    layer = layer_masks(n, k)
    width = len(layer)
    failures: list[dict] = []
    checked = 0
    exhaustive = width <= KK_EXHAUSTIVE_CAP
    # a layer too wide to exhaust is only sampled, so it needs a sample
    least = 0 if exhaustive else 1
    if samples < least:
        raise DomainError(
            f"need {least} <= samples for a layer of {width} sets, got samples={samples}"
        )

    def check(masks: tuple[int, ...]) -> None:
        nonlocal checked
        checked += 1
        m = len(masks)
        cur = SetFamily.from_masks(n, masks)
        for r in range(1, k + 1):
            cur = lower_shadow(cur)
            bound = kk_shadow_bound(m, k, r)
            if len(cur) < bound:
                _push(
                    failures,
                    {"family_size": m, "r": r, "shadow": len(cur), "bound": bound},
                )

    if exhaustive:
        for pick in range(1, 1 << width):
            check(tuple(layer[i] for i in range(width) if (pick >> i) & 1))
    else:
        rng = random.Random(seed)
        for _ in range(samples):
            m = rng.randrange(1, width + 1)
            check(tuple(sorted(rng.sample(layer, m))))
    params = {"n": n, "k": k, "samples": samples, "seed": seed}
    return _report("kk", params, failures, exhaustive=exhaustive, checked=checked)


def verify_technical(nmax: int = 6, kmax: int = 3) -> dict:
    """Down-closure floors hold for every qualifying family, exhaustively."""
    from .shadow import down_closure, technical_bound_check

    if nmax < 2 or kmax < 1:
        raise DomainError(f"need 2 <= nmax and 1 <= kmax, got nmax={nmax}, kmax={kmax}")
    failures: list[dict] = []
    checked = 0
    for n in range(2, nmax + 1):
        universe = list(range(1, 1 << n))
        for k in range(1, min(kmax, n) + 1):
            pool = [m for m in universe if m.bit_count() >= k]
            for mode, size in (("k_plus_one", k + 1), ("k", k)):
                if len(pool) < size:
                    continue
                for combo in combinations(pool, size):
                    fam = SetFamily.from_masks(n, combo)
                    checked += 1
                    if not technical_bound_check(fam, mode):
                        _push(
                            failures,
                            {
                                "n": n,
                                "k": k,
                                "mode": mode,
                                "family": fam.to_jsonable(),
                                "closure": len(down_closure(fam)),
                            },
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
    rng = random.Random(seed)
    failures: list[dict] = []
    checked = 0
    ks = [k] if k is not None else list(range(n))

    def check(a: SetFamily, b: SetFamily, label: str) -> None:
        nonlocal checked
        g = LayerPairGraph(a, b)
        eg = layer_colouring(g)
        checked += 1
        if not is_proper(eg):
            _push(failures, {"case": label, "reason": "colouring not proper"})
            return
        cyc = find_rainbow_cycle(eg, max(3, g.order()))
        if cyc is not None:
            _push(failures, {"case": label, "cycle": cyc})

    for kk in ks:
        a, b = full_layer_pair(n, kk)
        check(a, b, f"full layers ({kk},{kk + 1}) of [{n}]")
        for i in range(samples):
            a, b = random_layer_pair(rng, n, kk, density=rng.uniform(0.2, 0.95))
            if len(a) == 0 or len(b) == 0:
                continue
            check(a, b, f"sample {i} at k={kk}")
    params = {"n": n, "k": k, "samples": samples, "seed": seed}
    return _report("colouring", params, failures, checked=checked)


def verify_fact_ab(n: int = 3, budget_nodes: int = NODE_BUDGET) -> dict:
    """Closure identities and the excluded-count floor over all maximal splits."""
    from .constructions import disconnected_extremal_size
    from .search import disconnected_splits
    from .shadow import boundary_pair

    splits = disconnected_splits(n, budget_nodes)
    failures: list[dict] = []
    extremal_hits = 0
    best = disconnected_extremal_size(n)
    # the extremal family meets the size bound 2^n - excluded with equality
    floor = (1 << n) - best
    for a, b in splits:
        bits_a, bits_b = family_bits(a), family_bits(b)
        ab = bits_a | bits_b
        ua, da = upset_bits(n, bits_a), downset_bits(n, bits_a)
        ub, db = upset_bits(n, bits_b), downset_bits(n, bits_b)
        label = {"a": a.to_jsonable(), "b": b.to_jsonable()}
        if ua & da != bits_a or ub & db != bits_b:
            _push(failures, {**label, "reason": "closure meet is not the side itself"})
            continue
        if ua & db or da & ub:
            _push(failures, {**label, "reason": "cross-side closures intersect"})
            continue
        bp = boundary_pair(a, b)
        up_plus = upset_bits(n, family_bits(bp.fplus))
        down_minus = downset_bits(n, family_bits(bp.fminus))
        if up_plus & ab or down_minus & ab:
            _push(failures, {**label, "reason": "boundary closure touches the family"})
            continue
        if up_plus & down_minus:
            # Guaranteed disjoint only because these splits are maximal.
            _push(failures, {**label, "reason": "boundary closures intersect"})
            continue
        excluded = up_plus.bit_count() + down_minus.bit_count()
        size = len(a) + len(b)
        if excluded < floor:
            _push(failures, {**label, "excluded": excluded, "floor": floor})
            continue
        if size > (1 << n) - excluded:
            _push(failures, {**label, "size": size, "excluded": excluded})
            continue
        if size == best and excluded == floor:
            extremal_hits += 1
    facts = {"splits": len(splits), "excluded_floor": floor, "extremal_tight_count": extremal_hits}
    return _report("fact-ab", {"n": n}, failures, passed=extremal_hits >= 1, **facts)


def verify_key_lemma(n: int = 4, budget_nodes: int = NODE_BUDGET) -> dict:
    """Each minimal missing set above forces many near-size sets below.

    For every maximal split and every F in the upper boundary of size k, the
    lower boundary holds at least k-1 sets of size at least k-2; dually, F of
    size s below forces at least n-s-1 sets of size at most s+2 above.
    """
    from .search import disconnected_splits
    from .shadow import boundary_pair

    # disconnected_splits refuses n <= 0, but passes n = 1 with no split
    if n == 1:
        raise DomainError("disconnected families need n >= 2")
    splits = disconnected_splits(n, budget_nodes)
    failures: list[dict] = []
    checked = 0
    for a, b in splits:
        bp = boundary_pair(a, b)
        plus_sizes = sorted(f.bit_count() for f in bp.fplus.members)
        minus_sizes = sorted(f.bit_count() for f in bp.fminus.members)
        for k in plus_sizes:
            checked += 1
            have = sum(1 for s in minus_sizes if s >= k - 2)
            if have < k - 1:
                _push(
                    failures,
                    {"a": a.to_jsonable(), "b": b.to_jsonable(), "above_size": k, "have": have},
                )
        for s in minus_sizes:
            checked += 1
            have = sum(1 for k in plus_sizes if k <= s + 2)
            if have < n - s - 1:
                _push(
                    failures,
                    {"a": a.to_jsonable(), "b": b.to_jsonable(), "below_size": s, "have": have},
                )
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


@dataclass(frozen=True)
class Reproduction:
    """A pinned desk-scale computation with its frozen expected value."""

    name: str
    summary: str
    expected: object
    run: Callable[[], object]


REPRODUCTIONS: dict[str, Reproduction] = {}


def _register(name: str, summary: str, expected, run: Callable[[], object]) -> None:
    REPRODUCTIONS[name] = Reproduction(name, summary, expected, run)


def _search_value(op: str, *args) -> Callable[[], object]:
    """A run giving the value of `search.<op>(*args)`; it imports search when called."""

    def run():
        from . import search

        return getattr(search, op)(*args).value

    return run


def _sharp_size(n: int, k: int) -> int:
    from .constructions import sharp_family

    return len(sharp_family(n, k))


_register(
    "sperner-n3",
    "largest family of [3] with all comparability components trivial",
    3,
    _search_value("la_exact", 3, 1),
)
_register(
    "sperner-n4",
    "largest family of [4] with all comparability components trivial",
    6,
    _search_value("la_exact", 4, 1),
)
_register(
    "katona-tarjan-n4",
    "largest family of [4] with components of order at most 2",
    6,
    _search_value("la_exact", 4, 2),
)
_register(
    "katona-tarjan-n5",
    "largest family of [5] with components of order at most 2",
    12,
    _search_value("la_exact", 5, 2),
)
_register(
    "k2-n3",
    "largest family of [3] with components of order at most 2",
    4,
    _search_value("la_exact", 3, 2),
)
_register(
    "la-n4-t4",
    "largest family of [4] with components of order at most 4",
    8,
    _search_value("la_exact", 4, 4),
)
_register(
    "disconnected-n3",
    "largest disconnected family of [3] containing no isolated vertex split",
    4,
    _search_value("max_disconnected", 3),
)
_register(
    "disconnected-n4",
    "largest disconnected family of [4]",
    10,
    _search_value("max_disconnected", 4),
)
_register(
    "disconnected-n5",
    "largest disconnected family of [5]",
    22,
    _search_value("max_disconnected", 5),
)
_register(
    "kleitman-n3-q1",
    "fewest 2-chains over families of [3] with one set past the middle layer",
    2,
    _search_value("min_two_chains", 3, 4),
)
_register(
    "kleitman-n4-q2",
    "fewest 2-chains over families of [4] with two sets past the middle layer",
    6,
    _search_value("min_two_chains", 4, 8),
)
_register(
    "xi-star-n5-m6",
    "densest 6-vertex subgraph of an adjacent layer pair of [5]",
    Fraction(2),
    _search_value("xi_star_exact", 5, 6),
)
_register(
    "madstar-t4",
    "max average degree of a 4-vertex graph with a rainbow-cycle-free colouring",
    Fraction(2),
    _search_value("mad_star_probe", 4),
)
_register(
    "lambda-star-n3-t2",
    "max Lubell value over families of [3] with components of order at most 2",
    Fraction(2),
    _search_value("lambda_star_exact", 3, 2),
)
_register(
    "sharp-size-n12-k3",
    "member count of the height-3 sharp construction at n=12",
    1008,
    lambda: _sharp_size(12, 3),
)


def run_reproduction(name: str) -> dict:
    """Run one pinned computation and diff actual against expected."""
    if name not in REPRODUCTIONS:
        raise DomainError(f"unknown reproduction {name!r}; choose from {sorted(REPRODUCTIONS)}")
    rep = REPRODUCTIONS[name]
    actual = rep.run()
    return {
        "name": rep.name,
        "summary": rep.summary,
        "expected": str(rep.expected),
        "actual": str(actual),
        "passed": actual == rep.expected,
    }
