import inspect
import json
from fractions import Fraction

import pytest

from latticework.constructions import sharp_family
from latticework import verify
from latticework.core import DomainError, ResourceLimitError, SetFamily, family_bits
from latticework.verify import (
    MAX_REPORTED_FAILURES,
    REPRODUCTIONS,
    VERIFIERS,
    run_reproduction,
    run_verifier,
    verify_blym,
    verify_colouring,
    verify_diamond_blym,
    verify_fact_ab,
    verify_key_lemma,
    verify_kk,
    verify_technical,
)


def fam(n, *sets):
    return SetFamily.from_sets(n, sets)


def test_blym_suite_passes():
    rep = verify_blym(n=4, samples=40, seed=1)
    assert rep["passed"]
    assert rep["checked"] == 5 + 40
    assert rep["failures"] == []
    assert rep["tight_count"] >= 5


def test_blym_single_family_paths():
    tight = verify_blym(family=fam(4, (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)))
    assert tight["passed"] and tight["tight"] and tight["sum"] == "1"
    loose = verify_blym(family=fam(4, (1,), (2, 3)))
    assert loose["passed"] and not loose["tight"]
    chained = verify_blym(family=fam(3, (1,), (1, 2)))
    assert not chained["passed"]
    assert "2-chain" in chained["failures"][0]["reason"]


def test_diamond_blym_suite_passes():
    rep = verify_diamond_blym(n=4, samples=60, seed=2, sharp_n=6)
    assert rep["passed"]
    assert rep["failures"] == []


def test_diamond_blym_single_family_paths():
    tight = verify_diamond_blym(family=sharp_family(5, 2))
    assert tight["passed"] and tight["tight"]
    vee = verify_diamond_blym(family=fam(3, (1,), (1, 2), (1, 3)))
    assert not vee["passed"]
    assert vee["failures"]


def test_sum_suites_check_pinned_and_drawn_cases_in_order(monkeypatch):
    from latticework import blym

    # a pinned case must sum to exactly 1 and a drawn one to at most 1; the
    # failures keep the order the cases are drawn in, up to the report cap
    layers = [{"case": f"full layer k={k}"} for k in range(4)]
    drawn = [
        {"family": {"n": 3, "sets": [[1, 2], [1, 3], [2, 3]]}},
        {"family": {"n": 3, "sets": [[2, 3], [1, 2, 3]]}},
        {"family": {"n": 3, "sets": [[1], [2], [2, 3]]}},
    ]
    sharp = [{"case": f"sharp n=2 k={k}"} for k in range(3)]
    for total, tight, failing in (("3/2", 0, True), ("1/2", 0, False), ("1", 1, False)):
        monkeypatch.setattr(blym, "blym_sum", lambda fam: Fraction(total))
        monkeypatch.setattr(blym, "diamond_blym_sum", lambda fam: Fraction(total))
        wrong = total != "1"
        rep = verify_blym(n=3, samples=4, seed=0)
        assert (rep["checked"], rep["tight_count"]) == (8, 8 * tight)
        cases = layers * wrong + [{"family": {"n": 3, "sets": [[2, 3]]}}] * failing
        assert rep["failures"] == [{**c, "sum": total} for c in cases]
        assert rep["passed"] == (not cases)
        rep = verify_diamond_blym(n=3, samples=3, seed=0, sharp_n=2)
        assert (rep["checked"], rep["tight_count"]) == (6, 6 * tight)
        cases = (drawn * failing + sharp * wrong)[:MAX_REPORTED_FAILURES]
        assert rep["failures"] == [{**c, "sum": total} for c in cases]
        assert rep["passed"] == (not cases)


def test_fact_ab_fails_without_an_extremal_split(monkeypatch):
    from latticework import constructions

    # a size bound no split meets: nothing fails, but the bound is not tight
    size = constructions.disconnected_extremal_size
    monkeypatch.setattr(constructions, "disconnected_extremal_size", lambda n: size(n) + 1)
    rep = verify_fact_ab(n=3)
    assert rep["extremal_tight_count"] == 0
    assert rep["failures"] == []
    assert not rep["passed"]


def test_kk_suite_fails_on_a_raised_bound(monkeypatch):
    from latticework import shadow

    # every shadow of singletons is {{}}, one set short of a bound raised by 1
    bound = shadow.kk_shadow_bound
    monkeypatch.setattr(shadow, "kk_shadow_bound", lambda m, k, r: bound(m, k, r) + 1)
    rep = verify_kk(n=3, k=1)
    assert (rep["checked"], rep["passed"]) == (7, False)
    # picks 1..5 of the layer {1}, {2}, {3} hold 1, 1, 2, 1 and 2 sets
    assert rep["failures"] == [
        {"family_size": m, "r": 1, "shadow": 1, "bound": 2} for m in (1, 1, 2, 1, 2)
    ]


def test_technical_suite_fails_on_a_failed_check(monkeypatch):
    from latticework import shadow

    monkeypatch.setattr(shadow, "technical_bound_check", lambda fam, mode: False)
    rep = verify_technical(nmax=2, kmax=1)
    assert (rep["checked"], rep["passed"]) == (6, False)
    cases = [
        ("k_plus_one", [[1], [2]], 3),
        ("k_plus_one", [[1], [1, 2]], 4),
        ("k_plus_one", [[2], [1, 2]], 4),
        ("k", [[1]], 2),
        ("k", [[2]], 2),
    ]
    assert rep["failures"] == [
        {"n": 2, "k": 1, "mode": mode, "family": {"n": 2, "sets": sets}, "closure": closure}
        for mode, sets, closure in cases
    ]


@pytest.mark.parametrize("name, fake, failure", [
    ("find_rainbow_cycle", lambda g, max_len: [0, 1, 2], {"cycle": [0, 1, 2]}),
    ("is_proper", lambda g: False, {"reason": "colouring not proper"}),
])
def test_colouring_suite_fails_on_a_failed_check(monkeypatch, name, fake, failure):
    from latticework import colouring

    monkeypatch.setattr(colouring, name, fake)
    rep = verify_colouring(n=6, samples=0)
    assert (rep["checked"], rep["passed"]) == (6, False)
    assert len(rep["failures"]) == MAX_REPORTED_FAILURES
    assert rep["failures"] == [
        {"case": f"full layers ({k},{k + 1}) of [6]", **failure} for k in range(5)
    ]


def test_key_lemma_suite_fails_without_a_lower_boundary(monkeypatch):
    from latticework import shadow
    from latticework.search import disconnected_splits

    # with no set below, each set of size k >= 2 above lacks its k - 1 partners
    splits = disconnected_splits(3)
    above = [(a, b, sorted(map(len, shadow.boundary_report(a, b)["fplus"]["sets"])))
             for a, b in splits]
    boundary = shadow._boundary

    def no_lower_boundary(a, b):
        fplus, _, up, down = boundary(a, b)
        return fplus, 0, up, down

    monkeypatch.setattr(shadow, "_boundary", no_lower_boundary)
    rep = verify_key_lemma(n=3)
    assert rep["splits"] == 9 and not rep["passed"]
    assert rep["checked"] == sum(len(sizes) for _, _, sizes in above)
    want = [
        {"a": a.to_jsonable(), "b": b.to_jsonable(), "above_size": k, "have": 0}
        for a, b, sizes in above
        for k in sizes
        if k >= 2
    ]
    assert len(want) > MAX_REPORTED_FAILURES
    assert rep["failures"] == want[:MAX_REPORTED_FAILURES]


def test_failing_suite_exits_one(capsys, monkeypatch):
    from latticework import shadow
    from latticework.cli import main

    monkeypatch.setattr(shadow, "technical_bound_check", lambda fam, mode: False)
    code = main(["--format", "json", "verify", "technical", "--nmax", "2", "--kmax", "1"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["results"] == verify_technical(nmax=2, kmax=1)


def test_kk_suite_passes():
    rep = verify_kk(n=3, k=1, samples=50, seed=0)
    assert rep["passed"]
    rep = verify_kk(n=4, k=2, samples=50, seed=0)
    assert rep["passed"]
    assert rep["params"] == {"n": 4, "k": 2, "samples": 50, "seed": 0}


def test_technical_suite_passes():
    rep = verify_technical(nmax=4, kmax=2)
    assert rep["passed"]
    assert rep["checked"] > 0


def test_technical_cap_counts_families_before_the_first(monkeypatch):
    # nmax=4, kmax=2 asks for exactly 384 families
    monkeypatch.setattr(verify, "TECHNICAL_FAMILY_CAP", 384)
    assert verify_technical(nmax=4, kmax=2)["checked"] == 384
    monkeypatch.setattr(verify, "TECHNICAL_FAMILY_CAP", 383)
    with pytest.raises(ResourceLimitError, match="capped at 383 families"):
        verify_technical(nmax=4, kmax=2)


# per kmax, the largest nmax the cap admits: 698,026, 332,785, 162,482 (the
# default) and 196,180 families; nmax + 1 asks for 2.8, 2.9, 4.4 and 13.3 million
TECHNICAL_EDGES = [(10, 1), (7, 2), (6, 3), (6, 6)]


@pytest.mark.parametrize("nmax, kmax", TECHNICAL_EDGES)
def test_technical_cap_edges(monkeypatch, nmax, kmax):
    # only the count runs: the enumeration itself is emptied
    monkeypatch.setattr(verify, "combinations", lambda pool, size: ())
    assert verify_technical(nmax=nmax, kmax=kmax)["checked"] == 0
    with pytest.raises(ResourceLimitError):
        verify_technical(nmax=nmax + 1, kmax=kmax)


# the suites that draw samples, each with a small input; kk at n = 6, k = 3
# samples its 20-set layer, at n = 4, k = 2 it exhausts a 6-set one
SAMPLED_SUITES = [
    (verify_blym, {"n": 3}),
    (verify_diamond_blym, {"n": 3, "sharp_n": 2}),
    (verify_colouring, {"n": 3}),
    (verify_kk, {"n": 6, "k": 3}),
    (verify_kk, {"n": 4, "k": 2}),
]


@pytest.mark.parametrize("suite, params", SAMPLED_SUITES)
def test_sample_cap_edges(monkeypatch, suite, params):
    assert inspect.signature(suite).parameters["samples"].default <= verify.SAMPLE_CAP
    monkeypatch.setattr(verify, "SAMPLE_CAP", 5)
    rep = suite(samples=5, **params)
    assert rep["passed"] and rep["params"]["samples"] == 5
    # refused before a generator is made: without `random` a draw would fail otherwise
    monkeypatch.setattr(verify, "random", None)
    with pytest.raises(ResourceLimitError, match="capped at 5 samples, got 6"):
        suite(samples=6, **params)


def test_ground_sizes_past_63_are_refused_before_any_work(monkeypatch):
    # colouring read range(10**20) into a list (OverflowError)
    for n in (64, 10**20):
        with pytest.raises(DomainError, match=f"ground set size {n} outside 1..63"):
            verify_colouring(n=n)
    # diamond-blym built and summed every sharp family up to n = 20 (10 s)
    # before sharp_family refused n = 21; now it refuses before its generator
    # is made, so without `random` it would fail otherwise
    monkeypatch.setattr(verify, "random", None)
    for n in (64, 10**20):
        with pytest.raises(DomainError, match=f"ground set size {n} outside 1..63"):
            verify_diamond_blym(sharp_n=n)
    with pytest.raises(ResourceLimitError, match="capped at n=20"):
        verify_diamond_blym(sharp_n=21)


def test_colouring_suite_passes():
    rep = verify_colouring(n=3, samples=30, seed=4)
    assert rep["passed"]
    rep = verify_colouring(n=4, k=1, samples=30, seed=4)
    assert rep["passed"]


def test_fact_ab_suite_passes():
    for n in (2, 3, 5):
        rep = verify_fact_ab(n=n)
        assert rep["passed"], rep["failures"]
        assert rep["extremal_tight_count"] >= 1
    # n = 5 is the largest input: the 2,175 maximal splits of [5]
    assert (rep["splits"], rep["excluded_floor"], rep["extremal_tight_count"]) == (2175, 10, 20)


def test_key_lemma_suite_passes():
    for n in (2, 3, 5):
        rep = verify_key_lemma(n=n)
        assert rep["passed"], rep["failures"]
        assert rep["checked"] > 0
    assert (rep["splits"], rep["checked"]) == (2175, 14570)


def test_run_verifier_dispatch():
    rep = run_verifier("blym", n=3, samples=10, seed=0, family=None)
    assert rep["suite"] == "blym" and rep["passed"]
    with pytest.raises(DomainError):
        run_verifier("no-such-suite")
    assert set(VERIFIERS) == {
        "blym", "diamond-blym", "kk", "technical",
        "colouring", "fact-ab", "key-lemma",
    }


def test_reproductions_all_pass():
    assert len(REPRODUCTIONS) >= 15
    for name in REPRODUCTIONS:
        rep = run_reproduction(name)
        assert rep["passed"], (name, rep["expected"], rep["actual"])
        assert rep["name"] == name and rep["summary"]


def test_every_reproduction_is_a_known_value(known):
    # a row's frozen value is the one known_values.json holds; nothing is run
    for rep in REPRODUCTIONS.values():
        assert known.get((rep.op, *rep.args)) == rep.expected, rep.name


def test_known_values_hold_one_proven_value_per_key(known_entries, known):
    assert len(known) == len(known_entries)
    for entry in known_entries:
        assert set(entry) == {"op", "args", "value", "provenance"}, entry
        assert entry["provenance"] in ("exhaustion", "search", "closed form"), entry
        assert isinstance(entry["value"], (int, str)), entry


def test_reproduction_unknown_name():
    with pytest.raises(DomainError):
        run_reproduction("nonexistent")


def test_key_lemma_suite_fails_without_an_upper_boundary(monkeypatch):
    from latticework import shadow
    from latticework.search import disconnected_splits

    # with no set above, each set of size s <= n - 2 below lacks its n - s - 1 partners
    below = [(a, b, sorted(map(len, shadow.boundary_report(a, b)["fminus"]["sets"])))
             for a, b in disconnected_splits(3)]
    boundary = shadow._boundary

    def no_upper_boundary(a, b):
        _, fminus, up, down = boundary(a, b)
        return 0, fminus, up, down

    monkeypatch.setattr(shadow, "_boundary", no_upper_boundary)
    rep = verify_key_lemma(n=3)
    assert rep["splits"] == 9 and not rep["passed"]
    assert rep["checked"] == sum(len(sizes) for _, _, sizes in below)
    want = [
        {"a": a.to_jsonable(), "b": b.to_jsonable(), "below_size": s, "have": 0}
        for a, b, sizes in below
        for s in sizes
        if s <= 1
    ]
    assert want and rep["failures"] == want[:MAX_REPORTED_FAILURES]


def _fact_ab_on(monkeypatch, splits):
    from latticework import search

    monkeypatch.setattr(search, "disconnected_splits", lambda n, budget: splits)
    return verify_fact_ab(n=3)


def test_fact_ab_names_each_split_it_refuses(monkeypatch):
    # at n = 3: a side that is not convex, sides with comparable members,
    # and a split that is not maximal, whose boundary closures share {3}
    cases = [
        (fam(3, (1,), (1, 2, 3)), fam(3, (2,)), "closure meet is not the side itself"),
        (fam(3, (1,)), fam(3, (1, 2)), "cross-side closures intersect"),
        (fam(3, (1,)), fam(3, (2,)), "boundary closures intersect"),
    ]
    rep = _fact_ab_on(monkeypatch, [(a, b) for a, b, _ in cases])
    assert rep["splits"] == 3 and not rep["passed"]
    assert rep["failures"] == [
        {"a": a.to_jsonable(), "b": b.to_jsonable(), "reason": reason} for a, b, reason in cases
    ]


def test_fact_ab_fails_when_the_boundary_touches_the_family(monkeypatch):
    from latticework import shadow

    # a boundary above that is the first side itself
    boundary = shadow._boundary

    def first_side_above(a, b):
        _, fminus, up, down = boundary(a, b)
        return family_bits(a), fminus, up, down

    monkeypatch.setattr(shadow, "_boundary", first_side_above)
    a, b = fam(3, (1,)), fam(3, (2, 3))
    rep = _fact_ab_on(monkeypatch, [(a, b)])
    assert rep["failures"] == [
        {"a": a.to_jsonable(), "b": b.to_jsonable(), "reason": "boundary closure touches the family"}
    ]


def test_fact_ab_fails_below_the_excluded_floor(monkeypatch):
    from latticework import constructions
    from latticework.search import disconnected_splits
    from latticework.shadow import boundary_report

    # a claimed extremal size one too small raises the floor past the
    # extremal splits' excluded count
    size = constructions.disconnected_extremal_size
    monkeypatch.setattr(constructions, "disconnected_extremal_size", lambda n: size(n) - 1)
    rep = verify_fact_ab(n=3)
    floor = 8 - size(3) + 1
    want = [
        {"a": a.to_jsonable(), "b": b.to_jsonable(), "excluded": e, "floor": floor}
        for a, b in disconnected_splits(3)
        if (e := boundary_report(a, b)["excluded_count"]) < floor
    ]
    assert want and rep["failures"] == want[:MAX_REPORTED_FAILURES]
    assert rep["extremal_tight_count"] == 0 and not rep["passed"]


def test_fact_ab_fails_when_the_closures_outgrow_the_cube(monkeypatch):
    from latticework.core import upset_bits

    # every up-closure gains the 8 masks 8..15 past the cube of [3]: the
    # split's 4 excluded sets become 12, and its 4 members no longer fit
    monkeypatch.setattr(verify, "upset_bits", lambda n, bits: upset_bits(n, bits) | (255 << 8))
    a, b = fam(3, (1,), (1, 2)), fam(3, (3,), (2, 3))
    rep = _fact_ab_on(monkeypatch, [(a, b)])
    assert rep["failures"] == [{"a": a.to_jsonable(), "b": b.to_jsonable(), "size": 4, "excluded": 12}]
