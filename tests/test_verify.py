from fractions import Fraction

import pytest

from latticework.constructions import sharp_family
from latticework.core import DomainError, SetFamily
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


def test_colouring_suite_passes():
    rep = verify_colouring(n=3, samples=30, seed=4)
    assert rep["passed"]
    rep = verify_colouring(n=4, k=1, samples=30, seed=4)
    assert rep["passed"]


def test_fact_ab_suite_passes():
    for n in (2, 3):
        rep = verify_fact_ab(n=n)
        assert rep["passed"], rep["failures"]
        assert rep["extremal_tight_count"] >= 1


def test_key_lemma_suite_passes():
    for n in (2, 3):
        rep = verify_key_lemma(n=n)
        assert rep["passed"], rep["failures"]
        assert rep["checked"] > 0


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


def test_reproduction_unknown_name():
    with pytest.raises(DomainError):
        run_reproduction("nonexistent")
