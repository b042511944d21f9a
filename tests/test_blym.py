import random
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from latticework.blym import all_diamond_bound, blym_sum, diamond_blym_sum, diamond_profile
from latticework.constructions import _diamond_census, certify, detect_diamond, sharp_family
from latticework import blym
from latticework.core import (
    DomainError,
    PreconditionError,
    SetFamily,
    VerificationError,
    comparability_graph,
    full_cube,
    layer_masks,
)
from latticework.sampling import random_all_diamond_family
from reference import interval_sum, is_interval, span


def test_blym_sum_values():
    assert blym_sum(SetFamily.from_masks(4, layer_masks(4, 2))) == 1
    assert blym_sum(SetFamily.from_sets(4, [(1,), (2, 3)])) == Fraction(1, 4) + Fraction(1, 6)
    assert blym_sum(SetFamily.from_masks(3, ())) == 0
    with pytest.raises(PreconditionError):
        blym_sum(SetFamily.from_sets(3, [(1,), (1, 2)]))


def test_detect_diamond():
    interval = SetFamily.from_sets(3, [(1,), (1, 2), (1, 3), (1, 2, 3)])
    d = detect_diamond(interval)
    assert (d.bottom, d.top) == (0b001, 0b111)
    assert d.height == 2
    assert detect_diamond(interval.members) == d
    # missing one corner: not an interval
    assert detect_diamond(interval.remove(0b011)) is None
    single = detect_diamond(SetFamily.from_sets(3, [(2,)]))
    assert (single.bottom, single.top) == (0b010, 0b010)
    assert detect_diamond(SetFamily.from_masks(3, ())) is None


def _assert_census_matches_detect_diamond(fam, heights=()):
    # the mapped census, certify's diamond check and diamond_profile against
    # detect_diamond one component at a time; returns whether all are diamonds
    graph = comparability_graph(fam)
    components = graph.component_members
    found = [detect_diamond(c) for c in components]
    meets, joins, census_heights, gap = _diamond_census(components)
    assert len(meets) == len(joins) == len(census_heights) == len(components)
    for c, d, meet, join, h in zip(components, found, meets, joins, census_heights):
        # detect_diamond reads the census, so the oracle reads the definitions
        assert (meet, join) == span(c)
        assert (d is not None) == is_interval(c)
        if d is not None:
            assert (meet, join, h) == (d.bottom, d.top, d.height)
        assert h == (meet ^ join).bit_count()
    first = next((i for i, d in enumerate(found) if d is None), None)
    assert gap == first
    for want in (True, *({"height": h} for h in heights)):
        want_h = want["height"] if isinstance(want, dict) else None
        expect = all(d is not None and (want_h is None or d.height == want_h) for d in found)
        (check,) = certify(fam, {"diamond_components": want}).checks
        assert check.passed is check.actual is expect
    if first is None:
        census = Counter((meet.bit_count(), (meet ^ join).bit_count())
                         for meet, join in map(span, components))
        assert diamond_profile(fam).counts == tuple(sorted(k + (v,) for k, v in census.items()))
        assert diamond_blym_sum(fam) == interval_sum(fam.n, components)
    else:
        part = graph.component_family(first).to_sets()
        with pytest.raises(PreconditionError) as err:
            diamond_profile(fam)
        assert str(err.value) == f"component {part} is not a diamond"
    return first is None


def test_diamond_census_matches_detect_diamond():
    rng = random.Random(20261019)
    all_diamond = 0
    for n in range(1, 9):
        for _ in range(40):
            size = rng.randint(1, min(1 << n, 40))
            fam = SetFamily.from_masks(n, rng.sample(range(1 << n), size))
            all_diamond += _assert_census_matches_detect_diamond(fam, heights=range(n + 1))
    # most of the 320 random families have a component that is not a diamond
    assert 0 < all_diamond < 160
    for n in range(1, 13):
        for k in range(n + 1):
            for ceil in {False, (n - k) % 2 == 1}:
                fam = sharp_family(n, k, ceil)
                assert _assert_census_matches_detect_diamond(fam, heights=(k, k + 1))
    for n in range(3, 8):
        for _ in range(30):
            fam = random_all_diamond_family(rng, n, target_components=rng.randrange(1, n + 2))
            assert _assert_census_matches_detect_diamond(fam, heights=range(4))
    assert _diamond_census(()) == ([], [], [], None)
    assert _assert_census_matches_detect_diamond(SetFamily.from_masks(4, ()), heights=(0, 2))


def test_diamond_profile_names_the_first_non_diamond_component():
    # components in least-member order: the diamond {{1}}, then {2,3} and
    # {3,4} below {2,3,4}, whose meet {3} is missing
    fam = SetFamily.from_sets(4, [(1,), (2, 3), (3, 4), (2, 3, 4)])
    with pytest.raises(PreconditionError) as err:
        diamond_profile(fam)
    assert str(err.value) == "component [(2, 3), (3, 4), (2, 3, 4)] is not a diamond"
    with pytest.raises(PreconditionError) as err:
        diamond_profile(SetFamily.from_sets(3, [(1,), (1, 2), (2,)]))  # a vee, no top
    assert str(err.value) == "component [(1,), (2,), (1, 2)] is not a diamond"


def test_diamond_profile_counts():
    prof = diamond_profile(sharp_family(4, 2))
    assert prof.member_total() == len(sharp_family(4, 2))
    # both components sit with bottom on layer 1 and height 2
    assert prof.counts == ((1, 2, 2),)
    # C(3, 1) components of height 1, bottoms on layer 1
    assert diamond_profile(sharp_family(4, 1)).counts == ((1, 1, 3),)


def test_diamond_blym_values():
    assert diamond_blym_sum(full_cube(3)) == 1  # one component, the whole cube
    assert diamond_blym_sum(SetFamily.from_masks(5, layer_masks(5, 2))) == 1
    for n in range(2, 10):
        for k in range(n + 1):
            assert diamond_blym_sum(sharp_family(n, k)) == 1


def test_diamond_blym_below_one_on_random_families():
    rng = random.Random(23)
    for n in range(4, 8):
        for _ in range(200):
            fam = random_all_diamond_family(rng, n, target_components=rng.randrange(1, n + 2))
            if len(fam):
                assert diamond_blym_sum(fam) <= 1


# Each re-check below is reached only by a kernel that returns a wrong
# answer, so each test plants one that does.

def test_blym_sum_recheck_fires_on_a_sum_past_one(monkeypatch):
    monkeypatch.setattr(blym, "lubell", lambda family: Fraction(2))
    with pytest.raises(VerificationError, match="^BLYM sum 2 of an antichain exceeds 1$"):
        blym_sum(SetFamily.from_sets(3, [(1,), (2,), (3,)]))


def test_diamond_profile_recheck_fires_on_a_census_that_miscounts(monkeypatch):
    def taller(components):
        meets, joins, heights, gap = _diamond_census(components)
        return meets, joins, [h + 1 for h in heights], gap

    monkeypatch.setattr(blym, "_diamond_census", taller)
    with pytest.raises(VerificationError,
                       match="^diamond census does not account for every member$"):
        diamond_profile(sharp_family(4, 1))


def test_diamond_blym_sum_recheck_fires_on_a_sum_past_one(monkeypatch):
    monkeypatch.setattr(blym, "binomial", lambda n, k: 1)
    with pytest.raises(VerificationError, match="^diamond BLYM sum 3 exceeds 1$"):
        diamond_blym_sum(sharp_family(4, 1))


def test_all_diamond_bound_values():
    # 2^k times the middle binomial of the quotient cube
    assert all_diamond_bound(4, 1) == 2 * comb(3, 1)
    assert all_diamond_bound(5, 0) == comb(5, 2)
    assert all_diamond_bound(6, 2) == 4 * comb(4, 2)
    with pytest.raises(DomainError):
        all_diamond_bound(3, 4)
