import random
from fractions import Fraction

import pytest

from latticework.blym import (
    all_diamond_bound,
    blym_sum,
    detect_diamond,
    diamond_blym_sum,
    diamond_profile,
    family_diamonds,
)
from latticework.constructions import sharp_family
from latticework.core import (
    DomainError,
    PreconditionError,
    SetFamily,
    binomial,
    full_cube,
    layer_masks,
)
from latticework.sampling import random_all_diamond_family


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


def test_family_diamonds_splits_components():
    fam = sharp_family(4, 1)
    ds = family_diamonds(fam)
    assert len(ds) == binomial(3, 1)
    assert all(d.height == 1 for d in ds)
    with pytest.raises(PreconditionError):
        family_diamonds(SetFamily.from_sets(3, [(1,), (1, 2), (2,)]))  # a vee, no top


def test_diamond_profile_counts():
    prof = diamond_profile(sharp_family(4, 2))
    assert prof.member_total() == len(sharp_family(4, 2))
    # both components sit with bottom on layer 1 and height 2
    assert prof.as_dict() == {(1, 2): 2}


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


def test_all_diamond_bound_values():
    # 2^k times the middle binomial of the quotient cube
    assert all_diamond_bound(4, 1) == 2 * binomial(3, 1)
    assert all_diamond_bound(5, 0) == binomial(5, 2)
    assert all_diamond_bound(6, 2) == 4 * binomial(4, 2)
    with pytest.raises(DomainError):
        all_diamond_bound(3, 4)
