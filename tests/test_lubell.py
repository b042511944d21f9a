import random
from fractions import Fraction
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from latticework.constructions import detect_diamond
from latticework.core import (
    DomainError,
    ResourceLimitError,
    SetFamily,
    comparability_graph,
    full_cube,
    layer_masks,
)
from latticework.lubell import (
    average_meet_count,
    diamond_meet_count,
    lubell,
    lubell_by_permutations,
    meet_profile,
)
from latticework.sampling import random_all_diamond_family, random_family


def test_lubell_hand_values():
    assert lubell(SetFamily.from_masks(3, ())) == 0
    assert lubell(SetFamily.from_masks(4, layer_masks(4, 2))) == 1
    assert lubell(full_cube(2)) == 3  # n+1 on the whole cube
    sharp31 = SetFamily.from_sets(3, [(1,), (2,), (1, 3), (2, 3)])
    assert lubell(sharp31) == Fraction(4, 3)


def test_meet_profile_hand_counts():
    # {{1},{1,2}} in [3]: only the chain 1,2,3 hits both; 1,3,2 and
    # 2,1,3 hit exactly one; the other three miss entirely.
    fam = SetFamily.from_sets(3, [(1,), (1, 2)])
    prof = meet_profile(fam)
    assert prof.counts == (3, 2, 1, 0, 0)
    assert prof.meeting_count == 3
    assert sum(prof.counts) == factorial(3)
    # conditioned on meeting at all: (2 + 1 + 1) / 3
    assert average_meet_count(fam) == Fraction(4, 3)
    assert lubell(fam) == Fraction(2, 3)


def test_meet_profile_full_cube_meets_everywhere():
    prof = meet_profile(full_cube(3))
    # every chain has all n+1 prefixes inside the family
    assert prof.counts[4] == factorial(3)
    assert sum(prof.counts[:4]) == 0


def test_closed_form_matches_permutation_enumeration():
    rng = random.Random(7)
    for n in range(2, 7):
        for _ in range(60):
            fam = random_family(rng, n, rng.randrange(0, 1 << n))
            assert lubell(fam) == lubell_by_permutations(fam)


def _per_prefix_profile(fam):
    """The reference walk: one membership test per prefix per chain."""
    n, members = fam.n, fam.member_set
    counts = [0] * (n + 2)
    for perm in permutations(range(n)):
        prefix = 0
        t = 1 if 0 in members else 0
        for b in perm:
            prefix |= 1 << b
            if prefix in members:
                t += 1
        counts[t] += 1
    return tuple(counts)


def test_meet_profile_matches_per_prefix_walk():
    rng = random.Random(15)
    for n in range(1, 9):
        top = (1 << n) - 1
        fams = [SetFamily.from_masks(n, masks) for masks in ((), (0,), (top,), (0, top))]
        fams.append(full_cube(n))
        fams += [random_family(rng, n, rng.randrange(top + 2)) for _ in range(30 if n < 8 else 6)]
        for fam in fams:
            assert meet_profile(fam).counts == _per_prefix_profile(fam), (n, fam.members)
    # past n = 8 the chains are split at their first element
    for size in (3, 200):
        fam = random_family(rng, 9, size)
        assert meet_profile(fam).counts == _per_prefix_profile(fam), size


def test_streaming_meet_profile_matches_closed_form():
    # n = 9 adds up the profiles of nine links at n = 8;
    # n = 10 is checked in test_meet_profile_at_ten
    rng = random.Random(9)
    fams = [SetFamily.from_masks(9, (0, 0b11, 0b111000, 511))]
    fams += [random_family(rng, 9, size) for size in (40, 300)]
    profiles = [meet_profile(fam) for fam in fams]
    for fam, prof in zip(fams, profiles):
        assert sum(prof.counts) == factorial(9)
        assert Fraction(prof.weighted_total, factorial(9)) == lubell(fam)
    # every chain starts at the empty set, a member of the first family
    assert profiles[0].counts[0] == 0


def _diamonds(fam):
    """The interval of each component of an all-diamond family."""
    return [detect_diamond(c) for c in comparability_graph(fam).component_members]


def test_meet_profile_at_ten():
    rng = random.Random(10)
    fam = random_family(rng, 10, 300)
    prof = meet_profile(fam)
    assert sum(prof.counts) == factorial(10)
    assert Fraction(prof.weighted_total, factorial(10)) == lubell(fam)
    # a chain meets at most one component of an all-diamond family
    fam = random_all_diamond_family(rng, 10, target_components=4)
    assert len(fam) > 0
    total = sum(diamond_meet_count(d.bottom, d.top, 10) for d in _diamonds(fam))
    assert total == meet_profile(fam).meeting_count


def test_enumeration_cap():
    with pytest.raises(ResourceLimitError):
        meet_profile(SetFamily.from_masks(11, (1,)))


def test_diamond_meet_count_identity():
    # summing the per-component closed form reproduces the enumerated
    # meeting count: a chain meets at most one component of the family.
    rng = random.Random(11)
    for n in range(3, 7):
        for _ in range(25):
            fam = random_all_diamond_family(rng, n, target_components=rng.randrange(1, n))
            if len(fam) == 0:
                continue
            total = sum(
                diamond_meet_count(d.bottom, d.top, n) for d in _diamonds(fam)
            )
            assert total == meet_profile(fam).meeting_count


def test_diamond_meet_count_hand_value():
    # interval [{1}, {1,2}] in [3]: chains 1<12<123, 1<13<123, 2<12<123
    assert diamond_meet_count(0b001, 0b011, 3) == 3
    # a full diamond on [2]: every chain walks through it
    assert diamond_meet_count(0, 0b11, 2) == factorial(2)
    with pytest.raises(DomainError):
        diamond_meet_count(0b010, 0b001, 2)


@pytest.mark.parametrize("bottom, top, n", [(0, 0b111, 2), (0, 1, 0), (0, 1, -1), (0, -1, 3)])
def test_diamond_meet_count_refuses_an_interval_outside_the_ground(bottom, top, n):
    # factorial() of a negative size would raise a bare ValueError
    with pytest.raises(DomainError):
        diamond_meet_count(bottom, top, n)


PEAK_PROBE = """
import json


def high_water():
    # VmHWM is this process's peak resident size in KiB.  ru_maxrss would
    # start at the pytest process's size, which Linux carries across exec
    for line in open("/proc/self/status"):
        if line.startswith("VmHWM:"):
            return int(line.split()[1])


from latticework.lubell import _prefix_columns

before = high_water()
_prefix_columns(8)
print(json.dumps([before, high_water()]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").is_file(), reason="reads VmHWM")
def test_prefix_columns_build_without_a_peak(run_python):
    # the 9 columns of [8] take 363 KB; building them from those of [7]
    # must not hold the 8! permutations at once
    before, after = run_python("-c", PEAK_PROBE, timeout=60)
    assert after - before < 2048
