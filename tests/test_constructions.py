import random
from math import comb

import pytest

from latticework.blym import diamond_blym_sum
from latticework.constructions import (
    CLAIM_KEYS,
    Diamond,
    certify,
    diamond_claim,
    diamond_family,
    disconnected_claim,
    disconnected_extremal,
    disconnected_extremal_size,
    full_layer_pair,
    links_every_component,
    sharp_claim,
    sharp_family,
)
from latticework.core import (
    DomainError,
    ResourceLimitError,
    SetFamily,
    comparability_graph,
    height,
    mask_of,
)


def test_sharp_family_sizes():
    for n in range(1, 13):
        for k in range(n + 1):
            fam = sharp_family(n, k)
            assert len(fam) == (1 << k) * comb(n - k, (n - k) // 2)
            assert height(fam) == k


def test_sharp_family_component_structure():
    fam = sharp_family(4, 2)
    g = comparability_graph(fam)
    assert g.n_components == comb(2, 1)
    assert set(g.component_orders) == {4}
    assert min(fam.sizes()) == 1 and max(fam.sizes()) == 3


def test_sharp_and_diamond_families_match_their_definitions():
    for n in range(1, 9):
        for k in range(n + 1):
            for ceil_middle in (False, True):
                base = n - k
                mid = (base + 1) // 2 if ceil_middle else base // 2
                # the middle layer of [n-k], each set with every subset of the tail
                want = [m for m in range(1 << n) if (m & ((1 << base) - 1)).bit_count() == mid]
                assert sharp_family(n, k, ceil_middle).members == tuple(want), (n, k)
    for n in range(1, 5):
        for top in range(1 << n):
            for bottom in range(top + 1):
                if bottom & ~top:
                    continue
                want = [m for m in range(1 << n) if m & bottom == bottom and m | top == top]
                assert diamond_family(Diamond(bottom, top), n).members == tuple(want)


def test_sharp_ceil_middle_differs_only_on_odd_gap():
    assert sharp_family(5, 2) != sharp_family(5, 2, ceil_middle=True)
    assert sharp_family(6, 2) == sharp_family(6, 2, ceil_middle=True)


def test_diamond_family_is_the_full_interval():
    d = Diamond(mask_of([1]), mask_of([1, 2, 3]))
    fam = diamond_family(d, 4)
    assert len(fam) == 4  # 2^(height)
    assert all(m & d.bottom == d.bottom and m | d.top == d.top for m in fam)
    with pytest.raises(DomainError):
        diamond_family(Diamond(mask_of([2]), mask_of([1])), 3)
    # the ground size is checked before top is compared with 2^n
    for n in (-1, 0, 64, 10**20):
        with pytest.raises(DomainError):
            diamond_family(Diamond(0, 0b11), n)
    # 2^21 masks: refused before any is listed
    with pytest.raises(ResourceLimitError):
        diamond_family(Diamond(0, (1 << 21) - 1), 21)


def test_disconnected_extremal_values():
    assert [disconnected_extremal_size(n) for n in range(2, 6)] == [2, 4, 10, 22]
    for n in range(2, 7):
        fam = disconnected_extremal(n)
        assert len(fam) == disconnected_extremal_size(n)
        assert comparability_graph(fam).n_components == 2


def test_full_layer_pair():
    a, b = full_layer_pair(4, 1)
    assert set(a.sizes()) == {1} and set(b.sizes()) == {2}
    assert len(a) == 4 and len(b) == 6


def _assert_certified(fam, claim):
    report = certify(fam, claim)
    assert report.ok, report
    assert report.family_size == len(fam)
    # one check per claimed key, in CLAIM_KEYS order whatever the claim's
    # order, each against its claimed value
    assert [c.name for c in report.checks] == [k for k in CLAIM_KEYS if k in claim]
    assert [c.expected for c in report.checks] == [claim[c.name] for c in report.checks]
    assert certify(fam, dict(reversed(claim.items()))) == report


def test_certify_sharp_families():
    for n in range(1, 11):
        for k in range(n + 1):
            for ceil_middle in (False, True):
                _assert_certified(sharp_family(n, k, ceil_middle), sharp_claim(n, k, ceil_middle))


def test_certify_large_sharp_family_structured_path():
    # 13,728 members in 3,432 components: the search leaves most of them to
    # the plane labeller
    report = certify(sharp_family(16, 2), sharp_claim(16, 2))
    assert all(c.passed for c in report.checks)


def test_certify_structured_path_beyond_closure_cap():
    # beyond the closure cap the components come from testing every pair
    n = 22
    free = mask_of(range(12, 23))
    diamonds = [Diamond(mask_of(b), mask_of(b) | free) for b in ([1], [2], [1, 2, 3])]
    masks = [m for d in diamonds for m in diamond_family(d, n).members]
    claim = {"component_count": 2, "diamond_components": {"height": 11}}
    report = certify(SetFamily.from_masks(n, masks[: 2 << 11]), claim)
    assert report.ok
    # {1} lies below the top of [{1,2,3}, {1,2,3} + free]: not cover-linked, but comparable
    report = certify(SetFamily.from_masks(n, masks), claim)
    assert [c.name for c in report.failures()] == ["component_count", "diamond_components"]


def test_certify_disconnected():
    for n in range(2, 11):
        _assert_certified(disconnected_extremal(n), disconnected_claim(n))


def test_certify_diamond():
    for top in range(1 << 4):
        for bottom in range(top + 1):
            if not bottom & ~top:
                d = Diamond(bottom, top)
                _assert_certified(diamond_family(d, 4), diamond_claim(d))


@pytest.mark.parametrize("claim", [
    {"compnent_count": 999},
    {"size": 48, "height": 2},
    {"antichain": True},
    {"max_component_order": 4},
    {"diamond_components": {"hieght": 1}},
    {"diamond_components": {"height": 1, "bottom": 0}},
    {"diamond_components": {"height": True}},
    {"diamond_components": {}},
    {"diamond_components": False},
    {"diamond_components": 2},
])
def test_certify_refuses_unknown_keys_and_diamond_shapes(claim):
    with pytest.raises(DomainError):
        certify(sharp_family(6, 2), claim)


def test_certify_compares_every_boolean_claim():
    fam = disconnected_extremal(4)
    for key in ("disconnected", "rest_connected", "maximally_disconnected"):
        claim = {**disconnected_claim(4), key: False}
        (check,) = certify(fam, claim).failures()
        assert (check.name, check.expected) == (key, False)
    # a connected family may claim it is not disconnected
    report = certify(sharp_family(4, 4), {"disconnected": False, "maximally_disconnected": False})
    assert report.ok


def test_certify_rejects_tampered_family():
    fam = sharp_family(4, 1)
    broken = fam.remove(fam.members[0])
    report = certify(broken, sharp_claim(4, 1))
    assert not all(c.passed for c in report.checks)
    # a foreign member must also be flagged
    stuffed = SetFamily.from_masks(4, fam.members + (mask_of([1, 2, 3, 4]),))
    report = certify(stuffed, sharp_claim(4, 1))
    assert not all(c.passed for c in report.checks)


def test_sharp_families_are_tight_for_the_interval_sum():
    for n in range(2, 9):
        for k in range(n + 1):
            assert diamond_blym_sum(sharp_family(n, k)) == 1


def test_links_every_component_matches_single_additions():
    rng = random.Random(20241114)
    fams = [disconnected_extremal(n) for n in range(2, 6)]
    fams += [fam.remove(fam.members[-1]) for fam in fams]
    for n in range(2, 6):
        for _ in range(25):
            size = rng.randint(0, (1 << n) - 1)
            fams.append(SetFamily.from_masks(n, rng.sample(range(1 << n), size)))
    verdicts = set()
    for fam in fams:
        brute = all(
            comparability_graph(SetFamily.from_masks(fam.n, fam.members + (x,))).n_components == 1
            for x in range(1 << fam.n)
            if x not in fam
        )
        g = comparability_graph(fam)
        assert links_every_component(fam, g.component_members) == brute
        verdicts.add(brute)
    assert verdicts == {False, True}
