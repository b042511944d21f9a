import random

import pytest

from latticework.constructions import Diamond, diamond_family
from latticework.core import DomainError, SetFamily, comparability_graph, is_antichain
from latticework.normalize import skip_count
from latticework.sampling import (
    random_all_diamond_family,
    random_antichain,
    random_family,
    random_layer_pair,
    random_order_bounded_family,
)
from reference import comparable, is_interval


def test_seeding_is_reproducible():
    a = random_family(random.Random(5), 6, 20)
    b = random_family(random.Random(5), 6, 20)
    assert a == b and len(a) == 20


def test_random_antichain_is_an_antichain():
    rng = random.Random(1)
    for n in range(2, 8):
        for _ in range(40):
            fam = random_antichain(rng, n, attempts=rng.randrange(1, 3 * n))
            assert is_antichain(fam)


def test_all_diamond_family_components():
    rng = random.Random(3)
    for n in range(3, 8):
        for _ in range(30):
            fam = random_all_diamond_family(rng, n, target_components=rng.randrange(1, n + 1))
            if len(fam) == 0:
                continue
            assert all(map(is_interval, comparability_graph(fam).component_members))


def test_random_layer_pair_layers():
    rng = random.Random(4)
    for n in range(3, 7):
        for _ in range(30):
            k = rng.randrange(0, n)
            a, b = random_layer_pair(rng, n, k, density=0.6)
            assert all(m.bit_count() == k for m in a.members)
            assert all(m.bit_count() == k + 1 for m in b.members)


def test_order_bounded_family_respects_its_bound():
    rng = random.Random(6)
    for n in range(3, 7):
        for _ in range(50):
            fam, t = random_order_bounded_family(rng, n)
            if len(fam) == 0:
                continue
            assert comparability_graph(fam).max_component_order() <= t
            # the sampler may emit skips; normalization is tested elsewhere
            assert skip_count(fam) >= 0


# Reference copies of the samplers as they were written with randrange,
# shuffle and randint; the samplers must make the very same draws.
def _ref_antichain(rng, n, attempts):
    kept = []
    for _ in range(attempts):
        m = rng.randrange(1 << n)
        if m in kept:
            continue
        if all(not comparable(m, other) for other in kept):
            kept.append(m)
    return SetFamily.from_masks(n, kept)


def _ref_interval(rng, n):
    bottom = rng.randrange(1 << n)
    free = [i for i in range(n) if not (bottom >> i) & 1]
    rng.shuffle(free)
    extra = 0
    for i in free[: rng.randint(0, min(3, len(free)))]:
        extra |= 1 << i
    return Diamond(bottom, bottom | extra)


def _ref_all_diamond_family(rng, n, target_components):
    accepted = []
    for _ in range(6 * target_components):
        if len(accepted) == target_components:
            break
        d = _ref_interval(rng, n)
        ok = True
        for e in accepted:
            if (d.bottom & e.top) == d.bottom or (e.bottom & d.top) == e.bottom:
                ok = False
                break
        if ok:
            accepted.append(d)
    masks = []
    for d in accepted:
        masks.extend(diamond_family(d, n).members)
    return SetFamily.from_masks(n, masks)


def _ref_order_bounded_family(rng, n):
    style = rng.randrange(3)
    if style == 0:
        family = random_family(rng, n, rng.randint(0, max(1, (1 << n) // 2)))
    elif style == 1:
        masks = []
        for _ in range(rng.randint(1, 4)):
            d = _ref_interval(rng, n)
            masks.extend(diamond_family(d, n).members)
        family = SetFamily.from_masks(n, masks)
    else:
        family = _ref_antichain(rng, n, attempts=2 * n)
    if not family.members:
        return family, 1
    return family, comparability_graph(family).max_component_order()


def test_draws_match_the_random_methods():
    # every output and the generator state after every call
    for seed in range(500):
        ref, new = random.Random(seed), random.Random(seed)
        for n in range(1, 11):
            target = 1 + (seed // 6 + n) % 6
            calls = [
                (_ref_all_diamond_family, random_all_diamond_family, (n, target)),
                (_ref_antichain, random_antichain, (n, 2 * target)),
                (_ref_order_bounded_family, random_order_bounded_family, (n,)),
            ]
            for reference, sampler, args in calls:
                assert sampler(new, *args) == reference(ref, *args), (seed, sampler, args)
                assert new.getstate() == ref.getstate(), (seed, sampler, args)


BAD_GROUND = (-1, 0, 64, 10**20)


@pytest.mark.parametrize("n", BAD_GROUND)
def test_samplers_refuse_bad_ground_before_drawing(n):
    rng = random.Random(8)
    state = rng.getstate()
    calls = [
        lambda: random_family(rng, n, 1),
        lambda: random_antichain(rng, n, 3),
        lambda: random_all_diamond_family(rng, n, 2),
        lambda: random_layer_pair(rng, n, 0),
        lambda: random_order_bounded_family(rng, n),
    ]
    for call in calls:
        with pytest.raises(DomainError):
            call()
        assert rng.getstate() == state


@pytest.mark.parametrize("size", [-1, -8, 9, 10**20])
def test_random_family_refuses_bad_sizes_before_drawing(size):
    rng = random.Random(8)
    state = rng.getstate()
    with pytest.raises(DomainError):
        random_family(rng, 3, size)
    assert rng.getstate() == state
    # both ends of 0..2^n are drawn
    assert random_family(rng, 3, 0) == SetFamily(3, ())
    assert random_family(rng, 3, 8) == SetFamily(3, tuple(range(8)))


def test_layer_pair_refuses_a_top_layer_before_drawing():
    rng = random.Random(8)
    state = rng.getstate()
    with pytest.raises(DomainError):
        random_layer_pair(rng, 4, 4)
    assert rng.getstate() == state


EMPTY_RANGE_PROBE = """
import random
from latticework.sampling import _below

rng = random.Random(8)
state = rng.getstate()
calls = [
    "_below(rng.getrandbits, 0)",
    "_below(rng.getrandbits, -3)",
]
print(json.dumps([x for call in calls for x in (outcome(call), rng.getstate() == state)]))
"""


def test_an_empty_draw_range_is_refused_before_drawing(run_probe):
    # getrandbits(0) is 0, so an unguarded draw below 0 never ends: run it
    # in a child process, where a lost guard fails on the timeout
    assert run_probe(EMPTY_RANGE_PROBE, timeout=20) == ["DomainError", True] * 2
