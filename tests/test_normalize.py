import random

import pytest

from latticework.core import SetFamily, comparability_graph, full_cube
from latticework import normalize
from latticework.normalize import (
    NormalizationError,
    find_skips,
    make_skipless,
    make_skipless_with_trace,
    skip_count,
)
from latticework.sampling import random_family, random_order_bounded_family
from reference import below, comparable, components, order, pairs, skips


def test_skip_detection_hand_case():
    fam = SetFamily.from_sets(3, [(), (1,), (1, 2, 3)])
    skips = find_skips(fam)
    assert skip_count(fam) == 5
    reported = {s.skip for s in skips}
    assert len(reported) == 5
    for s in skips:
        assert s.witness_below in fam.member_set
        assert s.witness_above in fam.member_set
        assert s.witness_below & s.skip == s.witness_below
        assert s.skip & s.witness_above == s.skip


def test_skip_witnesses_match_member_scans():
    # find_skips stops each witness scan early; the reference finds the skips
    # and their least members below and above by scanning every member
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 8)
        masks = rng.sample(range(1 << n), rng.randint(1, 1 << (n - 1)))
        fam = SetFamily.from_masks(n, sorted(masks))
        got = [(s.skip, s.witness_below, s.witness_above) for s in find_skips(fam)]
        assert got == skips(n, fam.members), (n, masks)


def test_skipless_families_have_no_skips():
    assert skip_count(full_cube(3)) == 0
    assert skip_count(SetFamily.from_sets(4, [(1,), (2,), (3, 4)])) == 0


def test_single_step_swaps_one_set():
    fam = SetFamily.from_sets(3, [(), (1,), (1, 2, 3)])
    _, (step, *_) = make_skipless_with_trace(fam, 3)
    assert step.added not in fam and step.removed in fam
    out = SetFamily.from_masks(3, fam.members + (step.added,)).remove(step.removed)
    assert len(out) == len(fam)
    assert skip_count(out) < skip_count(fam)


def test_make_skipless_hand_case():
    fam = SetFamily.from_sets(3, [(), (1,), (1, 2, 3)])
    out = make_skipless(fam, 3)
    assert len(out) == 3
    assert skip_count(out) == 0
    g = comparability_graph(out)
    assert g.n_components == 1 and g.max_component_order() == 3


def test_trace_replays_to_the_result():
    fam = SetFamily.from_sets(4, [(), (1,), (1, 2, 3), (1, 2, 3, 4)])
    out, steps = make_skipless_with_trace(fam, 4)
    current = fam
    for step in steps:
        current = SetFamily.from_masks(4, current.members + (step.added,)).remove(step.removed)
    assert current == out
    assert skip_count(out) == 0


def test_skipless_is_idempotent():
    fam = SetFamily.from_sets(4, [(1,), (1, 2), (3,)])
    assert make_skipless(fam, 2) == fam
    assert make_skipless_with_trace(full_cube(3), 8) == (full_cube(3), [])


def test_randomized_size_and_order_preservation():
    rng = random.Random(3)
    for n in range(3, 6):
        for _ in range(60):
            fam, t = random_order_bounded_family(rng, n)
            if len(fam) == 0:
                continue
            out = make_skipless(fam, t)
            assert len(out) == len(fam)
            assert skip_count(out) == 0
            assert comparability_graph(out).max_component_order() <= t


def _component(members, m):
    """The members of m's component in the comparability graph."""
    return next(c for c in components(members, pairs(members, comparable)) if m in c)


def _reference_skipless(fam, t):
    """The normalization written out from its definition, pairwise throughout.

    Returns the result and the (added, removed) steps.  Each step is checked
    to keep the skip's new component inside the old one with the skip
    swapped in for the removed member.
    """
    members, steps = fam.members, []
    while found := skips(fam.n, members):
        y = found[0][0]
        comp = set(_component(tuple(sorted({*members, y})), y)) - {y}
        maximal = [m for m in comp if not any(below(m, o) for o in comp)]
        x = max(maximal, key=lambda m: (m.bit_count(), -m))
        members = tuple(sorted(set(members) - {x} | {y}))
        assert len(skips(fam.n, members)) < len(found)
        assert order(members) <= t
        assert set(_component(members, y)) <= (comp - {x}) | {y}
        steps.append((y, x))
    return SetFamily.from_masks(fam.n, members), steps


def test_normalization_matches_the_reference_step():
    rng = random.Random(17)
    cases = [random_order_bounded_family(rng, 3 + i % 4) for i in range(300)]
    # flat draws at n = 7 and 8, each at density 1/8, 1/4 and 1/2
    rng = random.Random(23)
    flat = [random_family(rng, n, (1 << n) // share) for n in (7, 8) for share in (8, 4, 2)]
    orders = [order(fam.members) for fam in flat]
    assert orders[2::3] == [64, 128]  # at 1/2 one component holds every member
    cases += zip(flat, orders)
    # {1}, {2} and {3} meet only in {1, 2, 3}: the one step, adding {1, 2}
    # and removing {1, 2, 3}, splits their component in two
    cases.append((SetFamily.from_sets(3, [(1,), (2,), (3,), (1, 2, 3)]), 4))
    for fam, t in cases:
        want, want_steps = _reference_skipless(fam, t)
        out, steps = make_skipless_with_trace(fam, t)
        assert out == want
        assert [(s.added, s.removed) for s in steps] == want_steps
    assert want_steps == [(3, 7)] and len(components(want.members, pairs(want.members, comparable))) == 2


def test_the_step_rechecks_each_part_of_a_split_component():
    # the step on {1}, {2}, {3} and {1, 2, 3} adds {1, 2} = 3 and removes
    # {1, 2, 3}: the order check reads both parts of what is left
    bits = 1 << 1 | 1 << 2 | 1 << 3 | 1 << 4
    assert normalize._components_meeting(3, bits, 1 << 3, bits) == [0b1110, 0b10000]


def test_a_component_leaving_the_rewritten_one_raises(monkeypatch):
    real = normalize._components_meeting

    def leaky(n, bits, seed, region):
        # y's new component reports a foreign mask in place of its least
        # member, so its order still holds
        first, *rest = real(n, bits, seed, region)
        return [first ^ (first & -first) | 1 << (1 << n), *rest]

    monkeypatch.setattr(normalize, "_components_meeting", leaky)
    fam = SetFamily.from_sets(3, [(), (1,), (1, 2, 3)])
    with pytest.raises(NormalizationError, match="step 0: the component of"):
        make_skipless_with_trace(fam, 3)
