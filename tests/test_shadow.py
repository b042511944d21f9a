import random
import time
from math import comb

import pytest

from latticework.core import (
    DomainError,
    PreconditionError,
    ResourceLimitError,
    SetFamily,
    layer_masks,
    shade_bits,
    shadow_bits,
)
from latticework.shadow import (
    boundary_report,
    down_closure,
    kk_cascade,
    kk_shadow_bound,
    lower_shadow,
    technical_bound_check,
    up_closure,
)
from latticework.constructions import disconnected_extremal
from latticework.core import comparability_graph
from latticework.search import disconnected_splits


def fam(n, *sets):
    return SetFamily.from_sets(n, sets)


def test_down_closure():
    assert len(down_closure(fam(2, (1, 2)))) == 4
    assert down_closure(fam(2, (1,))).to_sets() == [(), (1,)]
    assert len(down_closure(fam(3, (1, 2), (2, 3)))) == 6
    empty = SetFamily.from_masks(3, ())
    assert down_closure(empty) == empty


def test_up_closure():
    assert len(up_closure(fam(3, ()))) == 8
    assert up_closure(fam(2, (1,))).to_sets() == [(1,), (1, 2)]
    assert len(up_closure(fam(3, (1,), (2,)))) == 6
    empty = SetFamily.from_masks(3, ())
    assert up_closure(empty) == empty


def test_lower_shadow():
    full2 = SetFamily.from_masks(3, layer_masks(3, 2))
    assert lower_shadow(full2) == SetFamily.from_masks(3, layer_masks(3, 1))
    assert lower_shadow(fam(2, (1, 2))).to_sets() == [(1,), (2,)]
    three = fam(4, (1, 2), (1, 3), (2, 3))
    assert len(lower_shadow(three)) == 3  # meets the cascade bound exactly
    empty = SetFamily.from_masks(3, ())
    assert lower_shadow(empty) == empty
    with pytest.raises(DomainError):
        lower_shadow(fam(3, (1,), (1, 2)))  # mixed layers
    with pytest.raises(DomainError):
        lower_shadow(fam(3, ()))  # layer 0 has no shadow


def test_cascade_representation():
    assert kk_cascade(3, 2).terms == ((3, 2),)
    assert kk_cascade(4, 2).terms == ((3, 2), (1, 1))
    assert kk_cascade(5, 3).terms == ((4, 3), (2, 2))
    for m in range(1, 200):
        rep = kk_cascade(m, 4)
        assert rep.value == m
        tops = [t for t, _ in rep.terms]
        assert tops == sorted(tops, reverse=True) and len(set(tops)) == len(tops)
    with pytest.raises(DomainError):
        kk_cascade(0, 2)


def _linear_cascade(m, k):
    # the greedy cascade, each top found by raising it one at a time
    terms, rest = [], m
    for level in range(k, 0, -1):
        if not rest:
            break
        top = level
        while comb(top + 1, level) <= rest:
            top += 1
        terms.append((top, level))
        rest -= comb(top, level)
    return tuple(terms)


def test_cascade_matches_a_linear_scan():
    for k in range(1, 7):
        for m in range(1, 2001):
            assert kk_cascade(m, k).terms == _linear_cascade(m, k), (m, k)


def test_cascade_of_a_huge_m_takes_logarithmic_steps():
    # a linear scan would take about 1.4e10 steps at level 2
    started = time.perf_counter()
    rep = kk_cascade(10**20, 2)
    assert rep.value == 10**20
    assert rep.terms == ((14142135624, 2), (3266133124, 1))
    assert kk_shadow_bound(10**20, 2, 1) == 14142135625
    assert time.perf_counter() - started < 0.5


def test_shadow_bound_values():
    assert kk_shadow_bound(3, 2, 1) == 3
    assert kk_shadow_bound(1, 2, 1) == 2
    # m = k+1 sets of size k: add the family and all bound layers, the
    # down-closure floor 2^(k+1) - 1 appears
    k = 2
    m = k + 1
    assert m + sum(kk_shadow_bound(m, k, r) for r in range(1, k + 1)) == 2 ** (k + 1) - 1
    with pytest.raises(DomainError):
        kk_shadow_bound(3, 2, 0)
    with pytest.raises(DomainError):
        kk_shadow_bound(3, 2, 3)


def test_technical_bound_examples():
    assert technical_bound_check(fam(3, (1, 2), (1, 3), (2, 3)), "k_plus_one")
    assert len(down_closure(fam(3, (1, 2), (1, 3), (2, 3)))) == 7
    assert technical_bound_check(fam(4, (1, 2), (3, 4)), "k")
    assert technical_bound_check(fam(3, (1, 2), (1, 3)), "k")
    assert len(down_closure(fam(3, (1, 2), (1, 3)))) == 6  # tight
    # the mode fixes k from the cardinality; members must reach size k
    with pytest.raises(PreconditionError):
        technical_bound_check(fam(3, (1,), (2,), (3,)), "k_plus_one")  # k=2, sizes 1
    with pytest.raises(PreconditionError):
        technical_bound_check(fam(3, (1,), (2,)), "k")  # k=2, sizes 1
    with pytest.raises(DomainError):
        technical_bound_check(fam(3, (1, 2), (1, 3)), "nope")


def test_boundary_report_minimal_case():
    rep = boundary_report(fam(2, (1,)), fam(2, (2,)))
    assert SetFamily.from_jsonable(rep["fplus"]).to_sets() == [(1, 2)]
    assert SetFamily.from_jsonable(rep["fminus"]).to_sets() == [()]


def test_boundary_report_rejects_crossing_chains():
    with pytest.raises(PreconditionError):
        boundary_report(fam(3, (1,)), fam(3, (1, 2)))
    with pytest.raises(PreconditionError):
        boundary_report(SetFamily.from_masks(3, ()), fam(3, (1,)))


def test_split_sides_sharing_a_member_are_refused():
    # {2,3} lies on both sides: refused as a split, naming the shared member
    a, b = fam(4, (1,), (2, 3)), fam(4, (2, 3), (4,))
    with pytest.raises(PreconditionError, match="shared member 0x6"):
        boundary_report(a, b)


def _pairwise_split_refusal(a, b):
    """The refusal of a split from its definition: the first pair a scan meets."""
    for x in a.members:
        for y in b.members:
            if x == y:
                return f"shared member {x:#x}: not a disconnected split"
            if x & y in (x, y):
                return f"cross-comparable pair {x:#x} vs {y:#x}: not a disconnected split"
    return None


def test_split_refusal_matches_pairwise_scan():
    rng = random.Random(20261019)
    kinds = set()
    for _ in range(3000):
        n = rng.randint(2, 6)
        a, b = (
            SetFamily.from_masks(n, sorted(rng.sample(range(1 << n), rng.randint(1, 3))))
            for _ in range(2)
        )
        want = _pairwise_split_refusal(a, b)
        try:
            rep = boundary_report(a, b)
        except PreconditionError as exc:
            got = str(exc)
        else:
            got = None
            assert rep["fplus"]["sets"] and rep["fminus"]["sets"]
        assert got == want, (a, b)
        kinds.add(want and want.split()[0])
    assert kinds == {None, "shared", "cross-comparable"}


def test_large_split_is_checked_without_testing_pairs(run_python):
    # layer 8 of [16] split by element 1: 6,435 members a side, about 4e7
    # pairs to test one by one; a child process, so a slow check times out
    code = """
import json
from latticework.core import SetFamily, layer_masks
from latticework.shadow import boundary_report
layer = layer_masks(16, 8)
a = SetFamily.from_masks(16, [m for m in layer if m & 1])
b = SetFamily.from_masks(16, [m for m in layer if not m & 1])
rep = boundary_report(a, b)
print(json.dumps([rep["family_size"], rep["excluded_count"], rep["bound_holds"]]))
"""
    assert run_python("-c", code, timeout=4) == [12870, 52666, True]


def test_boundary_nonempty_on_any_valid_split():
    rep = boundary_report(fam(3, (1, 2)), fam(3, (3,)))
    assert len(rep["fplus"]["sets"]) >= 1 and len(rep["fminus"]["sets"]) >= 1


def test_boundary_report_excluded_count_values():
    assert boundary_report(fam(2, (1,)), fam(2, (2,)))["excluded_count"] == 2
    ext4 = disconnected_extremal(4)
    g = comparability_graph(ext4)
    a = g.component_family(0)
    b = g.component_family(1)
    assert boundary_report(a, b)["excluded_count"] == 6


def test_boundary_report_shape():
    rep = boundary_report(fam(3, (1, 2)), fam(3, (3,)))
    assert rep["bound_holds"]
    assert rep["excluded_count"] == rep["up_closure_of_fplus"] + rep["down_closure_of_fminus"]
    assert rep["family_size"] == 2


def _random_splits(rng, count):
    """Seeded valid splits at n <= 8: the components of a random family of
    proper nonempty sets, dealt to two nonempty sides."""
    made = 0
    while made < count:
        n = rng.randint(2, 8)
        masks = rng.sample(range(1, (1 << n) - 1), rng.randint(2, min(12, (1 << n) - 2)))
        comps = comparability_graph(SetFamily.from_masks(n, sorted(masks))).component_members
        if len(comps) < 2:
            continue
        side = [True, *(rng.random() < 0.5 for _ in comps[2:]), False]
        a = [m for c, s in zip(comps, side) if s for m in c]
        b = [m for c, s in zip(comps, side) if not s for m in c]
        made += 1
        yield SetFamily.from_masks(n, sorted(a)), SetFamily.from_masks(n, sorted(b))


def test_boundary_report_regions_are_the_closures_of_fplus_and_fminus():
    # the report reads ↑F⁺ and ↓F⁻ as the sets outside ↓F and ↑F; check that
    # against the closures of F⁺ and F⁻ themselves
    maximal = [s for n in range(2, 6) for s in disconnected_splits(n, None)]
    for a, b in maximal + list(_random_splits(random.Random(29), 300)):
        rep = boundary_report(a, b)
        up = len(up_closure(SetFamily.from_jsonable(rep["fplus"])))
        down = len(down_closure(SetFamily.from_jsonable(rep["fminus"])))
        assert rep["up_closure_of_fplus"] == up, (a, b)
        assert rep["down_closure_of_fminus"] == down, (a, b)
        assert rep["excluded_count"] == up + down, (a, b)


def test_cube_bitsets_refuse_grounds_past_the_closure_cap():
    # a shadow, like a closure, is computed on 2^n-bit integers
    for kernel in (shadow_bits, shade_bits):
        with pytest.raises(ResourceLimitError):
            kernel(21, 1)
    with pytest.raises(ResourceLimitError):
        lower_shadow(fam(24, (1,), (2,)))
    with pytest.raises(ResourceLimitError):
        boundary_report(fam(63, (1,)), fam(63, (2,)))
