import inspect
import random
from functools import cache
from math import comb

import pytest

import latticework
from latticework import core
from latticework.constructions import (
    disconnected_extremal,
    sharp_claim,
    sharp_family,
)
from latticework.core import (
    CLOSURE_GROUND_CAP,
    PAIRWISE_MEMBER_CAP,
    DomainError,
    ResourceLimitError,
    SetFamily,
    _closure_components,
    _group,
    _lane_below_counts,
    _plane_labels,
    _reach_closure,
    _steps,
    binomial,
    bits_to_family,
    comparability_graph,
    count_two_chains,
    downset_bits,
    elements_of,
    family_bits,
    full_cube,
    height,
    is_antichain,
    iter_bits,
    layer_masks,
    mask_of,
    shade_bits,
    shadow_bits,
    upset_bits,
)
from latticework.normalize import make_skipless_with_trace
from latticework.shadow import lower_shadow
from graph_oracle import check_graphs
from reference import below, comparable, components, pairs


def test_mask_round_trip():
    for elems in [(), (1,), (2, 5), (1, 2, 3, 10)]:
        assert elements_of(mask_of(elems)) == elems
    assert mask_of([3, 1]) == mask_of([1, 3])
    with pytest.raises(DomainError):
        mask_of([0])


def test_family_construction_and_validation():
    fam = SetFamily.from_sets(3, [{1, 2}, {1}, {1, 2}])
    # duplicates collapse, members sorted by mask value
    assert fam.members == (1, 3)
    assert len(fam) == 2
    assert 3 in fam and 2 not in fam
    with pytest.raises(DomainError):
        SetFamily.from_masks(2, (4,))
    # the members ascend, so the error names the largest
    with pytest.raises(DomainError, match="mask 6 does not fit"):
        SetFamily.from_masks(2, (1, 4, 6))
    with pytest.raises(DomainError):
        SetFamily(2, (3, 1))  # unsorted raw tuple rejected
    # every member is checked, not only the count and the largest
    for members in ((0, 2, 1, 3), (0, 1, 1, 3)):
        with pytest.raises(DomainError, match="^members must be strictly increasing masks$"):
            SetFamily(2, members)


def test_family_json_round_trip():
    fam = SetFamily.from_sets(4, [(), (2,), (1, 3), (1, 2, 3, 4)])
    again = SetFamily.from_jsonable(fam.to_jsonable())
    assert again == fam
    assert SetFamily.from_json(fam.to_json()) == fam
    assert fam.digest() == again.digest()
    assert fam.digest() != SetFamily.from_masks(4, fam.members + (4,)).digest()


@pytest.mark.parametrize(
    "obj, bad",
    [
        ({"n": 3, "sets": [[1.5]]}, "1.5"),
        ({"n": 3, "sets": [[True, 2]]}, "True"),
        ({"n": 3, "sets": [[1], "12"]}, "'12'"),
        ({"n": 3, "sets": 7}, "7"),
        ({"n": "3", "sets": [[1]]}, "'3'"),
    ],
)
def test_family_json_rejects_non_integer_elements(obj, bad):
    with pytest.raises(DomainError, match=bad):
        SetFamily.from_jsonable(obj)


def test_relabel_is_an_action():
    fam = SetFamily.from_sets(3, [(1,), (1, 2)])
    swapped = fam.relabel((2, 1, 3))
    assert swapped.to_sets() == [(2,), (1, 2)]
    assert swapped.relabel((2, 1, 3)) == fam
    with pytest.raises(DomainError):
        fam.relabel((1, 1, 3))


def test_comparability_graph_joins_pairs_that_are_not_covers():
    fam = SetFamily.from_sets(3, [(), (1,), (1, 2), (3,)])
    g = comparability_graph(fam)
    # {} < {1} < {1,2} all pairwise comparable, {3} comparable to {} only
    assert count_two_chains(fam) == 4
    assert g.component_sizes == (4,)
    assert g.n_components == 1 and g.max_component_order() == 4
    # the {} < {1,2} pair is an edge, though not a cover (size gap 2)
    assert sum((x ^ y).bit_count() == 1 for x in fam for y in fam if x < y) == 3


def test_component_decomposition():
    fam = SetFamily.from_sets(4, [(1,), (1, 2), (3,), (4,)])
    g = comparability_graph(fam)
    assert g.n_components == 3
    assert sorted(g.component_orders) == [1, 1, 2]
    families = [g.component_family(c) for c in range(g.n_components)]
    assert sorted(len(f) for f in families) == [1, 1, 2]


def test_height_and_two_chains():
    assert height(SetFamily.from_sets(3, [(1,), (2, 3)])) == 1
    assert height(full_cube(2)) == 2
    assert count_two_chains(full_cube(2)) == 5
    assert count_two_chains(SetFamily.from_masks(3, layer_masks(3, 1))) == 0
    with pytest.raises(DomainError):
        height(SetFamily.from_masks(3, ()))


def test_is_antichain():
    assert is_antichain(SetFamily.from_masks(4, layer_masks(4, 2)))
    assert not is_antichain(full_cube(2))
    assert is_antichain(SetFamily.from_masks(4, ()))


def test_layer_masks_and_binomial():
    assert [m.bit_count() for m in layer_masks(5, 2)] == [2] * comb(5, 2)
    assert binomial(4, 2) == 6
    assert binomial(4, 5) == 0 and binomial(4, -1) == 0


def test_layer_masks_refuses_layers_past_the_cap():
    # C(22, 11) = 705,432 masks fit under 2^20; C(23, 11) = 1,352,078 do not
    assert len(layer_masks(22, 11)) == comb(22, 11)
    with pytest.raises(ResourceLimitError):
        layer_masks(23, 11)


def test_full_cube():
    cube = full_cube(3)
    assert len(cube) == 8
    assert height(cube) == 3


def test_bitset_round_trip_and_closures():
    fam = SetFamily.from_sets(3, [(1,), (2, 3)])
    bits = family_bits(fam)
    assert bits_to_family(3, bits) == fam
    down = downset_bits(3, bits)
    # downset of {1} and {2,3}: {}, {1}, {2}, {3}, {2,3}
    assert bits_to_family(3, down).to_sets() == [(), (1,), (2,), (3,), (2, 3)]
    up = upset_bits(3, bits)
    assert bits_to_family(3, up).to_sets() == [
        (1,),
        (1, 2),
        (1, 3),
        (2, 3),
        (1, 2, 3),
    ]
    # the four sweeps against their per-mask definitions, on the empty
    # bitset, the full cube and seeded bitsets of several densities
    rng = random.Random(20261020)
    for n in range(1, 9):
        cube = range(1 << n)
        cases = [0, (1 << (1 << n)) - 1]
        for density in (1, 4, 16):
            cases.append(family_bits([m for m in cube if rng.randrange(density) == 0]))
        for bits in cases:
            ms = iter_bits(bits)
            assert downset_bits(n, bits) == family_bits(
                [y for y in cube if any(y == x or below(y, x) for x in ms)])
            assert upset_bits(n, bits) == family_bits(
                [y for y in cube if any(y == x or below(x, y) for x in ms)])
            # one element away: a proper subset with one element fewer
            assert shadow_bits(n, bits) == family_bits(
                [y for y in cube if any(below(y, x) and (x ^ y).bit_count() == 1 for x in ms)])
            assert shade_bits(n, bits) == family_bits(
                [y for y in cube if any(below(x, y) and (x ^ y).bit_count() == 1 for x in ms)])
    # positions past the cube pass through the closures and drop out of the
    # one-step sweeps, so a down-sweep may shift before it masks
    for n in range(1, 9):
        past = family_bits(rng.sample(range(1 << n, 2 << n), rng.randint(1, 1 << n)))
        for bits in (0, family_bits(rng.sample(range(1 << n), rng.randint(1, 1 << n)))):
            assert downset_bits(n, bits | past) == downset_bits(n, bits) | past
            assert upset_bits(n, bits | past) == upset_bits(n, bits) | past
            assert shadow_bits(n, bits | past) == shadow_bits(n, bits)
            assert shade_bits(n, bits | past) == shade_bits(n, bits)


def test_reach_closure_matches_reference():
    # the closure of seeds inside bits is the seeds and every reference
    # component of bits that they meet.  Two adjacent layers and sparse draws
    # give long zigzag paths; single seeds are often maximal, so the first
    # (upward) half-step adds nothing while the closure still grows
    rng = random.Random(20261021)
    cases = 0
    for n in range(1, 11):
        cube = 1 << n
        draws = [[m for m in range(cube) if rng.randrange(density) == 0] for density in (2, 6)]
        draws.append(rng.sample(range(cube), min(cube, 2 * n)))
        k = n // 2
        draws.append([m for m in range(cube) if m.bit_count() in (k, k + 1) and rng.randrange(3)])
        for ms in draws:
            ms = sorted(ms)[:300]
            want = components(ms, pairs(ms, comparable))
            bits = family_bits(ms)
            seed_sets = [[]]
            seed_sets += [[rng.choice(ms)] for _ in range(3)] if ms else []
            seed_sets += [rng.sample(ms, min(len(ms), 3))]
            for seeds in seed_sets:
                closure, _ = _reach_closure(n, family_bits(seeds), bits)
                met = [m for c in want if set(c) & set(seeds) for m in c]
                assert closure == family_bits(seeds + met), (n, ms, seeds)
                cases += len(met) > len(seeds)
    assert cases >= 100


@pytest.fixture
def labelled(monkeypatch):
    """The member count of each bitset the closure route hands `_plane_labels`."""
    calls = []

    def spy(n, bits, planes):
        calls.append(bits.bit_count())
        return _plane_labels(n, bits, planes)

    monkeypatch.setattr(core, "_plane_labels", spy)
    return calls


def _plane_components(n, bits):
    # the members of bits grouped by the labels `_plane_labels` writes into
    # its planes, each label checked to be its component's least member
    planes = [0] * n
    _plane_labels(n, bits, planes)
    members = iter_bits(bits)
    labels = [sum((p >> m & 1) << t for t, p in enumerate(planes)) for m in members]
    groups = _group(members, labels)
    label_of = dict(zip(members, labels))
    assert all(label_of[m] == ms[0] for ms in groups for m in ms)
    return groups


def _assert_closure_route(fam, labelled):
    # the graph against the reference, then the closure route called
    # directly, so small families take it too.  Returns the reference's
    # edges, its components and what the route labelled
    edges, want = check_graphs(fam)
    labelled.clear()
    got = _closure_components(fam)
    assert got == want
    # each member is one of the family's objects, not an equal copy
    own = {id(m) for m in fam.members}
    assert all(id(m) in own for c in got for m in c)
    return edges, want, labelled[:]


def _assert_matches_pairwise(fam, labelled):
    # the closure route as above, and the plane labeller and the lane
    # counts called on the whole family
    edges, want, calls = _assert_closure_route(fam, labelled)
    assert sorted(_plane_components(fam.n, family_bits(fam))) == want
    # members strictly inside each member, counted at the larger of each pair
    below = [0] * len(fam)
    sizes = fam.sizes()
    for i, j in edges:
        below[j if sizes[j] > sizes[i] else i] += 1
    assert _lane_below_counts(fam) == below
    return edges, want, calls


@cache
def _graph_families():
    """The families of the component tests by case, each built once and
    checked by one test."""
    rng = random.Random(20241112)
    families = {"random": [full_cube(5)]}
    for n in range(1, 9):
        for _ in range(40):
            size = rng.randint(0, min(1 << n, 60))
            families["random"].append(SetFamily.from_masks(n, rng.sample(range(1 << n), size)))

    # every construction of at most 2,048 members
    sharp = {(n, k, ceil): sharp_family(n, k, ceil) for n in range(1, 17) for k in range(n + 1)
             # the two middles coincide when n - k is even
             for ceil in {False, (n - k) % 2 == 1} if sharp_claim(n, k, ceil)["size"] <= 2048}
    extremal = {n: disconnected_extremal(n) for n in range(2, 13)}
    # The reach-closures take every component of these before their steps
    # reach n, so the plane labeller is never called.  The first two are the
    # 10-cube and the middle layer of [12]
    families["none left"] = [
        sharp.pop((10, 10, False)), sharp.pop((12, 0, False)),
        *[extremal.pop(n) for n in range(8, 13)],
        *[sharp.pop((12, k, False)) for k in (9, 10, 11)], sharp_family(12, 12),
    ]
    families["constructions"] = [*extremal.values(), *sharp.values()]

    # 300 two-member components at n = 16: the search stops once its steps
    # reach n and leaves the members left to the plane labeller
    rng = random.Random(20241115)
    chains = [m for b in rng.sample(layer_masks(15, 7), 300) for m in (b, b | 1 << 15)]
    families["many small"] = SetFamily.from_masks(16, chains)

    # 2-chains B < B + {n} (B in one layer of [n - 1]) are pairwise
    # incomparable, and a few random sets join some of them up: more
    # components than the search takes before it stops at n steps, so the
    # plane labeller sorts the rest
    rng = random.Random(20241120)
    families["past the search"] = past_the_search = []
    for n in range(5, 11):
        for _ in range(10):
            layer = layer_masks(n - 1, rng.randint(1, n - 2))
            bottoms = rng.sample(layer, rng.randint(min(n, len(layer)), len(layer)))
            top = 1 << (n - 1)
            extra = rng.sample(range(1 << n), rng.randint(0, 3))
            past_the_search.append(
                SetFamily.from_masks(n, [m for b in bottoms for m in (b, b | top)] + extra))

    # n = 17..20 is the only range whose least members need a third label
    # byte.  Sparse random sets plus pairs one element apart: most members
    # are isolated, and the pairs outnumber what the search takes before it
    # stops at n steps, so the plane labeller sees the rest.  Twins that
    # differ only in bits 16 and 17 are incomparable, and their labels agree
    # in the two low bytes
    rng = random.Random(20241121)
    families["two label bytes"] = two_label_bytes = []
    for i in range(30):
        n = 13 + i % 8
        masks = set(rng.sample(range(1 << n), rng.randint(1, 100)))
        for _ in range(rng.randint(0, 60)):
            b = rng.randrange(1 << n)
            masks |= {b, b | 1 << rng.randrange(n)}
        for _ in range(10 if n > 17 else 0):
            b = rng.randrange(1 << n) & ~(1 << 17) | 1 << 16
            masks |= {b, b ^ 3 << 16}
        two_label_bytes.append(SetFamily.from_masks(n, sorted(masks)[:300]))

    # random masks at n = 21..40, plus one-element steps and subsets of some
    # of them, so both comparable and incomparable pairs occur
    rng = random.Random(20241123)
    families["past the cap"] = past_the_cap = []
    for n in range(21, 41):
        for _ in range(4):
            size = rng.randint(0, 40)
            masks = [rng.getrandbits(n) for _ in range(size)]
            extra = [m | 1 << rng.randrange(n) for m in masks[: size // 2]]
            extra += [m & rng.getrandbits(n) for m in masks[: size // 3]]
            past_the_cap += [SetFamily.from_masks(n, masks), SetFamily.from_masks(n, masks + extra)]

    # {1} lies below the top of [{1,2,3}, {1,2,3} + free] and {2} below it
    # too, so the comparability graph is connected while no member of one
    # diamond is one element away from a member of another
    free = mask_of(range(4, 11))
    masks = [b | sub for b in (0b1, 0b10, 0b111) for sub in range(free + 1) if sub & free == sub]
    families["no cover path"] = SetFamily.from_masks(10, masks)
    return families


def test_components_match_pairwise_oracle_on_random_families(labelled):
    for fam in _graph_families()["random"]:
        _assert_matches_pairwise(fam, labelled)


def test_components_match_pairwise_oracle_on_constructions(labelled):
    for fam in _graph_families()["constructions"]:
        _assert_matches_pairwise(fam, labelled)


def test_closure_route_reads_components_from_bitsets_when_none_are_left(labelled):
    for fam in _graph_families()["none left"]:
        assert _assert_matches_pairwise(fam, labelled)[2] == []


def test_components_of_many_small_components_in_a_large_cube(labelled):
    fam = _graph_families()["many small"]
    _assert_matches_pairwise(fam, labelled)
    assert comparability_graph(fam).component_orders == (2,) * 300


def test_components_past_the_search_match_pairwise_oracle(labelled):
    cases = 0
    for fam in _graph_families()["past the search"]:
        # no call means nothing was left to label
        cases += any(_assert_matches_pairwise(fam, labelled)[2])
    assert cases >= 50


def test_closure_route_past_two_label_bytes_matches_pairwise_oracle(labelled):
    high = 0
    for fam in _graph_families()["two label bytes"]:
        _, got, calls = _assert_closure_route(fam, labelled)
        if fam.n > 16 and any(calls):
            high += any(len(c) > 1 and c[0] >> 16 for c in got)
    assert high >= 10


def test_plane_labels_link_comparable_members_without_cover_path(labelled):
    _, want, _ = _assert_matches_pairwise(_graph_families()["no cover path"], labelled)
    # the plane labeller's components: one, though no member of one diamond
    # is one element away from a member of another
    assert len(want) == 1


def _plain_iter_bits(bits):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def test_iter_bits_matches_plain_loop():
    rng = random.Random(20241119)
    cases = [0, 1, 1 << 200, (1 << (1 << 16)) - 1]
    # a bitset is read densely once its popcount times 8 passes its bit
    # length: here 129 of 1,024 bits is dense and 128 sparse
    for count in (128, 129, 128, 129):
        bits = 1 << 1023 | family_bits(rng.sample(range(1023), count - 1))
        assert (bits.bit_count() * 8 > bits.bit_length()) == (count == 129)
        cases.append(bits)
    for width in (1, 2, 3, 8, 64, 256, 1 << 16):
        for _ in range(3):
            cases.append(rng.getrandbits(width))
            cases.append(family_bits(rng.sample(range(width), rng.randint(0, min(width, 40)))))
    for bits in cases:
        assert list(iter_bits(bits)) == list(_plain_iter_bits(bits))


def test_bit_columns_match_definition():
    for n in range(1, 11):
        for i, step in enumerate(_steps(n)):
            assert step == (sum(1 << m for m in range(1 << n) if not m >> i & 1), 1 << i)


def test_family_bits_matches_definition():
    rng = random.Random(20241118)
    fams = [SetFamily(3, ()), SetFamily(20, ()), SetFamily.from_masks(20, [0, (1 << 20) - 1])]
    for n in (1, 2, 3, 5, 8, 13, 20):
        for _ in range(6):
            size = rng.randint(1, min(1 << n, 1000))
            fams.append(SetFamily.from_masks(n, rng.sample(range(1 << n), size)))
    for fam in fams:
        want = sum(1 << m for m in fam.members)
        assert family_bits(fam) == want
        # any collection of masks, in any order
        assert family_bits(list(reversed(fam.members))) == want
    # a mask past the closure cap is refused before anything is allocated
    with pytest.raises(ResourceLimitError):
        family_bits([0, 1 << CLOSURE_GROUND_CAP])


def _kept_bits(fam):
    # the bitset a family keeps, read without computing it
    return vars(fam)["_bits"]


def test_every_builder_keeps_the_bitset_of_its_members():
    rng = random.Random(20261020)
    built = [full_cube(n) for n in range(1, 13)]
    built += [sharp_family(n, k, ceil) for n in range(1, 13) for k in range(n + 1)
              for ceil in (False, True)]
    built += [disconnected_extremal(n) for n in range(2, 13)]
    for n in range(1, 11):
        for _ in range(4):
            bits = family_bits(rng.sample(range(1 << n), rng.randint(0, 1 << n)))
            built.append(bits_to_family(n, bits))
            layer = layer_masks(n, rng.randint(1, n))
            top = SetFamily.from_masks(n, rng.sample(layer, rng.randint(1, len(layer))))
            built.append(lower_shadow(top))
    stepped = 0
    for n in range(3, 9):
        for _ in range(6):
            fam = SetFamily.from_masks(n, rng.sample(range(1 << n), rng.randint(2, 1 << (n - 1))))
            done, trace = make_skipless_with_trace(fam, len(fam))
            if trace:
                built.append(done)
                stepped += 1
    assert stepped >= 20
    for fam in built:
        # a fresh scan of the member tuple, which keeps nothing
        assert _kept_bits(fam) == family_bits(fam.members), fam


def test_a_kept_bitset_leaves_equality_hash_repr_and_json_alone():
    for kept in (sharp_family(6, 2), disconnected_extremal(5), full_cube(3), bits_to_family(4, 0)):
        plain = SetFamily(kept.n, kept.members)
        assert "_bits" not in vars(plain)
        assert plain == kept and kept == plain
        assert hash(plain) == hash(kept) and repr(plain) == repr(kept)
        assert plain.to_json() == kept.to_json()
        # computing the plain family's bitset keeps it, and changes nothing else
        assert family_bits(plain) == _kept_bits(plain) == _kept_bits(kept)
        assert (plain, hash(plain), repr(plain)) == (kept, hash(kept), repr(kept))


def test_comparability_beyond_closure_cap():
    n = 40
    assert n > CLOSURE_GROUND_CAP
    fam = SetFamily.from_sets(n, [(1,), (1, 40), (2, 3)])
    g = comparability_graph(fam)
    assert g.component_members == ((1, 1 | 1 << 39), (6,))
    assert g.component_sizes == (1, 0)
    assert count_two_chains(fam) == 1


def test_pairwise_route_past_the_cap_matches_reference():
    antichains = chains = 0
    for fam in _graph_families()["past the cap"]:
        comparable_edges, _ = check_graphs(fam)
        antichains += not comparable_edges
        chains += bool(comparable_edges)
    assert antichains >= 20 and chains >= 20


def test_is_antichain_beyond_closure_cap():
    # the pair test answers where the cube-wide closures are capped
    n = CLOSURE_GROUND_CAP + 5
    assert is_antichain(SetFamily.from_sets(n, [(1,), (2,)]))
    assert not is_antichain(SetFamily.from_sets(n, [(1,), (1, n)]))


def test_pairwise_route_refuses_families_past_the_pair_cap():
    # 8,193 members at n = 21 are refused before any pair is tested, which
    # would take seconds; the 6,144 members certified past the closure cap
    # in tests/test_constructions.py stay allowed
    n = CLOSURE_GROUND_CAP + 1
    fam = SetFamily.from_masks(n, layer_masks(n, 5)[: PAIRWISE_MEMBER_CAP + 1])
    for query in (comparability_graph, count_two_chains, is_antichain):
        with pytest.raises(ResourceLimitError, match="pairwise comparability capped at 8192 members"):
            query(fam)


LIMITED_CHILD = """
import json, resource, sys
# about 1 GB of address space: a 2^40-point bitset fails fast, not the machine
limit = 1 << 30
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
"""

CAP_PROBE = LIMITED_CHILD + """
import latticework as lw
from latticework.constructions import Diamond, links_every_component
from latticework.core import SetFamily, comparability_graph

n = 40
top = (1 << n) - 1
chain = SetFamily.from_sets(n, [(1,), range(1, n + 1)])
pair = SetFamily.from_sets(n, [(1,), (2,)])
a, b = SetFamily.from_sets(n, [(1,)]), SetFamily.from_sets(n, [(2,)])
print(json.dumps({name: outcome(call) for name, call in {CALLS}.items()}))
"""

# Every public function that takes a family or a ground size n, called at
# n = 40, and what it must do there: a size past a cap is refused with
# ResourceLimitError, and the searches refuse n = 40 as outside their domain.
CAP_CALLS = {
    "binomial": ("lw.binomial(n, 20)", "returned"),
    "comparability_graph": ("lw.comparability_graph(chain)", "returned"),
    "count_two_chains": ("lw.count_two_chains(chain)", "returned"),
    "full_cube": ("lw.full_cube(n)", "ResourceLimitError"),
    "height": ("lw.height(chain)", "returned"),
    "is_antichain": ("lw.is_antichain(chain)", "returned"),
    "layer_masks": ("lw.layer_masks(n, 20)", "ResourceLimitError"),
    "average_meet_count": ("lw.average_meet_count(chain)", "ResourceLimitError"),
    "diamond_meet_count": ("lw.diamond_meet_count(1, top, n)", "returned"),
    "lubell": ("lw.lubell(chain)", "returned"),
    "lubell_by_permutations": ("lw.lubell_by_permutations(chain)", "ResourceLimitError"),
    "meet_profile": ("lw.meet_profile(chain)", "ResourceLimitError"),
    "find_skips": ("lw.find_skips(chain)", "ResourceLimitError"),
    "make_skipless": ("lw.make_skipless(chain, 2)", "ResourceLimitError"),
    "make_skipless_with_trace": ("lw.make_skipless_with_trace(chain, 2)", "ResourceLimitError"),
    "skip_count": ("lw.skip_count(chain)", "ResourceLimitError"),
    "certify": ("lw.certify(chain, lw.sharp_claim(n, 3))", "returned"),
    "diamond_family": ("lw.diamond_family(Diamond(0, top), n)", "ResourceLimitError"),
    "disconnected_claim": ("lw.disconnected_claim(n)", "returned"),
    "disconnected_extremal": ("lw.disconnected_extremal(n)", "ResourceLimitError"),
    "disconnected_extremal_size": ("lw.disconnected_extremal_size(n)", "returned"),
    "full_layer_pair": ("lw.full_layer_pair(n, 19)", "ResourceLimitError"),
    "sharp_claim": ("lw.sharp_claim(n, 3)", "returned"),
    "sharp_family": ("lw.sharp_family(n, 3)", "ResourceLimitError"),
    "boundary_report": ("lw.boundary_report(a, b)", "ResourceLimitError"),
    "lower_shadow": ("lw.lower_shadow(pair)", "ResourceLimitError"),
    "technical_bound_check": ("lw.technical_bound_check(chain, 'k_plus_one')", "ResourceLimitError"),
    "xi": ("lw.xi(a, SetFamily.from_sets(n, [(1, 2)]))", "returned"),
    "all_diamond_bound": ("lw.all_diamond_bound(n, 3)", "returned"),
    "blym_sum": ("lw.blym_sum(pair)", "returned"),
    "diamond_blym_sum": ("lw.diamond_blym_sum(pair)", "returned"),
    "diamond_profile": ("lw.diamond_profile(pair)", "returned"),
    "disconnected_splits": ("lw.disconnected_splits(n)", "DomainError"),
    "la_exact": ("lw.la_exact(n, 3)", "DomainError"),
    "la_exact_restricted": ("lw.la_exact_restricted(n, 3, 1, 2)", "DomainError"),
    "lambda_star_exact": ("lw.lambda_star_exact(n, 3)", "DomainError"),
    "max_disconnected": ("lw.max_disconnected(n)", "DomainError"),
    "min_two_chains": ("lw.min_two_chains(n, 3)", "DomainError"),
    "xi_star_exact": ("lw.xi_star_exact(n, 3)", "DomainError"),
}

# Cube-wide helpers outside the exports, probed the same way.  certify
# reaches links_every_component only on a family of several components.
HELPER_CAP_CALLS = {
    "links_every_component": (
        "links_every_component(chain, comparability_graph(chain).component_members)",
        "ResourceLimitError",
    ),
}


def _takes_family_or_n(fn):
    params = inspect.signature(fn).parameters.values()
    return any(p.name == "n" or "SetFamily" in str(p.annotation) for p in params)


def test_cube_wide_entries_refuse_n40_without_allocating(run_probe):
    # Run only in a child process under an address-space limit, never in
    # this one: a call that forgets its cap would ask for 2^40 points
    exported = {
        name
        for names in latticework._EXPORTS.values()
        for name in names
        if inspect.isfunction(fn := getattr(latticework, name)) and _takes_family_or_n(fn)
    }
    assert set(CAP_CALLS) == exported
    table = {**CAP_CALLS, **HELPER_CAP_CALLS}
    calls = repr({name: call for name, (call, _) in table.items()})
    out = run_probe(CAP_PROBE.replace("{CALLS}", calls))
    assert out == {name: want for name, (_, want) in table.items()}


EDGE_PROBE = LIMITED_CHILD + """
import latticework as lw
from latticework.constructions import Diamond

print(json.dumps({call: outcome(call, len) for call in {CALLS}}))
"""

# The largest input each cube-sized builder accepts, with its size, and the
# smallest it refuses.  C(23, 9) = 817,190 masks fit under the 2^20 cap of a
# layer and C(23, 10) = 1,144,066 do not.
EDGE_CALLS = {
    "lw.full_cube(20)": 1 << 20,
    "lw.full_cube(21)": "ResourceLimitError",
    "lw.sharp_family(20, 0)": 184_756,
    "lw.sharp_family(21, 0)": "ResourceLimitError",
    "lw.disconnected_extremal(20)": (1 << 20) - (1 << 11) + 2,
    "lw.disconnected_extremal(21)": "ResourceLimitError",
    "lw.diamond_family(Diamond(0, (1 << 20) - 1), 21)": 1 << 20,
    "lw.diamond_family(Diamond(0, (1 << 21) - 1), 21)": "ResourceLimitError",
    "lw.layer_masks(23, 9)": 817_190,
    "lw.layer_masks(23, 10)": "ResourceLimitError",
}


def test_each_builder_cap_accepts_its_edge_and_refuses_one_past_it(run_probe):
    # in a limited child process, as above: a lost cap fails on the address space
    out = run_probe(EDGE_PROBE.replace("{CALLS}", repr(list(EDGE_CALLS))))
    assert out == EDGE_CALLS


GROUND_PROBE = LIMITED_CHILD + """
import latticework as lw
from latticework.constructions import Diamond

grounds = (-1, 0, 64, 10**20)
print(json.dumps({name: [outcome(call, n=n) for n in grounds] for name, call in {CALLS}.items()}))
"""

DOMAIN = ["DomainError"] * 4

# Every public function with an n parameter, called at n = -1, 0, 64 and
# 10^20, and what it raises there.  binomial is plain arithmetic, so it answers.
GROUND_CALLS = {
    "binomial": ("lw.binomial(n, 3)", ["returned"] * 4),
    "full_cube": ("lw.full_cube(n)", DOMAIN),
    "layer_masks": ("lw.layer_masks(n, 1)", DOMAIN),
    "diamond_meet_count": ("lw.diamond_meet_count(0, 1, n)", DOMAIN),
    "diamond_family": ("lw.diamond_family(Diamond(0, 1), n)", DOMAIN),
    "disconnected_claim": ("lw.disconnected_claim(n)", DOMAIN),
    "disconnected_extremal": ("lw.disconnected_extremal(n)", DOMAIN),
    "disconnected_extremal_size": ("lw.disconnected_extremal_size(n)", DOMAIN),
    "full_layer_pair": ("lw.full_layer_pair(n, 1)", DOMAIN),
    "sharp_claim": ("lw.sharp_claim(n, 1)", DOMAIN),
    "sharp_family": ("lw.sharp_family(n, 1)", DOMAIN),
    "all_diamond_bound": ("lw.all_diamond_bound(n, 1)", DOMAIN),
    "disconnected_splits": ("lw.disconnected_splits(n)", DOMAIN),
    "la_exact": ("lw.la_exact(n, 3)", DOMAIN),
    "la_exact_restricted": ("lw.la_exact_restricted(n, 3, 0, 1)", DOMAIN),
    "lambda_star_exact": ("lw.lambda_star_exact(n, 3)", DOMAIN),
    "max_disconnected": ("lw.max_disconnected(n)", DOMAIN),
    "min_two_chains": ("lw.min_two_chains(n, 1)", DOMAIN),
    "xi_star_exact": ("lw.xi_star_exact(n, 1)", DOMAIN),
}


def test_entries_taking_n_refuse_ground_sizes_outside_1_to_63(run_probe):
    # in a limited child process, as above: a missing check may allocate 2^64
    exported = {
        name
        for names in latticework._EXPORTS.values()
        for name in names
        if inspect.isfunction(fn := getattr(latticework, name))
        and "n" in inspect.signature(fn).parameters
    }
    assert set(GROUND_CALLS) == exported
    calls = repr({name: call for name, (call, _) in GROUND_CALLS.items()})
    out = run_probe(GROUND_PROBE.replace("{CALLS}", calls))
    assert out == {name: want for name, (_, want) in GROUND_CALLS.items()}


def test_sharp_claim_checks_k_as_sharp_family_does():
    for k in (-1, 5):
        for build in (sharp_claim, sharp_family):
            with pytest.raises(DomainError, match=f"need 0 <= k <= n, got k={k}, n=4"):
                build(4, k)
