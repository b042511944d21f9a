import ast
import inspect
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import latticework
from latticework import core
from latticework.constructions import (
    disconnected_extremal,
    disconnected_extremal_size,
    sharp_claim,
    sharp_family,
)
from latticework.core import (
    CLOSURE_GROUND_CAP,
    PAIRWISE_MEMBER_CAP,
    DomainError,
    ResourceLimitError,
    SetFamily,
    _bit_column,
    _closure_components,
    _group,
    _lane_below_counts,
    _plane_labels,
    binomial,
    bits_to_family,
    comparability_graph,
    count_two_chains,
    cover_graph,
    downset_bits,
    elements_of,
    family_bits,
    full_cube,
    height,
    is_antichain,
    is_comparable,
    iter_bits,
    layer_masks,
    mask_of,
    upset_bits,
)


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


def test_family_json_round_trip():
    fam = SetFamily.from_sets(4, [(), (2,), (1, 3), (1, 2, 3, 4)])
    again = SetFamily.from_jsonable(fam.to_jsonable())
    assert again == fam
    assert SetFamily.from_json(fam.to_json()) == fam
    assert fam.digest() == again.digest()
    assert fam.digest() != fam.add(4).digest()


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


def test_comparability_vs_cover_graph():
    fam = SetFamily.from_sets(3, [(), (1,), (1, 2), (3,)])
    g = comparability_graph(fam)
    # {} < {1} < {1,2} all pairwise comparable, {3} comparable to {} only
    assert len(g.edges) == 4
    assert g.n_components == 1
    cg = cover_graph(fam)
    # the {} < {1,2} pair is not a cover (size gap 2)
    assert len(cg.edges) == 3
    assert cg.max_component_order() == 4


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


def test_is_comparable_and_antichain():
    assert is_comparable(mask_of([1]), mask_of([1, 2]))
    assert not is_comparable(mask_of([1]), mask_of([2]))
    with pytest.raises(DomainError):
        is_comparable(mask_of([1]), mask_of([1]))  # relation on distinct pairs only
    assert is_antichain(SetFamily.from_masks(4, layer_masks(4, 2)))
    assert not is_antichain(full_cube(2))
    assert is_antichain(SetFamily.from_masks(4, ()))


def test_layer_masks_and_binomial():
    assert [m.bit_count() for m in layer_masks(5, 2)] == [2] * binomial(5, 2)
    assert binomial(4, 2) == 6
    assert binomial(4, 5) == 0 and binomial(4, -1) == 0


def test_layer_masks_refuses_layers_past_the_cap():
    # C(22, 11) = 705,432 masks fit under 2^20; C(23, 11) = 1,352,078 do not
    assert len(layer_masks(22, 11)) == binomial(22, 11)
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


def _plane_components(n, bits, cover_only):
    # the members of bits grouped by the labels `_plane_labels` writes into
    # its planes, each label checked to be its component's least member
    planes = [0] * n
    _plane_labels(n, bits, cover_only, planes)
    members = iter_bits(bits)
    labels = [sum((p >> m & 1) << t for t, p in enumerate(planes)) for m in members]
    components = _group(members, labels)
    label_of = dict(zip(members, labels))
    assert all(label_of[m] == ms[0] for ms in components for m in ms)
    return components


def _reference_pairs(ms, cover_only):
    # index pairs (i, j), i < j, of the comparable (or covering) members,
    # each pair tested both ways from the definition of a 2-chain
    pairs = []
    for i, x in enumerate(ms):
        size = x.bit_count()
        for j, y in enumerate(ms[i + 1:], i + 1):
            if x & y == x or x & y == y:
                if not cover_only or abs(y.bit_count() - size) == 1:
                    pairs.append((i, j))
    return pairs


def _reference_ids(s, pairs):
    # component number of each vertex, numbered by least vertex, from a
    # union-find that halves paths on every lookup
    parent = list(range(s))

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for i, j in pairs:
        parent[find(i)] = find(j)
    roots = {}
    return tuple(roots.setdefault(find(v), len(roots)) for v in range(s))


def _reference_components(fam, cover_only):
    ms = fam.members
    return _group(ms, _reference_ids(len(ms), _reference_pairs(ms, cover_only)))


def _assert_graph_matches_reference(fam):
    # the public functions on whichever route their size picks; returns the
    # reference's edges and components of both graph kinds
    reference = {}
    for cover_only in (False, True):
        g = comparability_graph(fam, cover_only=cover_only)
        edges = tuple(_reference_pairs(fam.members, cover_only))
        comp_id = _reference_ids(len(fam), edges)
        components = _group(fam.members, comp_id)
        assert g.component_members == tuple(components)
        # ids, orders and sizes from the reference's edges alone
        orders = [0] * len(components)
        sizes = [0] * len(components)
        for c in comp_id:
            orders[c] += 1
        for i, _ in edges:
            sizes[comp_id[i]] += 1
        assert g.component_id == comp_id
        assert g.component_orders == tuple(orders)
        assert g.component_sizes == tuple(sizes)
        assert g.edges == edges
        assert [list(ms) for ms in g.component_members] == [
            [fam.members[v] for v in vs] for vs in g.components()
        ]
        if not cover_only:
            # the comparability edges are exactly the 2-chains
            assert count_two_chains(fam) == len(edges)
            assert is_antichain(fam) == (not edges)
        reference[cover_only] = edges, components
    return reference


def _assert_matches_pairwise(fam):
    # the bitset kernels are also called directly, so small families
    # exercise them too
    reference = _assert_graph_matches_reference(fam)
    for cover_only, (_, components) in reference.items():
        assert _closure_components(fam, cover_only) == components
        assert sorted(_plane_components(fam.n, family_bits(fam), cover_only)) == components
    # members strictly inside each member, counted at the larger of each pair
    below = [0] * len(fam)
    sizes = fam.sizes()
    for i, j in reference[False][0]:
        below[j if sizes[j] > sizes[i] else i] += 1
    assert _lane_below_counts(fam) == below


def test_components_match_pairwise_oracle_on_random_families():
    rng = random.Random(20241112)
    for n in range(1, 9):
        for _ in range(40):
            size = rng.randint(0, min(1 << n, 60))
            _assert_matches_pairwise(SetFamily.from_masks(n, rng.sample(range(1 << n), size)))
    _assert_matches_pairwise(full_cube(5))


def test_components_match_pairwise_oracle_on_constructions():
    for n in range(1, 17):
        if 2 <= n and disconnected_extremal_size(n) <= 2048:
            _assert_matches_pairwise(disconnected_extremal(n))
        for k in range(n + 1):
            # the two middles coincide when n - k is even
            for ceil in {False, (n - k) % 2 == 1}:
                if sharp_claim(n, k, ceil)["size"] <= 2048:
                    _assert_matches_pairwise(sharp_family(n, k, ceil))


def test_components_of_many_small_components_in_a_large_cube():
    # 300 two-member components at n = 16: the search stops once its steps
    # reach n and leaves the members left to the plane labeller
    rng = random.Random(20241115)
    bottoms = rng.sample(layer_masks(15, 7), 300)
    fam = SetFamily.from_masks(16, [m for b in bottoms for m in (b, b | 1 << 15)])
    _assert_matches_pairwise(fam)
    assert comparability_graph(fam).component_orders == (2,) * 300


def test_components_past_the_search_match_pairwise_oracle(monkeypatch):
    # 2-chains B < B + {n} (B in one layer of [n - 1]) are pairwise
    # incomparable, and a few random sets join some of them up: more
    # components than the search takes before it stops at n steps, so the
    # plane labeller sorts the rest
    labelled = []

    def spy(n, bits, cover_only, planes):
        labelled.append(bits.bit_count())
        return _plane_labels(n, bits, cover_only, planes)

    monkeypatch.setattr(core, "_plane_labels", spy)
    rng = random.Random(20241120)
    cases = 0
    for n in range(5, 11):
        for _ in range(10):
            layer = layer_masks(n - 1, rng.randint(1, n - 2))
            bottoms = rng.sample(layer, rng.randint(min(n, len(layer)), len(layer)))
            top = 1 << (n - 1)
            extra = rng.sample(range(1 << n), rng.randint(0, 3))
            fam = SetFamily.from_masks(n, [m for b in bottoms for m in (b, b | top)] + extra)
            _assert_matches_pairwise(fam)
            labelled.clear()
            _closure_components(fam, cover_only=False)
            cases += labelled[0] > 0
    assert cases >= 50


def test_closure_route_past_two_label_bytes_matches_pairwise_oracle(monkeypatch):
    # n = 17..20 is the only range whose least members need a third label
    # byte.  Sparse random sets plus pairs one element apart: most members
    # are isolated, and the pairs outnumber what the search takes before it
    # stops at n steps, so the plane labeller sees the rest.  Twins that
    # differ only in bits 16 and 17 are incomparable, and their labels agree
    # in the two low bytes
    labelled = []

    def spy(n, bits, cover_only, planes):
        labelled.append(bits.bit_count())
        return _plane_labels(n, bits, cover_only, planes)

    monkeypatch.setattr(core, "_plane_labels", spy)
    rng = random.Random(20241121)
    high = 0
    for i in range(30):
        n = 13 + i % 8
        masks = set(rng.sample(range(1 << n), rng.randint(1, 100)))
        for _ in range(rng.randint(0, 60)):
            b = rng.randrange(1 << n)
            masks |= {b, b | 1 << rng.randrange(n)}
        for _ in range(10 if n > 17 else 0):
            b = rng.randrange(1 << n) & ~(1 << 17) | 1 << 16
            masks |= {b, b ^ 3 << 16}
        fam = SetFamily.from_masks(n, sorted(masks)[:300])
        for cover_only in (False, True):
            labelled.clear()
            components = _closure_components(fam, cover_only)
            assert components == _reference_components(fam, cover_only)
            if n > 16 and labelled[0] > 0:
                high += any(len(c) > 1 and c[0] >> 16 for c in components)
    assert high >= 10


def test_plane_labels_link_comparable_members_without_cover_path():
    # {1} lies below the top of [{1,2,3}, {1,2,3} + free] and {2} below it
    # too, so the comparability graph is connected while no member of one
    # diamond is one element away from a member of another
    free = mask_of(range(4, 11))
    masks = [b | sub for b in (0b1, 0b10, 0b111) for sub in range(free + 1) if sub & free == sub]
    fam = SetFamily.from_masks(10, masks)
    _assert_matches_pairwise(fam)
    bits = family_bits(fam)
    assert len(_plane_components(10, bits, False)) == 1
    assert len(_plane_components(10, bits, True)) == 3


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
        for i in range(n):
            assert _bit_column(n, i) == sum(1 << m for m in range(1 << n) if m >> i & 1)


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


def test_comparability_beyond_closure_cap():
    n = 40
    assert n > CLOSURE_GROUND_CAP
    fam = SetFamily.from_sets(n, [(1,), (1, 40), (2, 3)])
    g = comparability_graph(fam)
    assert g.component_id == (0, 1, 0)
    assert g.component_members == ((1, 1 | 1 << 39), (6,))
    assert g.edges == ((0, 2),)
    assert cover_graph(fam).component_sizes == (1, 0)
    assert count_two_chains(fam) == 1


def test_pairwise_route_past_the_cap_matches_reference():
    # random masks at n = 21..40, plus one-element steps and subsets of some
    # of them, so both comparable and incomparable pairs occur
    rng = random.Random(20241123)
    antichains = chains = 0
    for n in range(21, 41):
        for _ in range(4):
            size = rng.randint(0, 40)
            masks = [rng.getrandbits(n) for _ in range(size)]
            extra = [m | 1 << rng.randrange(n) for m in masks[: size // 2]]
            extra += [m & rng.getrandbits(n) for m in masks[: size // 3]]
            for fam in (SetFamily.from_masks(n, masks), SetFamily.from_masks(n, masks + extra)):
                _assert_graph_matches_reference(fam)
                antichains += is_antichain(fam)
                chains += count_two_chains(fam) > 0
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
    for query in (comparability_graph, cover_graph, count_two_chains, is_antichain):
        with pytest.raises(ResourceLimitError, match="pairwise comparability capped at 8192 members"):
            query(fam)


CAP_PROBE = """
import json, resource, sys
# about 1 GB of address space: a 2^40-point bitset fails fast, not the machine
limit = 1 << 30
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

import latticework as lw
from latticework.constructions import Diamond, links_every_component
from latticework.core import SetFamily, comparability_graph

n = 40
top = (1 << n) - 1
chain = SetFamily.from_sets(n, [(1,), range(1, n + 1)])
pair = SetFamily.from_sets(n, [(1,), (2,)])
a, b = SetFamily.from_sets(n, [(1,)]), SetFamily.from_sets(n, [(2,)])
calls = {CALLS}
out = {}
for name, call in calls.items():
    try:
        eval(call)
        out[name] = "returned"
    except Exception as exc:
        out[name] = type(exc).__name__
print(json.dumps(out))
"""

# Every public function that takes a family or a ground size n, called at
# n = 40, and what it must do there: a size past a cap is refused with
# ResourceLimitError, and the searches refuse n = 40 as outside their domain.
CAP_CALLS = {
    "binomial": ("lw.binomial(n, 20)", "returned"),
    "comparability_graph": ("lw.comparability_graph(chain)", "returned"),
    "count_two_chains": ("lw.count_two_chains(chain)", "returned"),
    "cover_graph": ("lw.cover_graph(chain)", "returned"),
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
    "skipless_step": ("lw.skipless_step(chain)", "ResourceLimitError"),
    "certify": ("lw.certify(chain, lw.sharp_claim(n, 3))", "returned"),
    "diamond_family": ("lw.diamond_family(Diamond(0, top), n)", "ResourceLimitError"),
    "disconnected_claim": ("lw.disconnected_claim(n)", "returned"),
    "disconnected_extremal": ("lw.disconnected_extremal(n)", "ResourceLimitError"),
    "disconnected_extremal_size": ("lw.disconnected_extremal_size(n)", "returned"),
    "full_layer_pair": ("lw.full_layer_pair(n, 19)", "ResourceLimitError"),
    "sharp_claim": ("lw.sharp_claim(n, 3)", "returned"),
    "sharp_family": ("lw.sharp_family(n, 3)", "ResourceLimitError"),
    "boundary_pair": ("lw.boundary_pair(a, b)", "ResourceLimitError"),
    "boundary_report": ("lw.boundary_report(a, b)", "ResourceLimitError"),
    "down_closure": ("lw.down_closure(chain)", "ResourceLimitError"),
    "excluded_count": ("lw.excluded_count(a, b)", "ResourceLimitError"),
    "lower_shadow": ("lw.lower_shadow(pair)", "ResourceLimitError"),
    "technical_bound_check": ("lw.technical_bound_check(chain, 'k_plus_one')", "ResourceLimitError"),
    "up_closure": ("lw.up_closure(chain)", "ResourceLimitError"),
    "xi": ("lw.xi(a, SetFamily.from_sets(n, [(1, 2)]))", "returned"),
    "all_diamond_bound": ("lw.all_diamond_bound(n, 3)", "returned"),
    "blym_sum": ("lw.blym_sum(pair)", "returned"),
    "diamond_blym_sum": ("lw.diamond_blym_sum(pair)", "returned"),
    "diamond_profile": ("lw.diamond_profile(pair)", "returned"),
    "family_diamonds": ("lw.family_diamonds(pair)", "returned"),
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


def test_cube_wide_entries_refuse_n40_without_allocating():
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
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    calls = repr({name: call for name, (call, _) in table.items()})
    proc = subprocess.run(
        [sys.executable, "-c", CAP_PROBE.replace("{CALLS}", calls)],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {name: want for name, (_, want) in table.items()}


def test_no_bare_assert_under_src():
    # python -O strips assert statements; result checks raise VerificationError
    src = Path(__file__).parent.parent / "src"
    found = [
        f"{path.relative_to(src)}:{node.lineno}"
        for path in sorted(src.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
