import random
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import comb, inf

import pytest

from latticework.colouring import (
    EdgeColouredGraph,
    LayerPairGraph,
    find_rainbow_cycle,
    is_proper,
)
from latticework.constructions import (
    disconnected_extremal_size,
    links_every_component,
    sharp_family,
)
from latticework.core import (
    DomainError,
    ResourceLimitError,
    SetFamily,
    VerificationError,
    _steps,
    comparability_graph,
    count_two_chains,
    downset_bits,
    family_bits,
    iter_bits,
    upset_bits,
)
from latticework.lubell import _prefix_columns, lubell, lubell_by_permutations
from latticework.normalize import make_skipless, skip_count
from latticework.search import (
    _TRIANGLE_FREE,
    _Budget,
    _band,
    _closed_splits,
    _edge_order,
    _graphs_of_order,
    _group_lanes,
    _maximal_splits,
    _split_tables,
    disconnected_splits,
    la_exact,
    la_exact_restricted,
    lambda_star_exact,
    mad_star_probe,
    max_disconnected,
    min_two_chains,
    xi_star_exact,
)
from reference import comparable, order
from reference import lubell as lubell_sum


def _table(known, op):
    """The proven values of one search in known_values.json, keyed by its args."""
    return {tuple(args): value for (name, *args), value in known.items() if name == op}


def check_order_witness(res, n, t):
    fam = res.witness
    assert len(fam) == res.value
    assert fam.n == n
    assert comparability_graph(fam).max_component_order() <= t


def test_la_frozen_table(known):
    table = _table(known, "la_exact")
    assert len(table) >= 20
    for (n, t), expected in table.items():
        res = la_exact(n, t)
        assert res.proven_optimal
        assert res.value == expected, (n, t, res.value)
        check_order_witness(res, n, t)


def test_la_monotone_in_t_and_full_cube():
    for n in (2, 3):
        values = [la_exact(n, t).value for t in range(1, (1 << n) + 1)]
        assert values == sorted(values)
        assert values[-1] == 1 << n
    assert la_exact(4, 16).value == 16


def test_la_sandwich_against_constructions(known):
    for (n, t), value in _table(known, "la_exact").items():
        for k in range(n + 1):
            if (1 << k) <= t:
                assert value >= len(sharp_family(n, k))


def test_la_skipless_consistency():
    for (n, t) in [(3, 2), (4, 2), (4, 4), (5, 2)]:
        res = la_exact(n, t)
        out = make_skipless(res.witness, t)
        assert len(out) == res.value
        assert skip_count(out) == 0
        assert comparability_graph(out).max_component_order() <= t


def test_la_restricted():
    # whole cube fits when the window is everything
    assert la_exact_restricted(4, 16, 0, 4).value == 16
    # two middle layers of [3] under order cap 2
    assert la_exact_restricted(3, 2, 1, 2).value == 4
    res = la_exact_restricted(4, 2, 2, 3)
    assert res.value == la_exact(4, 2).value
    assert all(res.witness.n >= m.bit_count() >= 2 for m in res.witness.members)
    with pytest.raises(DomainError):
        la_exact_restricted(3, 2, 2, 1)


def test_la_budget_flagging():
    res = la_exact(4, 4, budget_nodes=3)
    assert not res.proven_optimal
    assert res.value <= la_exact(4, 4).value
    check_order_witness(res, 4, 4)


def test_lambda_star_frozen_table(known):
    table = _table(known, "lambda_star_exact")
    assert len(table) >= 12
    for (n, t), expected in table.items():
        res = lambda_star_exact(n, t)
        assert res.proven_optimal
        assert res.value == expected, (n, t, res.value)
        fam = res.witness
        assert lubell(fam) == expected
        assert comparability_graph(fam).max_component_order() <= t


# Node counts of the order-bounded searches.  Speeding up a node must not
# change which nodes are visited; perfbench/expected.json pins them as well.
LA_NODES = {
    (1, 1): 1, (1, 2): 0, (1, 3): 0, (1, 4): 0, (1, 5): 0, (1, 6): 0, (1, 7): 0, (1, 8): 0,
    (2, 1): 0, (2, 2): 5, (2, 3): 3, (2, 4): 0, (2, 5): 0, (2, 6): 0, (2, 7): 0, (2, 8): 0,
    (3, 1): 4, (3, 2): 5, (3, 3): 8, (3, 4): 36, (3, 5): 33, (3, 6): 21, (3, 7): 7, (3, 8): 0,
    (4, 1): 17, (4, 2): 45, (4, 3): 69, (4, 4): 77,
    (4, 5): 115, (4, 6): 198, (4, 7): 377, (4, 8): 2667,
    (5, 1): 78, (5, 2): 284, (5, 3): 1293, (5, 4): 3575,
    (5, 5): 9465, (5, 6): 15597, (5, 7): 28510, (5, 8): 39791,
    # deeper trees, where several components sit apart from the joined one
    (5, 9): 105701, (5, 10): 271489, (5, 11): 671901,
}

# (n, t, kmin, kmax) -> nodes, the layer bands of the benchmark's search workload
LA_RESTRICTED_NODES = {
    (5, 4, 1, 3): 1824, (5, 8, 2, 3): 1488, (5, 3, 1, 4): 1293, (4, 4, 1, 2): 31,
    (5, 6, 0, 3): 4602, (5, 2, 2, 3): 103, (5, 2, 1, 3): 238, (5, 3, 2, 3): 361,
    (5, 4, 2, 3): 379,
}

# (kmin, kmax) -> nodes of la_exact_restricted(5, t, kmin, kmax) for t = 1..8,
# every layer band at n = 5
LA_BAND_NODES_N5 = {
    (0, 0): (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1): (0, 0, 0, 0, 5, 6, 6, 6),
    (0, 2): (16, 30, 56, 63, 93, 145, 155, 242),
    (0, 3): (100, 238, 965, 1824, 3635, 4602, 6771, 13275),
    (0, 4): (128, 362, 1689, 4250, 11105, 17489, 30462, 41485),
    (0, 5): (78, 284, 1293, 3575, 9465, 15597, 28510, 39791),
    (1, 1): (0, 0, 0, 0, 0, 0, 0, 0),
    (1, 2): (16, 30, 56, 63, 93, 145, 155, 242),
    (1, 3): (100, 238, 965, 1824, 3635, 4602, 6771, 13275),
    (1, 4): (78, 284, 1293, 3575, 9465, 15597, 28510, 39791),
    (1, 5): (128, 362, 1689, 4250, 11105, 17489, 30462, 41485),
    (2, 2): (0, 0, 0, 0, 0, 0, 0, 0),
    (2, 3): (37, 103, 361, 379, 769, 738, 916, 1488),
    (2, 4): (91, 222, 998, 1669, 4202, 4741, 5142, 9475),
    (2, 5): (91, 222, 998, 1669, 4202, 4741, 5142, 9475),
    (3, 3): (0, 0, 0, 0, 0, 0, 0, 0),
    (3, 4): (12, 30, 77, 55, 80, 114, 174, 248),
    (3, 5): (12, 30, 77, 55, 80, 114, 174, 248),
    (4, 4): (0, 0, 0, 0, 0, 0, 0, 0),
    (4, 5): (0, 0, 0, 0, 5, 6, 6, 6),
    (5, 5): (0, 0, 0, 0, 0, 0, 0, 0),
}
# the same at n = 4, for la_exact_restricted(4, t, kmin, kmax)
LA_BAND_NODES_N4 = {
    (0, 0): (0, 0, 0, 0, 0, 0, 0, 0),
    (0, 1): (0, 0, 0, 4, 5, 5, 5, 5),
    (0, 2): (9, 18, 21, 31, 33, 127, 132, 97),
    (0, 3): (19, 50, 74, 82, 127, 224, 424, 1596),
    (0, 4): (17, 45, 69, 77, 115, 198, 377, 2667),
    (1, 1): (0, 0, 0, 0, 0, 0, 0, 0),
    (1, 2): (9, 18, 21, 31, 33, 39, 36, 28),
    (1, 3): (17, 45, 69, 77, 115, 198, 377, 455),
    (1, 4): (19, 50, 74, 82, 127, 224, 424, 900),
    (2, 2): (0, 0, 0, 0, 0, 0, 0, 0),
    (2, 3): (8, 18, 18, 24, 31, 44, 27, 31),
    (2, 4): (8, 18, 18, 24, 31, 73, 59, 82),
    (3, 3): (0, 0, 0, 0, 0, 0, 0, 0),
    (3, 4): (0, 0, 0, 4, 5, 5, 5, 5),
    (4, 4): (0, 0, 0, 0, 0, 0, 0, 0),
}
LA_RESTRICTED_NODES.update(
    ((n, t, kmin, kmax), nodes)
    for n, bands in ((4, LA_BAND_NODES_N4), (5, LA_BAND_NODES_N5))
    for (kmin, kmax), row in bands.items()
    for t, nodes in enumerate(row, start=1)
)

# (search, arguments, nodes of the whole search, {budget: (value, witness)}):
# a search cut at budget b returns the entry of the largest key <= b, and
# (None, None) below the first key, where it has examined no candidate.
# la_exact's seed construction is already optimal, so a cut search returns it.
BUDGET_SWEEP = [
    (la_exact, (4, 4), 77, {-1: (8, (1, 2, 5, 6, 9, 10, 13, 14))}),
    (la_exact, (5, 3), 1293, {-1: (12, (3, 5, 6, 9, 10, 12, 19, 21, 22, 25, 26, 28))}),
    (la_exact_restricted, (4, 4, 1, 2), 31, {
        -1: (6, (3, 5, 6, 9, 10, 12)),
        22: (7, (1, 2, 5, 6, 9, 10, 12)),
    }),
    (lambda_star_exact, (3, 2), 255, {
        -1: (Fraction(0), ()),
        1: (Fraction(1), (0,)),
        3: (Fraction(4, 3), (0, 1)),
        129: (Fraction(2), (0, 7)),
    }),
    (max_disconnected, (4,), 568, {
        -1: (0, ()),
        1: (8, (1, 2, 4, 6, 8, 10, 12, 14)),
        5: (10, (1, 2, 3, 5, 6, 7, 9, 10, 11, 12)),
    }),
    (xi_star_exact, (4, 6), 73, {
        1: (Fraction(0), ((), (3, 5, 6, 9, 10, 12))),
        2: (Fraction(1), ((1,), (3, 5, 9, 10, 12))),
        4: (Fraction(5, 3), ((1, 2), (3, 6, 9, 10))),
        8: (Fraction(2), ((1, 2, 4), (3, 5, 6))),
    }),
    (min_two_chains, (3, 4), 70, {
        1: (5, (0, 1, 2, 3)),
        2: (3, (0, 1, 2, 4)),
        36: (2, (1, 2, 3, 4)),
    }),
    (mad_star_probe, (5,), 8, {
        -1: (Fraction(0), ()),
        8: (Fraction(12, 5), ((0, 2, 1), (0, 3, 2), (0, 4, 3), (1, 2, 2), (1, 3, 3), (1, 4, 1))),
    }),
    (mad_star_probe, (6,), 11, {
        -1: (Fraction(0), ()),
        11: (Fraction(3), ((0, 1, 1), (0, 3, 2), (0, 5, 3), (1, 2, 2), (1, 4, 3), (2, 3, 3),
                           (2, 5, 1), (3, 4, 1), (4, 5, 2))),
    }),
    (mad_star_probe, (7,), 101, {
        -1: (Fraction(0), ()),
        101: (Fraction(20, 7), ((0, 1, 1), (0, 3, 2), (0, 5, 3), (0, 6, 4), (1, 2, 2), (1, 4, 3),
                                (2, 3, 3), (2, 5, 1), (3, 4, 1), (4, 5, 2))),
    }),
]


def plain_witness(witness):
    """A search witness as masks (or coloured edges), None as itself."""
    if isinstance(witness, SetFamily):
        return witness.members
    if isinstance(witness, LayerPairGraph):
        return (witness.a.members, witness.b.members)
    if isinstance(witness, EdgeColouredGraph):
        return witness.edges
    return witness

# t -> witness of lambda_star_exact(4, t); every run decides all 65,535 families
LAMBDA_STAR_N4_WITNESSES = {
    1: (0,), 2: (0, 15), 3: (0, 1, 15), 4: (0, 1, 2, 15),
    8: (0, 1, 2, 4, 7, 8, 11, 15), 16: tuple(range(16)),
}

# (t, budget) -> (value, witness, nodes) of lambda_star_exact(4, t, budget)
LAMBDA_STAR_N4_CUTOFFS = {
    (1, 0): (Fraction(0), (), 1),
    (2, 1): (Fraction(1), (0,), 2),
    (2, 1000): (Fraction(5, 4), (0, 1), 1001),
    (2, 32768): (Fraction(5, 4), (0, 1), 32769),
    (2, 32769): (Fraction(2), (0, 15), 32770),
    (3, 4096): (Fraction(3, 2), (0, 1, 2), 4097),
    (4, 32774): (Fraction(9, 4), (0, 1, 15), 32775),
    (4, 32775): (Fraction(5, 2), (0, 1, 2, 15), 32776),
    (4, 65534): (Fraction(5, 2), (0, 1, 2, 15), 65535),
    (8, 30000): (Fraction(11, 4), (0, 1, 2, 4, 7, 8, 11, 13), 30001),
    (16, 65533): (Fraction(29, 6), (*range(12), 13, 14, 15), 65534),
}


@cache
def _valued_families(n):
    """Every nonempty family over [n] in increasing bitset order, as its
    Lubell sum, its order and its members."""
    cube = range(1 << n)
    families = (tuple(m for m in cube if bits >> m & 1) for bits in range(1, 1 << len(cube)))
    return [(lubell_sum(n, ms), order(ms), ms) for ms in families]


def lambda_star_by_exhaustion(n, t, budget_nodes=None):
    """Reference for lambda_star_exact: every family in increasing bitset
    order, one node each, valued by the reference Lubell sum and order.

    Returns (value, witness masks, nodes, proven_optimal).
    """
    limit = budget_nodes if budget_nodes is not None else 1 << (1 << n)
    best, witness, nodes, proven = Fraction(0), (), 0, True
    for value, size, members in _valued_families(n):
        nodes += 1
        if nodes > limit:
            proven = False
            break
        if size <= t and value > best:
            best, witness = value, members
    return best, witness, nodes, proven


def test_lambda_star_matches_exhaustion_for_every_budget():
    for n in (1, 2, 3):
        for t in range(1, 10):
            for budget in (None, 0, 1, 2, 3, 5, 100, 254, 255, 256):
                res = lambda_star_exact(n, t, budget)
                got = (res.value, res.witness.members, res.nodes_explored, res.proven_optimal)
                assert got == lambda_star_by_exhaustion(n, t, budget), (n, t, budget)


def test_lambda_star_n4_nodes_and_cutoffs():
    for t, witness in LAMBDA_STAR_N4_WITNESSES.items():
        res = lambda_star_exact(4, t)
        assert (res.witness.members, res.nodes_explored, res.proven_optimal) == (
            witness, 65535, True), t
    for (t, budget), want in LAMBDA_STAR_N4_CUTOFFS.items():
        res = lambda_star_exact(4, t, budget)
        assert (res.value, res.witness.members, res.nodes_explored) == want, (t, budget)
        assert not res.proven_optimal


def test_la_node_counts_frozen():
    for (n, t), nodes in LA_NODES.items():
        assert la_exact(n, t).nodes_explored == nodes, (n, t)
    for args, nodes in LA_RESTRICTED_NODES.items():
        assert la_exact_restricted(*args).nodes_explored == nodes, args


def test_la_restricted_is_symmetric_under_complementation():
    # complementation reverses inclusion, so it maps a family on the band
    # [kmin, kmax] to one on [n - kmax, n - kmin] with the same components
    for n in range(1, 6):
        full = (1 << n) - 1
        bands = [(kmin, kmax) for kmin in range(n + 1) for kmax in range(kmin, n + 1)]
        for t in range(1, 9):
            results = {band: la_exact_restricted(n, t, *band) for band in bands}
            for (kmin, kmax), res in results.items():
                lo, hi = n - kmax, n - kmin
                assert res.value == results[lo, hi].value, (n, t, kmin, kmax)
                mirrored = SetFamily.from_masks(n, [full ^ m for m in res.witness.members])
                assert len(mirrored) == res.value
                assert comparability_graph(mirrored).max_component_order() <= t
                assert all(lo <= m.bit_count() <= hi for m in mirrored.members)


def test_band_matches_pairwise_definition():
    # every band, the narrowed ones without the empty set or [n] and the
    # empty bands among them (n = 1 narrows [0, 1] to [1, 0])
    for n in range(1, 6):
        for kmin in range(n + 1):
            for kmax in range(kmin - 1, n + 1):
                masks = [m for m in range(1 << n) if kmin <= m.bit_count() <= kmax]
                rows = [sum(1 << j for j, y in enumerate(masks) if comparable(x, y)) for x in masks]
                assert _band(n, kmin, kmax) == (tuple(masks), tuple(rows)), (n, kmin, kmax)
    assert _band(1, 1, 0) == ((), ())


def test_searches_leave_cached_tables_as_built():
    for n in range(1, 5):
        for t in (1, 2, 5):
            la_exact(n, t)
            la_exact_restricted(n, t, 1, n)
            la_exact_restricted(n, t, n // 2, n // 2)
            min_two_chains(n, min(t, 1 << n))
        if n <= 3:
            lambda_star_exact(n, 2)
        xi_star_exact(n, 2)
        disconnected_splits(n)
        if n >= 2:
            max_disconnected(n)
        # the core and lubell tables, through their callers
        skip_count(SetFamily.from_masks(n, [0, (1 << n) - 1]))
        lubell_by_permutations(SetFamily.from_masks(n, [0, 1]))
    mad_star_probe(4)
    for table in (_band, _group_lanes, _steps, _prefix_columns, _split_tables):
        assert table.cache_info().currsize > 0, table
    for n in range(1, 6):
        _, rows = _band(n, 1, n - 1)
        tables = _split_tables(rows)
        assert tables == _split_tables.__wrapped__(rows), n
        tails, near = tables
        parts = (tables, *tables, *tails, *tails[0], *near)
        assert all(type(t) is tuple for t in parts), n
        # the walk's closure: outside near lie the indices incomparable to every bit
        full = (1 << len(rows)) - 1
        for c, chunk in enumerate(near):
            for b, reach in enumerate(chunk):
                apart = full
                for i in iter_bits(b << 10 * c):
                    apart &= full ^ rows[i] ^ 1 << i
                assert full ^ reach == apart, (n, c, b)
    for n in range(1, 5):
        for kmin in range(n + 1):
            for kmax in range(kmin - 1, n + 1):
                assert _band(n, kmin, kmax) == _band.__wrapped__(n, kmin, kmax)
        for with_complement in (False, True):
            got = _group_lanes(n, with_complement)
            assert got == _group_lanes.__wrapped__(n, with_complement)
        assert _steps(n) == _steps.__wrapped__(n)
        assert _prefix_columns(n) == _prefix_columns.__wrapped__(n)


def test_budget_sweep():
    # None is unbounded, a negative budget acts as 0, and the node after the
    # budget stops the search
    for search, args, total, results in BUDGET_SWEEP:
        res = search(*args, None)
        assert (res.nodes_explored, res.proven_optimal) == (total, True), search.__name__
        for budget in range(-1, total + 2):
            res = search(*args, budget)
            case = (search.__name__, args, budget)
            assert res.nodes_explored == min(max(budget, 0) + 1, total), case
            assert res.proven_optimal == (budget >= total), case
            want = (None, None)
            for first, got in results.items():
                if first <= budget:
                    want = got
            assert (res.value, plain_witness(res.witness)) == want, case
    for budget in range(-1, 570):
        if budget < 568:
            with pytest.raises(ResourceLimitError, match=f"after {max(budget, 0) + 1} nodes"):
                disconnected_splits(4, budget)
        else:
            assert len(disconnected_splits(4, budget)) == 78


def test_lambda_star_sandwich(known):
    la = _table(known, "la_exact")
    for (n, t), lam in _table(known, "lambda_star_exact").items():
        if (n, t) in la:
            assert lam * comb(n, n // 2) >= la[(n, t)]


def test_max_disconnected_matches_formulas():
    for n in range(2, 6):
        res = max_disconnected(n)
        assert res.proven_optimal
        assert res.value == disconnected_extremal_size(n)
        g = comparability_graph(res.witness)
        assert g.n_components >= 2
        assert len(res.witness) == res.value


def test_disconnected_splits_census():
    # counts of maximal disconnected families, frozen from full enumeration
    assert len(disconnected_splits(2)) == 1
    assert len(disconnected_splits(3)) == 9
    assert len(disconnected_splits(4)) == 78
    for a, b in disconnected_splits(3):
        # maximality: every absent set is comparable to both sides, so
        # adding it would bridge them into one component
        side_a = upset_bits(3, family_bits(a)) | downset_bits(3, family_bits(a))
        side_b = upset_bits(3, family_bits(b)) | downset_bits(3, family_bits(b))
        absent = ((1 << 8) - 1) & ~(family_bits(a) | family_bits(b))
        assert absent & ~(side_a & side_b) == 0


def test_disconnected_splits_match_graph_filter():
    # the maximality filter of disconnected_splits, restated through the
    # family-level comparability graph and links_every_component
    for n in range(1, 6):
        universe, _ = _band(n, 1, n - 1)
        assert universe == tuple(range(1, (1 << n) - 1))
        found = _closed_splits(n, _Budget(None))
        want = []
        seen = set()
        for extent, intent in found:
            if (intent, extent) in seen:
                continue
            seen.add((extent, intent))
            side_a, side_b = (tuple(u for i, u in enumerate(universe) if side >> i & 1)
                              for side in (extent, intent))
            family = SetFamily.from_masks(n, side_a + side_b)
            if links_every_component(family, comparability_graph(family).component_members):
                want.append((side_a, side_b))
        got = [(a.members, b.members) for a, b in disconnected_splits(n)]
        assert got == want, n


def test_maximal_splits_are_the_bitsets_of_disconnected_splits():
    for n in range(1, 6):
        splits = disconnected_splits(n, None)
        assert _maximal_splits(n, None) == [(family_bits(a), family_bits(b)) for a, b in splits]
        # each side keeps the bitset of its members: universe index i is mask i + 1
        for side in (side for split in splits for side in split):
            assert side.__dict__["_bits"] == family_bits(side.members), (n, side)


def test_disconnected_splits_budget():
    with pytest.raises(ResourceLimitError):
        disconnected_splits(4, budget_nodes=5)


class _Stop(Exception):
    pass


def closed_splits_by_common(n, budget_nodes):
    """Reference for _closed_splits: close-by-one over the universe of
    proper nonempty subsets, each closure the AND of the incomparability
    rows of the shrunk intent's bits, one by one.

    Returns (found, nodes).
    """
    universe = list(range(1, (1 << n) - 1))
    size = len(universe)
    full = (1 << size) - 1
    rows = [
        sum(1 << j for j, y in enumerate(universe) if x & y not in (x, y))
        for x in universe
    ]
    limit = inf if budget_nodes is None else max(budget_nodes, 0)
    found = []
    nodes = 0

    def common(bits):
        out = full
        for i in range(size):
            if (bits >> i) & 1:
                out &= rows[i]
        return out

    def cbo(extent, intent, start):
        nonlocal nodes
        if extent and intent:
            found.append((extent, intent))
        for y in range(start, size):
            if (extent >> y) & 1:
                continue
            shrunk = intent & rows[y]
            if not shrunk:
                continue
            nodes += 1
            if nodes > limit:
                raise _Stop
            closed = common(shrunk)
            below = (1 << y) - 1
            if (closed & below) != (extent & below):
                continue
            cbo(closed, shrunk, y + 1)

    try:
        cbo(0, full, 0)
    except _Stop:
        pass
    return found, nodes


def first_orientations(found):
    """The pairs whose extent holds the smaller least index."""
    return [(extent, intent) for extent, intent in found if extent & -extent < intent & -intent]


def test_closed_splits_match_common_loop():
    # the reference records each split from both sides; _closed_splits keeps
    # the orientation whose extent holds the smaller least index
    for n in range(2, 6):
        every, total = closed_splits_by_common(n, None)
        kept = first_orientations(every)
        assert sorted(kept + [(intent, extent) for extent, intent in kept]) == sorted(every), n
        for budget in (-1, 0, 1, 5, 1000, total - 1, total, None):
            budget_counter = _Budget(budget)
            found = _closed_splits(n, budget_counter)
            assert _band(n, 1, n - 1)[0] == tuple(range(1, (1 << n) - 1))
            want, nodes = closed_splits_by_common(n, budget)
            assert (found, budget_counter.nodes) == (first_orientations(want), nodes), (n, budget)


def xi_star_by_fractions(n, m, budget_nodes):
    """Reference for xi_star_exact: every bottom side of every adjacent layer
    pair, its tops ranked by (degree, index) in decreasing order, each node
    valued as a Fraction.

    Returns (value, (bottom masks, top masks), nodes, proven_optimal).
    """
    limit = inf if budget_nodes is None else max(budget_nodes, 0)
    best = best_pair = None
    nodes = 0
    try:
        for k in range(n):
            bottoms = [x for x in range(1 << n) if x.bit_count() == k]
            tops = [y for y in range(1 << n) if y.bit_count() == k + 1]
            for a_bits in range(1 << len(bottoms)):
                a = [x for i, x in enumerate(bottoms) if (a_bits >> i) & 1]
                bsize = m - len(a)
                if not 0 <= bsize <= len(tops):
                    continue
                nodes += 1
                if nodes > limit:
                    raise _Stop
                degs = sorted(
                    (sum(1 for x in a if x & y == x), j) for j, y in enumerate(tops)
                )[::-1]
                val = Fraction(2 * sum(d for d, _ in degs[:bsize]), m)
                if best is None or val > best:
                    best = val
                    best_pair = (tuple(a), tuple(sorted(tops[j] for _, j in degs[:bsize])))
    except _Stop:
        return best, best_pair, nodes, False
    return best, best_pair, nodes, True


def test_xi_star_matches_fraction_loop():
    for n in range(1, 6):
        orders = max(comb(n, k) + comb(n, k + 1) for k in range(n))
        for m in range(1, orders + 1):
            # at n <= 4, every budget stop, so each incumbent's witness is checked
            full = xi_star_exact(n, m, None).nodes_explored
            for budget in (None, *(range(full + 1) if n <= 4 else (0, 1, 7, 300))):
                res = xi_star_exact(n, m, budget)
                got = (res.value, plain_witness(res.witness), res.nodes_explored,
                       res.proven_optimal)
                assert got == xi_star_by_fractions(n, m, budget), (n, m, budget)


def test_xi_star_frozen_values(known):
    table = _table(known, "xi_star_exact")
    assert {(5, m) for m in range(1, 21)} <= set(table)
    for (n, m), expected in table.items():
        res = xi_star_exact(n, m)
        assert res.value == expected, (n, m, res.value)
    assert xi_star_exact(2, 2).value == 1
    assert xi_star_exact(3, 6).value == 2
    assert xi_star_exact(4, 1).value == 0


def test_xi_star_witness_soundness():
    res = xi_star_exact(5, 9)
    g = res.witness
    assert g.order() == 9
    from latticework.colouring import avg_degree

    assert avg_degree(g) == res.value == Fraction(20, 9)


def test_xi_star_infeasible_size():
    # no adjacent layer pair of [4] holds more than C(4,1)+C(4,2) vertices
    with pytest.raises(DomainError):
        xi_star_exact(4, 11)


def test_min_two_chains_frozen_table(known):
    table = _table(known, "min_two_chains")
    assert len(table) >= 7
    for (n, m), expected in table.items():
        res = min_two_chains(n, m)
        assert res.proven_optimal
        assert res.value == expected
        assert len(res.witness) == m
        assert count_two_chains(res.witness) == expected


def test_min_two_chains_supersaturation_bound():
    for n in (2, 3, 4):
        width = comb(n, n // 2)
        for q in (1, 2):
            value = min_two_chains(n, width + q).value
            assert value >= q * (n // 2 + 1)


def min_two_chains_by_combinations(n, m, budget_nodes=None):
    """Reference for min_two_chains: one node per m-subset of the cube in
    `combinations` order, each counted member by member against the masks
    before it, keeping the first strict minimum and stopping at 0.

    Returns (value, witness masks, nodes, proven_optimal).
    """
    cube = 1 << n
    # for masks x < y, comparable means x is a subset of y
    subs_row = [sum(1 << x for x in range(y) if comparable(x, y)) for y in range(cube)]
    limit = inf if budget_nodes is None else max(budget_nodes, 0)
    best = best_combo = None
    nodes = 0
    for combo in combinations(range(cube), m):
        nodes += 1
        if nodes > limit:
            return best, best_combo, nodes, False
        bits = cnt = 0
        for mask in combo:
            cnt += (subs_row[mask] & bits).bit_count()
            bits |= 1 << mask
        if best is None or cnt < best:
            best, best_combo = cnt, combo
            if best == 0:
                break
    return best, best_combo, nodes, True


def test_min_two_chains_matches_combinations():
    for n in range(1, 5):
        for m in range((1 << n) + 1):
            total = min_two_chains_by_combinations(n, m)[2]
            if n <= 3:
                budgets = range(-1, total + 2)
            else:
                budgets = (-1, 0, 1, 100, total - 1, total, None)
            for budget in budgets:
                res = min_two_chains(n, m, budget)
                got = (res.value, plain_witness(res.witness), res.nodes_explored,
                       res.proven_optimal)
                assert got == min_two_chains_by_combinations(n, m, budget), (n, m, budget)


def test_mad_star_frozen_table(known):
    table = _table(known, "mad_star_probe")
    assert {(t,) for t in range(1, 8)} <= set(table)
    for (t,), expected in table.items():
        res = mad_star_probe(t)
        assert res.proven_optimal
        assert res.value == expected, (t, res.value)
        if t >= 2:
            g = res.witness
            assert g.n_vertices == t
            assert Fraction(2 * len(g.edges), t) == expected
            assert is_proper(g)
            if len(g.edges) >= 3:
                assert find_rainbow_cycle(g, t) is None


def test_xi_star_below_mad_star():
    # a layer-pair subgraph admits a rainbow-cycle-free proper colouring,
    # so its density can never beat the unrestricted graph optimum
    for m in range(1, 8):
        cap = mad_star_probe(m).value
        for n in (4, 5):
            if m <= 2 * comb(n, n // 2):
                try:
                    val = xi_star_exact(n, m).value
                except DomainError:
                    continue
                assert val <= cap


def edge_order_by_rescan(edges):
    """The probe's edge order, re-sorting what is left at every step."""
    remaining = set(edges)
    ordered = []
    touched = set()
    while remaining:
        pick = None
        for e in sorted(remaining):
            if not ordered or e[0] in touched or e[1] in touched:
                pick = e
                break
        if pick is None:
            pick = sorted(remaining)[0]
        ordered.append(pick)
        remaining.discard(pick)
        touched.update(pick)
    return ordered


def test_edge_order_matches_rescan():
    graphs = [edges for t in range(1, 8) for edges in _graphs_of_order(t)]
    assert len(graphs) == 172
    for i, edges in enumerate(graphs):
        want = edge_order_by_rescan(edges)
        shuffled = list(edges)
        random.Random(i).shuffle(shuffled)
        for given in (edges, edges[::-1], shuffled):
            assert _edge_order(given) == want, given


def test_mad_star_witness_is_rechecked(monkeypatch):
    from latticework import colouring

    # the probe's own rainbow-path test never consults these checkers, which
    # it imports from `colouring` when it runs
    monkeypatch.setattr(colouring, "find_rainbow_cycle", lambda g, max_len: [0, 1, 2, 3])
    with pytest.raises(VerificationError, match="has a rainbow cycle"):
        mad_star_probe(4)
    monkeypatch.undo()
    monkeypatch.setattr(colouring, "is_proper", lambda g: False)
    with pytest.raises(VerificationError, match="is not proper"):
        mad_star_probe(4)


def test_mad_star_domain():
    with pytest.raises(DomainError):
        mad_star_probe(8)
    with pytest.raises(DomainError):
        mad_star_probe(0)


def pair_index(t):
    return {pair: i for i, pair in enumerate(combinations(range(t), 2))}


def has_triangle(t, code):
    index = pair_index(t)
    return any(
        all(code >> index[pair] & 1 for pair in combinations(triple, 2))
        for triple in combinations(range(t), 3)
    )


def min_codes(t, codes):
    """The least edge code of each graph over all t! relabellings."""
    index = pair_index(t)
    members = [[i for i in index.values() if code >> i & 1] for code in codes]
    best = list(codes)
    for p in permutations(range(t)):
        moved = [1 << index[min(p[u], p[v]), max(p[u], p[v])] for u, v in index]
        for g, bits in enumerate(members):
            image = sum(moved[i] for i in bits)
            if image < best[g]:
                best[g] = image
    return best


def test_triangle_free_table_counts_and_decoding():
    # OEIS A006785: triangle-free graphs on t unlabelled vertices
    assert {t: len(codes) for t, codes in _TRIANGLE_FREE.items()} == {
        1: 1, 2: 2, 3: 3, 4: 7, 5: 14, 6: 38, 7: 107,
    }
    for t, codes in _TRIANGLE_FREE.items():
        index = pair_index(t)
        graphs = _graphs_of_order(t)
        assert all(edges == sorted(edges) for edges in graphs)
        assert [sum(1 << index[e] for e in edges) for edges in graphs] == list(codes)


def test_triangle_free_table_has_no_triangle():
    for t, codes in _TRIANGLE_FREE.items():
        assert not any(has_triangle(t, code) for code in codes), t


def test_triangle_free_table_has_no_isomorphic_pair():
    for t, codes in _TRIANGLE_FREE.items():
        assert len(set(min_codes(t, codes))) == len(codes), t


def test_triangle_free_table_is_complete_up_to_t5():
    # every triangle-free labelled graph is isomorphic to one in the table
    for t in range(1, 6):
        labelled = [c for c in range(1 << len(pair_index(t))) if not has_triangle(t, c)]
        assert set(min_codes(t, labelled)) == set(min_codes(t, _TRIANGLE_FREE[t])), t


def test_triangle_free_table_is_the_atlas():
    nx = pytest.importorskip("networkx")
    atlas = {}
    for g in nx.graph_atlas_g():
        t = g.number_of_nodes()
        if 1 <= t <= 7 and not any(nx.triangles(g).values()):
            atlas.setdefault(t, []).append(sorted(tuple(sorted(e)) for e in g.edges()))
    assert atlas == {t: _graphs_of_order(t) for t in _TRIANGLE_FREE}
