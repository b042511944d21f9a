"""Every family at n <= 3, checked against the definitions alone.

The 4 + 16 + 256 = 276 families of subsets of [1], [2] and [3] are few
enough to check whole.  Each expected value is built from the
definitions in `reference.py`, never from the package's kernels:
components by union-find over every pair of members (the graph
through the one check of `graph_oracle.py`), Lubell sums as sums
of 1 / C(n, |X|), a diamond as a component holding every set between its
meet and its join.  Here the search values are maxima and minima over
the families themselves, and a maximally disconnected family is one
where each absent set is comparable to a member of every component.  `certify` is checked against
these on claims of true values and of values set off by one.

At n = 4 the 65,536 families fall into 2,104 orbits under relabelling
and complementation, which keep every invariant checked here (the
relabelling test below checks that at n <= 3); one representative of
each orbit is checked the same way.  Every n <= 4 entry of
known_values.json is checked against the search values derived here.
"""

from functools import cache
from itertools import permutations

import pytest

from latticework import search
from latticework.blym import diamond_blym_sum
from latticework.constructions import CLAIM_KEYS, certify
from latticework.core import (
    DomainError,
    PreconditionError,
    SetFamily,
    comparability_graph,
    count_two_chains,
    height,
)
from latticework.family import _mask_relabel_table
from latticework.lubell import lubell
from latticework.normalize import find_skips, make_skipless, skip_count
from graph_oracle import check_graphs
from reference import (
    comparable,
    components,
    interval_sum,
    is_interval,
    order,
    pairs,
    skips,
    span,
)
from reference import lubell as lubell_sum

GROUND_SIZES = (1, 2, 3)


def _families(n):
    """Every family over [n]: bit m of pick says whether mask m is a member."""
    cube = range(1 << n)
    return [SetFamily.from_masks(n, [m for m in cube if pick >> m & 1])
            for pick in range(1 << len(cube))]


def _check_against_definitions(family):
    n, members = family.n, family.members
    _, comps = check_graphs(family)
    assert lubell(family) == lubell_sum(n, members), family
    if members:
        sizes = [m.bit_count() for m in members]
        assert height(family) == max(sizes) - min(sizes), family
    else:
        with pytest.raises(DomainError):
            height(family)
    found = skips(n, members)
    assert skip_count(family) == len(found), family
    reports = find_skips(family)
    assert [y for y, _, _ in reports] == [y for y, _, _ in found], family
    for y, below, above in reports:
        assert below in family.member_set and above in family.member_set
        assert below & y == below
        assert y & above == y
    t = max([1, *map(len, comps)])
    skipless = make_skipless(family, t)
    assert len(skipless) == len(family), family
    assert not skips(n, skipless.members), family
    assert order(skipless.members) <= t, family


@pytest.mark.parametrize("n", GROUND_SIZES)
def test_every_family_matches_the_definitions(n):
    for family in _families(n):
        _check_against_definitions(family)


def _row(family):
    """Size, largest component order, Lubell sum, smallest and largest member
    size, number of components and 2-chain count."""
    # [n, 0] puts the empty family in every layer band
    members = family.members
    sizes = [m.bit_count() for m in members] or [family.n, 0]
    chains = pairs(members, comparable)
    comps = components(members, chains)
    return (len(family), max(map(len, comps), default=0), lubell_sum(family.n, members),
            min(sizes), max(sizes), len(comps), len(chains))


def _check_search_values(n, table, known):
    """Each search value at n against the one derived from the table, and each
    entry of known_values.json at n against the same derived value."""
    cube = 1 << n
    derived = {}
    for t in range(1, cube + 1):
        derived["la_exact", n, t] = max(s for s, o, *_ in table if o <= t)
        derived["lambda_star_exact", n, t] = max(lu for _, o, lu, *_ in table if o <= t)
        for kmin in range(n + 1):
            for kmax in range(kmin, n + 1):
                derived["la_exact_restricted", n, t, kmin, kmax] = max(
                    s for s, o, _, lo, hi, *_ in table if o <= t and kmin <= lo and hi <= kmax)
    for m in range(cube + 1):
        derived["min_two_chains", n, m] = min(c for s, *_, c in table if s == m)
    if n >= 2:
        derived["max_disconnected", n] = max(s for s, *_, parts, _ in table if parts >= 2)
    for (op, *args), want in derived.items():
        assert getattr(search, op)(*args).value == want, (op, args)
    # every op but mad_star_probe takes the ground size first, so no n-entry goes unchecked
    for (op, *args), value in known.items():
        if op != "mad_star_probe" and args[0] == n:
            assert derived.get((op, *args)) == value, (op, args)


class _Facts:
    """A family's components and what the claim keys ask of them, from the
    definitions."""

    def __init__(self, family):
        members = family.members
        self.family = family
        self.comps = components(members, pairs(members, comparable))
        self.heights = [(join ^ meet).bit_count() for meet, join in map(span, self.comps)]
        self.diamonds = all(map(is_interval, self.comps))
        self.isolated = [x for x in members if not any(comparable(x, y) for y in members)]
        # every absent set is comparable to a member of each component
        self.links = all(any(comparable(x, y) for x in c)
                         for y in range(1 << family.n) if y not in family.member_set
                         for c in self.comps)
        self.rest = {}  # per isolated member, the components of the other members

    def holds(self, key, want, claim):
        """Whether one claimed value is true of the family."""
        comps = self.comps
        if key == "size":
            return want == len(self.family)
        if key == "component_count":
            return want == len(comps)
        if key == "component_order":
            return all(len(c) == want for c in comps)
        if key == "diamond_components":
            return self.diamonds and (want is True or all(h == want["height"] for h in self.heights))
        if key == "disconnected":
            return want == (len(comps) >= 2)
        if key == "isolated_member":
            return want in self.isolated
        if key == "rest_connected":
            # the members but the claimed isolated one, if it is isolated, form one component
            iso = claim.get("isolated_member")
            if iso not in self.isolated:
                return want == (len(comps) == 1)
            if iso not in self.rest:
                rest = [m for m in self.family.members if m != iso]
                self.rest[iso] = components(rest, pairs(rest, comparable))
            return want == (len(self.rest[iso]) == 1)
        return want == (len(comps) >= 2 and self.links)  # maximally_disconnected

    def nearest_claim(self):
        """A value for every key, true wherever one value is."""
        members = self.family.members
        claim = {
            "size": len(members),
            "component_count": len(self.comps),
            "component_order": max(map(len, self.comps), default=0),
            "diamond_components": {"height": max(self.heights, default=0)},
            "disconnected": len(self.comps) >= 2,
            "isolated_member": (self.isolated or members or (0,))[0],
        }
        for key in ("rest_connected", "maximally_disconnected"):
            claim[key] = self.holds(key, True, claim)
        return claim


def _shift(value, d):
    """A claimed value set off by d: a flag negated, a number or height moved."""
    if isinstance(value, dict):
        return {"height": value["height"] + d}
    if isinstance(value, bool):
        return not value
    return value + d


def _check_certify_and_diamond_sum(family):
    facts = _Facts(family)
    near = facts.nearest_claim()
    # the claim built from the definitions: each nearest value that holds,
    # and the diamond shape True where no single height holds
    true = {key: value for key, value in near.items() if facts.holds(key, value, near)}
    true.setdefault("diamond_components", True)
    off = [{key: _shift(value, d) for key, value in near.items()} for d in (1, -1)]
    for claim in (true, near, *off):
        report = certify(family, claim)
        if claim is true:
            assert report.ok == facts.diamonds, (family, claim)
        checks = report.checks
        assert [c.name for c in checks] == [key for key in CLAIM_KEYS if key in claim], family
        for c in checks:
            assert c.passed == facts.holds(c.name, claim[c.name], claim), (family, c)
            # a count or flag set off by one is false whatever the family
            if claim is not near and c.name in (
                    "size", "component_count", "disconnected", "maximally_disconnected"):
                assert c.passed == (claim is true), (family, c)
    if facts.diamonds:
        assert diamond_blym_sum(family) == interval_sum(family.n, facts.comps), family
    else:
        with pytest.raises(PreconditionError):
            diamond_blym_sum(family)


@pytest.mark.parametrize("n", GROUND_SIZES)
def test_certify_and_diamond_sum_match_the_definitions(n):
    for family in _families(n):
        _check_certify_and_diamond_sum(family)


@pytest.mark.parametrize("n", GROUND_SIZES)
def test_search_values_match_the_whole_small_world(n, known):
    _check_search_values(n, [_row(family) for family in _families(n)], known)


@cache
def _orbit_representatives():
    """The least family of each orbit at n = 4, as a member bitset, walking
    all 2^16 in order and marking each new family's 48 images as seen."""
    n, full = 4, 15
    # per image of the masks, the image bitset of each low and high byte
    halves = []
    for perm in permutations(range(1, n + 1)):
        table = _mask_relabel_table(n, perm)
        for flip in (0, full):
            image = [1 << (table[m] ^ flip) for m in range(16)]
            low, high = [0] * 256, [0] * 256
            for b in range(1, 256):
                i = (b & -b).bit_length() - 1
                low[b] = low[b & (b - 1)] | image[i]
                high[b] = high[b & (b - 1)] | image[i + 8]
            halves.append((low, high))
    seen = bytearray(1 << 16)
    picks = []
    for pick in range(1 << 16):
        if not seen[pick]:
            picks.append(pick)
            for low, high in halves:
                seen[low[pick & 255] | high[pick >> 8]] = 1
    return [SetFamily.from_masks(n, [m for m in range(16) if pick >> m & 1]) for pick in picks]


def test_every_orbit_at_n4_matches_the_definitions():
    families = _orbit_representatives()
    assert len(families) == 2104
    for family in families:
        _check_against_definitions(family)


def test_certify_and_diamond_sum_match_the_orbits_at_n4():
    for family in _orbit_representatives():
        _check_certify_and_diamond_sum(family)


def test_search_values_match_the_orbits_at_n4(known):
    table = []
    for family in _orbit_representatives():
        row = _row(family)
        # the complement of a family in the orbit has its sizes mirrored;
        # relabelling keeps them, and every other column is kept by both
        table += [row, (*row[:3], 4 - row[4], 4 - row[3], *row[5:])]
    _check_search_values(4, table, known)


@pytest.mark.parametrize("n", GROUND_SIZES)
def test_relabelling_and_complementing_keep_the_invariants(n):
    full = (1 << n) - 1
    perms = list(permutations(range(1, n + 1)))

    def invariants(family):
        orders = sorted(comparability_graph(family).component_orders)
        return orders, count_two_chains(family), lubell(family), skip_count(family)

    for family in _families(n):
        want = invariants(family)
        for perm in perms:
            moved = family.relabel(perm)
            flipped = SetFamily.from_masks(n, [m ^ full for m in moved.members])
            assert invariants(moved) == want, (family, perm)
            assert invariants(flipped) == want, (family, perm)
