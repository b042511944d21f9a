"""Bit kernels for families in the Boolean lattice 2^[n].

The values they work on (masks, `SetFamily`, the errors and `_Record`) live
in `family`, with the package's conventions for them; `core` re-exports
every name from there, so `core.SetFamily` is `family.SetFamily`.

* The comparability graph of a family has the members as vertices and an
  edge for every 2-chain X < Y (strict containment).
* Components and 2-chain counts are computed bit-parallel over the whole
  cube (reach-closures, and a packed-lane subset sum) for n <=
  CLOSURE_GROUND_CAP, and by testing every pair of members beyond it (for
  at most PAIRWISE_MEMBER_CAP members) and for families of a few
  members.  A reach-closure grows by half-steps, the up-closure and the
  down-closure in turn, each taken inside the family; each is idempotent,
  so it stops at the first half-step after the first that adds nothing.
  On the cube, components grow from least members, and what is left when
  they stop is labelled in one pass with its component's least member and
  grouped by label.  A component is the ascending tuple of the family's
  own masks, numbered by least member.
* The bit-level helpers here are the package's only copies of their ideas:
  `iter_bits` lists the set bits of a bitset, `family_bits` and
  `bits_to_family` convert between a family and its bitset-of-masks.  A
  `SetFamily` keeps its bitset: `family_bits` scans a family's members at
  most once, and `_family_with_bits` (behind `bits_to_family`, `full_cube`
  and the `constructions` builders) builds a family of ascending members
  with the bitset they came with, cross-checked by count and largest mask
  instead of member by member.  `_comparability_rows` tests each pair of
  a member list in which no mask lies inside an earlier one, and
  `_row_components` grows components along those rows.  `_full` and
  `_steps`, cached per n, hold the cube and the one table the four sweeps
  read: per ground bit i, the masks lacking it.  A down-sweep may shift
  before it masks, as the masks from 2^n - 2^i up all have bit i.  `_full`
  checks the ground size, then the closure cap, for them and for the
  cube-sized builders in `core` and `constructions`.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import combinations, compress
from math import comb

# re-exported: the value layer, so every `core.<name>` import keeps working
from .family import (  # noqa: F401
    MAX_GROUND, BudgetExhaustedError, DomainError, LatticeError, PreconditionError,
    ResourceLimitError, SetFamily, VerificationError, _check_ground, _mask_relabel_table,
    _Record, elements_of, mask_of,
)

# The default node budget of every search.  Only the la searches can reach it;
# every other search needs under 100,000 nodes on any input of its domain.
NODE_BUDGET = 30_000_000


def layer_masks(n: int, k: int) -> list[int]:
    """All masks of cardinality k over [n], sorted by mask value."""
    _check_ground(n)
    if k < 0 or k > n:
        raise DomainError(f"layer {k} outside 0..{n}")
    if comb(n, k) > 1 << CLOSURE_GROUND_CAP:
        raise ResourceLimitError(f"layer materialisation capped at 2^{CLOSURE_GROUND_CAP} masks")
    return _layer(n, k)


def _layer(n: int, k: int) -> list[int]:
    # combinations of the bits from the highest down come in descending
    # mask order: each tuple compares by its highest bit first
    return list(map(sum, combinations([1 << b for b in reversed(range(n))], k)))[::-1]


def full_cube(n: int) -> SetFamily:
    """The whole lattice 2^[n] as a family."""
    full = _full(n)  # checks the ground size, then the closure cap
    return _family_with_bits(n, tuple(range(1 << n)), full)


def height(family: SetFamily) -> int:
    """Largest member cardinality minus smallest member cardinality."""
    if not family.members:
        raise DomainError("height of the empty family is undefined")
    sizes = family.sizes()
    return max(sizes) - min(sizes)


# ---------------------------------------------------------------------------
# Comparability structure.  Both the components and the 2-chain count come
# from the cube-wide bitsets below, or from comparability rows, built by
# testing every pair of members, where those are cheaper or the 2^n bitset
# is out of reach.


def _pairwise_is_cheaper(family: SetFamily) -> bool:
    # s^2 pair tests cost about as much as the bitset route over a cube of
    # 2^n bits (measured); 256 covers the sweeps' fixed cost on small cubes.
    s = len(family)
    return family.n > CLOSURE_GROUND_CAP or s * s <= max(256, 1 << family.n)


def count_two_chains(family: SetFamily) -> int:
    """Number of comparable pairs (2-chains) inside the family."""
    if _pairwise_is_cheaper(family):
        return sum(row.bit_count() for row in _comparability_rows(family.members)) // 2
    return sum(_lane_below_counts(family))


def _lane_below_counts(family: SetFamily) -> list[int]:
    """For each member, the number of members strictly inside it."""
    n, s = family.n, len(family)
    # Sum over subsets in 2^n packed byte lanes: lane Y ends up holding the
    # number of members contained in Y.  Lane values never exceed s, so
    # adding whole integers never carries from one lane into the next.
    width = s.bit_length() // 8 + 1
    lanes = bytearray(width << n)
    for m in family.members:
        lanes[m * width] = 1
    counts = int.from_bytes(lanes, "little")
    for i in range(n):
        run = width << i
        clear = int.from_bytes((b"\xff" * run + bytes(run)) * (1 << (n - 1 - i)), "little")
        counts += (counts & clear) << (8 * run)
    lanes = counts.to_bytes(width << n, "little")
    return [int.from_bytes(lanes[m * width:(m + 1) * width], "little") - 1 for m in family.members]


class ComparabilityGraph(_Record):
    """Comparability graph of a family, held as its components.

    component_members[c] holds the masks of component c, ascending, and the
    components are numbered in order of their least members.
    component_orders[c] and component_sizes[c] are the member and edge
    counts of component c, derived on first use: the edges from the
    comparability rows of the family where pairs are cheaper (the rows the
    graph was built from), else from the members strictly inside each
    member, counted on the cube.
    """

    def __init__(self, family: SetFamily, component_members: tuple):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "component_members", component_members)

    @property
    def n_components(self) -> int:
        return len(self.component_members)

    @cached_property
    def component_orders(self) -> tuple[int, ...]:
        return tuple(len(ms) for ms in self.component_members)

    @cached_property
    def _rows(self) -> list[int]:
        # `comparability_graph` sets them when it builds from pairs
        return _comparability_rows(self.family.members)

    @cached_property
    def component_sizes(self) -> tuple[int, ...]:
        family = self.family
        if _pairwise_is_cheaper(family):
            # a member's degree counts each of its edges, so each edge twice
            counts, ends = map(int.bit_count, self._rows), 2
        else:
            # each edge is counted at its upper member, which lies in its component
            counts, ends = _lane_below_counts(family), 1
        count = dict(zip(family.members, counts))
        return tuple(sum(map(count.__getitem__, ms)) // ends for ms in self.component_members)

    def component_family(self, c: int) -> SetFamily:
        return SetFamily(self.family.n, self.component_members[c])

    def max_component_order(self) -> int:
        return max(self.component_orders, default=0)


def comparability_graph(family: SetFamily) -> ComparabilityGraph:
    """Build the comparability graph (all 2-chains) of a family."""
    if not _pairwise_is_cheaper(family):
        return ComparabilityGraph(family, tuple(_closure_components(family)))
    ms = family.members
    rows = _comparability_rows(ms)
    graph = ComparabilityGraph(family, tuple(_row_components(ms, rows)))
    object.__setattr__(graph, "_rows", rows)  # kept for component_sizes
    return graph


def _comparability_rows(ms: tuple[int, ...]) -> list[int]:
    """Bit j of row i is set iff masks i and j of ms are comparable, so no
    row has its own bit.  Each pair is tested once, the earlier mask inside
    the later: no mask of ms may lie inside an earlier one, as in ascending
    masks or one layer then the next.
    Past PAIRWISE_MEMBER_CAP masks the request is refused.
    """
    if len(ms) > PAIRWISE_MEMBER_CAP:
        raise ResourceLimitError(f"pairwise comparability capped at {PAIRWISE_MEMBER_CAP} members")
    rows = [0] * len(ms)
    for i, x in enumerate(ms):
        for j in range(i + 1, len(ms)):
            if x & ms[j] == x:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _row_components(ms: tuple[int, ...], rows: list[int]) -> list[tuple[int, ...]]:
    """The components' ascending member tuples, in least-member order, of
    the graph on ms whose neighbours of ms[i] are the bits of rows[i]: each
    grows from the least index left.
    """
    out = []
    left = (1 << len(ms)) - 1
    while left:
        component = front = left & -left
        while front:
            low = front & -front
            front ^= low
            grown = rows[low.bit_length() - 1] & ~component
            component |= grown
            front |= grown
        left ^= component
        out.append(tuple(compress(ms, _spread(component))))
    return out


def _closure_components(family: SetFamily) -> list[tuple[int, ...]]:
    """The components' ascending member tuples, in least-member order, by
    reach-closures on bitsets.

    Members comparable to no other member are components of their own, so
    an antichain costs four sweeps however many members it has.  Each other
    component is the reach-closure of its least member.  If that leaves no
    member before the half-steps reach n, the components are read straight
    from their bitsets.  Otherwise each member is labelled with its
    component's least member, one bitset per label bit t (`planes[t]`),
    `_plane_labels` labels the rest, and the members are grouped once by
    label.
    """
    n = family.n
    bits = family_bits(family)
    below = downset_bits(n, shadow_bits(n, bits))
    above = upset_bits(n, shade_bits(n, bits))
    rest = bits & (below | above)
    isolated = bits ^ rest
    found = []
    steps = 0
    while rest and steps < n:
        component, taken = _reach_closure(n, rest & -rest, rest)
        steps += taken
        rest ^= component
        found.append(component)
    if not rest:
        # the family's own mask objects, picked by their points in bits
        points = _spread(bits)
        tuples = [tuple(compress(family.members, compress(_spread(c), points))) for c in found]
        return sorted([*zip(compress(family.members, compress(_spread(isolated), points))), *tuples])
    planes = [isolated ^ isolated & off for off, _ in _steps(n)]
    for component in found:
        m = (component & -component).bit_length() - 1
        planes = [p | component if m >> t & 1 else p for t, p in enumerate(planes)]
    _plane_labels(n, rest, planes)
    # four bytes per cube point: byte g of point m holds label bits 8g..8g+7
    labels = bytearray(4 << n)
    for g in range(0, n, 8):
        lane = sum(int.from_bytes(_spread(p, j), "little") for j, p in enumerate(planes[g:g + 8]))
        labels[g // 8::4] = lane.to_bytes(1 << n, "little")
    label = memoryview(labels).cast("I").__getitem__
    return _group(family.members, map(label, family.members))


def _reach_closure(n: int, seeds: int, bits: int) -> tuple[int, int]:
    """The members of bits joined to seeds by a path inside bits, and the
    half-steps taken.

    The closure X grows by half-steps, up and down in turn: X |= upset(X) &
    bits, then X |= downset(X) & bits.  Containments in one direction
    compose, so a shortest path alternates, and one of d edges takes about d
    half-steps of n passes each.  A half-step is idempotent (upset(X |
    (upset(X) & bits)) is upset(X)), so once a half-step after the first adds
    nothing, X is closed both ways and the closure stops.
    """
    if not seeds:
        return 0, 0
    closure, steps = seeds, 0
    while True:
        sweep = downset_bits if steps & 1 else upset_bits
        grown = closure | sweep(n, closure) & bits
        steps += 1
        if grown == closure and steps > 1:
            return closure, steps
        closure = grown


_SPREAD = tuple(bytes.maketrans(b"01", bytes((0, 1 << j))) for j in range(8))


def _spread(bits: int, j: int = 0) -> bytes:
    """Bit i of bits as byte i, lowest first: 2^j for a 1 and 0 for a 0."""
    return bin(bits)[:1:-1].encode().translate(_SPREAD[j])


def _plane_labels(n: int, bits: int, planes: list[int]) -> None:
    """OR into planes[t] the members of a bitset-of-masks whose component's
    least member has bit t: about n reach-closures however many components.

    Bit t of a member's label, found from the highest t down, is bit t of
    its component's least member.  Before bit t, a component's candidates
    are its members agreeing with its least member above t.  Z, the
    reach-closure of the candidates without t, is the union of the
    components having one: their least members lack t, and their
    candidates with t drop out.  A component outside Z has only candidates
    with t, its least member among them, so its members get bit t = 1.
    Equal labels thus mean one component.  Z is skipped when every
    candidate lacks t.
    """
    candidates = bits
    for t, (off, _) in reversed(tuple(enumerate(_steps(n)))):
        seeds = candidates & off
        if seeds != candidates:
            z, _ = _reach_closure(n, seeds, bits)
            planes[t] |= bits & ~z
            candidates ^= candidates & (z ^ off)


def _group(masks, ids) -> list[tuple[int, ...]]:
    """The masks with equal ids as tuples, in order of their first mask."""
    groups: dict[int, list[int]] = {}
    for m, c in zip(masks, ids):
        groups.setdefault(c, []).append(m)
    return [tuple(g) for g in groups.values()]


# ---------------------------------------------------------------------------
# Bitset-of-masks helpers.  A subset of 2^[n] is itself encoded as one big
# integer whose bit m says whether mask m belongs.  The closure DPs below
# sweep one ground element at a time, which is exactly frontier expansion
# along cover edges done bit-parallel.

CLOSURE_GROUND_CAP = 20
# The pairwise route tests s(s-1)/2 pairs: 3.4e7 at this many members, 2.3 s
# with Python 3.11.7 on a 2-vCPU machine.  Below the closure cap it serves at
# most 1,024 members; past it, larger families are refused.
PAIRWISE_MEMBER_CAP = 1 << 13


def family_bits(masks) -> int:
    """Bitset with bit m set for each mask m of a family or collection of masks.

    A `SetFamily` keeps its bitset, once computed, on the instance (never as
    a field), so each family is scanned at most once.
    """
    if masks.__class__ is not SetFamily:
        return _scan_bits(masks)
    bits = masks.__dict__.get("_bits")
    if bits is None:
        bits = _scan_bits(masks.members)
        object.__setattr__(masks, "_bits", bits)
    return bits


def _scan_bits(masks) -> int:
    top = max(masks, default=-1)
    if top >= 1 << CLOSURE_GROUND_CAP:
        raise ResourceLimitError(f"cube-wide closures capped at n={CLOSURE_GROUND_CAP} (mask {top})")
    # a digit per mask, parsed once; the spare digit parses an empty collection
    digits = bytearray(b"0") * (top + 2)
    for m in masks:
        digits[m] = 49  # ord("1")
    return int(digits[::-1], 2)


def bits_to_family(n: int, bits: int) -> SetFamily:
    return _family_with_bits(n, tuple(iter_bits(bits)), bits)


def _family_with_bits(n: int, members: tuple[int, ...], bits: int) -> SetFamily:
    """The family of ascending members, keeping their bitset.

    Members and bitset are cross-checked in O(1) big-int steps, by their
    count and their largest mask, not member by member as
    `SetFamily.__init__` does: a disagreement is a defect.
    """
    _check_ground(n)
    top = bits.bit_length() - 1
    if top >= 1 << n:
        raise DomainError(f"mask {top} does not fit in ground set [{n}]")
    last = members[-1] if members else -1
    if bits.bit_count() != len(members) or top != last:
        raise VerificationError(f"bitset of {bits.bit_count()} masks up to {top} disagrees "
                                f"with {len(members)} members up to {last}")
    family = SetFamily.__new__(SetFamily)
    object.__setattr__(family, "n", n)
    object.__setattr__(family, "members", members)
    object.__setattr__(family, "_bits", bits)
    return family


def _bit_column(n: int, i: int) -> int:
    # Positions m (0 <= m < 2^n) whose i-th ground bit is clear: one block
    # of 2^i ones, doubled until it spans the cube.
    col = (1 << (1 << i)) - 1
    width = 2 << i
    while width < 1 << n:
        col |= col << width
        width <<= 1
    return col


@cache
def _full(n: int) -> int:
    _check_ground(n)
    if n > CLOSURE_GROUND_CAP:
        raise ResourceLimitError(f"whole-cube families and closures capped at n={CLOSURE_GROUND_CAP}")
    return (1 << (1 << n)) - 1


@cache
def _steps(n: int) -> tuple[tuple[int, int], ...]:
    # per ground bit i: the masks lacking it, and the shift 2^i that adds or
    # drops it.  A down-sweep may shift first: m - 2^i lacks bit i iff m has
    # it, and positions past the cube land on masks from 2^n - 2^i up, which have it.
    _full(n)  # checks the ground size, then the closure cap
    return tuple((_bit_column(n, i), 1 << i) for i in range(n))


def downset_bits(n: int, bits: int) -> int:
    """Bitset of all masks below-or-equal some mask in bits."""
    for off, shift in _steps(n):
        bits |= (bits >> shift) & off
    return bits


def upset_bits(n: int, bits: int) -> int:
    """Bitset of all masks above-or-equal some mask in bits."""
    for off, shift in _steps(n):
        bits |= (bits & off) << shift
    return bits


def shadow_bits(n: int, bits: int) -> int:
    """Bitset of the masks one element below some mask in bits."""
    out = 0
    for off, shift in _steps(n):
        out |= (bits >> shift) & off
    return out


def shade_bits(n: int, bits: int) -> int:
    """Bitset of the masks one element above some mask in bits."""
    out = 0
    for off, shift in _steps(n):
        out |= (bits & off) << shift
    return out


def iter_bits(bits: int) -> list[int]:
    """The positions of the set bits of a bitset-of-masks, ascending."""
    # One pass over the binary digits: stepping with bits & -bits would copy
    # the whole integer per set bit.  Past one set bit in eight (break-even,
    # measured at 2^10 and 2^16 bits) read a byte per digit, else skip to each.
    if bits.bit_count() * 8 > bits.bit_length():
        return list(compress(range(bits.bit_length()), _spread(bits)))
    digits = bin(bits)
    out = []
    last = len(digits) - 1
    i = digits.rfind("1")
    while i > 0:
        out.append(last - i)
        i = digits.rfind("1", 0, i)
    return out


def is_antichain(family: SetFamily) -> bool:
    """True iff no member strictly contains another."""
    if _pairwise_is_cheaper(family):
        return not any(_comparability_rows(family.members))
    n, bits = family.n, family_bits(family)
    return not bits & downset_bits(n, shadow_bits(n, bits))


def binomial(n: int, k: int) -> int:
    """comb with the convention that out-of-range k gives 0."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)
