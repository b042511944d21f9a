"""Bitmask subsets of [n] and families of them in the Boolean lattice 2^[n].

Conventions used across the package:

* The ground set is [n] = {1, ..., n} with 1 <= n <= 63.
* A subset of [n] is encoded as an integer mask: element i corresponds to
  bit i-1, so {1, 3} over any n is the mask 0b101 = 5.  Masks are an
  internal encoding; JSON interchange uses sorted element lists.
* A set family is a duplicate-free collection of masks over one ground set,
  kept sorted by mask value (`SetFamily`).
* The comparability graph of a family has the members as vertices and an
  edge for every 2-chain X < Y (strict containment).  The cover graph keeps
  only the edges with |Y| - |X| = 1.
* Components and 2-chain counts are computed bit-parallel over the whole
  cube (reach-closures through down- and up-closures, and a packed-lane
  subset sum) for n <= CLOSURE_GROUND_CAP, and by testing every pair of
  members beyond it (for at most PAIRWISE_MEMBER_CAP members) and for
  families of a few members.  On the cube, one pass labels every member
  with its component's least member, and the members are grouped once by
  label.  A component is stored as the ascending tuple of its members, and
  components are numbered by least member; per-member component numbers
  and edge lists are built only when asked.
* The bit-level helpers here are the package's only copies of their ideas:
  `iter_bits` lists the set bits of a bitset, `family_bits` and
  `bits_to_family` convert between a family and its bitset-of-masks,
  `_mask_relabel_table` maps every mask under a permutation of [n],
  `_comparability_rows` tests every pair of an ascending member list once,
  `_row_components` grows components along those rows, and `_full`,
  `_columns` and `_complements`, cached per n and capped like `family_bits`,
  hold the cube and the masks having (lacking) each bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import combinations, compress
from math import comb

MAX_GROUND = 63
# The default node budget of every search.  Only the la searches can reach it;
# every other search needs under 100,000 nodes on any input of its domain.
NODE_BUDGET = 30_000_000


class LatticeError(Exception):
    """Base class for contract violations raised by this package."""


class DomainError(LatticeError):
    """An argument lies outside the operation's mathematical domain."""


class PreconditionError(LatticeError):
    """Input fails a structural precondition (for example: not an antichain)."""


class ResourceLimitError(LatticeError):
    """The request exceeds a documented size cap for exact computation."""


class BudgetExhaustedError(ResourceLimitError):
    """A search's node budget ran out before it finished."""


class VerificationError(LatticeError):
    """A computed result failed its independent re-check: a defect, not bad input."""


def mask_of(elements) -> int:
    """Encode an iterable of elements from [n] as a mask.

    >>> mask_of([1, 3])
    5
    """
    m = 0
    for e in elements:
        if e < 1 or e > MAX_GROUND:
            raise DomainError(f"element {e} outside 1..{MAX_GROUND}")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Decode a mask back to a sorted tuple of elements.

    >>> elements_of(5)
    (1, 3)
    """
    if mask < 0:
        raise DomainError("mask must be non-negative")
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def is_comparable(x: int, y: int) -> bool:
    """True iff the distinct subsets x, y satisfy x < y or y < x.

    Raises DomainError when x == y: comparability is a relation on pairs of
    distinct sets here, and silently answering would hide caller bugs.
    """
    if x == y:
        raise DomainError("is_comparable expects distinct sets")
    return (x & y) == x or (x & y) == y


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


def _check_ground(n: int) -> None:
    if not 1 <= n <= MAX_GROUND:
        raise DomainError(f"ground set size {n} outside 1..{MAX_GROUND}")


@dataclass(frozen=True)
class SetFamily:
    """A duplicate-free family of subsets of [n], sorted by mask value."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        _check_ground(self.n)
        prev = -1
        for m in self.members:
            if not prev < m:
                raise DomainError("members must be strictly increasing masks")
            prev = m
        # the members ascend, so the last is the largest
        if prev >= 1 << self.n:
            raise DomainError(f"mask {prev} does not fit in ground set [{self.n}]")

    @classmethod
    def from_masks(cls, n: int, masks) -> "SetFamily":
        """Build a family from any iterable of masks (sorted, deduplicated)."""
        return cls(n, tuple(sorted(set(masks))))

    @classmethod
    def from_sets(cls, n: int, sets) -> "SetFamily":
        """Build a family from an iterable of element iterables."""
        return cls.from_masks(n, (mask_of(s) for s in sets))

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.member_set

    def to_sets(self) -> list[tuple[int, ...]]:
        return [elements_of(m) for m in self.members]

    def sizes(self) -> list[int]:
        return [m.bit_count() for m in self.members]

    def add(self, mask: int) -> "SetFamily":
        return SetFamily.from_masks(self.n, self.members + (mask,))

    def remove(self, mask: int) -> "SetFamily":
        if mask not in self.member_set:
            raise DomainError(f"mask {mask} not in family")
        return SetFamily(self.n, tuple(m for m in self.members if m != mask))

    def relabel(self, perm: tuple[int, ...]) -> "SetFamily":
        """Apply a permutation of [n] (perm[i-1] is the image of element i)."""
        if sorted(perm) != list(range(1, self.n + 1)):
            raise DomainError("perm must be a permutation of 1..n")
        table = _mask_relabel_table(self.n, perm)
        return SetFamily.from_masks(self.n, (table[m] for m in self.members))

    def to_jsonable(self) -> dict:
        return {"n": self.n, "sets": [list(s) for s in self.to_sets()]}

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), separators=(",", ":"))

    @classmethod
    def from_jsonable(cls, obj: dict) -> "SetFamily":
        if not isinstance(obj, dict) or "n" not in obj or "sets" not in obj:
            raise DomainError('family JSON must be {"n": int, "sets": [[...]]}')
        n, sets = obj["n"], obj["sets"]
        if type(n) is not int:
            raise DomainError(f"family JSON n must be an integer, got {n!r}")
        if not isinstance(sets, list):
            raise DomainError(f'family JSON "sets" must be a list, got {sets!r}')
        for s in sets:
            if not isinstance(s, list):
                raise DomainError(f"family JSON set {s!r} is not a list of elements")
            for e in s:
                # bool is an int subclass, so True would otherwise read as 1
                if type(e) is not int:
                    raise DomainError(f"family JSON element {e!r} in set {s!r} is not an integer")
        return cls.from_sets(n, sets)

    @classmethod
    def from_json(cls, text: str) -> "SetFamily":
        return cls.from_jsonable(json.loads(text))

    def digest(self) -> str:
        """Stable sha256 of the canonical JSON encoding."""
        import hashlib  # only here, so most processes never load _hashlib

        return hashlib.sha256(self.to_json().encode()).hexdigest()


def _mask_relabel_table(n: int, perm: tuple[int, ...]) -> list[int]:
    bits = [1 << (perm[i] - 1) for i in range(n)]
    table = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        table[m] = table[m ^ low] | bits[low.bit_length() - 1]
    return table


def full_cube(n: int) -> SetFamily:
    """The whole lattice 2^[n] as a family."""
    _check_ground(n)
    if n > CLOSURE_GROUND_CAP:
        raise ResourceLimitError(f"full cube materialisation capped at n={CLOSURE_GROUND_CAP}")
    return SetFamily(n, tuple(range(1 << n)))


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


@dataclass(frozen=True)
class ComparabilityGraph:
    """Comparability (or cover) graph of a family, with its components.

    component_members[c] holds the masks of component c, ascending, and the
    components are numbered in order of their least members.  Vertices are
    member indices into family.members: component_id maps each vertex to
    its component number, and component_orders[c] and component_sizes[c]
    are the vertex and edge counts of component c.  All of these but the
    members are derived on first use: comparability edges from the
    comparability rows of each component's members, cover edges by looking
    up each member less one of its elements.
    """

    family: SetFamily
    component_members: tuple[tuple[int, ...], ...]
    cover_only: bool = field(default=False)

    @property
    def n_components(self) -> int:
        return len(self.component_members)

    @cached_property
    def component_orders(self) -> tuple[int, ...]:
        return tuple(len(ms) for ms in self.component_members)

    @cached_property
    def component_id(self) -> tuple[int, ...]:
        component_of = {m: c for c, ms in enumerate(self.component_members) for m in ms}
        return tuple(component_of[m] for m in self.family.members)

    @cached_property
    def _rows(self) -> tuple[list[int], ...]:
        return tuple(_comparability_rows(ms) for ms in self.component_members)

    @cached_property
    def _covers_below(self) -> list[list[int]]:
        # for each member, the members one element below it: at most n
        # lookups per member, not a pass over its component
        have, singletons = self.family.member_set, [1 << b for b in range(self.family.n)]
        return [[m ^ e for e in singletons if m & e and m ^ e in have] for m in self.family]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self.cover_only:
            index = {m: v for v, m in enumerate(self.family.members)}
            below = enumerate(self._covers_below)
            return tuple(sorted((index[x], v) for v, xs in below for x in xs))
        out = []
        for vs, rows in zip(self.components(), self._rows):
            for i, row in enumerate(rows):
                # the bits of row i above i
                out += [(vs[i], vs[j]) for j in iter_bits(row >> i + 1 << i + 1)]
        return tuple(sorted(out))

    @cached_property
    def component_sizes(self) -> tuple[int, ...]:
        family = self.family
        if self.cover_only:
            counts = map(len, self._covers_below)
        elif _pairwise_is_cheaper(family):
            return tuple(sum(row.bit_count() for row in rows) // 2 for rows in self._rows)
        else:
            counts = _lane_below_counts(family)
        # each edge is counted at its upper member, which lies in its component
        below = dict(zip(family.members, counts))
        return tuple(sum(map(below.__getitem__, ms)) for ms in self.component_members)

    def components(self) -> list[list[int]]:
        out = [[] for _ in range(self.n_components)]
        for v, c in enumerate(self.component_id):
            out[c].append(v)
        return out

    def component_family(self, c: int) -> SetFamily:
        return SetFamily(self.family.n, self.component_members[c])

    def max_component_order(self) -> int:
        return max(self.component_orders, default=0)


def comparability_graph(family: SetFamily, cover_only: bool = False) -> ComparabilityGraph:
    """Build the comparability graph (all 2-chains) or cover graph of a family."""
    if _pairwise_is_cheaper(family):
        ms = family.members
        components = _row_components(ms, _comparability_rows(ms, cover_only))
    else:
        components = _closure_components(family, cover_only)
    return ComparabilityGraph(family, tuple(components), cover_only)


def _comparability_rows(ms: tuple[int, ...], cover_only: bool = False) -> list[int]:
    """Bit j of row i is set iff masks i and j of the ascending ms are
    comparable (with cover_only, one element apart), so no row has its own
    bit.  Every pair is tested once: only the earlier mask can lie inside
    the later one.  Past PAIRWISE_MEMBER_CAP masks the request is refused.
    """
    if len(ms) > PAIRWISE_MEMBER_CAP:
        raise ResourceLimitError(f"pairwise comparability capped at {PAIRWISE_MEMBER_CAP} members")
    rows = [0] * len(ms)
    for i, x in enumerate(ms):
        above = x.bit_count() + 1
        for j in range(i + 1, len(ms)):
            y = ms[j]
            if x & y == x and (not cover_only or y.bit_count() == above):
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


def _closure_components(family: SetFamily, cover_only: bool) -> list[tuple[int, ...]]:
    """The components' ascending member tuples, in least-member order, by
    reach-closures on bitsets.

    Each member is labelled with its component's least member, one bitset
    per label bit t (`planes[t]`).  Members comparable to no other member
    label themselves, so an antichain costs four sweeps however many
    members it has.  Each other component grows from its least member, a
    step adding every member comparable to (or one element from) the
    frontier; once the steps reach n, `_plane_labels` labels the rest.
    """
    n = family.n
    bits = family_bits(family)
    below, above = shadow_bits(n, bits), shade_bits(n, bits)
    if not cover_only:
        below, above = downset_bits(n, below), upset_bits(n, above)
    rest = bits & (below | above)
    isolated = bits ^ rest
    planes = [isolated & col for col in _columns(n)]
    steps = 0
    while rest and steps < n:
        component, taken = _reach_closure(n, rest & -rest, rest, cover_only)
        steps += taken
        rest ^= component
        m = (component & -component).bit_length() - 1
        planes = [p | component if m >> t & 1 else p for t, p in enumerate(planes)]
    _plane_labels(n, rest, cover_only, planes)
    # four bytes per cube point: byte g of point m holds label bits 8g..8g+7
    labels = bytearray(4 << n)
    for g in range(0, n, 8):
        lane = sum(int.from_bytes(_spread(p, j), "little") for j, p in enumerate(planes[g:g + 8]))
        labels[g // 8::4] = lane.to_bytes(1 << n, "little")
    label = memoryview(labels).cast("I").__getitem__
    return _group(family.members, map(label, family.members))


def _reach_closure(n: int, seeds: int, bits: int, cover_only: bool) -> tuple[int, int]:
    """The members of bits joined to seeds by a path inside bits, and the steps taken."""
    down, up = (shadow_bits, shade_bits) if cover_only else (downset_bits, upset_bits)
    closure = front = seeds
    steps = 0
    while front:
        front = (down(n, front) | up(n, front)) & bits & ~closure
        closure |= front
        steps += 1
    return closure, steps


_SPREAD = tuple(bytes.maketrans(b"01", bytes((0, 1 << j))) for j in range(8))


def _spread(bits: int, j: int = 0) -> bytes:
    """Bit i of bits as byte i, lowest first: 2^j for a 1 and 0 for a 0."""
    return bin(bits)[:1:-1].encode().translate(_SPREAD[j])


def _plane_labels(n: int, bits: int, cover_only: bool, planes: list[int]) -> None:
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
    for t, (col, off) in reversed(tuple(enumerate(zip(_columns(n), _complements(n))))):
        seeds = candidates & off
        if seeds != candidates:
            z, _ = _reach_closure(n, seeds, bits, cover_only)
            planes[t] |= bits & ~z
            candidates &= z ^ col


def _group(masks, ids) -> list[tuple[int, ...]]:
    """The masks with equal ids as tuples, in order of their first mask."""
    groups: dict[int, list[int]] = {}
    for m, c in zip(masks, ids):
        groups.setdefault(c, []).append(m)
    return [tuple(g) for g in groups.values()]


def cover_graph(family: SetFamily) -> ComparabilityGraph:
    """Graph of containments that differ by exactly one element."""
    return comparability_graph(family, cover_only=True)


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
    """Bitset with bit m set for each mask m of a family or collection of masks."""
    top = max(masks, default=-1)
    if top >= 1 << CLOSURE_GROUND_CAP:
        raise ResourceLimitError(f"cube-wide closures capped at n={CLOSURE_GROUND_CAP} (mask {top})")
    # a digit per mask, parsed once; the spare digit parses an empty collection
    digits = bytearray(b"0") * (top + 2)
    for m in masks:
        digits[m] = 49  # ord("1")
    return int(digits[::-1], 2)


def bits_to_family(n: int, bits: int) -> SetFamily:
    return SetFamily(n, tuple(iter_bits(bits)))


def _bit_column(n: int, i: int) -> int:
    # Positions m (0 <= m < 2^n) whose i-th ground bit is set: one block of
    # 2^i ones above 2^i zeros, doubled until it spans the cube.
    col = ((1 << (1 << i)) - 1) << (1 << i)
    width = 2 << i
    while width < 1 << n:
        col |= col << width
        width <<= 1
    return col


@cache
def _full(n: int) -> int:
    _check_ground(n)
    if n > CLOSURE_GROUND_CAP:
        raise ResourceLimitError(f"cube-wide closures capped at n={CLOSURE_GROUND_CAP} (2^n bit DP)")
    return (1 << (1 << n)) - 1


@cache
def _columns(n: int) -> tuple[int, ...]:
    _full(n)  # checks the closure cap
    return tuple(_bit_column(n, i) for i in range(n))


@cache
def _complements(n: int) -> tuple[int, ...]:
    return tuple(_full(n) ^ col for col in _columns(n))


def downset_bits(n: int, bits: int) -> int:
    """Bitset of all masks below-or-equal some mask in bits."""
    for i, col in enumerate(_columns(n)):
        bits |= (bits & col) >> (1 << i)
    return bits


def upset_bits(n: int, bits: int) -> int:
    """Bitset of all masks above-or-equal some mask in bits."""
    for i, off in enumerate(_complements(n)):
        bits |= (bits & off) << (1 << i)
    return bits


def shadow_bits(n: int, bits: int) -> int:
    """Bitset of the masks one element below some mask in bits."""
    out = 0
    for i, col in enumerate(_columns(n)):
        out |= (bits & col) >> (1 << i)
    return out


def shade_bits(n: int, bits: int) -> int:
    """Bitset of the masks one element above some mask in bits."""
    out = 0
    for i, off in enumerate(_complements(n)):
        out |= (bits & off) << (1 << i)
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
    bits = family_bits(family)
    shadow = shadow_bits(family.n, bits)
    strict_down = downset_bits(family.n, shadow) if shadow else 0
    return (bits & strict_down) == 0


def binomial(n: int, k: int) -> int:
    """comb with the convention that out-of-range k gives 0."""
    if k < 0 or k > n:
        return 0
    return comb(n, k)
