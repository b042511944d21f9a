"""Explicit extremal families, each paired with an independent certifier.

The constructions are cheap; the value is in `certify`, which re-derives
every claimed property (size, component structure, diamond shape,
disconnection, maximality) from the raw masks rather than trusting the
generator.  A claim holds keys of `CLAIM_KEYS` only, and each claimed
value is compared with one derived from the comparability components that
`core.comparability_graph` computes from the masks, whatever the family's
size; a component is a diamond when its members fill the interval between
their meet and their join.  Bitsets of members come from `core.family_bits`.
The builders hand each family over with its bitset (`sharp_family` doubles
its bottoms' bitset once per tail element, `disconnected_extremal` keeps the
one it builds from), so certifying it scans no member into a bitset again;
that bitset is checked against the members by their count and largest mask.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import compress, count, repeat
from math import comb
from operator import and_, lshift, ne, or_, xor

from .core import (
    CLOSURE_GROUND_CAP,
    DomainError,
    ResourceLimitError,
    SetFamily,
    bits_to_family,
    comparability_graph,
    downset_bits,
    family_bits,
    layer_masks,
    upset_bits,
    _check_ground,
    _family_with_bits,
    _full,
    _layer,
    _Record,
)


class Diamond(_Record):
    """A full interval [bottom, top] in the Boolean lattice."""

    def __init__(self, bottom: int, top: int):
        object.__setattr__(self, "bottom", bottom)
        object.__setattr__(self, "top", top)
        if bottom & ~top:
            raise DomainError("diamond bottom must be a subset of top")

    @property
    def height(self) -> int:
        return (self.top ^ self.bottom).bit_count()


def detect_diamond(component: Iterable[int]) -> Diamond | None:
    """The interval [intersection, union] if the component fills it, else None.

    The component is a SetFamily or any duplicate-free collection of masks.
    """
    masks = tuple(component)
    if not masks:
        return None
    (meet,), (join,), _, gap = _diamond_census([masks])
    return Diamond(meet, join) if gap is None else None


def _diamond_census(components: Sequence[Sequence[int]]) -> tuple[list, list, list, int | None]:
    """Meet, join and height of each (non-empty) component, and the index of the
    first non-diamond or None.  Every member sits inside [meet, join], so a
    component fills it iff it has 2^height members."""
    meets = list(map(reduce, repeat(and_), components))
    joins = list(map(reduce, repeat(or_), components))
    heights = list(map(int.bit_count, map(xor, meets, joins)))
    gaps = compress(count(), map(ne, map(len, components), map(lshift, repeat(1), heights)))
    return meets, joins, heights, next(gaps, None)


def sharp_family(n: int, k: int, ceil_middle: bool = False) -> SetFamily:
    """Disjoint diamonds of order 2^k tiling the middle layer of [n-k].

    Takes every set F in the middle layer of [n-k] and fattens it with all
    subsets of the k tail elements {n-k+1, ..., n}.  Size is
    2^k * C(n-k, floor((n-k)/2)); components are diamonds of height k.
    The default middle layer uses the floor; ceil_middle switches to the
    symmetric choice when n-k is odd.
    """
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    _full(n)  # checks the ground size, then the closure cap
    base = n - k
    mid = (base + 1) // 2 if ceil_middle else base // 2
    # `_layer`, unlike layer_masks, also takes the empty ground set that
    # k = n leaves.  Each tail element (bits base..n-1) doubles the masks so
    # far: with it, mask m is m + 2^i, above every mask without it, so the
    # masks stay ascending and the bitset doubles by one shift.
    members = _layer(base, mid)
    bits = family_bits(members)
    for i in range(base, n):
        bit = 1 << i
        members += [m | bit for m in members]
        bits |= bits << bit
    return _family_with_bits(n, tuple(members), bits)


def diamond_family(d: Diamond, n: int) -> SetFamily:
    """All sets X with bottom <= X <= top, as a family over [n]."""
    _check_ground(n)
    if d.top >= 1 << n:
        raise DomainError("diamond does not fit in the ground set")
    free = d.top ^ d.bottom
    if free.bit_count() > CLOSURE_GROUND_CAP:
        raise ResourceLimitError(f"diamond materialisation capped at height {CLOSURE_GROUND_CAP}")
    # every submask of free, from free itself down to 0
    masks = [d.top]
    sub = free
    while sub:
        sub = (sub - 1) & free
        masks.append(d.bottom | sub)
    return SetFamily.from_masks(n, masks)


def disconnected_extremal(n: int) -> SetFamily:
    """One middle-ish set plus everything incomparable to it.

    The single set [floor(n/2)] is one component; the other component is
    every subset of [n] incomparable to it.  Size 2^n - 2^(n/2+1) + 2 for
    even n and 2^n - 3*2^((n-1)/2) + 2 for odd n.
    """
    if n < 2:
        raise DomainError("disconnected families need n >= 2")
    full = _full(n)  # checks the ground size, then the closure cap
    a_star = (1 << (n // 2)) - 1
    # the sets comparable to a_star are its down-set and its up-set
    point = 1 << a_star
    comparable = downset_bits(n, point) | upset_bits(n, point)
    return bits_to_family(n, full ^ comparable | point)


def disconnected_extremal_size(n: int) -> int:
    """Closed-form size of disconnected_extremal(n)."""
    _check_ground(n)
    if n < 2:
        raise DomainError("disconnected families need n >= 2")
    if n % 2 == 0:
        return (1 << n) - (1 << (n // 2 + 1)) + 2
    return (1 << n) - 3 * (1 << ((n - 1) // 2)) + 2


def full_layer_pair(n: int, k: int) -> tuple[SetFamily, SetFamily]:
    """The complete layers k and k+1 of 2^[n]."""
    if not 0 <= k < n:
        raise DomainError(f"need 0 <= k < n, got k={k}, n={n}")
    return (
        SetFamily.from_masks(n, layer_masks(n, k)),
        SetFamily.from_masks(n, layer_masks(n, k + 1)),
    )


# ---------------------------------------------------------------------------
# Certification


# The keys a claim may hold, in the order certify reports them.
CLAIM_KEYS = (
    "size",
    "component_count",
    "component_order",
    "diamond_components",
    "disconnected",
    "isolated_member",
    "rest_connected",
    "maximally_disconnected",
)


class CheckResult(_Record):
    def __init__(self, name: str, expected: object, actual: object, passed: bool):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "actual", actual)
        object.__setattr__(self, "passed", passed)


class CertificationReport(_Record):
    def __init__(self, family_size: int, checks: tuple[CheckResult, ...] = ()):
        object.__setattr__(self, "family_size", family_size)
        object.__setattr__(self, "checks", checks)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]


def sharp_claim(n: int, k: int, ceil_middle: bool = False) -> dict:
    _check_ground(n)
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    base = n - k
    mid = (base + 1) // 2 if ceil_middle else base // 2
    count = comb(base, mid)
    return {
        "size": (1 << k) * count,
        "component_count": count,
        "component_order": 1 << k,
        "diamond_components": {"height": k},
    }


def disconnected_claim(n: int) -> dict:
    _check_ground(n)
    a_star = (1 << (n // 2)) - 1
    return {
        "size": disconnected_extremal_size(n),
        "component_count": 2,
        "disconnected": True,
        "isolated_member": a_star,
        "rest_connected": True,
        "maximally_disconnected": True,
    }


def diamond_claim(d: Diamond) -> dict:
    return {
        "size": 1 << d.height,
        "component_count": 1,
        "diamond_components": {"height": d.height},
    }


def links_every_component(family: SetFamily, component_members: Sequence[Sequence[int]]) -> bool:
    """True iff adding any one absent set links every component to every other.

    A disconnected family is maximal exactly when this holds.  A new set
    connects the graph iff it is comparable to at least one member of each
    existing component, so one closure bitset per component answers all
    absent sets at once.  The components partition the family, so the
    largest one's bitset is the family's kept bitset less the others'.
    """
    n = family.n
    full = _full(n)  # checks the ground size, then the closure cap
    rest = family_bits(family)
    linking = absent = full ^ rest
    comps = sorted(component_members, key=len)
    for comp in comps[:-1]:
        bits = family_bits(comp)
        rest ^= bits
        # linking holds the absent sets comparable to every component so far
        linking &= downset_bits(n, bits) | upset_bits(n, bits)
    if comps:
        # the largest component holds the members that no other one holds
        linking &= downset_bits(n, rest) | upset_bits(n, rest)
    return linking == absent


def certify(family: SetFamily, claim: dict) -> CertificationReport:
    """Re-derive each claimed property from the raw masks; report per check.

    The checks follow CLAIM_KEYS order.  A key outside CLAIM_KEYS, or a
    diamond_components value other than True or {"height": int}, raises
    DomainError.
    """
    unknown = claim.keys() - set(CLAIM_KEYS)
    if unknown:
        raise DomainError(f"unknown claim keys {sorted(map(repr, unknown))}; known: {CLAIM_KEYS}")
    shape = claim.get("diamond_components", True)
    if shape is not True and not (
        isinstance(shape, dict) and shape.keys() == {"height"} and type(shape["height"]) is int
    ):
        raise DomainError(
            f'diamond_components claim must be True or {{"height": int}}, got {shape!r}'
        )
    comps = comparability_graph(family).component_members

    def derive(key: str, want) -> tuple[object, bool]:
        # (actual, passed) for one claimed value
        if key == "size":
            return len(family), len(family) == want
        if key == "component_count":
            return len(comps), len(comps) == want
        if key == "component_order":
            orders = sorted(map(len, comps))
            return orders, all(o == want for o in orders)
        if key == "diamond_components":
            _, _, heights, gap = _diamond_census(comps)
            ok = gap is None and (want is True or heights.count(want["height"]) == len(heights))
            return ok, ok
        if key == "disconnected":
            return len(comps), (len(comps) >= 2) == want
        if key == "isolated_member":
            ok = (want,) in comps
            return ok, ok
        if key == "rest_connected":
            ok = sum(ms != (claim.get("isolated_member"),) for ms in comps) == 1
        else:  # maximally_disconnected
            ok = len(comps) >= 2 and links_every_component(family, comps)
        return ok, ok == want

    checks = tuple(
        CheckResult(key, claim[key], *derive(key, claim[key])) for key in CLAIM_KEYS if key in claim
    )
    return CertificationReport(family_size=len(family), checks=checks)
