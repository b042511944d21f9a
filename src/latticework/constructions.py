"""Explicit extremal families, each paired with an independent certifier.

The constructions are cheap; the value is in `certify`, which re-derives
every claimed property (size, component structure, diamond shape,
disconnection, maximality) from the raw masks rather than trusting the
generator.  Every claim about components is checked against the
comparability components that `core.comparability_graph` computes from
the masks, whatever the family's size; a component is a diamond when its
members fill the interval between their meet and their join.  Bitsets of
members come from `core.family_bits`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from math import comb

from .core import (
    CLOSURE_GROUND_CAP,
    DomainError,
    ResourceLimitError,
    SetFamily,
    bits_to_family,
    comparability_graph,
    downset_bits,
    family_bits,
    height,
    is_antichain,
    layer_masks,
    upset_bits,
    _full,
    _layer,
)


@dataclass(frozen=True)
class Diamond:
    """A full interval [bottom, top] in the Boolean lattice."""

    bottom: int
    top: int

    def __post_init__(self):
        if self.bottom & ~self.top:
            raise DomainError("diamond bottom must be a subset of top")

    @property
    def height(self) -> int:
        return (self.top ^ self.bottom).bit_count()

    @property
    def bottom_layer(self) -> int:
        return self.bottom.bit_count()


def detect_diamond(component: Iterable[int]) -> Diamond | None:
    """The interval [intersection, union] if the component fills it, else None.

    The component is a SetFamily or any duplicate-free collection of masks.
    """
    masks = tuple(component)
    if not masks:
        return None
    bottom = top = masks[0]
    for m in masks:
        bottom &= m
        top |= m
    # every member sits inside [bottom, top], so filling is a cardinality check
    if len(masks) == 1 << (top ^ bottom).bit_count():
        return Diamond(bottom, top)
    return None


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
    if n > CLOSURE_GROUND_CAP:
        raise ResourceLimitError(f"sharp_family materialisation capped at n={CLOSURE_GROUND_CAP}")
    base = n - k
    mid = (base + 1) // 2 if ceil_middle else base // 2
    # the k tail elements are the bits base..n-1, above every bottom, so the
    # tails in the outer loop give ascending masks; `_layer`, unlike
    # layer_masks, also takes the empty ground set that k = n leaves
    bottoms = _layer(base, mid)
    tails = [sub << base for sub in range(1 << k)]
    return SetFamily(n, tuple([bottom | tail for tail in tails for bottom in bottoms]))


def diamond_family(d: Diamond, n: int) -> SetFamily:
    """All sets X with bottom <= X <= top, as a family over [n]."""
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
    if n > CLOSURE_GROUND_CAP:
        raise ResourceLimitError(f"disconnected_extremal capped at n={CLOSURE_GROUND_CAP}")
    a_star = (1 << (n // 2)) - 1
    # the sets comparable to a_star are its down-set and its up-set
    point = 1 << a_star
    comparable = downset_bits(n, point) | upset_bits(n, point)
    return bits_to_family(n, _full(n) ^ comparable | point)


def disconnected_extremal_size(n: int) -> int:
    """Closed-form size of disconnected_extremal(n)."""
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


@dataclass(frozen=True)
class CheckResult:
    name: str
    expected: object
    actual: object
    passed: bool


@dataclass(frozen=True)
class CertificationReport:
    family_size: int
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def to_jsonable(self) -> dict:
        return {
            "ok": self.ok,
            "family_size": self.family_size,
            "checks": [
                {
                    "name": c.name,
                    "expected": repr(c.expected),
                    "actual": repr(c.actual),
                    "passed": c.passed,
                }
                for c in self.checks
            ],
        }


def sharp_claim(n: int, k: int, ceil_middle: bool = False) -> dict:
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
    absent sets at once.
    """
    n = family.n
    absent = _full(n) ^ family_bits(family)
    linking = absent
    for comp in component_members:
        bits = family_bits(comp)
        # linking holds the absent sets comparable to every component so far
        linking &= downset_bits(n, bits) | upset_bits(n, bits)
    return linking == absent


def certify(family: SetFamily, claim: dict) -> CertificationReport:
    """Re-derive each claimed property from the raw masks; report per check."""
    checks: list[CheckResult] = []

    if "size" in claim:
        checks.append(
            CheckResult("size", claim["size"], len(family), len(family) == claim["size"])
        )
    if "height" in claim:
        h = height(family)
        checks.append(CheckResult("height", claim["height"], h, h == claim["height"]))
    if "antichain" in claim:
        ok = is_antichain(family)
        checks.append(CheckResult("antichain", True, ok, ok))

    component_keys = {
        "component_count",
        "component_order",
        "max_component_order",
        "diamond_components",
        "disconnected",
        "isolated_member",
        "rest_connected",
        "maximally_disconnected",
    }
    if not component_keys & claim.keys():
        return CertificationReport(family_size=len(family), checks=tuple(checks))

    graph = comparability_graph(family)
    comp_members = graph.component_members
    orders = sorted(graph.component_orders)
    if "component_count" in claim:
        checks.append(
            CheckResult(
                "component_count",
                claim["component_count"],
                graph.n_components,
                graph.n_components == claim["component_count"],
            )
        )
    if "component_order" in claim:
        want = claim["component_order"]
        ok = all(o == want for o in orders)
        checks.append(CheckResult("component_order", want, orders, ok))
    if "max_component_order" in claim:
        want = claim["max_component_order"]
        actual = max(orders, default=0)
        checks.append(
            CheckResult("max_component_order", f"<= {want}", actual, actual <= want)
        )
    if "diamond_components" in claim:
        want = claim["diamond_components"]
        want_h = want.get("height") if isinstance(want, dict) else None
        ok = all(
            (d := detect_diamond(members)) is not None and (want_h is None or d.height == want_h)
            for members in comp_members
        )
        checks.append(CheckResult("diamond_components", want, ok, ok))
    if "disconnected" in claim:
        ok = graph.n_components >= 2
        checks.append(CheckResult("disconnected", True, graph.n_components, ok))
    if "isolated_member" in claim:
        m = claim["isolated_member"]
        ok = m in family.member_set and any(
            members == (m,) for members in comp_members
        )
        checks.append(CheckResult("isolated_member", m, ok, ok))
    if "rest_connected" in claim:
        iso = claim.get("isolated_member")
        rest_comps = [ms for ms in comp_members if ms != (iso,)]
        ok = len(rest_comps) == 1
        checks.append(CheckResult("rest_connected", True, ok, ok))
    if "maximally_disconnected" in claim:
        ok = graph.n_components >= 2 and links_every_component(
            family, comp_members
        )
        checks.append(CheckResult("maximally_disconnected", True, ok, ok))
    return CertificationReport(family_size=len(family), checks=tuple(checks))
