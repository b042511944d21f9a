"""Chain-hitting inequalities: the classical antichain bound and its diamond variant.

A family whose comparability components are all full intervals (diamonds)
with bottom on layer i and height j satisfies sum a_ij / C(n-j, i) <= 1,
because a maximal chain meets at most one component and meets the diamond
[A, B] exactly when all of A appears before everything outside B.
"""

from dataclasses import dataclass
from fractions import Fraction

from .core import (
    DomainError,
    PreconditionError,
    SetFamily,
    VerificationError,
    binomial,
    comparability_graph,
    is_antichain,
)
from .constructions import Diamond, detect_diamond
from .lubell import lubell


@dataclass(frozen=True)
class DiamondProfile:
    """Component census: count of diamond components per (bottom layer, height)."""

    n: int
    counts: tuple[tuple[int, int, int], ...]

    def as_dict(self) -> dict[tuple[int, int], int]:
        return {(i, j): c for i, j, c in self.counts}

    def member_total(self) -> int:
        return sum(c << j for _, j, c in self.counts)


def blym_sum(family: SetFamily) -> Fraction:
    """Sum of 1/C(n, |F|) over an antichain; always at most 1."""
    if not is_antichain(family):
        raise PreconditionError("family contains a 2-chain")
    total = lubell(family)
    if total > 1:
        raise VerificationError(f"BLYM sum {total} of an antichain exceeds 1")
    return total


def family_diamonds(family: SetFamily) -> list[Diamond]:
    """One Diamond per comparability component; error on any non-diamond component."""
    graph = comparability_graph(family)
    out = []
    for c, members in enumerate(graph.component_members):
        d = detect_diamond(members)
        if d is None:
            part = graph.component_family(c).to_sets()
            raise PreconditionError(f"component {part} is not a diamond")
        out.append(d)
    return out


def diamond_profile(family: SetFamily) -> DiamondProfile:
    census: dict[tuple[int, int], int] = {}
    for d in family_diamonds(family):
        key = (d.bottom_layer, d.height)
        census[key] = census.get(key, 0) + 1
    profile = DiamondProfile(family.n, tuple(sorted((i, j, c) for (i, j), c in census.items())))
    if profile.member_total() != len(family):
        raise VerificationError("diamond census does not account for every member")
    return profile


def diamond_blym_sum(family: SetFamily) -> Fraction:
    """Sum of a_ij / C(n-j, i) over the diamond census; always at most 1."""
    profile = diamond_profile(family)
    n = family.n
    total = Fraction(0)
    for i, j, c in profile.counts:
        total += Fraction(c, binomial(n - j, i))
    if total > 1:
        raise VerificationError(f"diamond BLYM sum {total} exceeds 1")
    return total


def all_diamond_bound(n: int, k: int) -> int:
    """Largest all-diamond family with components of order 2^k: 2^k * C(n-k, floor((n-k)/2))."""
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    return (1 << k) * binomial(n - k, (n - k) // 2)
