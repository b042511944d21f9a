"""Chain-hitting inequalities: the classical antichain bound and its diamond variant.

A family whose comparability components are all full intervals (diamonds)
with bottom on layer i and height j satisfies sum a_ij / C(n-j, i) <= 1,
because a maximal chain meets at most one component and meets the diamond
[A, B] exactly when all of A appears before everything outside B.
"""

from fractions import Fraction
from math import lcm

from .core import (
    DomainError,
    _check_ground,
    _Record,
    PreconditionError,
    SetFamily,
    VerificationError,
    binomial,
    comparability_graph,
    is_antichain,
)
from .constructions import _diamond_census
from .lubell import lubell


class DiamondProfile(_Record):
    """Component census: count of diamond components per (bottom layer, height)."""

    def __init__(self, n: int, counts: tuple[tuple[int, int, int], ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)

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


def diamond_profile(family: SetFamily) -> DiamondProfile:
    """Census of the diamond components; error on the first non-diamond."""
    graph = comparability_graph(family)
    meets, _, heights, gap = _diamond_census(graph.component_members)
    if gap is not None:
        part = graph.component_family(gap).to_sets()
        raise PreconditionError(f"component {part} is not a diamond")
    census: dict[tuple[int, int], int] = {}
    for key in zip(map(int.bit_count, meets), heights):
        census[key] = census.get(key, 0) + 1
    profile = DiamondProfile(family.n, tuple(sorted((i, j, c) for (i, j), c in census.items())))
    if profile.member_total() != len(family):
        raise VerificationError("diamond census does not account for every member")
    return profile


def diamond_blym_sum(family: SetFamily) -> Fraction:
    """Sum of a_ij / C(n-j, i) over the diamond census; always at most 1."""
    profile = diamond_profile(family)
    # one Fraction over the binomials' lcm: each Fraction addition costs gcds
    sizes = [binomial(family.n - j, i) for i, j, _ in profile.counts]
    common = lcm(*sizes)
    total = Fraction(sum(c * (common // b) for (_, _, c), b in zip(profile.counts, sizes)), common)
    if total > 1:
        raise VerificationError(f"diamond BLYM sum {total} exceeds 1")
    return total


def all_diamond_bound(n: int, k: int) -> int:
    """Largest all-diamond family with components of order 2^k: 2^k * C(n-k, floor((n-k)/2))."""
    _check_ground(n)
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    return (1 << k) * binomial(n - k, (n - k) // 2)
