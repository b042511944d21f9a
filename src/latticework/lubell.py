"""Lubell averages and permutation-meeting statistics for set families.

A permutation sigma of [n] corresponds to the maximal chain
{} < {sigma(1)} < {sigma(1),sigma(2)} < ... < [n], which has n+1 prefixes
(sizes 0..n).  For a family F, the meet count T(sigma) is the number of
prefixes lying in F.  The profile s_i counts permutations with T = i; the
Lubell value of F equals both the closed form sum_F 1/C(n,|F|) and the
average of T over all n! permutations.  Keeping both routes independent is
the point: the enumeration is the oracle for the closed form.

The enumeration still visits every chain, and never uses layer sizes.  For
n <= 8 column i holds each chain's i-th prefix, one byte per permutation;
a 256-byte membership table translates it, and the columns added as
integers give every T(sigma).  The columns of [n] are built from those of
[n - 1]: in lexicographic order the permutations that start with f are f
followed by the permutations of the other n - 1 elements, so column i of
[n] joins, over f, column i - 1 of [n - 1] translated by a 256-byte table
that renames [n - 1] onto the other elements and adds bit f.  Larger n
split chains at their first element.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from math import comb, factorial

from .family import DomainError, ResourceLimitError, SetFamily, VerificationError, _check_ground, _Record

ENUMERATION_GROUND_CAP = 10
_BYTE_GROUND = 8  # a prefix mask fits in one byte


class MeetProfile(_Record):
    """Counts s_0..s_{n+1}: how many permutations meet the family i times.

    A maximal chain has n+1 prefixes, so a family containing all of 2^[n]
    is met n+1 times; counts therefore has length n+2.
    """

    def __init__(self, n: int, counts: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "counts", counts)

    @property
    def meeting_count(self) -> int:
        """s(F): permutations meeting the family at least once."""
        return sum(self.counts[1:])

    @property
    def weighted_total(self) -> int:
        """sum_i i * s_i, the total number of (permutation, member) meets."""
        return sum(i * c for i, c in enumerate(self.counts))


def lubell(family: SetFamily) -> Fraction:
    """Closed-form Lubell value: sum over members of 1/C(n, |F|)."""
    # one fraction per layer met, not per member
    n = family.n
    layers = Counter(map(int.bit_count, family.members))
    return sum((Fraction(c, comb(n, k)) for k, c in layers.items()), Fraction(0))


@cache
def _prefix_columns(n: int) -> tuple[bytes, ...]:
    """Column i holds, at byte j, the i-element prefix of permutation j's chain."""
    if n == 0:
        return (b"\0",)
    # lifts[f] renames a prefix of [n - 1] onto [n] without f, and adds f
    lifts = [
        bytes(x & (1 << f) - 1 | x >> f << f + 1 | 1 << f for x in range(1 << n - 1))
        .ljust(256, b"\0")
        for f in range(n)
    ]
    return (bytes(factorial(n)),) + tuple(
        b"".join(col.translate(lift) for lift in lifts) for col in _prefix_columns(n - 1)
    )


def meet_profile(family: SetFamily) -> MeetProfile:
    """Brute-force profile over all n! permutations (the oracle route)."""
    n, members = family.n, family.members
    if n > ENUMERATION_GROUND_CAP:
        raise ResourceLimitError(
            f"meet_profile enumerates n! permutations; capped at n={ENUMERATION_GROUND_CAP}"
        )
    if n > _BYTE_GROUND:
        # a chain from a is {}, then a chain of a's link (F's sets holding a, minus a)
        counts = [0] * (n + 2)
        for a in range(n):
            low = (1 << a) - 1
            link = SetFamily(n - 1, tuple(m & low | m >> 1 & ~low for m in members if m >> a & 1))
            for t, c in enumerate(meet_profile(link).counts, int(0 in family)):
                counts[t] += c
        return MeetProfile(n=n, counts=tuple(counts))
    table = bytearray(256)
    for m in members:
        table[m] = 1
    # a byte of the sum is at most n + 1 < 256, so no carry crosses bytes
    met = sum(int.from_bytes(col.translate(table), "little") for col in _prefix_columns(n))
    tallies = met.to_bytes(factorial(n), "little")
    return MeetProfile(n=n, counts=tuple(tallies.count(t) for t in range(n + 2)))


def lubell_by_permutations(family: SetFamily) -> Fraction:
    """Lubell value via the permutation oracle: (sum_i i*s_i) / n!."""
    prof = meet_profile(family)
    return Fraction(prof.weighted_total, factorial(family.n))


def average_meet_count(family: SetFamily) -> Fraction:
    """Average of T over the permutations that meet the family at all.

    Always >= lubell(family): the average over a subset of permutations
    that excludes only zero-meet permutations cannot drop.
    """
    if not family.members:
        raise DomainError("average meet count of the empty family is undefined")
    prof = meet_profile(family)
    # Any chain through a member meets it, so s(F) >= 1 for nonempty F.
    return Fraction(prof.weighted_total, prof.meeting_count)


def diamond_meet_count(bottom: int, top: int, n: int) -> int:
    """Permutations whose chain meets the full interval [bottom, top].

    Closed form n! * |A|! * (n-|B|)! / (n - (|B|-|A|))! for A = bottom,
    B = top: a chain meets the interval iff it passes through some set in
    it, and the passes can be counted by fixing the first entry and exit.
    """
    _check_ground(n)
    if not 0 <= top < 1 << n:
        raise DomainError("interval does not fit in the ground set")
    if bottom & ~top:
        raise DomainError("bottom must be a subset of top")
    a = bottom.bit_count()
    b = top.bit_count()
    num = factorial(n) * factorial(a) * factorial(n - b)
    den = factorial(n - (b - a))
    q, r = divmod(num, den)
    if r:
        raise VerificationError("interval meet count did not divide evenly")
    return q
