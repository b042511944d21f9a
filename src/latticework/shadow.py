"""Shadows, closures and the boundary families of a disconnected split.

down_closure / up_closure work on whole-cube bitsets (one bit per mask),
so a closure costs n big-int operations instead of one power-set walk per
member.  The cascade machinery gives the classical lower bound on the
size of an r-fold shadow of an m-member k-uniform family.

A split's boundary takes one pass, `_boundary`: the sets outside ↓F are
↑F⁺ and those outside ↑F are ↓F⁻, so no closure of F⁺ or F⁻ is taken again.
`boundary_report` is its one public view: F⁺, F⁻, both regions and the
excluded count.
"""

from .core import (
    DomainError,
    PreconditionError,
    SetFamily,
    VerificationError,
    _full,
    binomial,
    bits_to_family,
    downset_bits,
    family_bits,
    shade_bits,
    shadow_bits,
    upset_bits,
    _Record,
)


class CascadeRep(_Record):
    """Unique representation m = C(n_k,k) + C(n_{k-1},k-1) + ... + C(n_j,j)."""

    def __init__(self, k: int, terms: tuple[tuple[int, int], ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "terms", terms)

    @property
    def value(self) -> int:
        return sum(binomial(top, low) for top, low in self.terms)

    def shadow_bound(self, r: int) -> int:
        return sum(binomial(top, low - r) for top, low in self.terms)


def down_closure(family: SetFamily) -> SetFamily:
    """All subsets of some member, the family itself and (if nonempty) the empty set included."""
    if not family.members:
        return family
    n = family.n
    return bits_to_family(n, downset_bits(n, family_bits(family)))


def up_closure(family: SetFamily) -> SetFamily:
    """All supersets of some member."""
    if not family.members:
        return family
    n = family.n
    return bits_to_family(n, upset_bits(n, family_bits(family)))


def lower_shadow(family: SetFamily) -> SetFamily:
    """All (k-1)-subsets of the members of a single-layer family."""
    if not family.members:
        return family
    k = family.members[0].bit_count()
    if any(m.bit_count() != k for m in family.members):
        raise DomainError("lower_shadow needs all members on one layer")
    if k < 1:
        raise DomainError("lower_shadow needs layer k >= 1")
    return bits_to_family(family.n, shadow_bits(family.n, family_bits(family)))


def kk_cascade(m: int, k: int) -> CascadeRep:
    """Greedy (hence the unique) cascade of m at level k."""
    if m < 1 or k < 1:
        raise DomainError("cascade needs m >= 1 and k >= 1")
    terms = []
    rest = m
    level = k
    while rest > 0:
        if level < 1:
            raise VerificationError(f"no cascade for m={m} at k={k}")
        # the largest top with C(top, level) <= rest: double the step past
        # it, then halve back, keeping C(top, level) <= rest < C(top + step, level)
        top, step = level, 1
        while binomial(top + step, level) <= rest:
            top += step
            step *= 2
        while step > 1:
            step //= 2
            if binomial(top + step, level) <= rest:
                top += step
        terms.append((top, level))
        rest -= binomial(top, level)
        level -= 1
    rep = CascadeRep(k, tuple(terms))
    # greedy must reproduce m and strictly decrease the upper indices
    if rep.value != m:
        raise VerificationError(f"cascade of m={m} at k={k} sums to {rep.value}")
    if not all(a > b for (a, _), (b, _) in zip(terms, terms[1:])):
        raise VerificationError(f"cascade of m={m} at k={k} has non-decreasing tops")
    return rep


def kk_shadow_bound(m: int, k: int, r: int) -> int:
    """Cascade lower bound on the size of the r-fold shadow."""
    if not 1 <= r <= k:
        raise DomainError("shadow depth r must satisfy 1 <= r <= k")
    return kk_cascade(m, k).shadow_bound(r)


def technical_bound_check(s: SetFamily, mode: str) -> bool:
    """Down-closure size bound for a small family of large-enough sets.

    mode "k_plus_one": |s| = k+1 sets of size >= k give |down_closure| >= 2^(k+1)-1.
    mode "k":          |s| = k   sets of size >= k give |down_closure| >= 2^(k+1)-2.
    """
    if mode == "k_plus_one":
        k = len(s) - 1
        floor = (1 << (k + 1)) - 1
    elif mode == "k":
        k = len(s)
        floor = (1 << (k + 1)) - 2
    else:
        raise DomainError(f"unknown mode {mode!r}")
    if k < 0:
        raise PreconditionError("family too small for the requested mode")
    if any(m.bit_count() < k for m in s.members):
        raise PreconditionError(f"members must have size >= {k}")
    # the empty family's closure is empty at any n, the closure cap aside
    return not s.members or downset_bits(s.n, family_bits(s)).bit_count() >= floor


def _split_bits(a: SetFamily, b: SetFamily) -> int:
    """The bitset of both sides' members, refused unless the sides form a disconnected split."""
    if a.n != b.n:
        raise DomainError("split sides live in different cubes")
    if not a.members or not b.members:
        raise PreconditionError("both sides of a split must be nonempty")
    n = a.n
    bits_a, bits_b = family_bits(a), family_bits(b)
    # the members of a equal or comparable to some member of b; the least
    # such x and the first member y of b around it are the first pair a
    # scan of a, then b, in ascending order would meet
    hit = bits_a & (downset_bits(n, bits_b) | upset_bits(n, bits_b))
    if hit:
        x = (hit & -hit).bit_length() - 1
        y = next(m for m in b.members if m & x in (m, x))
        if x == y:
            raise PreconditionError(f"shared member {x:#x}: not a disconnected split")
        raise PreconditionError(f"cross-comparable pair {x:#x} vs {y:#x}: not a disconnected split")
    return bits_a | bits_b


def _boundary(a: SetFamily, b: SetFamily) -> tuple[int, int, int, int]:
    """The bitsets (fplus, fminus, up, down) of a split, with up = ↑fplus, down = ↓fminus.

    The sets outside ↓F form an up-set whose minimal members are fplus, so
    that up-set is ↑fplus; dually, the sets outside ↑F are ↓fminus.
    """
    both = _split_bits(a, b)
    n = a.n
    up = _full(n) ^ downset_bits(n, both)
    down = _full(n) ^ upset_bits(n, both)
    # minimal members have no lower cover inside, maximal ones no upper cover
    fplus = up & ~shade_bits(n, up)
    fminus = down & ~shadow_bits(n, down)
    # the whole set and the empty set are never reachable from a true split
    if not (fplus and fminus):
        raise VerificationError("split has an empty boundary side")
    return fplus, fminus, up, down


def boundary_report(a: SetFamily, b: SetFamily) -> dict:
    """Everything the split bound talks about, including whether the closures collide.

    Closure disjointness is a consequence of optimality, not of the split
    preconditions, so it is reported instead of assumed.
    """
    fplus, fminus, up, down = _boundary(a, b)
    n = a.n
    family_size = len(a) + len(b)
    excluded = up.bit_count() + down.bit_count()
    return {
        "n": n,
        "family_size": family_size,
        "fplus": bits_to_family(n, fplus).to_jsonable(),
        "fminus": bits_to_family(n, fminus).to_jsonable(),
        "up_closure_of_fplus": up.bit_count(),
        "down_closure_of_fminus": down.bit_count(),
        "closures_disjoint": (up & down) == 0,
        "excluded_count": excluded,
        "size_bound": (1 << n) - excluded,
        "bound_holds": family_size <= (1 << n) - excluded,
    }
