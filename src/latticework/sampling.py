"""Seeded random generators for the property suites.

Every generator takes a random.Random instance so that suites are
reproducible from a single seed.  Rejection loops are bounded by
attempt counts, never by wall clock.

Draw contract: the generators make the same `getrandbits` calls, in the
same order, as `random.Random`'s `randrange`, `shuffle` and `randint`
would (`_below` is CPython's `_randbelow_with_getrandbits`), so a seed
gives the same families as those methods did; `tests/test_sampling.py`
pins this against reference copies that call the methods.  Sizes are
checked before the first draw, so a refused call leaves the generator
untouched.

Every interval has height at most INTERVAL_HEIGHT = 3: its top adds
randint(0, min(3, len(free))) of the elements outside its bottom.
"""

import random

from .core import DomainError, SetFamily, _check_ground, comparability_graph, layer_masks
from .constructions import Diamond, diamond_family

INTERVAL_HEIGHT = 3


def _below(bits, m: int) -> int:
    """rng.randrange(m) from rng.getrandbits: redraw k bits while >= m."""
    if m < 1:
        # getrandbits(0) is 0, so the loop below would never end
        raise DomainError(f"no integer lies in [0, {m})")
    k = m.bit_length()
    r = bits(k)
    while r >= m:
        r = bits(k)
    return r


def random_family(rng: random.Random, n: int, size: int) -> SetFamily:
    """Uniform family of exactly `size` distinct subsets of [n]."""
    _check_ground(n)
    if not 0 <= size <= 1 << n:
        raise DomainError(f"size {size} outside 0..{1 << n}")
    return SetFamily.from_masks(n, rng.sample(range(1 << n), size))


def random_antichain(rng: random.Random, n: int, attempts: int) -> SetFamily:
    """Greedy antichain: keep each draw that stays incomparable to the kept ones."""
    _check_ground(n)
    bits, cube = rng.getrandbits, 1 << n
    kept: list[int] = []
    for _ in range(attempts):
        m = _below(bits, cube)
        if m in kept:
            continue
        for other in kept:
            meet = m & other
            if meet == m or meet == other:
                break
        else:
            kept.append(m)
    return SetFamily.from_masks(n, kept)


def _interval(bits, n: int) -> tuple[int, int]:
    # randrange(1 << n), shuffle(free) and randint(0, min(INTERVAL_HEIGHT, len(free)))
    bottom = _below(bits, 1 << n)
    free = [1 << i for i in range(n) if not bottom >> i & 1]
    for i in range(len(free) - 1, 0, -1):
        j = _below(bits, i + 1)
        free[i], free[j] = free[j], free[i]
    return bottom, bottom | sum(free[: _below(bits, min(INTERVAL_HEIGHT, len(free)) + 1)])


def _union(n: int, diamonds) -> SetFamily:
    """The union of the intervals (bottom, top), as one family over [n]."""
    families = [diamond_family(Diamond(*d), n) for d in diamonds]
    return SetFamily.from_masks(n, [m for f in families for m in f.members])


def random_all_diamond_family(rng: random.Random, n: int, target_components: int) -> SetFamily:
    """Union of pairwise non-cross-comparable intervals.

    Two intervals admit a comparable cross pair exactly when one bottom
    fits under the other top, so independence is two subset tests.
    """
    _check_ground(n)
    bits = rng.getrandbits
    accepted: list[tuple[int, int]] = []
    for _ in range(6 * target_components):
        if len(accepted) == target_components:
            break
        bottom, top = _interval(bits, n)
        for b, t in accepted:
            if bottom & t == bottom or b & top == b:
                break
        else:
            accepted.append((bottom, top))
    return _union(n, accepted)


def random_layer_pair(
    rng: random.Random, n: int, k: int, density: float = 0.5
) -> tuple[SetFamily, SetFamily]:
    """Random subfamilies of layers k and k+1."""
    lower, upper = layer_masks(n, k), layer_masks(n, k + 1)
    a = [m for m in lower if rng.random() < density]
    b = [m for m in upper if rng.random() < density]
    return SetFamily.from_masks(n, a), SetFamily.from_masks(n, b)


def random_order_bounded_family(rng: random.Random, n: int) -> tuple[SetFamily, int]:
    """A random family together with its own max component order as the bound.

    Mixes flat uniform draws, unions of intervals (larger, denser
    components) and antichains so the normalization suite sees varied
    component shapes.
    """
    _check_ground(n)
    style = rng.randrange(3)
    if style == 0:
        family = random_family(rng, n, rng.randint(0, max(1, (1 << n) // 2)))
    elif style == 1:
        family = _union(n, [_interval(rng.getrandbits, n) for _ in range(rng.randint(1, 4))])
    else:
        family = random_antichain(rng, n, attempts=2 * n)
    if not family.members:
        return family, 1
    return family, comparability_graph(family).max_component_order()
