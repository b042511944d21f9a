"""Skipless normalization at fixed cardinality and component-order bound.

A skip of a family F is a set Y outside F squeezed between two members
(X <= Y <= Z with X, Z in F).  One normalization step adds the chosen skip
and deletes an inclusion-maximal member of the affected component, which
keeps the cardinality, keeps every component order within the bound, and
strictly decreases the number of skips.  Iterating reaches a skipless
family of the same size.  The steps run on the family's bitset-of-masks:
the affected component is the skip's reach-closure, a step flips two bits,
and the family is built once, at the end.  Every step is validated after
execution instead of trusted: the size, the skip-count decrease, the order
bound, and that the skip's new component lies inside the rewritten one are
all re-checked, the last two by reach-closures on the whole new bitset.  A
reach-closure (`core._reach_closure`) grows by half-steps, the up-closure
and the down-closure inside the bitset in turn, and stops at the first
half-step after the first that adds nothing: each half-step is idempotent,
so the closure is then closed both ways.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cache

from .core import (
    DomainError, PreconditionError, SetFamily, VerificationError, bits_to_family,
    comparability_graph, downset_bits, family_bits, iter_bits, upset_bits, _layer,
    _reach_closure, _Record,
)


class NormalizationError(VerificationError):
    """A validated property of the normalization step failed its re-check."""


class SkipReport(_Record):
    """A skip Y together with one witness pair X <= Y <= Z from the family."""

    def __init__(self, skip: int, witness_below: int, witness_above: int):
        object.__setattr__(self, "skip", skip)
        object.__setattr__(self, "witness_below", witness_below)
        object.__setattr__(self, "witness_above", witness_above)


class StepRecord(_Record):
    """One normalization step: the mask added and the mask removed."""

    def __init__(self, added: int, removed: int):
        object.__setattr__(self, "added", added)
        object.__setattr__(self, "removed", removed)


def _skip_bits(n: int, bits: int) -> int:
    # The sets between two members of a bitset-of-masks that are not members.
    return downset_bits(n, bits) & upset_bits(n, bits) & ~bits


@cache
def _layer_bits(n: int) -> tuple[int, ...]:
    """The masks of each cardinality 0..n over [n], as bitsets."""
    return tuple(family_bits(_layer(n, k)) for k in range(n + 1))


def find_skips(family: SetFamily) -> list[SkipReport]:
    """All skips of the family, sorted by (cardinality, mask value)."""
    members = family.members
    out = []
    # iter_bits ascends and the sort is stable: (cardinality, mask) order
    for y in sorted(iter_bits(_skip_bits(family.n, family_bits(family))), key=int.bit_count):
        # members ascend, so the first one inside y is the least, and the least
        # one around y comes after y's own place: each scan stops at its witness
        below = next(x for x in members if x & y == x)
        i = bisect_left(members, y)
        while members[i] & y != y:
            i += 1
        out.append(SkipReport(y, below, members[i]))
    return out


def skip_count(family: SetFamily) -> int:
    """Number of skips (cheaper than materialising witness reports)."""
    return _skip_bits(family.n, family_bits(family)).bit_count()


def _components_meeting(n: int, bits: int, seed: int, region: int) -> list[int]:
    """The components of a bitset-of-masks that meet region, as bitsets, the
    one holding the bit seed first: a reach-closure on the whole bitset each."""
    out = []
    while seed:
        component, _ = _reach_closure(n, seed, bits)
        out.append(component)
        region &= ~component
        seed = region & -region
    return out


def make_skipless_with_trace(family: SetFamily, t: int) -> tuple[SetFamily, list[StepRecord]]:
    """Iterate skipless steps to a fixed point, recording each step.

    Each step adds the least skip of least cardinality (the smallest mask
    among those of minimum cardinality) and removes the affected
    component's member of largest cardinality, then smallest mask, which
    is inclusion-maximal there.

    Raises NormalizationError if any intermediate family violates the
    component-order bound t; the constructive argument says this cannot
    happen, and the point of the runtime check is to catch it if it did.
    """
    if t < 1:
        raise DomainError("order bound t must be >= 1")
    graph = comparability_graph(family)
    if graph.max_component_order() > t:
        raise PreconditionError(
            f"a component has order {graph.max_component_order()} > t = {t}"
        )
    n, bits = family.n, family_bits(family)
    skips = _skip_bits(n, bits)
    trace: list[StepRecord] = []
    while skips:
        layers = _layer_bits(n)
        low = next(filter(None, (skips & layer for layer in layers)))
        y_bit = low & -low
        # y's component in F + y: its old component C, with y
        reached, _ = _reach_closure(n, y_bit, bits | y_bit)
        # the least mask of C's highest layer is inclusion-maximal in C
        top = next(filter(None, (reached & bits & layer for layer in reversed(layers))))
        x_bit = top & -top
        y, x_max = y_bit.bit_length() - 1, x_bit.bit_length() - 1
        bits = (bits | y_bit) ^ x_bit
        if bits.bit_count() != len(family):
            raise NormalizationError("step changed the family cardinality")
        reduced_skips = _skip_bits(n, bits)
        if reduced_skips.bit_count() >= skips.bit_count():
            raise NormalizationError(
                f"skip count failed to decrease: added {y}, removed {x_max}"
            )
        # A member comparable to y lies below or above it, hence in C, and
        # members of C reach only members of C: the new components meeting C
        # with y in place of x_max lie inside it, and the others are unchanged.
        allowed = reached ^ x_bit
        components = _components_meeting(n, bits, y_bit, allowed)
        order = max(map(int.bit_count, components))
        if order > t:
            raise NormalizationError(
                "order bound violated after step "
                f"{len(trace)}: added {y}, removed {x_max}, "
                f"max order {order} > {t}"
            )
        if components[0] & ~allowed:
            raise NormalizationError(
                f"step {len(trace)}: the component of {y} is not inside its old "
                f"component with {y} in place of {x_max}"
            )
        trace.append(StepRecord(added=y, removed=x_max))
        skips = reduced_skips
    return (bits_to_family(n, bits) if trace else family), trace


def make_skipless(family: SetFamily, t: int) -> SetFamily:
    """Skipless family of the same size with component orders still <= t."""
    result, _ = make_skipless_with_trace(family, t)
    return result
