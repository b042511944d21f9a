"""Skipless normalization at fixed cardinality and component-order bound.

A skip of a family F is a set Y outside F squeezed between two members
(X <= Y <= Z with X, Z in F).  One normalization step adds the chosen skip
and deletes an inclusion-maximal member of the affected component, which
keeps the cardinality, keeps every component order within the bound, and
strictly decreases the number of skips.  Iterating reaches a skipless
family of the same size.  A step reads the affected component from the
family's comparability graph and the skip from its skip bitset; the
reduced family's graph and skip bitset re-check the step and serve the
next one.  Every step is validated after execution instead of trusted:
the size, the skip-count decrease, the order bound, and that the skip's
new component lies inside the rewritten one are all re-checked.
"""

from __future__ import annotations

from bisect import bisect_left

from .core import (
    ComparabilityGraph,
    DomainError,
    PreconditionError,
    SetFamily,
    VerificationError,
    comparability_graph,
    downset_bits,
    family_bits,
    iter_bits,
    upset_bits,
    _Record,
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


def _skip_bits(family: SetFamily) -> int:
    # The sets between two members that are not members themselves.
    bits = family_bits(family)
    return downset_bits(family.n, bits) & upset_bits(family.n, bits) & ~bits


def find_skips(family: SetFamily) -> list[SkipReport]:
    """All skips of the family, sorted by (cardinality, mask value)."""
    members = family.members
    out = []
    # iter_bits ascends and the sort is stable: (cardinality, mask) order
    for y in sorted(iter_bits(_skip_bits(family)), key=int.bit_count):
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
    return _skip_bits(family).bit_count()


def _component_below(graph: ComparabilityGraph, y: int) -> tuple[int, ...]:
    """Members of the component of the members contained in y, a member or a skip.

    A skip y lies strictly between members X < Z of one component C, and a
    member W < y has W < Z, a member W > y has W > X: y's component in F + y
    is C + {y}, and C is the one component with a member contained in y.
    """
    return next(ms for ms in graph.component_members if any((m & y) == m for m in ms))


def _step(
    family: SetFamily, graph: ComparabilityGraph, skips: int
) -> tuple[SetFamily, int, StepRecord, tuple[int, ...]]:
    """One validated step: the reduced family, its skip bitset, the step taken
    and the members of the component it rewrote."""
    # iter_bits ascends, so min keeps the smallest mask of least cardinality
    y = min(iter_bits(skips), key=int.bit_count)
    component = _component_below(graph, y)
    # a member of largest cardinality is inclusion-maximal in the component
    x_max = max(component, key=lambda m: (m.bit_count(), -m))
    reduced = family.add(y).remove(x_max)
    if len(reduced) != len(family):
        raise NormalizationError("step changed the family cardinality")
    reduced_skips = _skip_bits(reduced)
    if reduced_skips.bit_count() >= skips.bit_count():
        raise NormalizationError(
            f"skip count failed to decrease: added {y}, removed {x_max}"
        )
    return reduced, reduced_skips, StepRecord(added=y, removed=x_max), component


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
    current, skips = family, _skip_bits(family)
    trace: list[StepRecord] = []
    while skips:
        reduced, skips, step, component = _step(current, graph, skips)
        y, x_max = step.added, step.removed
        reduced_graph = comparability_graph(reduced)
        if reduced_graph.max_component_order() > t:
            raise NormalizationError(
                "order bound violated after step "
                f"{len(trace)}: added {y}, removed {x_max}, "
                f"max order {reduced_graph.max_component_order()} > {t}"
            )
        # A member comparable to y lies below or above it, hence in y's old
        # component C, and members of C reach only members of C: y's new
        # component lies in C with y swapped in for the removed member.
        allowed = (set(component) - {x_max}) | {y}
        if not allowed.issuperset(_component_below(reduced_graph, y)):
            raise NormalizationError(
                f"step {len(trace)}: the component of {y} is not inside its old "
                f"component with {y} in place of {x_max}"
            )
        trace.append(step)
        current, graph = reduced, reduced_graph
    return current, trace


def make_skipless(family: SetFamily, t: int) -> SetFamily:
    """Skipless family of the same size with component orders still <= t."""
    result, _ = make_skipless_with_trace(family, t)
    return result
