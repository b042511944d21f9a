"""The paper's objects from their definitions, for the tests to check against.

This is the one copy of the definitions that the tests read: the inclusion
graph of a family and its components, the skips that normalization
removes, the Lubell sum behind Sperner's bound, and the intervals
(diamonds) of the sharp construction.  It uses the standard library alone
and imports nothing from latticework, so a defect in the package cannot
pass a check written against it.  A family is an ascending tuple of masks,
bit i of a mask standing for element i + 1.
"""

from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import comb
from operator import and_, or_


def below(x, y):
    """Whether x is a proper subset of y."""
    return x != y and x & y == x


def comparable(x, y):
    """Whether one of x and y is a proper subset of the other."""
    return x != y and (x & y == x or x & y == y)


def pairs(members, related):
    """The index pairs (i, j), i < j, of related members: the edges of their graph."""
    s = len(members)
    return tuple([(i, j) for i in range(s) for j in range(i + 1, s)
                  if related(members[i], members[j])])


def component_numbers(count, edges):
    """The component number of each of count vertices, by union-find over
    the edges, with the components numbered by their least vertex."""
    parent = list(range(count))

    def root(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for i, j in edges:
        parent[root(j)] = root(i)
    numbers = {}
    return tuple([numbers.setdefault(root(v), len(numbers)) for v in range(count)])


def components(members, edges):
    """The member tuples of the components of the graph on members with
    those edges, in order of their least member."""
    groups = {}
    for m, c in zip(members, component_numbers(len(members), edges)):
        groups.setdefault(c, []).append(m)
    return [tuple(g) for g in groups.values()]


def order(members):
    """The largest component size of the members' comparability graph, 0 if none."""
    return max(map(len, components(members, pairs(members, comparable))), default=0)


def skips(n, members):
    """The sets of [n] outside members lying between two of them, in
    (size, mask) order, each as (skip, least member below, least member above)."""
    found = []
    present = set(members)
    for y in sorted(range(1 << n), key=lambda y: (y.bit_count(), y)):
        if y in present:
            continue
        low = next((x for x in members if x & y == x), None)
        high = next((z for z in members if y & z == y), None)
        if low is not None and high is not None:
            found.append((y, low, high))
    return found


def lubell(n, members):
    """The Lubell sum: 1 / C(n, |X|) over the members X."""
    return sum((Fraction(1, comb(n, m.bit_count())) for m in members), Fraction(0))


def span(members):
    """The meet and the join of members: their intersection and their union."""
    return reduce(and_, members), reduce(or_, members)


def is_interval(members):
    """Whether members are every set between their meet and their join."""
    meet, join = span(members)
    free = [1 << i for i in range(join.bit_length()) if (join ^ meet) >> i & 1]
    between = {meet | sum(picks) for r in range(len(free) + 1) for picks in combinations(free, r)}
    return set(members) == between


def interval_sum(n, intervals):
    """The diamond Lubell sum: 1 / C(n - h, |meet|) over the intervals, each
    of height h = |join - meet|."""
    total = Fraction(0)
    for members in intervals:
        meet, join = span(members)
        total += Fraction(1, comb(n - (join ^ meet).bit_count(), meet.bit_count()))
    return total
