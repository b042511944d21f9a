"""The one check of the package's graph of a family against `reference.py`."""

from latticework.core import comparability_graph, count_two_chains, is_antichain
from reference import comparable, components, pairs


def check_graphs(family):
    """Check the comparability graph of family, its 2-chain count and its
    antichain test against the definitions; return the reference's edges
    and components.  The pairs are tested once and take one union-find."""
    ms = family.members
    edges = pairs(ms, comparable)
    want = components(ms, edges)
    g = comparability_graph(family)
    assert g.component_members == tuple(want), family
    # orders and sizes from the reference's components and edges
    number = {m: c for c, members in enumerate(want) for m in members}
    sizes = [0] * len(want)
    for i, _ in edges:
        sizes[number[ms[i]]] += 1
    assert g.component_orders == tuple(map(len, want)), family
    assert g.component_sizes == tuple(sizes), family
    # the comparability edges are exactly the 2-chains
    assert count_two_chains(family) == len(edges), family
    assert is_antichain(family) == (not edges), family
    return edges, want
