"""The one check of the package's graphs of a family against `reference.py`."""

from latticework.core import comparability_graph, count_two_chains, cover_graph, is_antichain
from reference import comparable, components, covers, pairs


def check_graphs(family):
    """Check both graphs of family, its 2-chain count and its antichain test
    against the definitions; return the reference's edges and components
    per graph kind (cover_only).  The pairs are tested once, the cover pairs
    kept from the comparable ones, and each kind takes one union-find."""
    ms = family.members
    chains = pairs(ms, comparable)
    reference = {}
    for cover_only, build in ((False, comparability_graph), (True, cover_graph)):
        edges = tuple([(i, j) for i, j in chains if covers(ms[i], ms[j])]) if cover_only else chains
        want = components(ms, edges)
        g = build(family)
        assert g.component_members == tuple(want), family
        # ids, orders and sizes from the reference's components and edges
        number = {m: c for c, members in enumerate(want) for m in members}
        ids = tuple(number[m] for m in ms)
        sizes = [0] * len(want)
        for i, _ in edges:
            sizes[ids[i]] += 1
        assert g.component_id == ids, family
        assert g.component_orders == tuple(map(len, want)), family
        assert g.component_sizes == tuple(sizes), family
        assert g.edges == edges, family
        assert [tuple(ms[v] for v in vs) for vs in g.components()] == want, family
        reference[cover_only] = edges, want
    # the comparability edges are exactly the 2-chains
    assert count_two_chains(family) == len(chains), family
    assert is_antichain(family) == (not chains), family
    return reference
