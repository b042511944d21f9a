from fractions import Fraction
from math import comb

import pytest

from latticework.colouring import (
    EdgeColouredGraph,
    LayerPairGraph,
    avg_degree,
    find_rainbow_cycle,
    is_proper,
    layer_colouring,
    xi,
)
from latticework.constructions import full_layer_pair
from latticework.core import DomainError, SetFamily


def pair(n, k):
    a, b = full_layer_pair(n, k)
    return LayerPairGraph(a, b)


def test_graph_validation():
    with pytest.raises(DomainError):
        EdgeColouredGraph(2, ((0, 0, 1),))  # loop
    with pytest.raises(DomainError):
        EdgeColouredGraph(2, ((0, 2, 1),))  # vertex range
    with pytest.raises(DomainError):
        EdgeColouredGraph(2, ((0, 1, 0),))  # colours are positive
    with pytest.raises(DomainError):
        EdgeColouredGraph(3, ((0, 1, 1), (1, 0, 2)))  # duplicate edge
    g = EdgeColouredGraph(3, ((0, 1, 1), (1, 2, 2)))
    assert g.to_jsonable() == {"vertices": 3, "edges": [[0, 1, 1], [1, 2, 2]]}


def test_layer_pair_validation():
    a = SetFamily.from_sets(3, [(1,)])
    bad = SetFamily.from_sets(3, [(1, 2), (1, 2, 3)])
    with pytest.raises(DomainError):
        LayerPairGraph(a, bad)  # top side not a single layer
    with pytest.raises(DomainError):
        LayerPairGraph(a, SetFamily.from_sets(3, [(1, 2, 3)]))  # not adjacent


def test_edge_counts_on_full_layers():
    # each (k+1)-set covers k+1 sets of the lower layer
    for n, k in [(3, 0), (4, 1), (5, 2)]:
        g = pair(n, k)
        assert xi(g.a, g.b) == (k + 1) * comb(n, k + 1)
        assert len(g.edges()) == xi(g.a, g.b)


def test_avg_degree():
    g = pair(3, 1)
    # 6 edges on 6 vertices
    assert avg_degree(g) == 2
    small = LayerPairGraph(
        SetFamily.from_sets(3, [(1,)]), SetFamily.from_sets(3, [(1, 2)])
    )
    assert avg_degree(small) == Fraction(1)
    with pytest.raises(DomainError):
        avg_degree(LayerPairGraph(SetFamily.from_masks(3, ()), SetFamily.from_masks(3, ())))


def test_layer_colouring_uses_the_added_element():
    g = pair(3, 1)
    eg = layer_colouring(g)
    assert is_proper(eg)
    for u, v, colour in eg.edges:
        bottom = g.a.members[u]
        top = g.b.members[v - len(g.a)]
        assert top ^ bottom == 1 << (colour - 1)


def test_full_layer_colourings_have_no_rainbow_cycle():
    for n in range(2, 6):
        for k in range(n - 1):
            g = pair(n, k)
            eg = layer_colouring(g)
            assert is_proper(eg)
            assert find_rainbow_cycle(eg, max(3, g.order())) is None


def test_find_rainbow_cycle_positive_control():
    rainbow = EdgeColouredGraph(3, ((0, 1, 1), (1, 2, 2), (0, 2, 3)))
    cyc = find_rainbow_cycle(rainbow, 3)
    assert cyc is not None and len(cyc) == 3
    # repeated colour on the triangle kills it
    repeated = EdgeColouredGraph(3, ((0, 1, 1), (1, 2, 2), (0, 2, 2)))
    assert find_rainbow_cycle(repeated, 3) is None


def test_colour_shared_at_a_vertex_is_not_proper():
    # the shared vertex first as both edges' lower end, then as both upper
    # ends, then as one edge's upper and the other's lower end
    for edges in (((0, 1, 1), (0, 2, 1)), ((0, 2, 1), (1, 2, 1)), ((0, 1, 1), (1, 2, 1))):
        assert not is_proper(EdgeColouredGraph(3, edges)), edges


def test_find_rainbow_cycle_needs_length_three():
    g = EdgeColouredGraph(3, ((0, 1, 1), (1, 2, 2)))
    with pytest.raises(DomainError):
        find_rainbow_cycle(g, 2)


def test_rainbow_four_cycle():
    square = EdgeColouredGraph(4, ((0, 1, 1), (1, 2, 2), (2, 3, 3), (0, 3, 4)))
    cyc = find_rainbow_cycle(square, 4)
    assert cyc is not None and len(cyc) == 4
    # same square, opposite edges share colours: proper but not rainbow
    latin = EdgeColouredGraph(4, ((0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 2)))
    assert is_proper(latin)
    assert find_rainbow_cycle(latin, 4) is None
