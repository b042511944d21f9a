"""
Set families as bitmasks: construction, JSON, component structure
==================================================================

Every subset of {1..n} is an n-bit integer mask (element i is bit i-1),
and a family is a sorted tuple of masks.  This demo walks the core
vocabulary used everywhere else.
"""

from itertools import combinations

from latticework import (
    SetFamily,
    comparability_graph,
    count_two_chains,
    elements_of,
    full_cube,
    height,
    mask_of,
)

# build a small family from element tuples; order and duplicates are
# normalized away
fam = SetFamily.from_sets(4, [(1,), (1, 2), (1, 2, 3), (4,), (1, 2)])
print("members as masks:", fam.members)
print("members as sets: ", fam.to_sets())
print("size:", len(fam), " height:", height(fam))

# masks and element tuples convert both ways
m = mask_of([2, 4])
print("mask_of([2,4]) =", m, "-> elements", elements_of(m))

# the comparability graph joins every 2-chain; of these, the covers are
# the pairs one element apart
g = comparability_graph(fam)
print("component orders:", sorted(g.component_orders))
print("2-chains:", count_two_chains(fam))
covers = sum((x ^ y).bit_count() == 1 for x, y in combinations(fam.members, 2))
print("cover edges:", covers, "vs all comparable pairs:", count_two_chains(fam))

# each component is itself a family
for i in range(g.n_components):
    print("  component", i, "=", g.component_family(i).to_sets())

# families serialize to a tiny JSON format and back, with a stable digest
text = fam.to_json()
print("json:", text)
back = SetFamily.from_json(text)
assert back == fam
print("digest:", fam.digest()[:16], "...")

# the full cube is the whole lattice; its comparability graph is connected
cube = full_cube(3)
print("full cube n=3:", len(cube), "sets,",
      comparability_graph(cube).n_components, "component")
