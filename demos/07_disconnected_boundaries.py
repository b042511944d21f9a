"""
Maximal disconnected families and their boundary calculus
=========================================================

A family is disconnected when its comparability graph splits into two or
more components.  How large can such a family get inside 2^[n]?  The
boundary machinery answers by counting lattice points that no member can
touch: minimal sets above both sides and maximal sets below both sides
pin down an excluded region, and |family| <= 2^n - excluded.
"""

from latticework.constructions import disconnected_extremal, disconnected_extremal_size
from latticework.core import SetFamily, comparability_graph
from latticework.search import disconnected_splits, max_disconnected, min_two_chains
from latticework.shadow import boundary_report

# exact maxima by search, matching the closed-form construction sizes
for n in (2, 3, 4, 5):
    res = max_disconnected(n)
    print(f"largest disconnected family in 2^[{n}]: {res.value}",
          f"(construction gives {disconnected_extremal_size(n)},",
          "proven)" if res.proven_optimal else "budget hit)")

# the n = 4 extremal family and its two components
fam = disconnected_extremal(4)
g = comparability_graph(fam)
a, b = g.component_family(0), g.component_family(1)
print("extremal n=4 split:", a.to_sets(), "|", b.to_sets())

# boundary families: minimal sets outside both down-closures, maximal
# sets outside both up-closures
rep = boundary_report(a, b)
print("upper boundary:", SetFamily.from_jsonable(rep["fplus"]).to_sets())
print("lower boundary:", SetFamily.from_jsonable(rep["fminus"]).to_sets())

# the excluded count certifies the size bound, here with equality
print("excluded points:", rep["excluded_count"],
      " size bound: 2^4 -", rep["excluded_count"], "=",
      16 - rep["excluded_count"], " family size:", rep["family_size"])

# the census of ALL maximal disconnected families at small n
for n in (2, 3, 4):
    splits = disconnected_splits(n)
    tight = sum(
        1 for x, y in splits
        if len(x) + len(y) == (1 << n) - boundary_report(x, y)["excluded_count"]
    )
    print(f"n={n}: {len(splits)} maximal splits,",
          f"{tight} meet the size bound with equality")

# a related supersaturation fact: families one set larger than the
# biggest antichain already carry forced 2-chains
for n, width in ((3, 3), (4, 6)):
    res = min_two_chains(n, width + 1)
    print(f"any {width + 1} sets in 2^[{n}] force >= {res.value} two-chains")
