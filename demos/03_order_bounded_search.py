"""
Exact search: largest family with small comparability components
================================================================

la_exact(n, t) maximizes |family| subject to every component of the
comparability graph having at most t members.  t = 1 is the antichain
case; t = 2 allows disjoint 2-chains; larger t allows small clusters.
The search is branch and bound over masks, each carrying the bitset of its
component, with canonical-form pruning, and always returns a witness plus
a proof flag.
"""

from latticework import binomial, comparability_graph
from latticework.normalize import make_skipless, skip_count
from latticework.search import la_exact, la_exact_restricted, lambda_star_exact

# antichain anchors: the middle binomial coefficient
for n in (2, 3, 4, 5):
    res = la_exact(n, 1)
    print(f"la({n},1) = {res.value}  (= C({n},{n//2}) = {binomial(n, n//2)}),",
          "proven" if res.proven_optimal else "budget hit",
          f"after {res.nodes_explored} nodes")

# the t = 2 values match 2*C(n-1, floor((n-1)/2))
for n in (3, 4, 5):
    res = la_exact(n, 2)
    print(f"la({n},2) = {res.value}, witness components:",
          sorted(comparability_graph(res.witness).component_orders))

# a full la(3, t) sweep; the value is monotone and tops out at 2^3
print("la(3,t) for t = 1..8:", [la_exact(3, t).value for t in range(1, 9)])

# witnesses can be rewritten into skipless form without losing size or
# violating the order bound
res = la_exact(4, 4)
wit = res.witness
out = make_skipless(wit, 4)
print("la(4,4) witness:", wit.to_sets())
print("skipless form:  ", out.to_sets(), " skips:", skip_count(out))

# the same search confined to a band of layers
res = la_exact_restricted(4, 2, 2, 3)
print("la(4,2) within layers 2..3:", res.value)

# maximizing the Lubell value instead of the cardinality
res = lambda_star_exact(4, 4)
print("largest Lubell value with components of order <= 4 in 2^[4]:", res.value)
print("  attained by:", res.witness.to_sets())
