"""Exact searches for the small-n extremal thresholds.

The order-bounded searches run depth-first over masks in increasing
numeric order, so every family is visited through exactly one (sorted)
tuple.  A node holds the comparability components of its chosen masks as
a short list, in `la_exact` of (members, near) pairs: the component's
index bitset, whose bit count is its order, and the OR of its members'
comparability rows.  A new member walks that list once, joining every
component its row meets, and only the candidates in the joined
component's `near` need their order checked again.  Each child gets its
own list, so nothing is undone on the way back; `la_exact` writes the
member at depth d into chosen[d] of a list sized to the universe.
Subtrees die when current size plus the surviving candidate pool cannot
beat the incumbent, tested before the call, so a dead child costs no
call; and shallow prefixes that are not lexicographically minimal under
ground-element relabelling (plus complementation when the layer band is
symmetric) are discarded.  Min-lex canonicity is inherited by prefixes,
so the canonical copy of every optimal family survives.

Budgets are node counts, never wall clocks, counted by one `_Budget`: every
search defaults to NODE_BUDGET, None is unbounded, a negative budget acts
as 0, and the node after the budget stops the search at max(budget, 0) + 1
nodes, proven_optimal=False, with its incumbent.  Before the first
candidate that incumbent is value and witness None for `xi_star_exact` and
`min_two_chains`, 0 and an empty witness for `mad_star_probe`,
`lambda_star_exact` and `max_disconnected`, and the seed family for
`la_exact`.  A search keeps its incumbent as indices, masks or a colouring
and builds its witness once, after its loop (`mad_star_probe` stops at its
first colouring), then re-checks it; a failed check raises
VerificationError, under `python -O` too.  Not every re-check is
independent of its search: `la_exact` and `la_exact_restricted` on
witnesses of at most 16 members, `lambda_star_exact`, `max_disconnected`
at n <= 4 and `min_two_chains` re-check through `comparability_graph` or
`count_two_chains`.  On those sizes both take the pairwise route,
`core._comparability_rows`, the pair loop that also builds the `_band`
rows the searches walk, so a defect in it would pass those checks.
ROADMAP item 6 plans a checker that shares no code with the searches.

Closed splits walk the indices through precomputed steps and take each
closure from three 1,024-entry tables, one AND of the incomparability rows
per 10-bit chunk of the shrunk intent.  `_maximal_splits` grows each
component a frontier at a time from the chunks' ORs of comparability rows,
and gives `verify` each split as two cube bitsets, which only
`disconnected_splits` decodes, from the chunks' universe masks.  One
`_split_tables` entry holds them all, built once per n.  The searches over
a band of layers read its masks and pairwise relation from `_band`, built
once per (n, band); these and the other reusable tables are cached with
`functools.cache`, never a search's result.  The relabelling tables come
from `family._mask_relabel_table`.  Bitsets of universe indices outside
the inner loops are walked with `core.iter_bits`.  Only `xi_star_exact`
and `mad_star_probe` use `colouring`, and they import it when called.
"""

from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import factorial

from .core import (
    NODE_BUDGET,
    BudgetExhaustedError,
    DomainError,
    SetFamily,
    VerificationError,
    binomial,
    bits_to_family,
    comparability_graph,
    count_two_chains,
    iter_bits,
    layer_masks,
    _comparability_rows,
    _family_with_bits,
    _mask_relabel_table,
    _Record,
)
from .constructions import sharp_family
from .lubell import lubell


class SearchResult(_Record):
    def __init__(self, value: object, witness: object, nodes_explored: int, proven_optimal: bool):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "nodes_explored", nodes_explored)
        object.__setattr__(self, "proven_optimal", proven_optimal)

    def to_jsonable(self) -> dict:
        """The result as JSON data; a family witness also carries its digest."""
        value, witness = self.value, self.witness
        if isinstance(witness, SetFamily):
            witness = {**witness.to_jsonable(), "digest": witness.digest()}
        elif witness is not None:
            witness = witness.to_jsonable()
        return {
            "value": str(value) if isinstance(value, Fraction) else value,
            "nodes_explored": self.nodes_explored,
            "proven_optimal": self.proven_optimal,
            "witness": witness,
        }


class _BudgetExceeded(Exception):
    pass


class _Budget:
    """The node counter of one search, which runs under `with budget:`; the
    node after the limit ends that block, leaving nodes == limit + 1."""

    __slots__ = ("limit", "nodes")

    def __init__(self, budget_nodes: int | None):
        # unbounded is a limit no search reaches, so every check stays int to int
        self.limit = 1 << 63 if budget_nodes is None else max(budget_nodes, 0)
        self.nodes = 0

    def tick(self) -> None:
        """Count one node."""
        self.nodes += 1
        if self.nodes > self.limit:
            raise _BudgetExceeded

    def reach(self, last: int) -> None:
        """Count every node up to number `last`, for a block settled at once."""
        if last > self.limit:
            self.nodes = self.limit + 1
            raise _BudgetExceeded
        self.nodes = last

    @property
    def proven(self) -> bool:
        return self.nodes <= self.limit

    def __enter__(self):
        return self

    def __exit__(self, kind, exc, tb) -> bool:
        return kind is _BudgetExceeded


# ---------------------------------------------------------------------------
# order-bounded family maximisation


@cache
def _group_lanes(n: int, with_complement: bool) -> tuple[tuple[int, ...], int, int]:
    """The group S_n, optionally composed with complementation, bit-parallel.

    Element g owns a lane of 2^n + 1 bits.  Column m holds 1 << g(m) in
    lane g for every g, so OR-ing the columns of a family gives all its
    images at once.  Also returned: the lanes' bit 0 (`ones`, which
    replicates a family into every lane by multiplication) and their
    top bit (`guards`, which no image reaches).
    """
    width = (1 << n) + 1
    full = (1 << n) - 1
    columns = [0] * (1 << n)
    lane = 0
    for perm in permutations(range(1, n + 1)):
        table = _mask_relabel_table(n, perm)
        for image in (table, [full ^ v for v in table]) if with_complement else (table,):
            for m, v in enumerate(image):
                columns[m] |= 1 << (lane * width + v)
            lane += 1
    ones = sum(1 << (g * width) for g in range(lane))
    return tuple(columns), ones, ones << (width - 1)


def _la_seeds(n: int, t: int, kmin: int, kmax: int) -> SetFamily:
    """Best constructive family obeying the constraints; used as the incumbent."""
    band_mid = max(range(kmin, kmax + 1), key=lambda k: binomial(n, k))
    best = SetFamily.from_masks(n, layer_masks(n, band_mid))
    for k in range(n + 1):
        if (1 << k) > t:
            continue
        s = sharp_family(n, k)
        if len(s) > len(best) and all(kmin <= m.bit_count() <= kmax for m in s.members):
            best = s
    return best


@cache
def _band(n: int, kmin: int, kmax: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The masks of sizes kmin..kmax in ascending order, and their
    comparability rows (`core._comparability_rows`).  Shared by every caller.
    """
    masks = tuple(sorted(m for k in range(kmin, kmax + 1) for m in layer_masks(n, k)))
    return masks, tuple(_comparability_rows(masks))


# prefixes of up to this many members are tested for min-lex canonicity
_CANON_DEPTH = 4


def _la_search(n, t, kmin, kmax, budget_nodes):
    if not 0 <= kmin <= kmax <= n:
        raise DomainError("layer band must satisfy 0 <= kmin <= kmax <= n")
    if n > 5:
        raise DomainError("family search is exhaustive only up to n = 5")
    if t < 1:
        raise DomainError("component order bound must be >= 1")
    seed = _la_seeds(n, t, kmin, kmax)
    best_val = len(seed)
    best_masks = list(seed.members)

    # a mask comparable to every other, the empty set or [n], cannot sit in a
    # family larger than t
    if best_val > t:
        universe, cmp_bits = _band(n, max(kmin, 1), min(kmax, n - 1))
    else:
        universe, cmp_bits = _band(n, kmin, kmax)
    size = len(universe)

    # relabelling preserves layers; complementation flips the band, so it is a
    # symmetry of the universe only when the band is centred
    columns, ones, guards = _group_lanes(n, with_complement=(kmin + kmax == n))

    chosen = [0] * size
    budget = _Budget(budget_nodes)
    tick = budget.tick

    def canonical(masks):
        """True iff no group element sends masks to a lexicographically smaller sorted tuple."""
        images = 0
        family = 0
        for m in masks:
            images |= columns[m]
            family |= 1 << m
        # of two sets of equal size, the sorted one holding the least mask of
        # their symmetric difference comes first; the guard bit stands in for
        # an empty difference, and x & ~(x - 1) is the least bit of each lane
        diff = (images ^ family * ones) | guards
        return not diff & ~(diff - ones) & images

    def expand(pool, comps, depth):
        """Branch on each index of pool as chosen[depth]; every member joins
        chosen[:depth] within order t.  comps holds each component of
        chosen[:depth] as (members, near)."""
        nonlocal best_val, best_masks
        up = depth + 1
        while pool:
            if depth + pool.bit_count() <= best_val:
                return
            low = pool & -pool
            i = low.bit_length() - 1
            pool ^= low
            tick()
            chosen[depth] = i
            if up > best_val:
                best_val = up
                best_masks = [universe[j] for j in chosen[:up]]
            if up > _CANON_DEPTH or canonical([universe[j] for j in chosen[:up]]):
                # the components i meets join it; the others stay apart
                row = cmp_bits[i]
                members, near = low, row
                apart = []
                for c in comps:
                    m, nr = c
                    if m & row:
                        members |= m
                        near |= nr
                    else:
                        apart.append(c)
                # a candidate away from the joined component keeps the order
                # checked one level up; one in `near` would form the joined
                # component, itself and the apart components it meets
                child = pool
                room = t - members.bit_count() - 1
                if room < 0:
                    child &= ~near
                else:
                    # an apart component larger than the room left rules out
                    # every candidate next to it and to the joined one; the
                    # smaller ones can only overflow it together
                    small = []
                    total = 0
                    for m, nr in apart:
                        o = m.bit_count()
                        if o > room:
                            child &= ~(near & nr)
                        else:
                            small.append((nr, o))
                            total += o
                    if total > room:
                        touched = child & near
                        while touched:
                            lo = touched & -touched
                            touched ^= lo
                            sum_o = 0
                            for nr, o in small:
                                if nr & lo:
                                    sum_o += o
                            if sum_o > room:
                                child ^= lo
                # the child's own loop test, so a dead child costs no call
                if up + child.bit_count() > best_val:
                    apart.append((members, near))
                    expand(child, apart, up)

    with budget:
        expand((1 << size) - 1, [], 0)

    witness = SetFamily.from_masks(n, best_masks)
    if len(witness) != best_val:
        raise VerificationError(f"witness has {len(witness)} members, not {best_val}")
    if comparability_graph(witness).max_component_order() > t:
        raise VerificationError(f"witness has a component of order above {t}")
    if not all(kmin <= m.bit_count() <= kmax for m in witness.members):
        raise VerificationError(f"witness leaves the layer band [{kmin}, {kmax}]")
    return SearchResult(best_val, witness, budget.nodes, budget.proven)


def la_exact(n: int, t: int, budget_nodes: int = NODE_BUDGET) -> SearchResult:
    """Largest family of subsets of [n] whose comparability components have order <= t."""
    return _la_search(n, t, 0, n, budget_nodes)


def la_exact_restricted(
    n: int, t: int, kmin: int, kmax: int, budget_nodes: int = NODE_BUDGET
) -> SearchResult:
    """la_exact with member sizes confined to the layer band [kmin, kmax]."""
    return _la_search(n, t, kmin, kmax, budget_nodes)


# ---------------------------------------------------------------------------
# maximum Lubell value over order-bounded families


def lambda_star_exact(n: int, t: int, budget_nodes: int = NODE_BUDGET) -> SearchResult:
    """Exact maximum of the Lubell sum over families with component order <= t.

    Exhausts all 2^(2^n) families, with integer weights n! / C(n,k) per
    layer-k member, so n is capped at 4.  A depth-first walk decides the
    masks from the top down, leaving a mask out before putting it in, so
    families come in increasing order of their bitsets and family number b
    is node b.  A node is one family settled, either alone or inside a
    refuted block: a subtree whose chosen masks already form a component of
    order > t, or whose chosen weight plus all weight still open cannot
    strictly beat the incumbent.
    """
    if not 1 <= n <= 4:
        raise DomainError("Lubell maximisation enumerates all families; 1 <= n <= 4 only")
    if t < 1:
        raise DomainError("component order bound must be >= 1")
    cube = 1 << n
    factorial_n = factorial(n)
    weight = [factorial_n // binomial(n, m.bit_count()) for m in range(cube)]
    # open_weight[m]: the weight of the masks below m, all still open
    open_weight = [sum(weight[:m]) for m in range(cube + 1)]
    _, cmp_rows = _band(n, 0, n)

    budget = _Budget(budget_nodes)
    best_num = 0
    best_bits = 0

    def walk(m, bits, total, comps):
        """Decide masks m-1 .. 0 below the chosen masks `bits` of weight total;
        comps holds the bitset of each component of the chosen masks."""
        nonlocal best_num, best_bits
        if total + open_weight[m] <= best_num:
            budget.reach(bits + (1 << m) - 1)
            return
        if not m:
            budget.reach(bits)
            best_num = total
            best_bits = bits
            return
        m -= 1
        walk(m, bits, total, comps)
        low = 1 << m
        row = cmp_rows[m]
        joined = low
        apart = []
        for c in comps:
            if c & row:
                joined |= c
            else:
                apart.append(c)
        if joined.bit_count() > t:
            budget.reach(bits + low + low - 1)
            return
        apart.append(joined)
        walk(m, bits | low, total + weight[m], apart)

    with budget:
        walk(cube, 0, 0, [])

    witness = bits_to_family(n, best_bits)
    value = Fraction(best_num, factorial_n)

    if lubell(witness) != value:
        raise VerificationError(f"witness has Lubell sum {lubell(witness)}, not {value}")
    if witness.members and comparability_graph(witness).max_component_order() > t:
        raise VerificationError(f"witness has a component of order above {t}")
    return SearchResult(value, witness, budget.nodes, budget.proven)


# ---------------------------------------------------------------------------
# disconnected families via closed splits

# A family is disconnected iff it fits inside A u N(A) for some A whose
# incomparability closure is itself (N = common incomparables).  Close-by-one
# enumerates every such closed split exactly once.


@cache
def _split_tables(universe: tuple[int, ...], cmp_rows: tuple[int, ...]) -> tuple[tuple, ...]:
    """Every table of the split walk over `_band(n, 1, n - 1)`, keyed by its
    universe and rows, one entry per n, so a `_band` swapped for changed rows
    gets tables of its own.

    tails[s] holds close-by-one steps s, s + 1, ..., step i being (i, 1 << i,
    (1 << i) - 1, the indices incomparable to i).  For the bitset b of the
    c-th 10-bit index chunk, meet[c][b] is the AND of its bits' incomparability
    rows, reach[c][b] the OR of their comparability rows and masks[c][b] their
    universe masks in ascending order; n <= 5 leaves at most 30 indices, so
    three chunks cover them."""
    full = (1 << len(universe)) - 1
    apart = [full ^ row ^ (1 << i) for i, row in enumerate(cmp_rows)]
    steps = tuple((i, 1 << i, (1 << i) - 1, a) for i, a in enumerate(apart))
    meet, reach, masks = [], [], []
    for c in range(0, 30, 10):
        ands, ors, sides = [full], [0], [()]
        # index i doubles the chunk: the entries with its bit add its rows and mask
        for i in range(c, min(c + 10, len(universe))):
            ands += [a & apart[i] for a in ands]
            ors += [r | cmp_rows[i] for r in ors]
            sides += [side + (universe[i],) for side in sides]
        meet.append(tuple(ands))
        reach.append(tuple(ors))
        masks.append(tuple(sides))
    tails = tuple(steps[s:] for s in range(len(steps) + 1))
    return tails, tuple(meet), tuple(reach), tuple(masks)


def _closed_splits(n: int, budget: _Budget):
    """The universe, its comparability rows and the (extent, common
    incomparables) index-bitmask pairs the budget reached, one per split.

    The extents come grouped by their least index, ascending: a child adds
    no index below its step, so every extent under step i keeps least index i.
    So a split is met first with its side of smaller least index as extent,
    and only that orientation is kept.
    """
    universe, cmp_rows = _band(n, 1, n - 1)
    tails, (t0, t1, t2), _, _ = _split_tables(universe, cmp_rows)
    tick = budget.tick
    found: list[tuple[int, int]] = []

    def cbo(extent, intent, start):
        if 0 < extent & -extent < intent & -intent:
            found.append((extent, intent))
        for i, low, below, row in tails[start]:
            if extent & low:
                continue
            shrunk = intent & row
            if not shrunk:
                continue
            tick()
            closed = t0[shrunk & 1023] & t1[shrunk >> 10 & 1023] & t2[shrunk >> 20]
            if (closed ^ extent) & below:
                continue
            cbo(closed, shrunk, i + 1)

    with budget:
        cbo(0, (1 << len(universe)) - 1, 0)
    return universe, cmp_rows, found


def max_disconnected(n: int, budget_nodes: int = NODE_BUDGET) -> SearchResult:
    """Exact maximum size of a family whose comparability graph is disconnected."""
    if n < 2:
        raise DomainError("no disconnected family exists below n = 2")
    if n > 5:
        raise DomainError("split enumeration is exhaustive only up to n = 5")
    budget = _Budget(budget_nodes)
    universe, _, found = _closed_splits(n, budget)
    best_val = 0
    best_bits = (0, 0)
    for extent, intent in found:
        v = extent.bit_count() + intent.bit_count()
        if v > best_val:
            best_val = v
            best_bits = (extent, intent)
    masks = [universe[i] for i in iter_bits(best_bits[0] | best_bits[1])]
    witness = SetFamily.from_masks(n, masks)
    if witness.members:
        if len(witness) != best_val:
            raise VerificationError(f"witness has {len(witness)} members, not {best_val}")
        if comparability_graph(witness).n_components < 2:
            raise VerificationError("witness is connected")
    return SearchResult(best_val, witness, budget.nodes, budget.proven)


def _maximal_splits(n: int, budget_nodes: int | None) -> list[tuple[int, int]]:
    """The maximal splits at ground size n as (a, b) cube bitsets, bit m set
    for each mask m of a side, a holding the smaller least mask.  A closed
    split is maximal iff no single absent set keeps it disconnected (any
    disconnected superset yields one).  The band's universe is every mask but
    ∅ and [n], ascending, so index i is mask i + 1 and a side's cube bitset is
    its extent << 1."""
    if not 1 <= n <= 5:
        raise DomainError("split enumeration is exhaustive only for 1 <= n <= 5")
    budget = _Budget(budget_nodes)
    universe, cmp_rows, found = _closed_splits(n, budget)
    if not budget.proven:
        raise BudgetExhaustedError(f"split enumeration stopped after {budget.nodes} nodes")
    _, _, reach, _ = _split_tables(universe, cmp_rows)
    full = (1 << len(universe)) - 1
    return [(extent << 1, intent << 1) for extent, intent in found
            if _links_every_component(extent | intent, full, reach)]


def disconnected_splits(
    n: int, budget_nodes: int = NODE_BUDGET
) -> list[tuple[SetFamily, SetFamily]]:
    """All maximal disconnected families at ground size n, as (side, side)
    splits: `_maximal_splits` decoded, each side keeping its bitset."""
    splits = _maximal_splits(n, budget_nodes)
    _, _, _, (m0, m1, m2) = _split_tables(*_band(n, 1, n - 1))

    def side(i):  # ascending chunks of the ascending universe: sorted, distinct members
        return _family_with_bits(n, m0[i & 1023] + m1[i >> 10 & 1023] + m2[i >> 20], i << 1)

    return [(side(a >> 1), side(b >> 1)) for a, b in splits]


def _links_every_component(members: int, full: int, reach: tuple[tuple[int, ...], ...]) -> bool:
    """`constructions.links_every_component` on a bitset of universe indices,
    out of `full`, with `_split_tables`' reach tables.

    Each component grows from its least index by whole frontiers: the OR of
    its members' rows, three table reads, until that adds no member.  The
    empty set and [n] lie outside the universe and are comparable to
    everything, so only the absent universe members can fail to link.
    """
    r0, r1, r2 = reach
    absent = full ^ members
    left = members
    while left:
        comp, grown = 0, left & -left
        while grown != comp:
            comp = grown
            near = r0[comp & 1023] | r1[comp >> 10 & 1023] | r2[comp >> 20]
            grown = comp | near & left
        left ^= comp
        # an absent set links the components only if it reaches each one
        if absent & ~near:
            return False
    return True


# ---------------------------------------------------------------------------
# densest adjacent-layer pair of a given order


def xi_star_exact(n: int, m: int, budget_nodes: int = NODE_BUDGET) -> SearchResult:
    """Exact maximum average degree over adjacent-layer pairs of total order m.

    Every bottom side is tried; for a fixed bottom side the best top
    side is exactly the m - |A| tops of largest containment degree.
    """
    from .colouring import LayerPairGraph, avg_degree

    if not 1 <= n <= 5:
        raise DomainError("layer-pair exhaustion is limited to 1 <= n <= 5")
    if not 1 <= m <= 2 * binomial(n, n // 2):
        raise DomainError("order m out of range for adjacent layer pairs")
    if m > max(binomial(n, k) + binomial(n, k + 1) for k in range(n)):
        raise DomainError(f"no adjacent layer pair of [{n}] has order {m}")
    best = None
    best_edges = -1
    budget = _Budget(budget_nodes)
    with budget:
        for k in range(n):
            bottoms = layer_masks(n, k)
            tops = layer_masks(n, k + 1)
            # row j: the bottoms inside tops[j]; no top lies inside a bottom
            # or another top, so the tops' rows hold bottom bits only
            sub_rows = _comparability_rows(bottoms + tops)[len(bottoms):]
            for a_bits in range(1 << len(bottoms)):
                bsize = m - a_bits.bit_count()
                if not 0 <= bsize <= len(tops):
                    continue
                budget.tick()
                # m is fixed, so the edge count ranks nodes as 2 * edges / m does
                degs = sorted([(row & a_bits).bit_count() for row in sub_rows], reverse=True)
                edges = sum(degs[:bsize])
                if edges > best_edges:
                    best_edges = edges
                    best = (bottoms, tops, sub_rows, a_bits, bsize)
    if best is None:
        return SearchResult(None, None, budget.nodes, budget.proven)
    bottoms, tops, sub_rows, a_bits, bsize = best
    value = Fraction(2 * best_edges, m)
    # ties among tops go to the larger index
    ranked = sorted(((row & a_bits).bit_count(), j) for j, row in enumerate(sub_rows))[::-1]
    a_fam = SetFamily.from_masks(n, [bottoms[i] for i in iter_bits(a_bits)])
    b_fam = SetFamily.from_masks(n, [tops[j] for _, j in ranked[:bsize]])
    pair = LayerPairGraph(a_fam, b_fam)
    if pair.order() != m:
        raise VerificationError(f"witness has order {pair.order()}, not {m}")
    if avg_degree(pair) != value:
        raise VerificationError(f"witness has average degree {avg_degree(pair)}, not {value}")
    return SearchResult(value, pair, budget.nodes, budget.proven)


# ---------------------------------------------------------------------------
# fewest 2-chains at a forced size


def min_two_chains(n: int, m: int, budget_nodes: int = NODE_BUDGET) -> SearchResult:
    """Exact minimum 2-chain count over families of exactly m subsets of [n].

    Each m-subset of the cube is one node, in `itertools.combinations`
    order; the first family of a strictly smaller count is kept, and a count
    of 0 stops the search.  A depth-first walk carries each prefix's bitset
    and count, so a family costs one AND and one bit count.
    """
    if not 1 <= n <= 4:
        raise DomainError("2-chain minimisation exhausts all families; 1 <= n <= 4 only")
    cube = 1 << n
    if not 0 <= m <= cube:
        raise DomainError(f"no family of size {m} in a cube of {cube} sets")
    # for masks x < y, comparable means x is a subset of y
    _, rows = _band(n, 0, n)
    subs_row = [row & ((1 << y) - 1) for y, row in enumerate(rows)]
    best, best_bits = cube * cube, None  # above every count, at most m(m - 1)/2
    budget = _Budget(budget_nodes)
    tick = budget.tick

    def walk(start, depth, bits, cnt):
        """Add `depth` more masks from `start` up to the prefix `bits` of count
        `cnt`; True once a count of 0 is found."""
        nonlocal best, best_bits
        if depth == 1:
            for y in range(start, cube):
                tick()
                c = cnt + (subs_row[y] & bits).bit_count()
                if c < best:
                    best = c
                    best_bits = bits | 1 << y
                    if not c:
                        return True
            return False
        for y in range(start, cube - depth + 1):
            if walk(y + 1, depth - 1, bits | 1 << y, cnt + (subs_row[y] & bits).bit_count()):
                return True
        return False

    with budget:
        if m:
            walk(0, m, 0, 0)
        else:  # the empty family, the one combination of none
            tick()
            best, best_bits = 0, 0
    if best_bits is None:
        return SearchResult(None, None, budget.nodes, budget.proven)
    witness = bits_to_family(n, best_bits)
    if count_two_chains(witness) != best:
        raise VerificationError(f"witness has {count_two_chains(witness)} 2-chains, not {best}")
    return SearchResult(best, witness, budget.nodes, budget.proven)


# ---------------------------------------------------------------------------
# rainbow-free max average degree at tiny order


# The triangle-free graphs of the graph atlas (Read and Wilson, "An Atlas
# of Graphs") on t <= 7 vertices, one per isomorphism class, in atlas order
# and labelling: 1, 2, 3, 7, 14, 38 and 107 of them (OEIS A006785).  A graph
# is one edge code, whose bit i is the i-th pair of combinations(range(t), 2).
_TRIANGLE_FREE = {
    1: (0,),
    2: (0, 1),
    3: (0, 4, 3),
    4: (0, 32, 48, 33, 52, 13, 45),
    5: (0, 512, 17, 514, 672, 648, 529, 149, 840, 680, 153, 481, 665, 126),
    6: (0, 16384, 16388, 96, 28, 20496, 6400, 16420, 24588, 10512, 4680, 8290, 60,
        20528, 8266, 4776, 4649, 26896, 929, 12295, 9313, 4696, 21009, 24620, 1731, 126,
        8302, 15426, 1752, 4905, 21041, 23202, 26850, 21045, 12857, 15768, 23217,
        23221),
    7: (0, 1048576, 2112, 262176, 49, 1310752, 1050688, 1048712, 270656, 833, 24641,
        34881, 4145, 1310880, 24588, 264288, 460, 34889, 336400, 3649, 19264, 36416,
        428096, 1343521, 1190144, 1049025, 1048653, 24652, 1083457, 1312864, 266834,
        30732, 1452096, 399372, 1450304, 1442177, 297041, 1721376, 30785, 25025, 393665,
        1057217, 25032, 24653, 409985, 29060, 1054796, 393293, 297057, 1189897, 1083465,
        332370, 266838, 1448512, 1452352, 1996, 1452112, 31105, 393676, 9676, 1181723,
        1100353, 1321033, 198931, 1443922, 25036, 1055116, 417868, 1065420, 1181978,
        1345633, 111384, 811121, 30797, 399756, 285068, 31116, 14764, 1100609, 822849,
        1317260, 1100616, 1448520, 268916, 1063308, 1625105, 1452105, 1346641, 428145,
        305493, 635672, 112408, 1354065, 305521, 1448530, 1452555, 428339, 854373,
        1448013, 837745, 305525, 2046, 991692, 824534, 436593, 989773, 1690779),
}


def _graphs_of_order(t: int) -> list[list[tuple[int, int]]]:
    """Every triangle-free graph on exactly t vertices, up to isomorphism, as a
    sorted edge list."""
    pairs = list(combinations(range(t), 2))
    return [[p for i, p in enumerate(pairs) if code >> i & 1] for code in _TRIANGLE_FREE[t]]


def _edge_order(edges: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Order edges so each one touches the already-ordered prefix when possible."""
    remaining = sorted(edges)
    ordered = []
    touched = set()
    while remaining:
        pick = next((e for e in remaining if touched.intersection(e)), remaining[0])
        ordered.append(pick)
        remaining.remove(pick)
        touched.update(pick)
    return ordered


def _rainbow_free_colouring(edges, t, budget):
    """A proper edge colouring with no rainbow cycle, as ascending (u, v,
    colour) edges with colours from 1, or None; exhaustive.

    Colours are assigned in restricted-growth order, properness is checked
    against the colours already at both ends, and a rainbow cycle can only
    close at the moment its last edge is coloured, so it is searched for
    through that edge among earlier-coloured edges only.  `adj[x]` holds a
    (neighbour, colour) pair for each coloured edge at x.
    """
    if not edges:
        return ()
    order = _edge_order(edges)
    m = len(order)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(t)]

    def rainbow_path(at, goal, colours, seen):
        # a path at -> goal over coloured edges, avoiding the `colours` and
        # `seen` bitmasks; in a simple graph a u -> v path has at least two
        # edges, so it closes a cycle of length >= 3 with (u, v).  A walk
        # with distinct colours holds such a path, so `seen` only prunes.
        if at == goal:
            return True
        for nxt, c in adj[at]:
            if not (colours >> c & 1 or seen >> nxt & 1) and rainbow_path(
                nxt, goal, colours | 1 << c, seen | 1 << nxt
            ):
                return True
        return False

    def assign(pos, used):
        budget.tick()
        if pos == m:
            return True
        u, v = order[pos]
        banned = {c for _, c in adj[u] + adj[v]}
        for colour in range(min(used + 1, m)):
            if colour in banned or rainbow_path(u, v, 1 << colour, 1 << u):
                continue
            adj[u].append((v, colour))
            adj[v].append((u, colour))
            if assign(pos + 1, max(used, colour + 1)):
                return True
            adj[u].pop()
            adj[v].pop()
        return False

    if assign(0, 0):
        return tuple(sorted((u, v, c + 1) for u in range(t) for v, c in adj[u] if u < v))
    return None


def mad_star_probe(t: int, budget_nodes: int = NODE_BUDGET) -> SearchResult:
    """Largest average degree of an order-t graph with a rainbow-cycle-free
    proper edge colouring; exhaustive over all graphs on t vertices.

    Graphs with a triangle never qualify (a properly coloured triangle is
    always rainbow), so only the triangle-free ones are tried, each by
    exhaustive colouring search, in decreasing order of average degree.
    """
    from .colouring import EdgeColouredGraph, find_rainbow_cycle, is_proper

    if not 1 <= t <= 7:
        raise DomainError("graph-by-graph exhaustion is limited to t <= 7")
    best = Fraction(0)
    best_witness = EdgeColouredGraph(t, ())
    budget = _Budget(budget_nodes)
    with budget:
        for edges in sorted(_graphs_of_order(t), key=lambda edges: (-len(edges), edges)):
            colouring = _rainbow_free_colouring(edges, t, budget)
            if colouring is not None:
                best = Fraction(2 * len(edges), t)
                best_witness = EdgeColouredGraph(t, colouring)
                break

    if not is_proper(best_witness):
        raise VerificationError("witness colouring is not proper")
    if find_rainbow_cycle(best_witness, max_len=max(3, t)) is not None:
        raise VerificationError("witness colouring has a rainbow cycle")
    return SearchResult(best, best_witness, budget.nodes, budget.proven)
