"""Adjacent-layer bipartite graphs and rainbow-free edge colourings.

The canonical colouring paints the containment edge (A, A + {i}) with the
added element i.  It is proper, and no cycle can use n distinct added
elements without removing one of them again, so it never contains a
rainbow cycle; find_rainbow_cycle verifies that exhaustively at small
scale.
"""

from fractions import Fraction

from .family import DomainError, ResourceLimitError, SetFamily, _Record

RAINBOW_VERTEX_CAP = 64
RAINBOW_LEN_CAP = 64


class EdgeColouredGraph(_Record):
    """Simple graph with positive integer edge colours, edges as (u, v, colour)."""

    def __init__(self, n_vertices: int, edges: tuple[tuple[int, int, int], ...]):
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", edges)
        seen = set()
        for u, v, colour in edges:
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise DomainError(f"edge ({u},{v}) off the vertex range")
            if u == v:
                raise DomainError("loops are not allowed")
            if colour < 1:
                raise DomainError("colours must be positive integers")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise DomainError(f"duplicate edge {key}")
            seen.add(key)

    def to_jsonable(self) -> dict:
        return {
            "vertices": self.n_vertices,
            "edges": [[u, v, c] for u, v, c in self.edges],
        }


class LayerPairGraph(_Record):
    """Subfamily of layer k versus subfamily of layer k+1, edges = containments."""

    def __init__(self, a: SetFamily, b: SetFamily):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if a.n != b.n:
            raise DomainError("layer pair sides live in different cubes")
        _single_layer(a)
        _single_layer(b)
        if a.members and b.members:
            ka = a.members[0].bit_count()
            kb = b.members[0].bit_count()
            if kb != ka + 1:
                raise DomainError(f"layers {ka} and {kb} are not adjacent")

    def order(self) -> int:
        return len(self.a) + len(self.b)

    def to_jsonable(self) -> dict:
        return {"a": self.a.to_jsonable(), "b": self.b.to_jsonable()}

    def edges(self) -> list[tuple[int, int]]:
        """Containment pairs (bottom mask, top mask)."""
        bottoms = self.a.member_set
        out = []
        for top in self.b.members:
            rest = top
            while rest:
                low = rest & -rest
                if (top ^ low) in bottoms:
                    out.append((top ^ low, top))
                rest ^= low
        return sorted(out)


def _single_layer(family: SetFamily) -> None:
    if family.members:
        k = family.members[0].bit_count()
        if any(m.bit_count() != k for m in family.members):
            raise DomainError("side of a layer pair must sit on a single layer")


def xi(a: SetFamily, b: SetFamily) -> int:
    """Number of containments between a layer-k family and a layer-(k+1) family."""
    return len(LayerPairGraph(a, b).edges())


def avg_degree(g: LayerPairGraph) -> Fraction:
    """2 * edges / order of the bipartite containment graph."""
    if g.order() == 0:
        raise DomainError("average degree of an empty pair")
    return Fraction(2 * len(g.edges()), g.order())


def layer_colouring(g: LayerPairGraph) -> EdgeColouredGraph:
    """Colour each containment edge with the element the top set adds."""
    # the sides lie on adjacent layers, so no mask is on both
    index = {m: i for i, m in enumerate(g.a.members + g.b.members)}
    edges = []
    for bottom, top in g.edges():
        added = (top ^ bottom).bit_length()
        edges.append((index[bottom], index[top], added))
    return EdgeColouredGraph(g.order(), tuple(edges))


def is_proper(g: EdgeColouredGraph) -> bool:
    """No two edges of the same colour share a vertex."""
    seen = set()
    for u, v, colour in g.edges:
        if (u, colour) in seen or (v, colour) in seen:
            return False
        seen.add((u, colour))
        seen.add((v, colour))
    return True


def find_rainbow_cycle(g: EdgeColouredGraph, max_len: int) -> list[int] | None:
    """A cycle of length <= max_len with pairwise distinct edge colours, or None.

    Exhaustive DFS over paths that are themselves rainbow (a repeated
    colour on a path already spoils every cycle through it).  Each cycle
    is rooted at its smallest vertex.
    """
    if max_len < 3:
        raise DomainError("cycles need max_len >= 3")
    if g.n_vertices > RAINBOW_VERTEX_CAP or max_len > RAINBOW_LEN_CAP:
        raise ResourceLimitError(
            f"exhaustive cycle search capped at {RAINBOW_VERTEX_CAP} vertices, length {RAINBOW_LEN_CAP}"
        )
    colour_ids: dict[int, int] = {}
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n_vertices)]
    for u, v, colour in g.edges:
        cid = colour_ids.setdefault(colour, len(colour_ids))
        adj[u].append((v, cid))
        adj[v].append((u, cid))

    path = []

    def extend(root: int, at: int, used_vertices: int, used_colours: int) -> list[int] | None:
        for nxt, cid in adj[at]:
            bit = 1 << cid
            if used_colours & bit:
                continue
            if nxt == root and len(path) >= 3:
                return list(path)
            if nxt <= root or (used_vertices >> nxt) & 1 or len(path) >= max_len:
                continue
            path.append(nxt)
            hit = extend(root, nxt, used_vertices | (1 << nxt), used_colours | bit)
            if hit is not None:
                return hit
            path.pop()
        return None

    for root in range(g.n_vertices):
        path.clear()
        path.append(root)
        hit = extend(root, root, 1 << root, 0)
        if hit is not None:
            return hit
    return None
