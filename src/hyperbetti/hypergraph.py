"""Simple hypergraphs with labelled vertices and incomparable edges.

A hypergraph here is a finite vertex set together with a family of
edges, each an unordered set of at least two vertices, no edge contained
in another. Vertices carry string labels but all computation runs on
dense integer ids packed into bitmasks. Edge order is preserved exactly
as given at construction; several downstream constructions (symbol
orderings, witness selection) depend on that order being stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .bitsets import bits_of, is_subset, mask_of, tuple_of
from .errors import (
    ComparableEdges,
    DuplicateEdge,
    EdgeTooSmall,
    IndexOutOfRange,
    NotUniform,
    UnknownVertex,
    ValidationError,
)


@dataclass(frozen=True)
class Hypergraph:
    """Immutable simple hypergraph.

    Attributes
    ----------
    labels : tuple of str
        Vertex labels; the dense id of a vertex is its position here.
    edges : tuple of int
        Edge bitmasks over vertex ids, in input order.
    """

    labels: tuple[str, ...]
    edges: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge_vertices(self, s: int) -> tuple[int, ...]:
        """Sorted vertex ids of edge ``s``."""
        return tuple_of(self.edge_mask(s))

    def edge_mask(self, s: int) -> int:
        if not 0 <= s < self.m:
            raise IndexOutOfRange(f"edge index {s} out of range for {self.m} edges")
        return self.edges[s]

    def edge_labels(self, s: int) -> tuple[str, ...]:
        return tuple(self.labels[v] for v in self.edge_vertices(s))

    def check_vertex(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise IndexOutOfRange(f"vertex id {x} out of range for {self.n} vertices")

    def __repr__(self) -> str:
        es = ", ".join("{" + ",".join(self.edge_labels(s)) + "}" for s in range(self.m))
        return f"Hypergraph(n={self.n}, edges=[{es}])"


def build(labels, edges) -> Hypergraph:
    """Validate and construct a hypergraph.

    Parameters
    ----------
    labels : iterable of str
        Distinct vertex labels. Position defines the dense id.
    edges : iterable of iterables of int
        Each edge as a collection of vertex ids; order of edges is kept.

    Raises
    ------
    UnknownVertex, EdgeTooSmall, DuplicateEdge, ComparableEdges
        When the input is not a simple hypergraph.
    """
    labels = tuple(str(x) for x in labels)
    if len(set(labels)) != len(labels):
        raise ValidationError("vertex labels must be distinct")
    n = len(labels)
    masks: list[int] = []
    for pos, edge in enumerate(edges):
        ids = list(edge)
        for v in ids:
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise UnknownVertex(f"edge {pos}: vertex id {v!r} not in 0..{n - 1}")
        mask = mask_of(ids)
        if mask.bit_count() < 2:
            raise EdgeTooSmall(f"edge {pos} has {mask.bit_count()} distinct vertices, need at least 2")
        if mask.bit_count() != len(ids):
            raise EdgeTooSmall(f"edge {pos} repeats a vertex")
        masks.append(mask)
    for a in range(len(masks)):
        for b in range(a + 1, len(masks)):
            if masks[a] == masks[b]:
                raise DuplicateEdge(f"edges {a} and {b} are equal")
            if is_subset(masks[a], masks[b]) or is_subset(masks[b], masks[a]):
                raise ComparableEdges(f"edges {a} and {b} are comparable under inclusion")
    return Hypergraph(labels, tuple(masks))


def from_edge_labels(edges: list[list[str]]) -> Hypergraph:
    """Build from label lists; vertices are numbered in order of first use."""
    labels: list[str] = []
    index: dict[str, int] = {}
    id_edges = []
    for edge in edges:
        ids = []
        for lab in edge:
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
            ids.append(index[lab])
        id_edges.append(ids)
    return build(labels, id_edges)


def induced_subhypergraph(h: Hypergraph, vertices) -> tuple[Hypergraph, dict[int, int]]:
    """Restrict to the edges entirely inside ``vertices``.

    Returns the re-indexed hypergraph together with the map from old
    edge index to new edge index. Vertices keep their labels; ids are
    renumbered densely in increasing old-id order.
    """
    keep = sorted(set(vertices))
    for v in keep:
        h.check_vertex(v)
    wmask = mask_of(keep)
    remap = {old: new for new, old in enumerate(keep)}
    labels = tuple(h.labels[v] for v in keep)
    new_edges = []
    edge_map: dict[int, int] = {}
    for s, mask in enumerate(h.edges):
        if is_subset(mask, wmask):
            edge_map[s] = len(new_edges)
            new_edges.append(mask_of(remap[v] for v in bits_of(mask)))
    return Hypergraph(labels, tuple(new_edges)), edge_map


def delete_edge(h: Hypergraph, s: int) -> Hypergraph:
    """Remove edge ``s``; vertex set unchanged, later edges shift down."""
    h.edge_mask(s)
    return Hypergraph(h.labels, h.edges[:s] + h.edges[s + 1 :])


@dataclass(frozen=True)
class UniformityProfile:
    """The common edge size ``d``, if any, with the two structural flags
    used downstream."""

    is_uniform: bool
    d: int | None
    is_special_class: bool


def uniformity_profile(h: Hypergraph) -> UniformityProfile:
    """Classify edge sizes.

    ``is_special_class`` means: uniform of size d, and any two distinct
    edges that meet share exactly d - 1 vertices. Every graph qualifies.
    An edgeless hypergraph is vacuously uniform and special with d None.
    """
    sizes = {mask.bit_count() for mask in h.edges}
    if len(sizes) != 1:
        return UniformityProfile(not sizes, None, not sizes)
    d = sizes.pop()
    special = all(not a & b or (a & b).bit_count() == d - 1 for a, b in combinations(h.edges, 2))
    return UniformityProfile(True, d, special)


def require_uniform(h: Hypergraph) -> int:
    """Common edge size, or NotUniform. Edgeless hypergraphs have no size."""
    sizes = tuple(sorted({mask.bit_count() for mask in h.edges}))
    if len(sizes) != 1:
        raise NotUniform(f"edge sizes {sizes} are not a single common size")
    return sizes[0]


def _simplicial_in(edges, x: int, d: int) -> bool:
    # ``edges``, one induced subhypergraph's, are distinct d-sets, so those
    # inside the closed neighborhood N of x are every d-subset of N exactly
    # when they number C(|N|, d); a vertex in no edge has |N| = 1 < d.
    xbit = 1 << x
    closed = xbit
    for mask in edges:
        if mask & xbit:
            closed |= mask
    inside = 0
    for mask in edges:
        if not mask & ~closed:
            inside += 1
    return inside == comb(closed.bit_count(), d)


def _least_simplicial(edges, d: int) -> int | None:
    """Least simplicial vertex among those the d-sets ``edges`` cover, or None."""
    covered = 0
    for mask in edges:
        covered |= mask
    return next((x for x in bits_of(covered) if _simplicial_in(edges, x, d)), None)


def is_triangulated(h: Hypergraph) -> bool:
    """Whether every nonempty induced subhypergraph has a simplicial vertex.

    Decided by greedy elimination: repeatedly delete the least simplicial
    vertex of the current induced subhypergraph, with its edges, until no
    edge is left, since a vertex in no edge is simplicial. Each test
    counts the edges inside one closed neighborhood, so a step is O(n m)
    mask operations and the decision O(n^2 m). Simpliciality persists
    under induced restriction, and the defining property is hereditary,
    so if elimination ever succeeds from some state it succeeds from
    every state reachable by deleting simplicial vertices; greedy choice
    is therefore complete, not just sound. The test has no size limit;
    the splitting recursion, whose cost grows faster, caps its own input.
    """
    return h.m == 0 or _elimination_start(h.edges, require_uniform(h)) is not None


def _elimination_start(edges, d: int) -> int | None:
    """The greedy elimination of ``is_triangulated`` on the nonempty
    d-sets ``edges``: the first vertex it deletes when it deletes every
    edge, that is their least simplicial vertex, or None when it sticks."""
    first = x = _least_simplicial(edges, d)
    while x is not None:
        edges = [mask for mask in edges if not mask >> x & 1]
        if not edges:
            return first
        x = _least_simplicial(edges, d)
    return None
