"""Graded Betti numbers via independence-complex homology.

For a hypergraph H on vertex set V the quotient of the polynomial ring
by the ideal generated by the edge monomials has graded Betti numbers

    beta_{i,j} = sum over W subset of V with |W| = j of
                 dim of reduced homology in degree j - i - 1 of the
                 complex of independent subsets of W.

The empty subset contributes exactly beta_{0,0} = 1, since the complex
whose only face is the empty face has one-dimensional reduced homology
in degree -1. Each W is enumerated once and its homology reused for
every i at that j.

Faces grow from those of W less its lowest vertex v. The complex of W
is the cone on v over lk(v), glued to the complex of W - v (see below),
so its faces are those of W - v and G + v for each face G of W - v
that v extends. An edge inside G + v through v has v as its lowest
vertex, so a per-vertex table of the edges whose lowest vertex is v,
built once per hypergraph, serves every W. The faces with v lead every
level in lexicographic order, so level k is v on the extended faces of
level k - 1 of W - v, followed by level k of W - v: a concatenation,
with no merge. W are visited in increasing order, and W - v, which is
W & (W - 1), always comes before W.

Elimination runs on a relative complex. For a vertex v of the complex
Delta of W, write del(v) for its faces without v (the complex of
W - v), star(v) for the faces with v and their subsets, and lk(v) for
the faces F without v such that F + v is a face. Delta is star(v) and
del(v) glued along lk(v). The star is a cone on v, so it is acyclic,
and the reduced homology of Delta is its homology relative to star(v),
that of (del(v), lk(v)): its cells are the faces of del(v) outside
lk(v), and the empty face is not among them. v is the lowest vertex of
W, whose faces lead every level. Over cells C_k,

    rank d_k <= |C_{k-1}| - rank d_{k-1},  rank d_0 = 0,

since the boundary of a boundary is zero. Equality holds exactly when
homology vanishes in degree k - 1, the common case. Once the rank of
d_k reaches the bound, the rows past it are never built or reduced.

Folds skip elimination on most W. If lk(v) is a cone too, it is
acyclic as well, and the homology of (del(v), lk(v)) is the reduced
homology of del(v), over every field. Such a v is a fold vertex, and W
takes the dims of W - v, which the map already holds. This is the
hypergraph form of Engstrom's fold lemma ("Complexes of directed trees
and independence complexes", Discrete Math. 309, 2009). For a graph it
reads: v folds when some u of W, not adjacent to v, has all its
neighbours in W among those of v. The minimal non-faces of each
vertex's link come from a per-vertex table built once per hypergraph.
A vertex of W in no edge inside W is an apex of the independence
complex, and so of every other vertex's link; these are exactly the W
that are not a union of edges, the W outside the lcm lattice of the
ideal (Gasharov, Peeva and Welker, "The lcm-lattice in monomial
resolutions", Math. Res. Lett. 1999). So every W outside the lattice
with two or more vertices folds, at its lowest vertex unless that is
its only apex, and a single vertex reads no boundary row.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from . import limits
from .bitsets import bits_of, is_subset, tuple_of
from .errors import SizeCapExceeded
from .hypergraph import Hypergraph
from .linalg import QQ, Field, rank_of


@dataclass(frozen=True)
class BettiTable:
    """Sparse graded Betti table of the edge-ideal quotient.

    ``entries`` maps (homological degree i, internal degree j) to a
    positive integer; absent pairs are zero.
    """

    entries: dict[tuple[int, int], int]
    field: Field = QQ

    def get(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def projective_dimension(self) -> int:
        return max((i for i, _ in self.entries), default=0)

    def regularity(self) -> int:
        return max((j - i for i, j in self.entries), default=0)

    def __str__(self) -> str:
        if not self.entries:
            return "(zero table)"
        imax = self.projective_dimension()
        jmax = max(j for _, j in self.entries)
        # the widest entry and a space, and never below 7 columns
        width = max(7, 1 + max(len(str(b)) for b in self.entries.values()))
        header = "".join(f"j={j:<{width - 2}d}" for j in range(jmax + 1))
        lines = [("      " + header).rstrip()]
        for i in range(imax + 1):
            cells = "".join(f"{self.get(i, j) or '.':<{width}}" for j in range(jmax + 1))
            lines.append(f"i={i:<4d}{cells}".rstrip())
        lines.append(f"pd={self.projective_dimension()}  reg={self.regularity()}  field={self.field}")
        return "\n".join(lines)


@lru_cache(maxsize=1)
def _extension_table(n: int, edges: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
    """Per vertex v, the edges whose lowest vertex is v, less v.

    Entry v is ``(nb, rests)``: ``nb`` is the mask of the other vertices
    of the 2-edges, and ``rests`` holds e - v for each larger edge e. The
    table reads no W; see :func:`independent_faces`.
    """
    nb = [0] * n
    rests: list[list[int]] = [[] for _ in range(n)]
    for mask in edges:
        low = mask & -mask
        rest = mask ^ low
        v = low.bit_length() - 1
        if rest & (rest - 1):
            rests[v].append(rest)
        else:
            nb[v] |= rest
    return [(nb[v], tuple(rests[v])) for v in range(n)]


def _with_lowest(entry: tuple[int, tuple[int, ...]], bit: int,
                 below: list[list[int]]) -> list[list[int]]:
    """The levels of W from ``below``, those of W - v, for v = min(W)
    the vertex of ``bit`` and ``entry`` its row of :func:`_extension_table`.

    Level k is v on each face of level k - 1 that v extends, then level
    k of W - v. Once v extends no face of a level, it extends none
    above it either, and the rest of ``below`` is reused as it is.
    """
    nb, rests = entry
    levels = []
    cone = [bit]  # the faces with v at level k, from the empty face up
    for k, level in enumerate(below):
        levels.append(cone + level)
        cone = level
        for rest in rests:
            cone = [face for face in cone if face & rest != rest]
        cone = [face | bit for face in cone if not face & nb]
        if not cone:
            return levels + below[k + 1:]
    levels.append(cone)
    return levels


def independent_faces(h: Hypergraph, wmask: int,
                      below: list[list[int]] | None = None) -> list[list[int]]:
    """Faces of the independence complex of the restriction to ``wmask``.

    Returned as lists by dimension: position k holds the k-dimensional
    faces, i.e. the (k+1)-subsets of W containing no edge, as bitmasks
    in lexicographic order of their sorted vertex tuples. The empty
    face is implicit.

    ``below``, when given, is what this function returned for W less
    its lowest vertex v, ``wmask & (wmask - 1)``; without it, the same
    step runs on the vertices of W from the top down. A face G of W - v
    takes v exactly when no edge whose lowest vertex is v lies inside
    G + v, which the per-vertex table of those edges
    (:func:`_extension_table`) tests with no W: G lies inside W, and
    an edge with a vertex outside W is never inside G + v. The levels
    returned may be the very lists of ``below``, so callers only read
    them.
    """
    if not wmask:
        return []
    table = _extension_table(h.n, h.edges)
    low = wmask & -wmask
    if below is None:
        below = []
        for v in reversed(tuple_of(wmask ^ low)):
            below = _with_lowest(table[v], 1 << v, below)
    return _with_lowest(table[low.bit_length() - 1], low, below)


def _boundary_rows(cells: list[int], below_index: dict[int, int]):
    """One sparse row per cell, built as it is read: its signed boundary
    over the cells of the level below, the faces outside them dropped."""
    for face in cells:
        row = {}
        sign = 1
        for v in bits_of(face):
            idx = below_index.get(face ^ (1 << v))
            if idx is not None:
                row[idx] = sign
            sign = -sign
        yield row


@lru_cache(maxsize=1)
def _link_table(n: int, edges: tuple[int, ...]) -> list[tuple[tuple[int, int], ...]]:
    """Per vertex v, ``(edge, contribution)`` pairs: over the edges
    inside W, the contributions are the minimal non-faces of the link of
    v in the complex of W, v in W.

    An edge through v contributes e - v. An edge missing v contributes
    e, unless some edge e' through v has e' - v inside e: then e' lies
    inside W whenever e does, and e is not minimal. So the table reads
    no W. The edges form an antichain, so no other contribution is ever
    absorbed, and none is empty.
    """
    rows = []
    for v in range(n):
        bit = 1 << v
        rests = [mask ^ bit for mask in edges if mask & bit]
        rows.append(tuple((mask, mask & ~bit) for mask in edges
                          if mask & bit or not any(rest & ~mask == 0 for rest in rests)))
    return rows


def _fold_vertex(h: Hypergraph, wmask: int) -> int | None:
    """The first vertex of W, in bit order, whose link in the
    independence complex of W is a cone, or None.

    A vertex u of W - v in no minimal non-face of the link of v
    (:func:`_link_table`) is an apex of it. Off the lcm lattice some
    vertex of W is in no edge inside W, an apex of every other vertex's
    link, so the lowest vertex folds unless it is the only such vertex,
    and then the next one does.
    """
    outside = ~wmask
    covered = 0
    for mask in h.edges:
        if not mask & outside:
            covered |= mask
    if covered != wmask:
        low = wmask & -wmask
        if covered | low != wmask:
            return low.bit_length() - 1
        rest = wmask ^ low
        return (rest & -rest).bit_length() - 1 if rest else None
    table = _link_table(h.n, h.edges)
    for v in bits_of(wmask):
        free = wmask ^ (1 << v)
        for mask, part in table[v]:
            if not mask & outside:
                free &= ~part
                if not free:
                    break
        if free:
            return v
    return None


def reduced_homology_dims(by_dim: list[list[int]], field: Field = QQ) -> list[int]:
    """Reduced homology dimensions, indexed from degree -1.

    ``by_dim`` is the output of :func:`independent_faces`. Degree -1 is
    the first list entry; degree k is entry k + 1. Elimination runs on
    the cells of the complex relative to the star of its lowest vertex.
    """
    if not by_dim:
        return [1]  # only the empty face
    v = by_dim[0][0]
    # The faces with v, the lowest vertex, lead every level; those of
    # level k + 1, less v, are the link's faces at level k.
    cells, link = [], set()
    for level in reversed(by_dim):
        split = bisect_left(level, True, key=lambda face: not face & v)
        cells.append([face for face in level[split:] if face not in link])
        link = {face ^ v for face in level[:split]}
    cells.reverse()
    top = len(cells) - 1
    # ranks[k]: rank of the boundary map from cell level k to k - 1; no
    # cell lies below level 0, so the map out of it is zero.
    ranks = [0] * (top + 2)
    for k in range(1, top + 1):
        if cells[k] and cells[k - 1]:
            below_index = {mask: idx for idx, mask in enumerate(cells[k - 1])}
            bound = len(cells[k - 1]) - ranks[k - 1]  # dim ker d_{k-1}
            ranks[k] = rank_of(_boundary_rows(cells[k], below_index), field, limit=bound)
    dims = [0] + [len(cells[k]) - ranks[k] - ranks[k + 1] for k in range(top + 1)]
    # strip trailing zeros but keep at least the degree -1 slot
    while len(dims) > 1 and dims[-1] == 0:
        dims.pop()
    return dims


def homology_of_restrictions(h: Hypergraph, field: Field = QQ) -> dict[int, list[int]]:
    """Reduced homology dimensions of every vertex restriction.

    Maps each W bitmask to the dims list of :func:`reduced_homology_dims`.
    This is the whole content of the Betti table; the table itself and
    all its restriction tables are sums over this dictionary.

    W are visited in increasing order, so a W with a fold vertex v takes
    the dims list of W - v, already in the map. Folded W share that list
    object with W - v, so callers must only read the lists.
    """
    limit = limits.vertex_cap()
    if h.n > limit:
        raise SizeCapExceeded(
            f"{h.n} vertices exceeds Betti cap {limit}; set BETTI_CAP_N to raise it")
    out = {}
    # Faces are built for every W, folded or not: the benchmark counts
    # restrictions by these calls, and its test pins them at 2^n
    # (perfbench/test_perfbench.py). Each call is one step from the
    # faces of W & (W - 1), W less its lowest vertex, which is the last
    # W visited with one vertex fewer: faces[d] holds the levels of the
    # last W visited with d vertices.
    faces: list[list[list[int]] | None] = [None] * (h.n + 1)
    for wmask in range(1 << h.n):
        d = wmask.bit_count()
        faces[d] = by_dim = independent_faces(h, wmask, faces[d - 1] if d else None)
        v = _fold_vertex(h, wmask)
        out[wmask] = reduced_homology_dims(by_dim, field) if v is None else out[wmask ^ (1 << v)]
    return out


def table_from_homology(hom: dict[int, list[int]], field: Field, within: int | None = None) -> BettiTable:
    """Assemble a Betti table from per-restriction homology.

    With ``within`` set, sums only over subsets of that bitmask, giving
    the table of the induced subhypergraph (degrees counted inside it).
    """
    entries: dict[tuple[int, int], int] = {}
    for wmask, dims in hom.items():
        if within is not None and not is_subset(wmask, within):
            continue
        j = wmask.bit_count()
        for slot, dim in enumerate(dims):
            if dim:
                k = slot - 1
                key = (j - k - 1, j)
                entries[key] = entries.get(key, 0) + dim
    return BettiTable(entries, field)


def betti_table(h: Hypergraph, field: Field = QQ) -> BettiTable:
    """Exact graded Betti table over ``field`` by restriction homology."""
    hom = homology_of_restrictions(h, field)
    return table_from_homology(hom, field)
