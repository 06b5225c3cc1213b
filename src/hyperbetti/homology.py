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
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

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
    in increasing numeric order. The empty face is implicit.
    """
    verts = tuple_of(wmask)
    # edges_at[v]: edges whose maximum vertex inside W is v; adding v to a
    # face can only complete one of these.
    edges_at: dict[int, list[int]] = {v: [] for v in verts}
    relevant = [mask for mask in h.edges if is_subset(mask, wmask)]
    for mask in relevant:
        edges_at[max(bits_of(mask))].append(mask)
    by_dim: list[list[int]] = [[] for _ in range(len(verts))]

    def grow(face: int, count: int, start: int) -> None:
        for idx in range(start, len(verts)):
            v = verts[idx]
            cand = face | (1 << v)
            if any(is_subset(e, cand) for e in edges_at[v]):
                continue
            by_dim[count].append(cand)
            grow(cand, count + 1, idx + 1)

    grow(0, 0, 0)
    while by_dim and not by_dim[-1]:
        by_dim.pop()
    return by_dim


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


def reduced_homology_dims(by_dim: list[list[int]], field: Field = QQ) -> list[int]:
    """Reduced homology dimensions, indexed from degree -1.

    ``by_dim`` is the output of :func:`independent_faces`. Degree -1 is
    the first list entry; degree k is entry k + 1.
    """
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
    """
    limit = limits.vertex_cap(limits.BETTI_CAP_N)
    if h.n > limit:
        raise SizeCapExceeded(f"{h.n} vertices exceeds Betti cap {limit}")
    out = {}
    for wmask in range(1 << h.n):
        out[wmask] = reduced_homology_dims(independent_faces(h, wmask), field)
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
