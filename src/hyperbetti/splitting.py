"""Recursive Betti tables for triangulated hypergraphs whose distinct
intersecting edges overlap in all but one vertex.

Deleting an edge at a simplicial vertex splits the ideal, giving the
recursion that :func:`split_sum` evaluates: with S the removed edge, d
its size, t the number of vertices adjacent to S, H1 the deletion and
H2 the restriction away from S and its neighborhood,

    beta_{i,j}(H) = beta_{i,j}(H1)
                    + sum_l C(t, l) * beta_{i-1-l, j-d-l}(H2).

:func:`betti_recursive` applies it down to single edges, and the
campaign holds an exact table to it. :func:`split` and the recursion
take one split step, and :func:`_split_neighborhood` is its one
neighbor-edge rule.

Betti numbers of this class do not depend on the coefficient field;
the ``field`` argument only tags the returned table.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from . import limits
from .bitsets import bits_of
from .errors import (
    NotSimplicial,
    NotSpecialClass,
    NotTriangulated,
    SizeCapExceeded,
    ValidationError,
    ViolationFound,
)
from .families import FamilyClassification, FamilySurvey, _reduced_families, _sweep_kernel, survey
from .homology import BettiTable
from .taylor import betti_via_taylor
from .hypergraph import (
    Hypergraph,
    _elimination_start,
    _least_simplicial,
    _simplicial_in,
    delete_edge,
    induced_subhypergraph,
    is_triangulated,
    uniformity_profile,
)
from .linalg import QQ, Field


def require_special_class(h: Hypergraph) -> int | None:
    """Common edge size, or None when edgeless; NotSpecialClass otherwise."""
    prof = uniformity_profile(h)
    if not prof.is_special_class:
        raise NotSpecialClass(
            "edges must share a common size d and pairwise intersect in 0 or d-1 vertices")
    return prof.d


@dataclass(frozen=True)
class SplittingDecomposition:
    """One splitting step at a simplicial vertex.

    ``neighbor_edges[l]`` is the least-indexed edge avoiding ``x``
    whose vertices outside the split edge are exactly
    ``neighbor_vertices[l]``.
    """

    x: int
    s: int
    d: int
    neighbor_vertices: tuple[int, ...]
    neighbor_edges: tuple[int, ...]
    h1: Hypergraph
    h2: Hypergraph
    h1_edge_map: dict[int, int]
    h2_edge_map: dict[int, int]
    removed_vertices: tuple[int, ...]

    @property
    def t(self) -> int:
        return len(self.neighbor_vertices)


def split(h: Hypergraph, x: int | None = None, s: int | None = None) -> SplittingDecomposition:
    """Split ``h`` at a simplicial vertex ``x`` along an edge ``s``.

    Defaults pick the least simplicial vertex and its least edge. The
    chosen neighbor edges realize each neighbor vertex z of the split
    edge S through an edge avoiding x with exactly z outside S; within
    this class such an edge always exists, so a miss is reported as a
    violation rather than an error of use.
    """
    d = require_special_class(h)
    if d is None:
        raise ValidationError("cannot split an edgeless hypergraph")
    if x is None:
        x = _least_simplicial(h.edges, d)
        if x is None:
            raise NotSimplicial("no simplicial vertex to split at")
    else:
        h.check_vertex(x)
        if not _simplicial_in(h.edges, x, d):
            raise NotSimplicial(f"vertex {h.labels[x]} is not simplicial")
    xbit = 1 << x
    if s is None:
        s = next((e for e, mask in enumerate(h.edges) if mask & xbit), None)
        if s is None:
            raise ValidationError(f"vertex {h.labels[x]} lies in no edge")
    elif not h.edge_mask(s) & xbit:
        raise ValidationError(f"edge {s} does not contain vertex {h.labels[x]}")
    smask = h.edges[s]
    nmask = _split_neighborhood(h.edges, x, smask, h)
    zs = tuple(bits_of(nmask))
    chosen = tuple(
        next(e for e, mask in enumerate(h.edges) if mask & ~smask == 1 << z and not mask & xbit)
        for z in zs)
    keep = [v for v in range(h.n) if not (smask | nmask) >> v & 1]
    h2, h2_map = induced_subhypergraph(h, keep)
    h1 = delete_edge(h, s)
    h1_map = {e: e - (e > s) for e in range(h.m) if e != s}
    return SplittingDecomposition(
        x=x, s=s, d=d,
        neighbor_vertices=zs, neighbor_edges=chosen,
        h1=h1, h2=h2, h1_edge_map=h1_map, h2_edge_map=h2_map,
        removed_vertices=tuple(bits_of(smask | nmask)),
    )


def _split_neighborhood(edges, x: int, smask: int, h: Hypergraph) -> int:
    """The split step's neighbor-edge rule: N(S), the vertices outside
    the split edge S = ``smask`` through x of the edge masks ``edges``
    that meet it.

    Each z in N(S) must lie in an edge that avoids x and has only z
    outside S. Within the class such an edge always exists, so a miss
    raises ViolationFound on ``h``, the instance being split.
    """
    xbit = 1 << x
    nmask = reach = 0
    for mask in edges:
        if mask & smask:
            outside = mask & ~smask
            nmask |= outside
            if not mask & xbit and not outside & (outside - 1):
                reach |= outside
    if nmask & ~reach:
        z = next(bits_of(nmask & ~reach))
        raise ViolationFound(
            "neighbor-edge",
            f"no edge through vertex {z} avoiding vertex {x} with the rest inside "
            f"the split edge, in the subhypergraph of edge masks {edges}",
            instance=h)
    return nmask


def split_sum(t: int, d: int, h1_entries: dict[tuple[int, int], int],
              h2_entries: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    """The right side of the recursion for a split edge of size ``d``
    with ``t`` neighbor vertices, from the table entries of its H1 and
    H2."""
    out = dict(h1_entries)
    for (i2, j2), v in h2_entries.items():
        for ell in range(t + 1):
            pos = (i2 + 1 + ell, j2 + d + ell)
            out[pos] = out.get(pos, 0) + comb(t, ell) * v
    return out


def canonical_key(edges) -> tuple[int, ...]:
    """The edge masks ``edges``, sorted, after squeezing out the vertices
    in no edge and so renumbering the rest in vertex order.

    Equal keys mean the same hypergraph up to isolated vertices and an
    order-preserving renaming, so equal Betti tables. Isomorphic
    hypergraphs listed in another vertex order may get different keys,
    which only costs a memo miss.
    """
    union = 0
    for mask in edges:
        union |= mask
    if union & (union + 1):
        # squeeze out each vertex below the top one that is in no edge,
        # the highest first, so the lower ones keep their positions
        low = union & -union
        shift = low.bit_length() - 1
        edges = [mask >> shift for mask in edges]
        holes = ~union >> shift & ((1 << (union.bit_length() - shift)) - 1)
        while holes:
            below = (1 << (holes.bit_length() - 1)) - 1
            edges = [mask & below | mask >> 1 & ~below for mask in edges]
            holes &= below
    return tuple(sorted(edges))


def betti_recursive(h: Hypergraph, field: Field = QQ) -> BettiTable:
    """Full graded Betti table by the splitting recursion.

    Each node of the recursion is a ``canonical_key``, which is also its
    memo key. A node splits at its least simplicial vertex x along its
    first edge S through x: H1 is the node without S, and H2 the edges
    that avoid S and its neighbors, and :func:`split_sum` adds their
    tables. Betti numbers of this class do not depend on the field, so
    the choice of S, in key order, changes no table.

    Deleting an edge can drop a hypergraph of this class out of it:
    remove one of the four triples of the complete 3-uniform
    hypergraph on four vertices and no simplicial vertex is left.
    Splits therefore happen only while the instance at hand is still
    triangulated, which the root and each deletion H1 are tested for, by
    the greedy elimination of ``is_triangulated``, whose first vertex is
    the x to split at; each H2 is induced in a triangulated instance, so
    it is triangulated untested. A stuck branch is finished with the
    reduced edge-subset complex instead, which is where ``field``
    enters; it is the one node that builds a Hypergraph.
    """
    d = require_special_class(h)
    if h.n > limits.TRIANGULATED_CAP:
        raise SizeCapExceeded(
            f"{h.n} vertices exceeds the recursion's cap {limits.TRIANGULATED_CAP}")
    if not is_triangulated(h):
        raise NotTriangulated("the hypergraph admits no simplicial elimination order")
    memo: dict[tuple[int, ...], dict[tuple[int, int], int]] = {(): {(0, 0): 1}}
    if d is not None:
        memo[((1 << d) - 1,)] = {(0, 0): 1, (1, d): 1}

    def worker(key: tuple[int, ...], triangulated: bool) -> dict[tuple[int, int], int]:
        got = memo.get(key)
        if got is not None:
            return got
        x = _least_simplicial(key, d) if triangulated else _elimination_start(key, d)
        if x is None:
            n = max(key).bit_length()
            g = Hypergraph(tuple(str(v) for v in range(n)), key)
            out = memo[key] = dict(betti_via_taylor(g, field).entries)
            return out
        smask = next(mask for mask in key if mask >> x & 1)
        nmask = _split_neighborhood(key, x, smask, h)
        cut = smask | nmask
        out = memo[key] = split_sum(
            nmask.bit_count(), d,
            worker(canonical_key([mask for mask in key if mask != smask]), False),
            worker(canonical_key([mask for mask in key if not mask & cut]), True))
        return out

    return BettiTable(worker(canonical_key(h.edges), True), field)


# ---------------------------------------------------------------------------
# instance-level verification of the supporting facts
#
# The campaign's protocol: a verifier yields None for each comparison
# that holds and the detail of the first that does not, where the caller
# stops. A violated property is yielded, not raised; an exception is an
# error, a campaign ``fail`` with ``checked`` 0.


def verify_matching_persistence(h: Hypergraph, dec: SplittingDecomposition):
    """Families of the deletion keep their class in the full hypergraph.

    With x simplicial and s an edge through it, as in the split ``dec``
    of ``h``, every induced matching of H1 = H minus that edge stays an
    induced matching of H, and likewise for self disjoint families, each
    the empty or a reduced family of H1. Yields once per such family.
    """
    back = {new: old for old, new in dec.h1_edge_map.items()}
    kernel, kernel1 = _sweep_kernel(h), _sweep_kernel(dec.h1)
    for _, fam1, _, _, _ in _reduced_families(kernel1):
        cls1 = FamilyClassification(kernel1, fam1)
        if not (cls1.induced or cls1.self_disjoint):
            continue
        fam = tuple(sorted(back[e] for e in fam1))
        cls = FamilyClassification(kernel, fam)
        if cls1.induced and not cls.induced:
            yield f"induced matching {fam} of the deletion breaks in the full hypergraph"
        elif cls1.self_disjoint and not cls.self_disjoint:
            yield f"self disjoint family {fam} of the deletion breaks in the full hypergraph"
        else:
            yield None


def verify_split_extension(h: Hypergraph, dec: SplittingDecomposition):
    """Self disjoint families below the split extend across it.

    Each self disjoint family of H2 of type (i, j), joined with the
    split edge and the chosen neighbor edges, must be self disjoint in
    H of type (i + 1 + t, j + d + t). Yields once per such family.
    """
    back2 = {new: old for old, new in dec.h2_edge_map.items()}
    add = (dec.s, *dec.neighbor_edges)
    kernel, kernel2 = _sweep_kernel(h), _sweep_kernel(dec.h2)
    for _, fam2, _, _, _ in _reduced_families(kernel2):
        cls2 = FamilyClassification(kernel2, fam2)
        if not cls2.self_disjoint:
            continue
        fam = tuple(sorted([back2[e] for e in fam2] + list(add)))
        cls = FamilyClassification(kernel, fam)
        want = (cls2.i + 1 + dec.t, cls2.j + dec.d + dec.t)
        yield (None if cls.self_disjoint and (cls.i, cls.j) == want else
               f"family {fam} should be self disjoint of type {want}, "
               f"got ({cls.i},{cls.j}) disjoint={cls.self_disjoint}")


def _disjointness_comparisons(table: BettiTable, sv: FamilySurvey):
    """The characterization's three comparisons, on the recursive
    ``table`` and the survey ``sv`` of one instance: the nonzero
    positions against the self disjoint types, pd = d1 = d2 and
    reg = d1' = d2'. Returns the report of a pass."""
    sd_types = sv.types["self_disjoint"]
    yield (None if set(table.entries) == sd_types else
           f"nonzero positions {sorted(table.entries)} differ from "
           f"self disjoint types {sorted(sd_types)}")
    pd, reg = table.projective_dimension(), table.regularity()
    d1, d2 = sv.maxima["d1"].value, sv.maxima["d2"].value
    d1p, d2p = sv.maxima["d1_prime"].value, sv.maxima["d2_prime"].value
    yield None if pd == d1 == d2 else f"pd {pd} vs disjointness sizes {d1}, {d2}"
    yield None if reg == d1p == d2p else f"reg {reg} vs disjointness spreads {d1p}, {d2p}"
    return {
        "entries": {f"{i},{j}": v for (i, j), v in sorted(table.entries.items())},
        "pd": pd,
        "reg": reg,
        "d1": d1,
        "d2": d2,
        "d1_prime": d1p,
        "d2_prime": d2p,
    }


def verify_disjointness_characterization(h: Hypergraph, field: Field = QQ, *,
                                         table: BettiTable | None = None,
                                         precomputed: FamilySurvey | None = None) -> dict:
    """Nonzero table positions equal the self disjoint types, and the
    homological invariants equal the disjointness invariants.

    Returns the report; the first comparison that fails raises
    ViolationFound. ``table`` and ``precomputed`` stand in for
    ``betti_recursive(h, field)`` and ``survey(h)`` when the caller
    already has them.
    """
    if table is None:
        table = betti_recursive(h, field)
    comparisons = _disjointness_comparisons(
        table, precomputed if precomputed is not None else survey(h))
    try:
        while (detail := next(comparisons)) is None:
            pass
    except StopIteration as done:
        return done.value
    raise ViolationFound("disjointness-characterization", detail, instance=h)
