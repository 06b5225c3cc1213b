"""Betti numbers from the reduced edge-subset complex, plus symbol
admissibility and nonvanishing certificates.

For a hypergraph with edges S_1, ..., S_m, take a basis symbol for each
subset of edges; its union W is the union of its members. The reduced
boundary of a symbol drops, with alternating sign, exactly those
members contained in the union of the other members. The union is
preserved, so the complex splits by union W, and the homology of the
(size i, union W) block is the multigraded number beta_{i,W}. Summed
over |W| = j these give beta_{i,j}.

A basis symbol lies in the kernel precisely when no member is absorbed
by the others ("reduced" below). The set B_{i,j} collects the reduced
basis symbols of size i and degree |W| = j that are also outside the
image from above; under the two subset hypotheses, which
``TaylorAnalysis`` decides from its symbols, it bounds or equals
beta_{i,j}.

Lyubeznik's resolution is the subcomplex spanned by the L-admissible
symbols under the index order, sliced the same way from far fewer and
smaller blocks. Both complexes give their beta_{i,W} in the
restriction-map format of ``homology``: ``TaylorAnalysis.restrictions``
and ``lyubeznik_restrictions``, which ``betti_via_taylor`` and
``betti_via_lyubeznik`` sum into a table. Both complexes are bounded by
the budgets in ``limits``, the reduced one by the survey's.

Both complexes hold each symbol as the edge bitmask of its members, bit
s standing for edge index s, sliced by one helper, ``_slice``; only
``b_set`` lists symbols, as sorted tuples. Each complex holds every
subsymbol of its symbols, so a member is absorbed exactly when dropping
it leaves a symbol of the slice (i - 1, W) below, and ``_faces`` reads a
symbol's boundary off that slice. Both are echelonized by one routine,
``_boundaries``, largest symbols first and with clearing: a symbol that
leads a cycle of the image from the level above has its boundary in the
span of the boundaries of later symbols, so it is never read. Each slice
(i, W) then reads at most beta_{i,W} rows that gain no rank.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

from . import limits
from .bitsets import bits_of, is_subset, tuple_of
from .errors import BettiVanishes, BudgetExceeded, PremiseFails, ValidationError
from .families import _sweep_kernel, _validate_family, classify
from .homology import BettiTable, betti_table, table_from_homology
from .hypergraph import Hypergraph, induced_subhypergraph
from .linalg import QQ, Field, RowSpace


def chain_union(h: Hypergraph, chain) -> int:
    u = 0
    for s in chain:
        u |= h.edge_mask(s)
    return u


def _slice(pairs) -> dict[tuple[int, int], dict[int, int]]:
    """Slice (symbol, union W) pairs by (size i, union W). Each slice maps
    a symbol's edge bitmask to its position, in the order given, so it is
    its own index."""
    slices: dict[tuple[int, int], dict[int, int]] = {}
    for symbol, w in pairs:
        block = slices.setdefault((symbol.bit_count(), w), {})
        block[symbol] = len(block)
    return slices


def _faces(symbol: int, below: dict[int, int]) -> dict[int, int]:
    """The reduced boundary row of a basis symbol, keyed by position in
    ``below``, the slice (i - 1, W) under it: the member at position k
    (1-based, in index order) is dropped with sign (-1)^k exactly when
    the face keeps the union W, that is when it is a key of ``below``."""
    row, sign, rest = {}, -1, symbol
    while rest:
        low = rest & -rest
        pos = below.get(symbol ^ low)
        if pos is not None:
            row[pos] = sign
        rest, sign = rest ^ low, -sign
    return row


def _boundaries(slices: dict, field: Field) -> dict:
    """Echelonize the reduced boundary out of every slice (i, W) into
    slice (i - 1, W), keyed by the source, largest symbols first, each
    row read off that slice below by ``_faces``.

    Clearing (Chen and Kerber, 2011): slice (i, W) skips the symbol at
    each pivot of the image from (i + 1, W). A ``RowSpace`` stores a row
    under its least column, so the row at pivot p is a cycle with lead
    p, and the boundary of symbol p lies in the span of the boundaries
    of later symbols; downward over p, the symbols read still span the
    whole image. Every rank and membership test is unchanged.
    """
    spaces = {}
    for i, w in sorted(slices, reverse=True):
        below = slices.get((i - 1, w))
        if not below:
            continue
        above = spaces.get((i + 1, w))
        cleared = above.rows if above else {}
        space = RowSpace(field)
        for pos, c in enumerate(slices[i, w]):
            if pos in cleared:
                continue
            row = _faces(c, below)
            if row:
                space.add(row)
        spaces[i, w] = space
    return spaces


def _restriction_map(slices: dict, spaces: dict) -> dict[int, list[int]]:
    """The nonzero part of ``homology_of_restrictions`` from a complex
    sliced by (size i, union W). Slice (i, W) has homology beta_{i,W},
    its size less the ranks in and out; by Hochster's formula that is the
    reduced homology of the independence complex on W in degree
    |W| - i - 1, slot |W| - i of the dims list."""
    slots: dict[int, dict[int, int]] = {}
    for i, w in slices:
        ranks = [spaces[key].rank for key in ((i, w), (i + 1, w)) if key in spaces]
        beta = len(slices[i, w]) - sum(ranks)
        if beta:
            slots.setdefault(w, {})[w.bit_count() - i] = beta
    return {w: [dims.get(slot, 0) for slot in range(max(dims) + 1)]
            for w, dims in slots.items()}


@dataclass
class TaylorAnalysis:
    """Per-slice data of the reduced complex of one hypergraph.

    ``boundaries[i, W]`` holds only the rows that clearing let it read,
    not every boundary of slice (i, W), but it spans the whole image in
    slice (i - 1, W); ranks and ``contains`` read nothing else.
    """

    field: Field
    slices: dict[tuple[int, int], dict[int, int]]
    boundaries: dict[tuple[int, int], RowSpace]
    # b_set per type, which two campaign checks read
    _b_sets: dict[tuple[int, int], tuple[tuple[int, ...], ...]] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _unions_by_type(self) -> dict[tuple[int, int], list[int]]:
        """The unions W of the slices of each type (size i, degree |W|)."""
        out: dict[tuple[int, int], list[int]] = {}
        for i, w in self.slices:
            out.setdefault((i, w.bit_count()), []).append(w)
        return out

    def restrictions(self) -> dict[int, list[int]]:
        return _restriction_map(self.slices, self.boundaries)

    def table(self) -> BettiTable:
        return table_from_homology(self.restrictions(), self.field)

    def types(self) -> list[tuple[int, int]]:
        """The types (size i, degree |W|) of the slices, sorted."""
        return sorted(self._unions_by_type)

    @cached_property
    def _absorbed(self) -> dict[tuple[int, int], list[int]]:
        """Per slice, the number of absorbed members of each symbol, in
        the order of ``slices``: the members whose removal is a key of
        the slice below, one per entry of its :func:`_faces` row."""
        out = {}
        for (i, w), symbols in self.slices.items():
            below = self.slices.get((i - 1, w), {})
            out[i, w] = [len(_faces(c, below)) for c in symbols]
        return out

    def _symbols_absorbed(self, i: int, j: int):
        """The absorbed-member counts of every symbol of type (i, j); the
        complex has one symbol per edge family, so of every such family."""
        for w in self._unions_by_type.get((i, j), ()):
            yield from self._absorbed[i, w]

    def families_all_reduced(self, i: int, j: int) -> bool:
        """Every size-i family covering j vertices is reduced, so beta_{i,j}
        is at most |B_{i,j}|: the reduced basis symbols then span the
        homology of the slice."""
        return not any(self._symbols_absorbed(i, j))

    def absorbing_families_stay_reduced(self, i: int, j: int) -> bool:
        """No family of i + 1 edges covering j vertices has two or more
        absorbed members, so beta_{i,j} is at least |B_{i,j}|: the classes
        of B_{i,j} are then independent."""
        return all(a < 2 for a in self._symbols_absorbed(i + 1, j))

    def b_set(self, i: int, j: int) -> list[tuple[int, ...]]:
        """Reduced basis symbols of type (i, j) not hit from above, which
        the boundary, keeping W, can only do from their own (i + 1, W).
        Computed once per type."""
        if (i, j) not in self._b_sets:
            out = []
            for w in self._unions_by_type.get((i, j), ()):
                image = self.boundaries.get((i + 1, w))
                for pos, (c, absorbed) in enumerate(zip(self.slices[i, w], self._absorbed[i, w])):
                    if absorbed:
                        continue
                    if image is not None and image.contains({pos: 1}):
                        continue
                    out.append(tuple_of(c))
            self._b_sets[i, j] = tuple(sorted(out))
        return list(self._b_sets[i, j])


def analyze_taylor(h: Hypergraph, field: Field = QQ) -> TaylorAnalysis:
    """Slice the reduced complex and echelonize every boundary once. Its
    symbols are the survey's edge families, under the survey's budget."""
    slices = _slice(enumerate(_sweep_kernel(h).union))
    return TaylorAnalysis(field, slices, _boundaries(slices, field))


def betti_via_taylor(h: Hypergraph, field: Field = QQ) -> BettiTable:
    return analyze_taylor(h, field).table()


# ---------------------------------------------------------------------------
# Lyubeznik's subcomplex, sliced by union


def admissible_symbols(h: Hypergraph) -> list[tuple[int, int]]:
    """Every L-admissible symbol under the index order, with its union.

    A symbol grows by prepending a smaller edge index p to an admissible
    suffix of union U. The result is admissible exactly when no edge
    q < p lies inside U | S_p: the positions after p keep their test.
    A failed prepend also fails for every longer symbol that contains
    it, so that branch is not explored. Raises ``BudgetExceeded`` as
    soon as the count passes ``limits.LYUBEZNIK_BUDGET``.
    """
    edges = h.edges
    budget = limits.LYUBEZNIK_BUDGET
    out: list[tuple[int, int]] = [(0, 0)]

    def grow(suffix: int, union: int, least: int) -> None:
        for p in range(least):
            u = union | edges[p]
            if any(is_subset(edges[q], u) for q in range(p)):
                continue
            symbol = suffix | 1 << p
            out.append((symbol, u))
            if len(out) > budget:
                raise BudgetExceeded(
                    f"admissible symbols exceed the Lyubeznik symbol budget {budget}")
            grow(symbol, u, p)

    grow(0, 0, len(edges))
    return out


def lyubeznik_restrictions(h: Hypergraph, field: Field = QQ) -> dict[int, list[int]]:
    """The nonzero part of ``homology_of_restrictions``, from Lyubeznik's
    resolution.

    The admissible symbols span a subcomplex of the Taylor resolution
    that is itself a free resolution (Lyubeznik, JPAA 51, 1988).
    Tensored with the field, the boundary of a symbol keeps only the
    members absorbed by the others, so it preserves the union W, and the
    size-i symbols of union W give beta_{i,W}.
    """
    slices = _slice(admissible_symbols(h))
    return _restriction_map(slices, _boundaries(slices, field))


def betti_via_lyubeznik(h: Hypergraph, field: Field = QQ) -> BettiTable:
    """Exact graded Betti table over ``field`` from Lyubeznik's resolution."""
    return table_from_homology(lyubeznik_restrictions(h, field), field)


# ---------------------------------------------------------------------------
# symbol admissibility


def _ordering_masks(h: Hypergraph, ordering) -> list[int]:
    ordering = tuple(ordering)
    if sorted(ordering) != list(range(h.m)):
        raise ValidationError(f"ordering {ordering} is not a permutation of 0..{h.m - 1}")
    return [h.edges[s] for s in ordering]


def is_l_admissible(h: Hypergraph, ordering, chain) -> bool:
    """Admissibility of a symbol of ordering positions.

    ``chain`` lists positions into ``ordering`` in strictly increasing
    order. The symbol is admissible when for every position p of the
    chain, no edge ordered strictly before p is contained in the union
    of the symbol members from p on. This is the classical construction,
    under which admissible symbols form a complex closed under taking
    subsymbols; unioning every edge ordered between p and the last
    position instead is a different reading, which this package rejects.
    """
    masks = _ordering_masks(h, ordering)
    chain = tuple(chain)
    if list(chain) != sorted(set(chain)) or (chain and not (0 <= chain[0] and chain[-1] < h.m)):
        raise ValidationError(f"chain {chain} must be strictly increasing ordering positions")
    u = 0
    for p in reversed(chain):
        u |= masks[p]
        if any(is_subset(masks[q], u) for q in range(p)):
            return False
    return True


def is_maximal_l_admissible(h: Hypergraph, ordering, chain) -> bool:
    """No strictly larger admissible symbol contains ``chain``.

    Admissible symbols are closed under subsymbols: dropping a member
    shrinks the suffix unions and leaves the earlier edges of every
    remaining position alone. So an admissible superset exists exactly
    when an admissible one-position extension does, and only those are
    checked.
    """
    if not is_l_admissible(h, ordering, chain):
        return False
    chain = tuple(chain)
    return not any(is_l_admissible(h, ordering, tuple(sorted(chain + (p,))))
                   for p in range(h.m) if p not in chain)


# ---------------------------------------------------------------------------
# nonvanishing certificates


CERTIFICATE_KINDS = ("induced_matching", "semi_induced", "self_ordered", "self_semi_disjoint")


@dataclass(frozen=True)
class Certificate:
    """Claim that beta_{i,j} is nonzero, witnessed by a family.

    ``kind`` selects the premise: an induced matching, a self
    semi-induced matching (kind ``semi_induced``), a self ordered family
    in the order given, or a self semi-disjoint family.
    """

    kind: str
    family: tuple[int, ...]
    i: int
    j: int


@dataclass(frozen=True)
class CertificateVerdict:
    ok: bool
    beta: int
    detail: str


def certify_nonvanishing(h: Hypergraph, cert: Certificate, field: Field = QQ,
                         table: BettiTable | None = None) -> CertificateVerdict:
    """Re-validate a certificate's premise, then check the table entry.

    For the self semi-disjoint kind this also rebuilds the symbol that
    realizes the class: inside the restriction to the covered vertices,
    order the family complement of the witness first, all remaining
    edges next, and the witness last; the symbol on the family positions
    must then be maximal admissible.

    ``table`` short-circuits the entry lookup with a precomputed exact
    table; it must belong to ``h`` and ``field``.
    """
    if cert.kind not in CERTIFICATE_KINDS:
        raise ValidationError(f"unknown certificate kind {cert.kind!r}")
    fam = _validate_family(h, cert.family)
    union = chain_union(h, fam)
    i, j = len(fam), union.bit_count()
    if (i, j) != (cert.i, cert.j):
        raise PremiseFails(
            f"family {fam} has type ({i},{j}), certificate claims ({cert.i},{cert.j})", instance=h)
    cls = classify(h, fam)
    if cert.kind == "induced_matching" and not cls.induced:
        raise PremiseFails(f"family {fam} is not an induced matching", instance=h)
    if cert.kind == "semi_induced" and not cls.self_semi_induced:
        raise PremiseFails(f"family {fam} is not a self semi-induced matching", instance=h)
    if cert.kind == "self_ordered" and not cls.self_ordered:
        raise PremiseFails(f"family {fam} is not self ordered in the given order", instance=h)
    detail = f"{cert.kind} family of type ({i},{j})"
    if cert.kind == "self_semi_disjoint":
        if not cls.self_semi_disjoint:
            raise PremiseFails(f"family {fam} is not self semi-disjoint", instance=h)
        witness = cls.self_semi_disjoint_witness
        sub, edge_map = induced_subhypergraph(h, list(bits_of(union)))
        fam_sub = sorted(edge_map[s] for s in fam)
        witness_sub = sorted(edge_map[s] for s in witness)
        lead = [s for s in fam_sub if s not in witness_sub]
        middle = [s for s in range(sub.m) if s not in fam_sub]
        ordering = tuple(lead + middle + witness_sub)
        positions = tuple(sorted(ordering.index(s) for s in fam_sub))
        if not is_maximal_l_admissible(sub, ordering, positions):
            raise PremiseFails(
                f"symbol of family {fam} is not maximal admissible under the witness ordering",
                instance=h)
        detail += f", witness {tuple(witness)} checked maximal admissible"
    beta = (table if table is not None else betti_table(h, field)).get(i, j)
    if beta == 0:
        raise BettiVanishes(
            f"certificate {cert.kind} {fam}: table entry ({i},{j}) vanishes over {field}", instance=h)
    return CertificateVerdict(True, beta, detail)
