"""Edge-family classes and the matching-type invariants built from them.

A family is a tuple of distinct edge indices. Its type is (i, j) where
i is the family size and j the number of vertices covered. All classes
except the ordered one are properties of the index set; the ordered
class depends on the tuple order.

Class definitions, for a family S_1, ..., S_i inside a hypergraph H:

* matching: members pairwise disjoint.
* semi-induced matching: no edge of H outside the family is contained
  in the union of the family.
* reduced (used as a building block, not a named class): no member is
  contained in the union of the other members.
* self semi-induced matching: semi-induced and reduced.
* self-contained semi-induced matching: reduced, and every outside edge
  S contained in the union admits a member S_k with
  S_k included in S together with the union of the other members.
* induced matching: matching and semi-induced.
* self disjoint set: reduced, with an induced matching S_0 inside the
  family such that every member outside S_0 differs from some member of
  S_0 by exactly one vertex (it has one vertex outside that member).
* self semi-disjoint set: same with S_0 only semi-induced.
* self ordered set: a singleton, or reduced and such that every outside
  edge S admits a position k below the last with S_k contained in S
  together with the members after position k.

The empty family vacuously belongs to every unordered class above and
is the degenerate witness of value 0 for each invariant.

Inside the package a family is also an edge bitmask, bit s standing for
edge index s, and every class predicate above lives once, in
``_Kernel``: ``classify``, ``survey``, the Taylor engine and the bouquet
translation all call it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from . import limits
from .bitsets import bits_of, mask_of, tuple_of
from .errors import (
    BudgetExceeded,
    NotAGraph,
    NotSelfDisjoint,
    NotStronglyDisjoint,
    ValidationError,
    ViolationFound,
)
from .hypergraph import Hypergraph, uniformity_profile


# ---------------------------------------------------------------------------
# the class predicates, on edge bitmasks


class _Unions(dict):
    """Vertex unions of edge families, keyed by edge bitmask and computed
    on first lookup."""

    def __init__(self, masks):
        super().__init__()
        self.masks = masks

    def __missing__(self, bits: int) -> int:
        u = 0
        for k in bits_of(bits):
            u |= self.masks[k]
        self[bits] = u
        return u


def _union_table(masks) -> list[int]:
    """Vertex union of every edge family, indexed by edge bitmask."""
    union = [0] * (1 << len(masks))
    for bits in range(1, len(union)):
        low = bits & -bits
        union[bits] = union[bits ^ low] | masks[low.bit_length() - 1]
    return union


class _Kernel:
    """The family-class predicates of one hypergraph.

    ``masks`` are the edges' vertex masks and ``union[bits]`` the vertex
    union of the family ``bits``: a full ``_union_table`` for a sweep over
    every family, or by default a ``_Unions`` filled on demand. Each
    predicate tests one condition of the module docstring on its own; a
    class that also asks for a reduced family is the conjunction with
    ``not absorbed(bits)``, taken by the caller. The ordered class has
    two tests: ``ordered_in`` for one given order, and ``least_ordering``,
    a memoized and pruned search over orders that returns the first.
    """

    def __init__(self, masks, union=None):
        self.masks = masks
        self.union = _Unions(masks) if union is None else union
        self.sizes = [mask.bit_count() for mask in masks]
        self._inside: dict[int, int] = {}
        self._near: list[int | None] = [None] * len(masks)
        self._incident: list[int] | None = None

    def absorbed(self, bits: int) -> int:
        """Members of ``bits`` contained in the union of the others."""
        masks, union = self.masks, self.union
        out = 0
        rest = bits
        while rest:
            low = rest & -rest
            rest ^= low
            if not masks[low.bit_length() - 1] & ~union[bits ^ low]:
                out |= low
        return out

    def matching(self, bits: int) -> bool:
        """Members pairwise disjoint."""
        sizes, total = self.sizes, 0
        rest = bits
        while rest:
            low = rest & -rest
            rest ^= low
            total += sizes[low.bit_length() - 1]
        return total == self.union[bits].bit_count()

    def semi_induced(self, bits: int) -> bool:
        """No edge outside ``bits`` inside its union: the edges inside the
        union, which include the members, are exactly the members. Many
        families share a union, so the edges inside memoize per union."""
        u = self.union[bits]
        inside = self._inside.get(u)
        if inside is None:
            inside = 0
            for s, mask in enumerate(self.masks):
                if not mask & ~u:
                    inside |= 1 << s
            self._inside[u] = inside
        return inside == bits

    def self_contained(self, bits: int) -> bool:
        """Every outside edge S inside the union admits a member S_k inside
        S together with the other members."""
        masks, union = self.masks, self.union
        u = union[bits]
        members = [(masks[k], union[bits ^ (1 << k)]) for k in bits_of(bits)]
        for s, mask in enumerate(masks):
            if mask & ~u or bits >> s & 1:
                continue
            if all(mk & ~(mask | others) for mk, others in members):
                return False
        return True

    def near(self, k: int) -> int:
        """Edges b with S_k minus S_b a single vertex."""
        out = self._near[k]
        if out is None:
            mk = self.masks[k]
            out = 0
            for b, mb in enumerate(self.masks):
                if (mk & ~mb).bit_count() == 1:
                    out |= 1 << b
            self._near[k] = out
        return out

    def disjoint_witnesses(self, fam: tuple[int, ...]):
        """Witnesses S_0 of ``fam`` for the self disjoint and the self
        semi-disjoint class, each a sub-tuple or None.

        S_0 must be semi-induced, a matching for the disjoint class, and
        every other member must have exactly one vertex outside some
        member of S_0. The family is assumed reduced.
        Candidates are scanned by decreasing size, then lexicographically
        in the positions of ``fam``, so the family itself, which works
        whenever it is a (semi-)induced matching, comes first. The first
        semi-disjoint witness that is a matching is the disjoint one too.
        A member one vertex away from no other member must lie in S_0, so
        only the other members are chosen; two candidates that share
        those forced members compare as their chosen parts do, so the
        scan order stays the same.
        """
        bits = mask_of(fam)
        forced, free = 0, []
        for k in fam:
            if self.near(k) & bits:
                free.append(k)
            else:
                forced |= 1 << k
        semi_disjoint = None
        for size in range(len(free), -1, -1):
            for chosen in itertools.combinations(free, size):
                sub = forced | mask_of(chosen)
                matching = self.matching(sub)
                if not (matching or semi_disjoint is None) or not self.semi_induced(sub):
                    continue
                if all(self.near(k) & sub for k in bits_of(bits ^ sub)):
                    witness = tuple(k for k in fam if sub >> k & 1)
                    if matching:
                        return witness, witness if semi_disjoint is None else semi_disjoint
                    semi_disjoint = witness
        return None, semi_disjoint

    def ordered_in(self, order: tuple[int, ...]) -> bool:
        """The ordered class, in exactly the order given."""
        if len(order) <= 1:
            return bool(order) or not self.masks
        bits = mask_of(order)
        if self.absorbed(bits):
            return False
        masks = self.masks
        # after[k]: union of the members after position k
        after = [0] * len(order)
        for k in range(len(order) - 1, 0, -1):
            after[k - 1] = after[k] | masks[order[k]]
        probes = [(masks[order[k]], after[k]) for k in range(len(order) - 1)]
        for s, mask in enumerate(masks):
            if bits >> s & 1:
                continue
            if all(mk & ~(mask | u) for mk, u in probes):
                return False
        return True

    def incident(self) -> list[int]:
        """Per vertex, the edges containing it, as an edge bitmask."""
        if self._incident is None:
            self._incident = [0] * max((mask.bit_length() for mask in self.masks), default=0)
            for s, mask in enumerate(self.masks):
                for v in bits_of(mask):
                    self._incident[v] |= 1 << s
        return self._incident

    def least_ordering(self, bits: int) -> tuple[int, ...] | None:
        """Lexicographically least ordering of the reduced family ``bits``,
        of two or more members, that satisfies the outside-edge condition
        of the ordered class; None when no ordering does.

        Builds orderings front to back. The member at a position witnesses
        an outside edge S iff it lies inside S together with the members
        still to place after it, which depends only on the set of those
        members; so a state is (members still to place, outside edges
        still lacking a witness), and failed states memoize. A state fails
        at once when some unwitnessed edge has no witness among the members
        that could come next: placing a member later only shrinks the union
        after it, so its witnesses only shrink too. The last member
        witnesses nothing. Candidates are tried in increasing index order,
        so the first ordering found is the least.
        """
        masks, union, incident = self.masks, self.union, self.incident()
        failed: set[int] = set()
        order: list[int] = []

        def place(rem: int, unwit: int) -> bool:
            if not unwit:
                order.extend(bits_of(rem))
                return True
            # rem and unwit are disjoint parts of the edge set: rem inside
            # bits, unwit outside it, so their union keys the state
            key = rem | unwit
            if not rem & (rem - 1) or key in failed:
                return False
            options = []
            cover = 0
            r = rem
            while r:
                low = r & -r
                r ^= low
                k = low.bit_length() - 1
                # member k placed next witnesses S iff S holds all of need
                need = masks[k] & ~union[rem ^ low]
                wit = unwit
                while need and wit:
                    v = need & -need
                    need ^= v
                    wit &= incident[v.bit_length() - 1]
                cover |= wit
                options.append((k, low, wit))
            if cover == unwit:
                for k, low, wit in options:
                    order.append(k)
                    if place(rem ^ low, unwit ^ wit):
                        return True
                    order.pop()
            failed.add(key)
            return False

        if place(bits, ((1 << len(masks)) - 1) & ~bits):
            return tuple(order)
        return None


def _family_kernel(h: Hypergraph, fam: tuple[int, ...]) -> _Kernel:
    """Kernel for one family, its union and the unions of all members
    but one seeded from prefix and suffix ORs."""
    masks = h.edges
    union = _Unions(masks)
    prefix = [0]
    for s in fam:
        prefix.append(prefix[-1] | masks[s])
    bits = mask_of(fam)
    union[bits] = prefix[-1]
    suffix = 0
    for k in range(len(fam) - 1, -1, -1):
        union[bits ^ (1 << fam[k])] = prefix[k] | suffix
        suffix |= masks[fam[k]]
    return _Kernel(masks, union)


# ---------------------------------------------------------------------------
# single-family classification


@dataclass(frozen=True)
class FamilyClassification:
    family: tuple[int, ...]
    i: int
    j: int
    matching: bool
    semi_induced: bool
    reduced: bool
    self_semi_induced: bool
    self_contained: bool
    induced: bool
    self_disjoint: bool
    self_disjoint_witness: tuple[int, ...] | None
    self_semi_disjoint: bool
    self_semi_disjoint_witness: tuple[int, ...] | None
    self_ordered: bool


def _validate_family(h: Hypergraph, fam) -> tuple[int, ...]:
    fam = tuple(fam)
    for s in fam:
        h.edge_mask(s)
    if len(set(fam)) != len(fam):
        raise ValidationError(f"family {fam} repeats an edge index")
    return fam


def classify(h: Hypergraph, fam) -> FamilyClassification:
    """Evaluate every family class on ``fam`` (order matters only for the
    ordered class, which is tested in the given order)."""
    fam = _validate_family(h, fam)
    return _classification(_family_kernel(h, fam), fam)


def _classification(kernel: _Kernel, fam: tuple[int, ...]) -> FamilyClassification:
    """``classify`` on a valid family, with any kernel of its hypergraph."""
    bits = mask_of(fam)
    reduced = not kernel.absorbed(bits)
    matching = kernel.matching(bits)
    semi = kernel.semi_induced(bits)
    sd_w, ssd_w = kernel.disjoint_witnesses(fam) if reduced else (None, None)
    return FamilyClassification(
        family=fam,
        i=len(fam),
        j=kernel.union[bits].bit_count(),
        matching=matching,
        semi_induced=semi,
        reduced=reduced,
        self_semi_induced=reduced and semi,
        self_contained=reduced and kernel.self_contained(bits),
        induced=matching and semi,
        self_disjoint=sd_w is not None,
        self_disjoint_witness=sd_w,
        self_semi_disjoint=ssd_w is not None,
        self_semi_disjoint_witness=ssd_w,
        self_ordered=kernel.ordered_in(fam),
    )


def is_self_ordered(h: Hypergraph, fam) -> bool:
    """Test the ordered class in exactly the order given."""
    fam = _validate_family(h, fam)
    return _family_kernel(h, fam).ordered_in(fam)


# ---------------------------------------------------------------------------
# exhaustive survey of all families


class _Max:
    """Running maximum with the first witness kept on ties.

    Subsets are visited in lexicographic order on their sorted index
    tuples, so the kept witness is the lexicographically least optimum.
    """

    __slots__ = ("value", "witness")

    def __init__(self):
        self.value = 0
        self.witness: tuple[int, ...] = ()

    def offer(self, value: int, witness: tuple[int, ...]) -> None:
        if value > self.value:
            self.value = value
            self.witness = witness


@dataclass
class FamilySurvey:
    """Aggregated facts about every edge family of a hypergraph."""

    types: dict[str, set[tuple[int, int]]]
    counts_ssi: dict[tuple[int, int], int]
    counts_scsi: dict[tuple[int, int], int]
    counts_induced_uniform: dict[tuple[int, int], int]  # (t, i) -> count
    hyp1_violations: set[tuple[int, int]]
    hyp2_violations: set[tuple[int, int]]
    maxima: dict[str, _Max]
    maxima_a_t: dict[int, _Max] = dc_field(default_factory=dict)

    def families_all_reduced(self, i: int, j: int) -> bool:
        """Every size-i family covering j vertices is reduced.

        Under this hypothesis the reduced basis symbols of the Taylor
        slice span its homology, so beta_{i,j} is at most |B_{i,j}|.
        """
        return (i, j) not in self.hyp1_violations

    def absorbing_families_stay_reduced(self, i: int, j: int) -> bool:
        """No family of i+1 edges with an absorbed member and union size j
        has a second absorbed member.

        Under this hypothesis the classes of B_{i,j} are independent, so
        beta_{i,j} is at least |B_{i,j}|.
        """
        return (i, j) not in self.hyp2_violations


def survey(h: Hypergraph) -> FamilySurvey:
    """Classify every family of edges in one sweep.

    Families come in lexicographic order, and each predicate runs only
    where its answer can change the result:

    * A family with an absorbed member is no matching (that member meets
      another), so it is in none of the classes but the semi-induced one.
      It adds its type to the hypothesis sets, and is tested for
      semi-induced only while its type is not yet in that class.
    * A member absorbed in a family stays absorbed in every larger one,
      so once the family less its last index has two absorbed members
      ``absorbed`` is not asked again.
    * The self disjoint and the self ordered tests run only on a reduced
      family whose type is not yet in that class. A family of a type
      already seen cannot add a type, and its size and spread equal
      those of a family offered before it, so it cannot raise a maximum
      or, since ``_Max`` keeps the first witness on ties, change one.
      Every self disjoint family is self semi-disjoint, so the same
      skip leaves the semi-disjoint class unchanged too.

    Raises BudgetExceeded when the hypergraph has more than
    ``limits.FAMILY_BUDGET`` edges; the sweep is exponential in the edge
    count by design.
    """
    m = h.m
    if m > limits.FAMILY_BUDGET:
        raise BudgetExceeded(
            f"{m} edges exceeds family enumeration budget {limits.FAMILY_BUDGET}")
    kernel = _Kernel(h.edges, _union_table(h.edges))
    sizes = kernel.sizes

    kinds = ("matching", "induced", "semi_induced", "self_semi_induced",
             "self_contained", "self_disjoint", "self_semi_disjoint", "self_ordered")
    types: dict[str, set[tuple[int, int]]] = {k: {(0, 0)} for k in kinds}
    if m > 0:
        types["self_ordered"] = set()
    counts_ssi = {(0, 0): 1}
    counts_scsi = {(0, 0): 1}
    counts_induced_uniform: dict[tuple[int, int], int] = {}
    hyp1_violations: set[tuple[int, int]] = set()
    hyp2_violations: set[tuple[int, int]] = set()
    maxima = {name: _Max() for name in
              ("m", "a", "b", "b_prime", "c", "c_prime", "d1", "d2",
               "d1_prime", "d2_prime", "e")}
    a_t: dict[int, _Max] = {}

    # absorbed_of[bits]: the absorbed members of a visited family, or two
    # or more of them once the family less its last index has two
    absorbed_of = [0] * (1 << m)
    for bits in _subsets_lex(m):
        i = bits.bit_count()
        j = kernel.union[bits].bit_count()

        prefix = absorbed_of[bits ^ (1 << (bits.bit_length() - 1))]
        absorbed = prefix if prefix & (prefix - 1) else kernel.absorbed(bits)
        absorbed_of[bits] = absorbed
        if absorbed:
            # no matching, so of the classes only semi-induced is left
            hyp1_violations.add((i, j))
            if absorbed & (absorbed - 1):
                hyp2_violations.add((i - 1, j))
            if (i, j) not in types["semi_induced"] and kernel.semi_induced(bits):
                types["semi_induced"].add((i, j))
            continue

        fam = tuple_of(bits)
        matching = kernel.matching(bits)
        semi = kernel.semi_induced(bits)

        if matching:
            types["matching"].add((i, j))
            maxima["m"].offer(i, fam)
        if semi:
            types["semi_induced"].add((i, j))
        if matching and semi:
            types["induced"].add((i, j))
            maxima["a"].offer(i, fam)
            t = sizes[fam[0]]
            if all(sizes[k] == t for k in fam):
                counts_induced_uniform[t, i] = counts_induced_uniform.get((t, i), 0) + 1
                a_t.setdefault(t, _Max()).offer(i, fam)

        if semi:
            types["self_semi_induced"].add((i, j))
            counts_ssi[i, j] = counts_ssi.get((i, j), 0) + 1
            maxima["b"].offer(i, fam)
            maxima["b_prime"].offer(j - i, fam)

        if kernel.self_contained(bits):
            types["self_contained"].add((i, j))
            counts_scsi[i, j] = counts_scsi.get((i, j), 0) + 1
            maxima["e"].offer(i, fam)

        if (i, j) not in types["self_disjoint"]:
            sd, ssd = kernel.disjoint_witnesses(fam)
            if ssd is not None:
                types["self_semi_disjoint"].add((i, j))
                maxima["d2"].offer(i, fam)
                maxima["d2_prime"].offer(j - i, fam)
            if sd is not None:
                types["self_disjoint"].add((i, j))
                maxima["d1"].offer(i, fam)
                maxima["d1_prime"].offer(j - i, fam)

        if (i, j) not in types["self_ordered"] and (
                i == 1 or kernel.least_ordering(bits) is not None):
            types["self_ordered"].add((i, j))
            maxima["c"].offer(i, fam)
            maxima["c_prime"].offer(j - i, fam)

    return FamilySurvey(
        types=types,
        counts_ssi=counts_ssi,
        counts_scsi=counts_scsi,
        counts_induced_uniform=counts_induced_uniform,
        hyp1_violations=hyp1_violations,
        hyp2_violations=hyp2_violations,
        maxima=maxima,
        maxima_a_t=a_t,
    )


def _subsets_lex(m: int):
    """Nonzero edge-index bitmasks in lexicographic order of their sorted
    index tuples: (0), (0,1), (0,1,2), ..., (1), (1,2), ...

    Each family is its predecessor with the next index appended, or, when
    the predecessor ends at index m - 1, with that index dropped and the
    new last index raised by one.
    """
    if not m:
        return
    bits, last = 0, -1
    while True:
        if last < m - 1:
            last += 1
        else:
            bits ^= 1 << last
            if not bits:
                return
            last = bits.bit_length() - 1
            bits ^= 1 << last
            last += 1
        bits |= 1 << last
        yield bits


def self_ordered_witness(h: Hypergraph, fam) -> tuple[int, ...] | None:
    """Lexicographically least ordering of ``fam`` in the ordered class."""
    fam = tuple(sorted(_validate_family(h, fam)))
    kernel = _family_kernel(h, fam)
    if len(fam) <= 1:
        return fam if kernel.ordered_in(fam) else None
    bits = mask_of(fam)
    if kernel.absorbed(bits):
        return None
    return kernel.least_ordering(bits)


# ---------------------------------------------------------------------------
# invariant report


@dataclass(frozen=True)
class InvariantReport:
    """The matching-type invariants of a hypergraph, with witnesses.

    ``values`` maps each invariant's short name to its value, in the
    order m, a, a_t, b, b_prime, c, c_prime, d1, d2, d1_prime, d2_prime,
    e, then d_g and d_g_prime for graphs (and the edgeless hypergraph).
    ``a_t`` is itself a dict: for each edge size t, the induced matching
    number among the edges of size t.

    ``witnesses`` maps the same names, except ``a_t``, to a family that
    attains the value: its sorted edge indices, ``c`` and ``c_prime`` in
    their least self-ordered order, and ``d_g`` and ``d_g_prime`` the
    stems of an extremal bouquet set. Each t of ``a_t`` has its own key
    ``a_<t>``. A value is 0 with an empty witness when no nonempty family
    of its class exists.
    """

    values: dict[str, int | dict[int, int]]
    witnesses: dict[str, tuple[int, ...]]

    def as_dict(self) -> dict:
        return dict(self.values)


def compute_invariants(h: Hypergraph, *, precomputed: FamilySurvey | None = None) -> InvariantReport:
    """All matching-type invariants of ``h`` by exhaustive enumeration."""
    sv = precomputed if precomputed is not None else survey(h)
    values: dict[str, int | dict[int, int]] = {}
    witnesses: dict[str, tuple[int, ...]] = {}
    for name, best in sv.maxima.items():
        values[name], witnesses[name] = best.value, best.witness
        if name == "a":
            values["a_t"] = {t: by_size.value for t, by_size in sv.maxima_a_t.items()}
    for t, by_size in sv.maxima_a_t.items():
        witnesses[f"a_{t}"] = by_size.witness

    # survey witnesses are sorted; list the ordered class's in an order it holds in
    for name in ("c", "c_prime"):
        if len(witnesses[name]) > 1:
            witnesses[name] = self_ordered_witness(h, witnesses[name]) or witnesses[name]

    if uniformity_profile(h).d == 2 or h.m == 0:
        rep = bouquet_invariants(h)
        values["d_g"], values["d_g_prime"] = rep.total_flowers, rep.bouquet_count
        witnesses["d_g"] = _stem_family(h, rep.witness_flowers)
        witnesses["d_g_prime"] = _stem_family(h, rep.witness_count)
    return InvariantReport(values, witnesses)


def _stem_family(h: Hypergraph, bouquets) -> tuple[int, ...]:
    index = {mask: s for s, mask in enumerate(h.edges)}
    fam = []
    for b in bouquets:
        for a, c in b.stems():
            fam.append(index[(1 << a) | (1 << c)])
    return tuple(sorted(fam))


# ---------------------------------------------------------------------------
# bouquets in graphs


@dataclass(frozen=True)
class Bouquet:
    """A root vertex with a nonempty fan of flowers adjacent to it."""

    root: int
    flowers: tuple[int, ...]

    def vertex_mask(self) -> int:
        mask = 1 << self.root
        for f in self.flowers:
            mask |= 1 << f
        return mask

    def stems(self) -> list[tuple[int, int]]:
        return [(min(self.root, f), max(self.root, f)) for f in self.flowers]


@dataclass(frozen=True)
class BouquetReport:
    total_flowers: int
    bouquet_count: int
    witness_flowers: tuple[Bouquet, ...]
    witness_count: tuple[Bouquet, ...]


def _require_graph(h: Hypergraph) -> None:
    if any(mask.bit_count() != 2 for mask in h.edges):
        raise NotAGraph("bouquets are defined for graphs (all edges of size 2)")


def bouquet_invariants(h: Hypergraph) -> BouquetReport:
    """Extremal strongly disjoint bouquet sets of a graph.

    A set of bouquets is strongly disjoint when the bouquets are
    pairwise vertex disjoint and one stem can be chosen from each so the
    chosen stems form an induced matching. The report carries the best
    total flower count and the best bouquet count, with witnesses.

    Every strongly disjoint set arises from an induced matching (the
    chosen stems) by orienting each stem and greedily assigning every
    remaining vertex adjacent to a root as an extra flower of one such
    root, so the search below is exhaustive.
    """
    _require_graph(h)
    adj = [0] * h.n
    for mask in h.edges:
        a, b = tuple_of(mask)
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    best_total = _Max()
    best_count = _Max()
    witness_total: tuple[Bouquet, ...] = ()
    witness_count: tuple[Bouquet, ...] = ()

    matchings = _induced_matchings(h)
    for matching in matchings:
        size = len(matching)
        covered = 0
        for s in matching:
            covered |= h.edges[s]
        if size > best_count.value:
            best_count.offer(size, matching)
            witness_count = tuple(
                Bouquet(min(h.edge_vertices(s)), (max(h.edge_vertices(s)),)) for s in matching
            )
        endpoints = [h.edge_vertices(s) for s in matching]
        for orient in range(1 << size):
            roots = [endpoints[k][orient >> k & 1] for k in range(size)]
            flowers = {k: [endpoints[k][1 - (orient >> k & 1)]] for k in range(size)}
            total = size
            root_union = 0
            for r in roots:
                root_union |= 1 << r
            for v in range(h.n):
                if covered >> v & 1:
                    continue
                homes = [k for k, r in enumerate(roots) if adj[r] >> v & 1]
                if homes:
                    flowers[homes[0]].append(v)
                    total += 1
            if total > best_total.value:
                best_total.offer(total, matching)
                witness_total = tuple(
                    Bouquet(roots[k], tuple(sorted(flowers[k]))) for k in range(size)
                )
    return BouquetReport(best_total.value, best_count.value, witness_total, witness_count)


def _induced_matchings(h: Hypergraph) -> list[tuple[int, ...]]:
    """All induced matchings of ``h`` as sorted index tuples (empty omitted)."""
    kernel = _Kernel(h.edges)
    out: list[tuple[int, ...]] = []

    def grow(bits: int, start: int):
        covered = kernel.union[bits]
        for s in range(start, h.m):
            if h.edges[s] & covered:
                continue
            nxt = bits | 1 << s
            if kernel.semi_induced(nxt):
                out.append(tuple_of(nxt))
            grow(nxt, s + 1)

    grow(0, 0)
    return out


def family_to_bouquets(h: Hypergraph, fam) -> tuple[Bouquet, ...]:
    """Decompose a self disjoint family of graph edges into a strongly
    disjoint set of bouquets whose stems are exactly the family."""
    _require_graph(h)
    fam = _validate_family(h, fam)
    cls = classify(h, fam)
    if not cls.self_disjoint:
        raise NotSelfDisjoint(f"family {fam} is not self disjoint")
    # vertex-connected components of the family; each must be a star
    comps: list[set[int]] = []
    for s in sorted(fam):
        touching = [c for c in comps if any(h.edges[s] & h.edges[t] for t in c)]
        merged = {s}
        for c in touching:
            merged |= c
            comps.remove(c)
        comps.append(merged)
    bouquets = []
    for comp_set in comps:
        comp = sorted(comp_set)
        if len(comp) == 1:
            a, b = h.edge_vertices(comp[0])
            bouquets.append(Bouquet(a, (b,)))
            continue
        common = h.edges[comp[0]]
        for s in comp[1:]:
            common &= h.edges[s]
        if common.bit_count() != 1:
            raise NotSelfDisjoint(f"component {comp} of family {fam} is not a star")
        root = common.bit_length() - 1
        petals = tuple(sorted((h.edges[s] & ~common).bit_length() - 1 for s in comp))
        bouquets.append(Bouquet(root, petals))
    result = tuple(sorted(bouquets, key=lambda b: b.root))
    if _stem_selection(h, result) is None:
        raise ViolationFound(
            "bouquet-decomposition",
            f"self disjoint family {fam} admits no induced stem selection",
            instance=h,
        )
    return result


def _stem_selection(h: Hypergraph, bouquets: tuple[Bouquet, ...]) -> list[int] | None:
    """One stem index per bouquet forming an induced matching, if any."""
    edge_index = {mask: s for s, mask in enumerate(h.edges)}
    options = []
    for b in bouquets:
        opts = []
        for a, c in b.stems():
            s = edge_index.get((1 << a) | (1 << c))
            if s is None:
                raise NotStronglyDisjoint(f"stem {(a, c)} of bouquet {b} is not an edge")
            opts.append(s)
        options.append(opts)
    kernel = _Kernel(h.edges)
    for combo in itertools.product(*options):
        bits = mask_of(combo)
        if kernel.matching(bits) and kernel.semi_induced(bits):
            return list(combo)
    return None


def bouquets_to_family(h: Hypergraph, bouquets) -> tuple[int, ...]:
    """Edge-index family of all stems of a strongly disjoint bouquet set."""
    _require_graph(h)
    bouquets = tuple(bouquets)
    seen = 0
    for b in bouquets:
        if not b.flowers:
            raise NotStronglyDisjoint(f"bouquet at {b.root} has no flowers")
        vm = b.vertex_mask()
        if vm.bit_count() != len(b.flowers) + 1:
            raise NotStronglyDisjoint(f"bouquet at {b.root} repeats a vertex")
        if vm & seen:
            raise NotStronglyDisjoint("bouquets share a vertex")
        seen |= vm
    if _stem_selection(h, bouquets) is None:
        raise NotStronglyDisjoint("no stem choice forms an induced matching")
    return _stem_family(h, bouquets)
