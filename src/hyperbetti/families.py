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
``_Kernel``: ``classify``, ``survey``, the bouquet search and the
campaign's family sweeps all call it. The Taylor and Lyubeznik engines
do not: they read absorption off their own slices (see ``taylor``). The
self (semi-)disjoint search reads which edges are one vertex away from
each edge off a near table, built once per kernel.

``classify`` decides the matching, semi-induced, reduced, self
semi-induced and induced classes up front, all from one pass over the
members (``_Kernel.cover``). The self-contained, self (semi-)disjoint
and self ordered classes, which scan outside edges or search
sub-families, are computed on first read and cached (see
``FamilyClassification``), so a caller pays only for the classes it
reads. The searches over sub-families and orders refuse a family of
more than ``limits.FAMILY_BUDGET`` members. Consecutive calls on the
same edges share one kernel (``_kernel_of``), with its per-edge tables
and its memos of unions and of the edges inside a vertex set.

Every class but the semi-induced one holds only on the empty or reduced
families, which ``_reduced_families`` walks for ``survey``,
``implication-chain`` and the splitting verifiers. ``survey`` gathers
the invariants' maxima, the self (semi-)disjoint types and the counts
per type of two classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from functools import lru_cache

from . import limits
from .bitsets import bits_of, mask_of, tuple_of
from .errors import BudgetExceeded, IndexOutOfRange, NotAGraph, ValidationError
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


class _Kernel:
    """The family-class predicates of one hypergraph.

    ``masks`` are the edges' vertex masks and ``union[bits]`` the vertex
    union of the family ``bits``: a full table for a sweep over every
    family (``_sweep_kernel``), or by default a ``_Unions`` filled on
    demand, as ``_kernel_of`` keeps one. The ``near`` and ``incident``
    tables, per edge and per vertex, are filled on first use. Each
    predicate tests one condition of the module docstring on its own; a
    class that also asks
    for a reduced family is the conjunction with
    ``all(private_parts(bits))``, taken by the caller. ``cover`` is the
    one pass over the members that ``FamilyClassification`` and
    ``private_parts`` read; it records the union it finds, where
    ``semi_induced`` reads it. Every caller already holds a family's
    bits, private parts and semi-induced flag, so the predicates that
    read them take them as arguments. The ordered class has two tests on
    a reduced family of two or more members, both built on one
    witnessing step, ``witnessed``: ``ordered_in`` for one given order,
    and ``least_ordering``, a memoized and pruned search over orders
    that returns the first.
    """

    def __init__(self, masks, union=None):
        self.masks = masks
        self.union = _Unions(masks) if union is None else union
        self.sizes = [mask.bit_count() for mask in masks]
        self._inside: dict[int, int] = {}
        self._near: list[int] | None = None
        self._incident: list[int] | None = None

    def cover(self, bits: int) -> tuple[int, int, list[int]]:
        """One pass over the members of ``bits``: their vertex union,
        ``twice``, the vertices two or more members cover, empty exactly
        on a matching, and per member, in index order, its private part,
        the member minus ``twice``. The union is recorded in ``union``."""
        masks, members = self.masks, []
        once = twice = 0
        rest = bits
        while rest:
            low = rest & -rest
            rest ^= low
            mask = masks[low.bit_length() - 1]
            twice |= once & mask
            once |= mask
            members.append(mask)
        self.union[bits] = once
        return once, twice, [mask & ~twice for mask in members]

    def private_parts(self, bits: int) -> list[int]:
        """Per member of ``bits``, in index order, its private part: the
        vertices of the member that lie in no other member."""
        return self.cover(bits)[2]

    def matching(self, bits: int) -> bool:
        """Members pairwise disjoint: their sizes add up to the size of
        their union, so ``twice`` of ``cover`` is empty. The disjoint
        witness search tests its candidates here, where the union is one
        lookup, at about a third of the cost of ``cover``."""
        sizes, total = self.sizes, 0
        rest = bits
        while rest:
            low = rest & -rest
            rest ^= low
            total += sizes[low.bit_length() - 1]
        return total == self.union[bits].bit_count()

    def inside(self, u: int) -> int:
        """The edges inside the vertex set ``u``, as an edge bitmask. Many
        families share a union, so this memoizes per vertex set."""
        inside = self._inside.get(u)
        if inside is None:
            inside = 0
            for s, mask in enumerate(self.masks):
                if not mask & ~u:
                    inside |= 1 << s
            self._inside[u] = inside
        return inside

    def semi_induced(self, bits: int) -> bool:
        """No edge outside ``bits`` inside its union: the edges inside the
        union, which include the members, are exactly the members."""
        return self.inside(self.union[bits]) == bits

    def self_contained(self, bits: int, private: list[int]) -> bool:
        """Every outside edge S inside the union admits a member S_k inside
        S together with the other members, that is, a member whose private
        part lies in S. ``private`` is ``private_parts(bits)``."""
        masks = self.masks
        outside = self.inside(self.union[bits]) & ~bits
        while outside:
            low = outside & -outside
            outside ^= low
            mask = masks[low.bit_length() - 1]
            for part in private:
                if not part & ~mask:
                    break
            else:
                return False
        return True

    def near(self) -> list[int]:
        """Per edge k, the edges b with S_k minus S_b a single vertex, as
        an edge bitmask; a table filled once per kernel, by hand as
        ``incident`` is."""
        if self._near is None:
            masks = self.masks
            self._near = [mask_of(b for b, mb in enumerate(masks) if (mk & ~mb).bit_count() == 1)
                          for mk in masks]
        return self._near

    def disjoint_witnesses(self, fam: tuple[int, ...], bits: int, semi: bool):
        """Witnesses S_0 of ``fam`` for the self disjoint and the self
        semi-disjoint class, each a sub-tuple or None. ``bits`` and
        ``semi`` are the family's edge bitmask and whether it is
        semi-induced.

        S_0 must be semi-induced, a matching for the disjoint class, and
        every other member must have exactly one vertex outside some
        member of S_0. The family is assumed reduced.
        Candidates are scanned by decreasing size, then lexicographically
        in the positions of ``fam``, so the family itself comes first: it
        is the semi-disjoint witness whenever it is semi-induced. A member
        one vertex away from no other member, as the kernel's near table
        (``near``) says, must lie in S_0, so only the other members are
        chosen; two candidates that share those forced
        members compare as their chosen parts do, so the scan order stays
        the same.

        Closure: S_0 holds the forced members, so a semi-induced S_0 also
        holds every edge inside their union. No other member lies there, as
        the family is reduced, so an edge there other than the forced
        members lies outside the family and leaves no witness at all: the
        scan stops before it starts unless the forced members are
        semi-induced.

        A disjoint witness is a semi-disjoint one too, so the first
        semi-disjoint witness is also the disjoint one when it is a
        matching, and else comes before it in the scan. The disjoint
        witness is then the first in scan order among the matchings: the
        forced members, when they are one, with free members disjoint
        from them and from each other. ``_matchings`` lists those depth
        first, in lexicographic order; kept by size, each size is in the
        order of the scan. A family with no free member is its only
        candidate, so its witnesses are the family itself or none. Raises
        BudgetExceeded above ``limits.FAMILY_BUDGET`` members.
        """
        _within_budget(len(fam), "members")
        near = self.near()
        forced, free = 0, []
        for k in fam:
            if near[k] & bits:
                free.append(k)
            else:
                forced |= 1 << k
        if semi:
            first = bits
        elif not self.semi_induced(forced):
            return None, None
        else:
            # a candidate is the forced members plus a sum of distinct free bits
            free_bits = [1 << k for k in free]
            first = self._first_witness(bits, (forced + sum(chosen)
                                               for size in range(len(free) - 1, -1, -1)
                                               for chosen in itertools.combinations(free_bits, size)))
            if first is None:
                return None, None
        semi_disjoint = tuple(k for k in fam if first >> k & 1)
        if self.matching(first):
            return semi_disjoint, semi_disjoint
        if not self.matching(forced):
            return None, semi_disjoint
        by_size: list[list[int]] = [[] for _ in range(len(free) + 1)]
        for sub in _matchings(self.masks, free, forced, self.union[forced]):
            by_size[(sub ^ forced).bit_count()].append(sub)
        sub = self._first_witness(bits, itertools.chain.from_iterable(reversed(by_size)))
        return (None if sub is None else tuple(k for k in fam if sub >> k & 1)), semi_disjoint

    def _first_witness(self, bits: int, candidates) -> int | None:
        """The first of the sub-families ``candidates`` of ``bits`` that is
        semi-induced and has every other member of ``bits`` one vertex away
        from one of its members. Both tests are inlined, as the search's
        inner loop: ``semi_induced`` is one ``inside`` lookup of the
        candidate's union, and the second reads the near table."""
        union, inside, near = self.union, self.inside, self.near()
        for sub in candidates:
            if inside(union[sub]) != sub:
                continue
            rest = bits ^ sub
            while rest:
                low = rest & -rest
                rest ^= low
                if not near[low.bit_length() - 1] & sub:
                    break
            else:
                return sub
        return None

    def ordered_in(self, order: tuple[int, ...]) -> bool:
        """The outside-edge condition of the ordered class, in exactly the
        order given: ``witnessed`` at each position below the last leaves
        no outside edge unwitnessed. ``order`` must be a reduced family of
        two or more members; ``FamilyClassification.self_ordered`` decides
        the others."""
        masks = self.masks
        unwit = ((1 << len(masks)) - 1) & ~mask_of(order)
        after = 0
        for pos in range(len(order) - 1, 0, -1):
            after |= masks[order[pos]]
            unwit ^= self.witnessed(order[pos - 1], after, unwit)
        return not unwit

    def witnessed(self, k: int, after: int, unwit: int) -> int:
        """The edges of ``unwit`` that member k witnesses when the members
        after it cover ``after``: those holding every vertex of S_k outside
        ``after``, so that S_k lies inside S together with those members."""
        incident = self.incident()
        need = self.masks[k] & ~after
        while need and unwit:
            v = need & -need
            need ^= v
            unwit &= incident[v.bit_length() - 1]
        return unwit

    def incident(self) -> list[int]:
        """Per vertex, the edges containing it, as an edge bitmask."""
        # Memoized by hand: a functools.cached_property stores through the
        # instance __dict__, which on CPython 3.11 slows every later
        # attribute read on the instance, and the survey reads masks and
        # union on one kernel throughout (invariants_instances_per_s read
        # 6% lower with one, 3 of 3 runs on a 2-core x86-64 host).
        if self._incident is None:
            incident = [0] * max((mask.bit_length() for mask in self.masks), default=0)
            for s, mask in enumerate(self.masks):
                while mask:
                    low = mask & -mask
                    mask ^= low
                    incident[low.bit_length() - 1] |= 1 << s
            self._incident = incident
        return self._incident

    def least_ordering(self, bits: int, private: list[int]) -> tuple[int, ...] | None:
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
        so the first ordering found is the least. Raises BudgetExceeded
        above ``limits.FAMILY_BUDGET`` members.

        That test rejects most families at the root, before the memo and
        the search are set up: there every other member comes after member
        k, so k witnesses exactly the outside edges that hold its private
        part, and the root fails when some outside edge holds the private
        part of no member. The search would fail at that same first step,
        so the answer is unchanged. ``private`` is ``private_parts(bits)``.
        """
        _within_budget(bits.bit_count(), "members")
        union, witnessed = self.union, self.witnessed
        outside = ((1 << len(self.masks)) - 1) & ~bits
        # the root step: ``witnessed`` with need = the private part, inlined,
        # since most families end here and a call per member cost 8% of a
        # survey on 10-13 edges
        incident = self.incident()
        cover = 0
        for part in private:
            held = outside & ~cover
            while part and held:
                v = part & -part
                part ^= v
                held &= incident[v.bit_length() - 1]
            cover |= held
        if cover != outside:
            return None
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
                wit = witnessed(k, union[rem ^ low], unwit)
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

        if place(bits, outside):
            return tuple(order)
        return None


def _matchings(masks, candidates, bits: int = 0, covered: int = 0):
    """The family ``bits``, covering ``covered``, and each family that
    adds to it a matching of ``candidates`` (edge indices) that avoids
    ``covered``, as edge bitmasks. Depth first, each family before its
    extensions and the added members in the order of ``candidates``, so
    the families that add r members come in the order of
    ``itertools.combinations(candidates, r)``."""
    # children are pushed last candidate first, so they pop in order
    stack = [(bits, covered, 0)]
    while stack:
        bits, covered, start = stack.pop()
        for pos in range(len(candidates) - 1, start - 1, -1):
            mask = masks[candidates[pos]]
            if not mask & covered:
                stack.append((bits | 1 << candidates[pos], covered | mask, pos + 1))
        yield bits


def _within_budget(count: int, what: str) -> None:
    if count > limits.FAMILY_BUDGET:
        raise BudgetExceeded(
            f"{count} {what} exceeds family enumeration budget {limits.FAMILY_BUDGET}")


def _sweep_kernel(h: Hypergraph) -> _Kernel:
    """Kernel for a sweep over every family, with the vertex union of
    each one tabulated up front, indexed by edge bitmask. Refuses more
    than ``limits.FAMILY_BUDGET`` edges, for the survey and Taylor alike."""
    _within_budget(h.m, "edges")
    union = [0]
    for mask in h.edges:
        union += [u | mask for u in union]
    return _Kernel(h.edges, union)


@lru_cache(maxsize=1)
def _kernel_of(edges: tuple[int, ...]) -> _Kernel:
    """The kernel with unions filled on demand of the hypergraph whose
    edge masks are ``edges``. Kept for the last hypergraph asked about,
    so consecutive calls on its edges share the sizes, the ``near`` and
    ``incident`` tables and the ``union`` and ``inside`` memos; each memo
    grows by at most one entry per distinct family or union looked up."""
    return _Kernel(edges)


# ---------------------------------------------------------------------------
# single-family classification


class FamilyClassification:
    """Every class of one family, as attributes named after the classes.

    Set on construction, all from one pass over the members
    (``_Kernel.cover``) and one lookup of the edges inside their union:
    ``family``, ``i``, ``j``, ``matching``, ``semi_induced``,
    ``reduced``, ``self_semi_induced`` and ``induced``. The costly
    classes are properties computed on first read and kept:
    ``self_contained``, ``self_ordered`` (in the order of ``family``),
    and ``self_disjoint``, ``self_semi_disjoint`` and their witnesses
    (each a sub-tuple of ``family`` or None), which read one kept
    witness pair, from a search made only on a reduced family.
    The searches raise BudgetExceeded above ``limits.FAMILY_BUDGET``
    members.

    Not a dataclass: instances have no ``==`` and no
    ``dataclasses.replace``. Built by ``classify`` with the kernel it
    shares across calls on the same edges, and inside the package
    directly, with any kernel of the family's hypergraph.
    """

    def __init__(self, kernel: _Kernel, fam: tuple[int, ...]):
        bits = mask_of(fam)
        union, twice, self._private = kernel.cover(bits)
        self._kernel, self._bits = kernel, bits
        self.family = fam
        self.i = len(fam)
        self.j = union.bit_count()
        self.matching = not twice
        self.semi_induced = kernel.semi_induced(bits)
        self.reduced = all(self._private)
        self.self_semi_induced = self.reduced and self.semi_induced
        self.induced = self.matching and self.semi_induced

    # The costly classes, memoized by hand: a functools.cached_property
    # takes a lock on its first read on CPython 3.11 (0.88 us per first
    # read against 0.11 us for this pattern, timeit on a 2-core x86-64
    # host). Class-level defaults leave __init__ no extra work.
    _self_contained: bool | None = None
    _witness_pair: tuple[tuple[int, ...] | None, tuple[int, ...] | None] | None = None
    _self_ordered: bool | None = None

    @property
    def self_contained(self) -> bool:
        if self._self_contained is None:
            self._self_contained = self.reduced and self._kernel.self_contained(
                self._bits, self._private)
        return self._self_contained

    @property
    def _witnesses(self) -> tuple[tuple[int, ...] | None, tuple[int, ...] | None]:
        if self._witness_pair is None:
            if self.reduced:
                self._witness_pair = self._kernel.disjoint_witnesses(
                    self.family, self._bits, self.semi_induced)
            else:
                self._witness_pair = None, None
        return self._witness_pair

    @property
    def self_disjoint_witness(self) -> tuple[int, ...] | None:
        return self._witnesses[0]

    @property
    def self_disjoint(self) -> bool:
        return self._witnesses[0] is not None

    @property
    def self_semi_disjoint_witness(self) -> tuple[int, ...] | None:
        return self._witnesses[1]

    @property
    def self_semi_disjoint(self) -> bool:
        return self._witnesses[1] is not None

    @property
    def self_ordered(self) -> bool:
        """A singleton is ordered, and the empty family only when there
        are no edges; two or more members only when reduced, and then in
        the order of ``family`` when ``ordered_in`` says so."""
        if self._self_ordered is None:
            if self.i <= 1:
                self._self_ordered = self.i == 1 or not self._kernel.masks
            else:
                self._self_ordered = self.reduced and self._kernel.ordered_in(self.family)
        return self._self_ordered


def _validate_family(h: Hypergraph, fam) -> tuple[int, ...]:
    """``fam`` as a tuple, once each index is an edge index of ``h`` and
    none repeats: its bitmask then has a bit per member."""
    fam, m = tuple(fam), h.m
    bits = 0
    for s in fam:
        if type(s) is not int or not 0 <= s < m:  # hypergraph._is_index, inlined
            raise IndexOutOfRange(f"edge index {s!r} out of range for {m} edges")
        bits |= 1 << s
    if bits.bit_count() != len(fam):
        raise ValidationError(f"family {fam} repeats an edge index")
    return fam


def classify(h: Hypergraph, fam) -> FamilyClassification:
    """Every family class of ``fam``, the costly ones decided on first
    read (order matters only for the ordered class, which is tested in
    the given order). Calls on the same edges share one kernel
    (``_kernel_of``)."""
    fam = _validate_family(h, fam)
    return FamilyClassification(_kernel_of(h.edges), fam)


# ---------------------------------------------------------------------------
# exhaustive survey of all families


class _Max:
    """Running maximum with the first witness kept on ties.

    ``survey`` offers families in lexicographic order on their sorted
    index tuples, so the kept witness is the lexicographically least
    optimum. ``bouquet_invariants`` offers tuples of bouquets.
    """

    __slots__ = ("value", "witness")

    def __init__(self):
        self.value = 0
        self.witness: tuple = ()

    def offer(self, value: int, witness: tuple) -> None:
        if value > self.value:
            self.value = value
            self.witness = witness


@dataclass
class FamilySurvey:
    """Aggregated facts about every edge family of a hypergraph.

    ``types`` maps ``self_disjoint`` and ``self_semi_disjoint`` to the
    (i, j) types of their families. ``counts_ssi`` and ``counts_scsi``
    count the self semi-induced and the self-contained semi-induced
    families per type, so their keys are those classes' types.
    ``maxima`` holds each invariant's value and first witness, a sorted
    tuple except for ``c`` and ``c_prime``, whose witnesses are least
    self-orderings.
    """

    types: dict[str, set[tuple[int, int]]]
    counts_ssi: dict[tuple[int, int], int]
    counts_scsi: dict[tuple[int, int], int]
    counts_induced_uniform: dict[tuple[int, int], int]  # (t, i) -> count
    maxima: dict[str, _Max]
    maxima_a_t: dict[int, _Max] = dc_field(default_factory=dict)


def _reduced_families(kernel: _Kernel):
    """Every reduced family of ``kernel``'s edges as ``(bits, fam, union,
    matching, private)``: an edge bitmask and a sorted tuple, its vertex
    union, whether it is a matching, and each member's private part (its
    vertices in no other member), in index order. Depth first, the empty
    family first, in lexicographic order of the tuples. An absorbed member
    stays absorbed when members join, so a family grows by an edge above
    its last index only when the grown family is reduced: the new edge has
    a vertex outside the union, and every old private part keeps a vertex
    outside the new edge. The first test is one AND, so a child that fails
    it is dropped before its private parts are built."""
    masks = kernel.masks
    # children are pushed last index first, so they pop in lexicographic order
    stack = [(0, (), 0, True, [])]
    while stack:
        bits, fam, u, matching, private = item = stack.pop()
        for s in range(len(masks) - 1, bits.bit_length() - 1, -1):
            mask = masks[s]
            new = mask & ~u
            if not new:
                continue
            child_private = [part & ~mask for part in private]
            if all(child_private):
                child_private.append(new)
                stack.append((bits | 1 << s, fam + (s,), u | mask, matching and not mask & u,
                              child_private))
        yield item


def survey(h: Hypergraph) -> FamilySurvey:
    """Classify every family of edges, walking ``_reduced_families``.

    A family with an absorbed member is in none of the classes surveyed,
    so only the reduced families are visited. On them each predicate runs
    only where its answer can change the result. The self disjoint tests
    run only on a family whose type is not yet in that class: a family of
    a type already seen cannot add a type, and its size and spread equal
    those of a family offered before it, so it cannot raise a maximum
    or, since ``_Max`` keeps the first witness on ties, change one. Every
    self disjoint family is self semi-disjoint, so the same skip leaves
    the semi-disjoint class unchanged too. The ordered types are not
    reported, only c and c', so the self ordered tests run only on a
    family that could raise c or c': one whose size exceeds c or whose
    spread exceeds c'.

    Most of those searches fail, and fail cheaply: ``least_ordering``
    rejects at its root, from the private parts the walk carries, a family
    where some outside edge holds no member's private part; and
    ``disjoint_witnesses`` ends as soon as an outside edge lies inside the
    union of the members every witness must hold, and looks for the
    disjoint witness among matchings only. Each keeps the first witness.

    Raises BudgetExceeded when the hypergraph has more than
    ``limits.FAMILY_BUDGET`` edges; the walk is exponential in the edge
    count by design.
    """
    # the searches on reduced families look up unions of their
    # sub-families; a full table beat unions filled on demand by 10-20%,
    # at 16 edges too
    kernel = _sweep_kernel(h)
    sizes, inside = kernel.sizes, kernel.inside

    types = {"self_disjoint": {(0, 0)}, "self_semi_disjoint": {(0, 0)}}
    counts_ssi = {(0, 0): 1}
    counts_scsi = {(0, 0): 1}
    counts_induced_uniform: dict[tuple[int, int], int] = {}
    maxima = {name: _Max() for name in
              ("m", "a", "b", "b_prime", "c", "c_prime", "d1", "d2",
               "d1_prime", "d2_prime", "e")}
    c, c_prime = maxima["c"], maxima["c_prime"]
    a_t: dict[int, _Max] = {}

    for bits, fam, u, matching, private in _reduced_families(kernel):
        if not bits:
            continue

        i = len(fam)
        j = u.bit_count()

        semi = inside(u) == bits

        if matching:
            maxima["m"].offer(i, fam)
        if matching and semi:
            maxima["a"].offer(i, fam)
            t = sizes[fam[0]]
            if all(sizes[k] == t for k in fam):
                counts_induced_uniform[t, i] = counts_induced_uniform.get((t, i), 0) + 1
                a_t.setdefault(t, _Max()).offer(i, fam)

        if semi:
            counts_ssi[i, j] = counts_ssi.get((i, j), 0) + 1
            maxima["b"].offer(i, fam)
            maxima["b_prime"].offer(j - i, fam)

        if kernel.self_contained(bits, private):
            counts_scsi[i, j] = counts_scsi.get((i, j), 0) + 1
            maxima["e"].offer(i, fam)

        if (i, j) not in types["self_disjoint"]:
            sd, ssd = kernel.disjoint_witnesses(fam, bits, semi)
            if ssd is not None:
                types["self_semi_disjoint"].add((i, j))
                maxima["d2"].offer(i, fam)
                maxima["d2_prime"].offer(j - i, fam)
            if sd is not None:
                types["self_disjoint"].add((i, j))
                maxima["d1"].offer(i, fam)
                maxima["d1_prime"].offer(j - i, fam)

        if i > c.value or j - i > c_prime.value:
            order = fam if i == 1 else kernel.least_ordering(bits, private)
            if order is not None:
                c.offer(i, order)
                c_prime.offer(j - i, order)

    return FamilySurvey(
        types=types,
        counts_ssi=counts_ssi,
        counts_scsi=counts_scsi,
        counts_induced_uniform=counts_induced_uniform,
        maxima=maxima,
        maxima_a_t=a_t,
    )


def self_ordered_witness(h: Hypergraph, fam) -> tuple[int, ...] | None:
    """Lexicographically least ordering of ``fam`` in the ordered class."""
    fam = tuple(sorted(_validate_family(h, fam)))
    kernel = _kernel_of(h.edges)
    cls = FamilyClassification(kernel, fam)
    if cls.i >= 2 and cls.reduced:
        return kernel.least_ordering(cls._bits, cls._private)
    return fam if cls.self_ordered else None


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

    A stem whose endpoints have no neighbour outside the covered vertices
    gains no flower and houses none whichever endpoint is its root, so it
    keeps orientation 0 and only the other stems are enumerated. The
    first maximal orientation stays the same: clearing such a stem's bit
    keeps the total and gives a smaller number, and that stem's flower is
    its other endpoint either way. An orientation's total is its stems
    plus the uncovered neighbours of its roots, so the flowers are built
    only for an orientation that beats the best so far.

    Raises BudgetExceeded when the graph has more than
    ``limits.FAMILY_BUDGET`` edges: the search orients every induced
    matching, exponential in the edge count.
    """
    _require_graph(h)
    _within_budget(h.m, "edges")
    adj = [0] * h.n
    for mask in h.edges:
        a, b = tuple_of(mask)
        adj[a] |= 1 << b
        adj[b] |= 1 << a

    best_total = _Max()
    best_count = _Max()

    for matching in _induced_matchings(h):
        size = len(matching)
        covered = 0
        for s in matching:
            covered |= h.edges[s]
        if size > best_count.value:
            best_count.offer(size, tuple(
                Bouquet(min(h.edge_vertices(s)), (max(h.edge_vertices(s)),)) for s in matching))
        endpoints = [h.edge_vertices(s) for s in matching]
        # orientation bit of each stem with a neighbour outside the cover
        live = mask_of(k for k, (a, b) in enumerate(endpoints) if (adj[a] | adj[b]) & ~covered)
        orient = 0
        for _ in range(1 << live.bit_count()):
            roots = [endpoints[k][orient >> k & 1] for k in range(size)]
            reach = 0
            for r in roots:
                reach |= adj[r]
            extra = reach & ~covered
            total = size + extra.bit_count()
            if total > best_total.value:
                flowers = [[endpoints[k][1 - (orient >> k & 1)]] for k in range(size)]
                for v in bits_of(extra):
                    flowers[next(k for k, r in enumerate(roots) if adj[r] >> v & 1)].append(v)
                best_total.offer(total, tuple(
                    Bouquet(roots[k], tuple(sorted(flowers[k]))) for k in range(size)))
            orient = (orient - live) & live  # the next submask of ``live``, increasing
    return BouquetReport(best_total.value, best_count.value, best_total.witness,
                         best_count.witness)


def _induced_matchings(h: Hypergraph) -> list[tuple[int, ...]]:
    """All induced matchings of ``h`` as sorted index tuples (empty omitted)."""
    kernel = _kernel_of(h.edges)
    return [tuple_of(bits) for bits in _matchings(h.edges, range(h.m))
            if bits and kernel.semi_induced(bits)]
