"""Independent brute-force family-class oracle used only by the test suite.

Written straight from the class definitions in the ``hyperbetti.families``
docstring and deliberately sharing no code with the package: edges are
frozensets of vertices, families are tuples of edge indices, and every
quantifier is spelled out over all candidates. Slow and obvious beats
fast and clever here.
"""

from __future__ import annotations

import functools
import itertools


def edge_sets(h):
    """The edges of a package hypergraph as frozensets of vertex ids."""
    return [frozenset(v for v in range(h.n) if mask >> v & 1) for mask in h.edges]


def union(edges, fam):
    return frozenset().union(*(edges[s] for s in fam))


def _outside(edges, fam):
    return [s for s in range(len(edges)) if s not in fam]


def _others(edges, fam, k):
    return union(edges, [t for t in fam if t != k])


def matching(edges, fam):
    return all(not edges[a] & edges[b] for a, b in itertools.combinations(fam, 2))


def semi_induced(edges, fam):
    u = union(edges, fam)
    return not any(edges[s] <= u for s in _outside(edges, fam))


def absorbed(edges, fam):
    """Members contained in the union of the other members."""
    return [k for k in fam if edges[k] <= _others(edges, fam, k)]


def reduced(edges, fam):
    return not absorbed(edges, fam)


def self_semi_induced(edges, fam):
    return semi_induced(edges, fam) and reduced(edges, fam)


def self_contained(edges, fam):
    u = union(edges, fam)
    return reduced(edges, fam) and all(
        any(edges[k] <= edges[s] | _others(edges, fam, k) for k in fam)
        for s in _outside(edges, fam) if edges[s] <= u)


def induced(edges, fam):
    return matching(edges, fam) and semi_induced(edges, fam)


def is_disjoint_witness(edges, fam, s0, require_matching):
    """S_0 inside the family, semi-induced (an induced matching when
    ``require_matching``), and every member outside S_0 differs from some
    member of S_0 by exactly one vertex: it has one vertex outside it."""
    if not set(s0) <= set(fam):
        return False
    if not semi_induced(edges, s0) or (require_matching and not matching(edges, s0)):
        return False
    return all(any(len(edges[s] - edges[k]) == 1 for k in s0)
               for s in fam if s not in s0)


def _sub_families(fam):
    for r in range(len(fam) + 1):
        yield from itertools.combinations(fam, r)


def first_disjoint_witness(edges, order, require_matching):
    """The witness the package reports: among all valid S_0 of a reduced
    family, the largest, and of equal sizes the first in the positions
    of ``order``."""
    if not reduced(edges, order):
        return None
    for r in range(len(order), -1, -1):
        for s0 in itertools.combinations(order, r):
            if is_disjoint_witness(edges, order, s0, require_matching):
                return s0
    return None


def self_disjoint(edges, fam):
    return first_disjoint_witness(edges, fam, True) is not None


def self_semi_disjoint(edges, fam):
    return first_disjoint_witness(edges, fam, False) is not None


def _outside_edges_ordered(edges, order):
    """Every outside edge S admits a position k below the last with S_k
    inside S together with the members after position k."""
    return all(
        any(edges[order[k]] <= edges[s] | union(edges, order[k + 1:])
            for k in range(len(order) - 1))
        for s in _outside(edges, order))


def self_ordered_in(edges, order):
    """The ordered class in exactly the order given."""
    if len(order) == 1:
        return True
    return reduced(edges, order) and _outside_edges_ordered(edges, order)


def first_self_ordering(edges, fam):
    """The first permutation of the sorted family in the ordered class,
    or None. Whether a family is reduced does not depend on its order,
    so it is tested once rather than for every permutation."""
    if len(fam) > 1 and not reduced(edges, fam):
        return None
    return next((perm for perm in itertools.permutations(sorted(fam))
                 if len(perm) == 1 or _outside_edges_ordered(edges, perm)), None)


def self_ordered_some_order(edges, fam):
    return first_self_ordering(edges, fam) is not None


UNORDERED_CLASSES = {
    "matching": matching,
    "semi_induced": semi_induced,
    "reduced": reduced,
    "self_semi_induced": self_semi_induced,
    "self_contained": self_contained,
    "induced": induced,
    "self_disjoint": self_disjoint,
    "self_semi_disjoint": self_semi_disjoint,
}


@functools.lru_cache(maxsize=4)
def _class_members(edges: tuple[frozenset[int], ...]) -> dict[str, list[tuple[int, ...]]]:
    """Every family of each class, the empty family included, the ordered
    class in some order. ``survey_facts`` and ``survey_maxima`` both read
    it, so the last few hypergraphs' answers are kept."""
    classes = dict(UNORDERED_CLASSES, self_ordered=self_ordered_some_order)
    families = list(_sub_families(tuple(range(len(edges)))))
    return {name: [fam for fam in families if holds(edges, fam)]
            for name, holds in classes.items()}


def survey_facts(edges):
    """What a sweep over every family must report: the (i, j) types of
    each class, the counts of self semi-induced and self-contained
    families per type, and the types that break the two basis
    hypotheses (a non-reduced family of type (i, j); a family of type
    (i + 1, j) with two absorbed members)."""
    members = _class_members(tuple(edges))

    def key(fam):
        return (len(fam), len(union(edges, fam)))

    types = {k: {key(fam) for fam in fams} for k, fams in members.items() if k != "reduced"}
    counts_ssi: dict[tuple[int, int], int] = {}
    counts_scsi: dict[tuple[int, int], int] = {}
    for counts, k in ((counts_ssi, "self_semi_induced"), (counts_scsi, "self_contained")):
        for fam in members[k]:
            counts[key(fam)] = counts.get(key(fam), 0) + 1
    hyp1, hyp2 = set(), set()
    for fam in _sub_families(tuple(range(len(edges)))):
        i, j = key(fam)
        if not reduced(edges, fam):
            hyp1.add((i, j))
        if len(absorbed(edges, fam)) >= 2:
            hyp2.add((i - 1, j))
    return types, counts_ssi, counts_scsi, hyp1, hyp2


def _size(edges, fam):
    return len(fam)


def _spread(edges, fam):
    """Vertices covered minus members."""
    return len(union(edges, fam)) - len(fam)


def _maximum(edges, members, value):
    """(value, witness) of the best family among ``members``: the largest
    value, then the lexicographically first sorted tuple. The empty
    family is the degenerate witness of value 0."""
    best = min([()] + members, key=lambda fam: (-value(edges, fam), fam))
    return value(edges, best), best


def survey_maxima(edges):
    """Each maximum a sweep over every family must report, as
    (value, lexicographically first witness): the sizes ``m``, ``a``,
    ``b``, ``c``, ``d1``, ``d2`` and ``e`` and the spreads ``b_prime``,
    ``c_prime``, ``d1_prime`` and ``d2_prime`` of their classes, and per
    edge size t the size of the largest induced matching of t-edges."""
    wanted = {"m": ("matching", _size), "a": ("induced", _size),
              "b": ("self_semi_induced", _size), "b_prime": ("self_semi_induced", _spread),
              "c": ("self_ordered", _size), "c_prime": ("self_ordered", _spread),
              "d1": ("self_disjoint", _size), "d2": ("self_semi_disjoint", _size),
              "d1_prime": ("self_disjoint", _spread), "d2_prime": ("self_semi_disjoint", _spread),
              "e": ("self_contained", _size)}
    members = {name: [fam for fam in fams if fam]
               for name, fams in _class_members(tuple(edges)).items()}
    maxima = {name: _maximum(edges, members[cls], value)
              for name, (cls, value) in wanted.items()}
    a_t = {}
    for t in sorted({len(e) for e in edges}):
        uniform = [fam for fam in members["induced"]
                   if all(len(edges[s]) == t for s in fam)]
        if uniform:
            a_t[t] = _maximum(edges, uniform, _size)
    return maxima, a_t
