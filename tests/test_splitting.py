"""Splitting decomposition and the recursive Betti engine."""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest

from hyperbetti import hypergraph, splitting
from hyperbetti.checks import run_checks
from hyperbetti.bitsets import bits_of
from hyperbetti.errors import (
    NotSimplicial,
    NotSpecialClass,
    NotTriangulated,
    SizeCapExceeded,
    ValidationError,
    ViolationFound,
)
from hyperbetti.families import compute_invariants
from hyperbetti.generators import make_batch
from hyperbetti.homology import betti_table
from hyperbetti.hypergraph import Hypergraph, build, delete_edge, is_triangulated
from hyperbetti.linalg import GF2, QQ
from hyperbetti.taylor import betti_via_taylor
from hyperbetti.splitting import (
    betti_recursive,
    canonical_key,
    split,
    split_sum,
    verify_disjointness_characterization,
    verify_matching_persistence,
    verify_split_extension,
)

import family_oracle as oracle
from conftest import cycle_graph, path_graph


def k43():
    return build(list("wxyz"), list(itertools.combinations(range(4), 3)))


def star_hypergraph(leaves: int):
    labels = ["z1", "z2"] + [f"x{i}" for i in range(1, leaves + 1)]
    return build(labels, [(0, 1, 2 + i) for i in range(leaves)])


def test_find_simplicial_vertex(p4, c4):
    assert hypergraph._least_simplicial(p4.edges, 2) == 0
    assert hypergraph._least_simplicial(c4.edges, 2) is None
    complete4 = build(list("abcd"), list(itertools.combinations(range(4), 2)))
    assert hypergraph._least_simplicial(complete4.edges, 2) == 0


def test_split_path_endpoint(p3):
    dec = split(p3)
    assert (dec.x, dec.s, dec.d, dec.t) == (0, 0, 2, 1)
    assert dec.neighbor_vertices == (2,)
    assert dec.neighbor_edges == (1,)
    assert dec.h1.m == 1 and dec.h1.n == 3
    assert dec.h2.n == 0 and dec.h2.m == 0
    assert dec.h1_edge_map == {1: 0}


def test_split_single_edge():
    h = build(list("abcd"), [(0, 1, 2)])
    dec = split(h)
    assert dec.t == 0 and dec.h1.m == 0
    assert dec.h2.n == 1 and dec.h2.m == 0  # only d survives


def test_split_star_leaf():
    h = star_hypergraph(2)
    dec = split(h)
    assert dec.x == 2  # the first leaf; core vertices are not simplicial
    assert dec.s == 0 and dec.t == 1
    assert dec.neighbor_vertices == (3,)
    assert dec.neighbor_edges == (1,)
    assert dec.h2.n == 0


def test_split_validation(c4, p4, triple_overlap):
    with pytest.raises(NotSimplicial):
        split(c4)
    with pytest.raises(NotSimplicial):
        split(p4, x=1)
    with pytest.raises(ValidationError):
        split(p4, x=0, s=2)
    with pytest.raises(NotSpecialClass):
        split(triple_overlap)
    with pytest.raises(ValidationError):
        split(build(["a", "b"], []))


def test_deleting_an_edge_can_leave_the_class():
    # the complete 3-uniform hypergraph on four vertices is triangulated,
    # but deleting any triple strands the remaining three without a
    # simplicial vertex; the recursion must still finish honestly
    h = k43()
    assert is_triangulated(h)
    assert not is_triangulated(delete_edge(h, 0))
    assert betti_recursive(h).entries == betti_table(h).entries


@pytest.mark.parametrize("maker", [
    lambda: path_graph(3),
    lambda: path_graph(6),
    lambda: cycle_graph(3),
    k43,
    lambda: star_hypergraph(3),
    lambda: build(list("abcdef"), [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)]),
])
def test_recursive_matches_hochster(maker):
    h = maker()
    assert betti_recursive(h).entries == betti_table(h).entries
    assert betti_recursive(h, GF2).entries == betti_table(h, GF2).entries


def test_recursive_bases():
    edgeless = build(["a", "b"], [])
    assert betti_recursive(edgeless).entries == {(0, 0): 1}
    single = build(list("abc"), [(0, 1, 2)])
    assert betti_recursive(single).entries == {(0, 0): 1, (1, 3): 1}


def test_split_sum_rebuilds_the_table(p6):
    # a tree, a star of triples and the complete 3-uniform hypergraph on four vertices
    tree = build(list("abcdef"), [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    for h in (p6, tree, star_hypergraph(3), k43()):
        dec = split(h)
        assert dec.t >= 1
        rebuilt = split_sum(dec.t, dec.d, betti_table(dec.h1).entries, betti_table(dec.h2).entries)
        assert rebuilt == betti_table(h).entries


def _node(key):
    return Hypergraph(tuple(str(v) for v in range(max(key).bit_length())), key)


def test_recursion_tests_each_node_for_triangulation_once(monkeypatch):
    # H2 is induced in a triangulated node, so it is triangulated untested;
    # only the root and the deletions H1 go through the elimination
    h = make_batch("special:3", 12, 12, 1, 65)[0]
    root_tests, tested, untested = [], [], []

    def recording(log, real):
        def wrapper(edges, d):
            log.append(tuple(edges))
            return real(edges, d)
        return wrapper

    monkeypatch.setattr(hypergraph, "_elimination_start",
                        recording(root_tests, hypergraph._elimination_start))
    monkeypatch.setattr(splitting, "_elimination_start",
                        recording(tested, splitting._elimination_start))
    monkeypatch.setattr(splitting, "_least_simplicial",
                        recording(untested, splitting._least_simplicial))
    assert betti_recursive(h).entries == betti_table(h).entries
    monkeypatch.undo()
    root = canonical_key(h.edges)
    assert root_tests == [h.edges] and untested[0] == root
    # the children of every node that split, by the public split
    h1s, h2s = set(), set()
    for key in untested + [key for key in tested if is_triangulated(_node(key))]:
        dec = split(_node(key))
        h1s.add(canonical_key(dec.h1.edges))
        h2s.add(canonical_key(dec.h2.edges))
    assert len(set(tested)) == len(tested) and not set(tested) & set(untested)
    assert set(tested) <= h1s and set(untested[1:]) <= h2s
    assert set(untested[1:]) - h1s
    # every node of two or more edges was examined, by one of the two
    assert {key for key in h1s | h2s if len(key) > 1} <= set(tested) | set(untested)


def test_recursion_raises_when_a_neighbor_edge_is_missing(monkeypatch):
    # outside the class: x = 0 is simplicial, but no edge through z = 3
    # avoids x with the rest inside the split edge {0,1,2}
    h = build(list("abcde"), [(0, 1, 2), (2, 3, 4)])
    monkeypatch.setattr(splitting, "require_special_class", lambda g: 3)
    assert is_triangulated(h)
    with pytest.raises(ViolationFound) as caught:
        betti_recursive(h)
    assert caught.value.check == "neighbor-edge"
    # the public split takes the same step, so it meets the same rule
    with pytest.raises(ViolationFound) as caught:
        split(h)
    assert caught.value.check == "neighbor-edge"


def _benchmark_scale_instances():
    seeded = [h for cls in ("special:3", "special:4", "chordal")
              for n, m in ((12, 14), (14, 14), (16, 16))
              for h in make_batch(cls, n, m, 2, 23)]
    # K4^3 beside a seeded special:3 instance on twelve more vertices
    side = make_batch("special:3", 12, 12, 1, 23)[0]
    labels = list("wxyz") + [f"v{v}" for v in range(side.n)]
    beside = build(labels, list(itertools.combinations(range(4), 3))
                   + [tuple(4 + v for v in bits_of(mask)) for mask in side.edges])
    return seeded + [k43(), beside]


@pytest.mark.parametrize("field", [QQ, GF2], ids=["QQ", "GF2"])
def test_recursive_matches_taylor_at_benchmark_scale(field, monkeypatch):
    instances = _benchmark_scale_instances()
    assert all(h.m <= 16 and is_triangulated(h) for h in instances)
    fallbacks = []
    real = splitting.betti_via_taylor

    def counting(g, f):
        fallbacks.append(f)
        return real(g, f)

    monkeypatch.setattr(splitting, "betti_via_taylor", counting)
    for h in instances:
        before = len(fallbacks)
        assert betti_recursive(h, field).entries == betti_via_taylor(h, field).entries, h.edges
        if h.edges[:4] == k43().edges:
            # deleting a triple of K4^3 leaves no simplicial vertex
            assert len(fallbacks) > before
    assert fallbacks and all(f is field for f in fallbacks)
    assert max(h.n for h in instances) == 16


def test_recursion_checks_the_class_at_the_root_only(monkeypatch):
    # H1 and H2 keep a subset of a node's edges, so they stay in the class
    h = make_batch("special:3", 12, 12, 1, 65)[0]
    profiled = []
    real_profile = splitting.uniformity_profile

    def counting_profile(g):
        profiled.append(g)
        return real_profile(g)

    monkeypatch.setattr(splitting, "uniformity_profile", counting_profile)
    assert betti_recursive(h).entries == betti_table(h).entries
    assert profiled == [h]


def test_recursive_rejections(c4, triple_overlap):
    with pytest.raises(NotTriangulated):
        betti_recursive(c4)
    with pytest.raises(NotSpecialClass):
        betti_recursive(triple_overlap)
    wide = build([f"v{i}" for i in range(17)], [(0, 1)])
    with pytest.raises(SizeCapExceeded):
        betti_recursive(wide)


def test_star_resolution_depth():
    # one strand per leaf: the whole edge set is self disjoint
    h = star_hypergraph(3)
    t = betti_recursive(h)
    assert t.projective_dimension() == 3
    assert t.regularity() == 2


def test_complete_uniform_invariants():
    t = betti_recursive(k43())
    inv = compute_invariants(k43()).as_dict()
    assert t.projective_dimension() == 2 == inv["d1"]
    assert t.regularity() == 2 == inv["d1_prime"]


def _held(comparisons):
    """How many comparisons a verifier yielded, each of which must hold."""
    yielded = list(comparisons)
    assert yielded == [None] * len(yielded), yielded
    return len(yielded)


def test_persistence_lemma_exhaustive(p6):
    assert _held(verify_matching_persistence(p6, split(p6, 0, 0))) > 0
    k = build(list("abcd"), list(itertools.combinations(range(4), 2)))
    for x in range(4):
        for s, mask in enumerate(k.edges):
            if mask >> x & 1:
                _held(verify_matching_persistence(k, split(k, x, s)))
    h = star_hypergraph(3)
    _held(verify_matching_persistence(h, split(h, 2, 0)))


def test_persistence_lemma_validation(p4):
    # the split checks the vertex and the edge before any family is swept
    with pytest.raises(NotSimplicial):
        verify_matching_persistence(p4, split(p4, 1, 1))
    with pytest.raises(ValidationError):
        verify_matching_persistence(p4, split(p4, 0, 2))


def test_extension_lemma(p4, p6):
    assert _held(verify_split_extension(p6, split(p6))) == 4
    assert _held(verify_split_extension(p4, split(p4))) > 0
    assert _held(verify_split_extension(k43(), split(k43()))) == 1
    h = star_hypergraph(3)
    assert _held(verify_split_extension(h, split(h))) > 0


def _every_family(m):
    return [fam for r in range(m + 1) for fam in itertools.combinations(range(m), r)]


def _verified_instances(p6):
    seeded = make_batch("special:3", 9, 6, 3, 7) + make_batch("chordal", 8, 8, 3, 7)
    return [p6, k43(), star_hypergraph(3)] + [h for h in seeded if h.m and is_triangulated(h)]


def test_verifier_counts_match_family_oracle(p6):
    """Each verifier checks every family the lemma speaks of, the empty
    family included, counted here over all families of H1 and H2."""
    for h in _verified_instances(p6):
        dec = split(h)
        e1, e2 = oracle.edge_sets(dec.h1), oracle.edge_sets(dec.h2)
        persistent = [fam for fam in _every_family(dec.h1.m)
                      if oracle.induced(e1, fam) or oracle.self_disjoint(e1, fam)]
        extended = [fam for fam in _every_family(dec.h2.m) if oracle.self_disjoint(e2, fam)]
        assert _held(verify_matching_persistence(h, dec)) == len(persistent), h.edges
        assert _held(verify_split_extension(h, dec)) == len(extended), h.edges


# On P6, with the classes of its families of two or more edges lost, the
# first family each verifier finds broken, and how many held before it.
_P6_FIRST_BROKEN = {
    "matching-persistence":
        (2, "self disjoint family (1, 2) of the deletion breaks in the full hypergraph"),
    "split-extension":
        (0, "family (0, 1) should be self disjoint of type (2, 3), got (2,3) disjoint=False"),
}


def test_verifiers_fail_when_the_full_hypergraph_loses_its_classes(p6, monkeypatch):
    real = splitting.FamilyClassification

    def classes_lost_in_h(kernel, fam):
        # h is the instance of the loop below, whose kernel shares its
        # edges; its families of fewer than ``kept`` edges keep their classes
        cls = real(kernel, fam)
        if kernel.masks is not h.edges or len(fam) < kept:
            return cls
        return SimpleNamespace(i=cls.i, j=cls.j, induced=False, self_disjoint=False)

    monkeypatch.setattr(splitting, "FamilyClassification", classes_lost_in_h)
    verifiers = {"matching-persistence": verify_matching_persistence,
                 "split-extension": verify_split_extension}
    for kept in (0, 2):
        held_first = set()
        for h in _verified_instances(p6):
            dec = split(h)
            results = {r.name: r for r in run_checks(h).checks}
            for name, verify in verifiers.items():
                yielded = list(verify(h, dec))
                first = next(k for k, detail in enumerate(yielded) if detail is not None)
                # the campaign stops at the first detail and counts the families before it
                result = results[name]
                assert (result.status, result.checked, result.detail) == (
                    "fail", first, yielded[first]), (name, h.edges)
                if first:
                    held_first.add(name)
                if kept and h is p6:
                    assert (first, yielded[first]) == _P6_FIRST_BROKEN[name]
        # with every family of H broken, the empty family already is
        assert held_first == (set(verifiers) if kept else set())


def test_characterization_on_trees_and_stars(p6):
    tree = build(list("abcdef"), [(0, 1), (1, 2), (1, 3), (3, 4), (3, 5)])
    for h in (p6, tree):
        rep = verify_disjointness_characterization(h)
        inv = compute_invariants(h).as_dict()
        assert rep["pd"] == inv["d_g"]
        assert rep["reg"] == inv["d_g_prime"] == inv["a"]
    rep = verify_disjointness_characterization(star_hypergraph(2))
    assert rep["pd"] == 2 and rep["reg"] == 2


def test_characterization_raises_on_a_wrong_table(p6, monkeypatch):
    monkeypatch.setattr(splitting, "betti_recursive",
                        lambda h, field=QQ: betti_table(path_graph(5)))
    with pytest.raises(ViolationFound, match="relation nonzero_positions==self_disjoint_types"):
        verify_disjointness_characterization(p6)


def test_canonical_key_stability():
    a = path_graph(6)
    b = build([f"v{i}" for i in range(6)], [(5 - i, 4 - i) for i in range(5)])
    assert canonical_key(a.edges) == canonical_key(b.edges)
    # vertices are renumbered in order, not up to isomorphism: a star
    # keeps its key when shifted, and may change it when its root moves
    root_first = build(list("rabc"), [(0, 1), (0, 2), (0, 3)])
    shifted = build(list("xyrabc"), [(2, 3), (2, 4), (2, 5)])
    root_last = build(list("abcr"), [(0, 3), (1, 3), (2, 3)])
    assert canonical_key(root_first.edges) == canonical_key(shifted.edges) == (0b0011, 0b0101, 0b1001)
    assert canonical_key(root_last.edges) == (0b1001, 0b1010, 0b1100)
    assert canonical_key(path_graph(3).edges) != canonical_key(cycle_graph(3).edges)
    # isolated vertices do not affect the key, below, between or above the edges
    padded = build([f"v{i}" for i in range(9)], [(i, i + 1) for i in range(5)])
    assert canonical_key(padded.edges) == canonical_key(a.edges)
    gaps = build([f"v{i}" for i in range(9)], [(1, 3), (5, 7)])
    assert canonical_key(gaps.edges) == (0b0011, 0b1100)
    assert canonical_key([]) == ()
