"""Family classification, matching invariants, and bouquet sets."""

from __future__ import annotations

import itertools
import random
import time

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import hyperbetti.checks as checks
from hyperbetti import families, limits
from hyperbetti.bitsets import bits_of, mask_of
from hyperbetti.errors import (
    BudgetExceeded,
    IndexOutOfRange,
    NotAGraph,
    ValidationError,
)
from hyperbetti.families import (
    bouquet_invariants,
    classify,
    compute_invariants,
    self_ordered_witness,
    survey,
)
from hyperbetti.generators import make_batch, random_free_vertex, star_hypergraph
from hyperbetti.hypergraph import build, from_edge_labels
from hyperbetti.linalg import QQ
from hyperbetti.taylor import analyze_taylor

import family_oracle as oracle
from conftest import path_graph


@st.composite
def sized_hypergraphs(draw, max_n=7, max_m=6):
    """Antichains of three to ``max_m`` edges, enough for families to
    interact; a filtered list of random edges mostly keeps one or two."""
    n = draw(st.integers(min_value=4, max_value=max_n))
    target = draw(st.integers(min_value=3, max_value=max_m))
    edges: list[frozenset[int]] = []
    for _ in range(4 * max_m):
        cand = frozenset(draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=n - 1)))
        if not any(cand <= e or e <= cand for e in edges):
            edges.append(cand)
            if len(edges) == target:
                break
    assume(len(edges) >= 3)
    return build([f"v{i}" for i in range(n)], [tuple(sorted(e)) for e in edges])


@st.composite
def graphs(draw, max_n=7, max_m=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
                lambda p: (min(p), max(p))
            ).filter(lambda p: p[0] != p[1]),
            max_size=max_m,
        )
    )
    return build([f"v{i}" for i in range(n)], sorted(pairs))


# ---------------------------------------------------------------------------
# classification of single families


def test_triangle_pair_contained_but_not_semi_induced(c3):
    cls = classify(c3, (0, 1))
    assert cls.reduced
    assert cls.self_contained
    assert not cls.semi_induced  # the third edge sits inside the union
    assert not cls.self_semi_induced
    assert not cls.matching


def test_path_end_edges_induced_only_with_a_gap(p4):
    # in P4 the middle edge sits inside the union of the end edges
    cls = classify(p4, (0, 2))
    assert cls.matching and cls.reduced
    assert not cls.semi_induced and not cls.induced
    assert not cls.self_semi_disjoint
    p5 = path_graph(5)
    cls5 = classify(p5, (0, 3))
    assert cls5.matching and cls5.semi_induced and cls5.induced
    assert cls5.self_disjoint and cls5.self_disjoint_witness == (0, 3)
    assert (cls5.i, cls5.j) == (2, 4)


def test_path_adjacent_pair_disjoint_but_not_matching(p4):
    cls = classify(p4, (0, 1))
    assert not cls.matching
    assert cls.reduced
    assert cls.self_disjoint
    assert cls.self_disjoint_witness == (0,)


def test_singleton_family_is_induced(p4):
    cls = classify(p4, (1,))
    assert cls.matching and cls.induced and cls.self_ordered
    assert (cls.i, cls.j) == (1, 2)


def test_empty_family(p4):
    cls = classify(p4, ())
    assert (cls.i, cls.j) == (0, 0)
    assert cls.matching and cls.semi_induced and cls.reduced
    assert cls.induced and cls.self_disjoint and cls.self_semi_disjoint
    assert not cls.self_ordered  # edges exist, none ordered first


def test_empty_family_on_edgeless_graph():
    h = build(["a", "b"], [])
    cls = classify(h, ())
    assert cls.self_ordered
    assert compute_invariants(h).as_dict()["m"] == 0


def test_non_reduced_triangle(c3):
    cls = classify(c3, (0, 1, 2))
    assert not cls.reduced
    assert not cls.self_semi_disjoint
    assert cls.matching is False


def test_triple_overlap_full_family(triple_overlap):
    cls = classify(triple_overlap, (0, 1, 2))
    assert cls.reduced and cls.self_semi_induced
    assert cls.self_semi_disjoint and not cls.self_disjoint
    # the scan prefers the largest witness, here the family itself
    assert cls.self_semi_disjoint_witness == (0, 1, 2)
    # a smaller witness also satisfies the defining condition
    part = classify(triple_overlap, (0, 2))
    assert part.self_semi_induced


def test_unsorted_family_breaks_witness_ties_by_position():
    # the witness scan walks the family in the order given, so of two
    # equally large witnesses the one at the earlier position wins, not
    # the one with the smaller edge index
    h = build([f"v{i}" for i in range(5)], [(2, 3), (0, 4), (1, 4), (0, 3)])
    cls = classify(h, (2, 1))
    assert cls.self_disjoint_witness == (2,)
    assert cls.self_semi_disjoint_witness == (2, 1)
    assert classify(h, (1, 2)).self_disjoint_witness == (1,)


def _book(pages: int):
    """``pages`` edges {0, 1, x}: every two are one vertex apart, and no
    two are disjoint."""
    return build([f"v{i}" for i in range(pages + 2)], [(0, 1, 2 + k) for k in range(pages)])


def test_book_finds_its_disjoint_witness_among_matchings(monkeypatch):
    # The whole book is self semi-induced, so it is its own first
    # semi-disjoint witness; the disjoint witness is the first single
    # page, and the search reaches it without testing the non-matchings.
    real, calls = families._Kernel.matching, []

    def matching(kernel, bits):
        calls.append(bits)
        return real(kernel, bits)

    monkeypatch.setattr(families._Kernel, "matching", matching)
    h = _book(14)
    cls = classify(h, range(14))
    assert cls.self_disjoint_witness == (0,)
    assert cls.self_semi_disjoint_witness == tuple(range(14))
    assert len(calls) <= 2 * 14


def test_witnesses_match_family_oracle_on_every_reduced_family():
    """Against the oracle's scan over every sub-family, on a corpus where
    nearly every semi-disjoint witness is not a matching, so the disjoint
    one comes from the search among matchings."""
    not_matching = 0
    for h in make_batch("special:3", 14, 8, 2, 19):
        edges = oracle.edge_sets(h)
        kernel = families._sweep_kernel(h)
        for bits, fam, _, _, _ in families._reduced_families(kernel):
            sd, ssd = kernel.disjoint_witnesses(fam, bits, kernel.semi_induced(bits))
            assert sd == oracle.first_disjoint_witness(edges, fam, True), (fam, edges)
            assert ssd == oracle.first_disjoint_witness(edges, fam, False), (fam, edges)
            not_matching += ssd is not None and not oracle.matching(edges, ssd)
    assert not_matching


def test_an_outside_edge_inside_the_forced_union_ends_the_search(monkeypatch):
    # Edges 0 and 1 are one vertex away from no member, so every witness
    # holds both, and with them edge 2, which lies outside the family:
    # the family itself is not semi-induced, which the classification
    # already holds, and the search tries no candidate with the free
    # members 3 and 4. Every semi-induced test of the search, the closure
    # test and each candidate's, is one ``inside`` lookup of a union, and
    # each member has a private vertex, so the unions name the families
    # tested: only the forced members 0b11 are.
    h = build([f"v{i}" for i in range(7)], [(0, 1), (2, 3), (1, 2), (4, 5), (4, 6)])
    fam = (0, 1, 3, 4)
    cls = classify(h, fam)
    assert cls.reduced and not cls.semi_induced
    real, calls = families._Kernel.inside, []

    def inside(kernel, u):
        calls.append(u)
        return real(kernel, u)

    monkeypatch.setattr(families._Kernel, "inside", inside)
    assert (cls.self_disjoint_witness, cls.self_semi_disjoint_witness) == (None, None)
    assert calls == [h.edges[0] | h.edges[1]]
    edges = oracle.edge_sets(h)
    assert oracle.first_disjoint_witness(edges, fam, False) is None


def test_classify_rejects_bad_indices(p3):
    with pytest.raises(IndexOutOfRange):
        classify(p3, (0, 5))
    with pytest.raises(ValidationError):
        classify(p3, (1, 1))


def test_indices_must_be_ints_not_bools(p3):
    # True == 1, so a bool index would otherwise pass the range test and
    # stay in the classified family, while a float index raised TypeError
    for fam in [(True, 2), (0, False), (1.0,), ("0",)]:
        with pytest.raises(IndexOutOfRange):
            classify(p3, fam)
        with pytest.raises(IndexOutOfRange):
            self_ordered_witness(p3, fam)
    for bad in (True, False, 1.0):
        with pytest.raises(IndexOutOfRange):
            p3.edge_mask(bad)
        with pytest.raises(IndexOutOfRange):
            p3.check_vertex(bad)


# ---------------------------------------------------------------------------
# the ordered class depends on the order


def test_self_ordered_depends_on_order(p4):
    assert not classify(p4, (0, 1)).self_ordered
    assert classify(p4, (1, 0)).self_ordered
    assert self_ordered_witness(p4, (0, 1)) == (1, 0)


def test_four_cycle_has_no_ordered_pair(c4):
    for pair in itertools.permutations(range(4), 2):
        assert not classify(c4, pair).self_ordered
    assert compute_invariants(c4).as_dict()["c"] == 1


def test_singleton_always_ordered(c4):
    assert classify(c4, (2,)).self_ordered


def _assert_ordered_entry_points_agree(h, order):
    edges = oracle.edge_sets(h)
    expected = oracle.self_ordered_in(edges, order)
    assert classify(h, order).self_ordered == expected, (order, edges)
    witness = self_ordered_witness(h, order)
    assert witness == oracle.first_self_ordering(edges, order), (order, edges)
    assert witness is None or oracle.self_ordered_in(edges, witness)


def test_ordered_entry_points_agree_on_degenerate_cases(p4, c3):
    # An antichain has no absorbed pair (one edge would contain the
    # other), so the absorbed family here is the triangle's three edges.
    edgeless = build(["a", "b"], [])
    for h, order in ((edgeless, ()), (p4, ()), (p4, (1,)), (c3, (2,)), (c3, (0, 1, 2)),
                     (c3, (2, 0, 1)), (p4, (0, 1)), (p4, (1, 0))):
        _assert_ordered_entry_points_agree(h, order)


def test_ordered_entry_points_agree_on_every_family():
    for spec, n, m in (("general", 6, 6), ("chordal", 7, 6), ("special:3", 9, 6)):
        for h in make_batch(spec, n, m, 3, 23):
            for r in range(h.m + 1):
                for fam in itertools.combinations(range(h.m), r):
                    _assert_ordered_entry_points_agree(h, fam)
                    _assert_ordered_entry_points_agree(h, fam[::-1])


def test_searches_refuse_families_above_the_budget():
    star = star_hypergraph(2, limits.FAMILY_BUDGET + 1)
    fam = tuple(range(star.m))
    cls = classify(star, fam)
    assert (cls.i, cls.j, cls.matching, cls.semi_induced, cls.reduced, cls.induced) == (
        star.m, star.m + 1, False, True, True, False)
    assert cls.self_contained and cls.self_ordered
    start = time.perf_counter()
    for read in (lambda: cls.self_disjoint, lambda: cls.self_semi_disjoint_witness,
                 lambda: self_ordered_witness(star, fam)):
        with pytest.raises(BudgetExceeded, match=f"{star.m} members"):
            read()
    assert time.perf_counter() - start < 1


# ---------------------------------------------------------------------------
# invariants on worked examples


def test_invariants_triangle(c3):
    d = compute_invariants(c3).as_dict()
    assert d["m"] == 1 and d["a"] == 1
    assert d["b"] == 1 and d["e"] == 2
    assert d["c"] == 2 and d["d1"] == 2 and d["d2"] == 2
    assert d["d_g"] == 2 and d["d_g_prime"] == 1


def test_invariants_paths(p3, p4, p6):
    d3 = compute_invariants(p3).as_dict()
    assert d3["a"] == 1 and d3["b"] == 2 and d3["m"] == 1
    d4 = compute_invariants(p4).as_dict()
    assert d4["a"] == 1 and d4["m"] == 2
    d6 = compute_invariants(p6).as_dict()
    assert d6["a"] == 2 and d6["b"] == 3 and d6["m"] == 3
    assert d6["d_g"] == 4 and d6["d_g_prime"] == 2
    assert d6["a_t"] == {2: 2}


def test_invariants_four_cycle(c4):
    d = compute_invariants(c4).as_dict()
    assert d["e"] == 2 and d["c"] == 1 and d["b"] == 2
    assert d["d_g"] == 2 and d["d_g_prime"] == 1


def test_invariants_triple_overlap(triple_overlap):
    d = compute_invariants(triple_overlap).as_dict()
    assert d["d1"] == 2 and d["d2"] == 3
    assert d["b"] == 3 and d["b_prime"] == 3
    assert d["a_t"] == {3: 1}
    assert "d_g" not in d


def test_invariants_mixed_sizes():
    h = from_edge_labels([["a", "b"], ["c", "d", "e"]])
    d = compute_invariants(h).as_dict()
    assert d["m"] == 2 and d["a"] == 2
    assert d["a_t"] == {2: 1, 3: 1}


def test_witnesses_have_the_reported_class(p6, triple_overlap, c4):
    for h in (p6, triple_overlap, c4):
        inv = compute_invariants(h)
        w = inv.witnesses
        assert classify(h, w["a"]).induced
        assert classify(h, w["b"]).self_semi_induced
        assert classify(h, w["d1"]).self_disjoint
        assert classify(h, w["d2"]).self_semi_disjoint
        assert classify(h, w["e"]).self_contained
        assert classify(h, w["c"]).self_ordered
        assert len(w["a"]) == inv.values["a"]
        assert len(w["d2"]) == inv.values["d2"]


def test_sweep_table_holds_every_union():
    for h in make_batch("general", 9, 10, 2, 3) + [_book(5), build(["a"], [])]:
        kernel = families._sweep_kernel(h)
        unions = families._Unions(h.edges)
        assert len(kernel.union) == 1 << h.m
        assert all(kernel.union[bits] == unions[bits] for bits in range(1 << h.m))


def test_survey_budget(p4, monkeypatch):
    star = build([f"v{i}" for i in range(18)], [(0, i) for i in range(1, 18)])
    with pytest.raises(BudgetExceeded):
        survey(star)
    # eight disjoint 3-vertex paths and an edge: 17 edges, whose bouquet
    # search would orient the stems of its 2 * 3^8 - 1 induced matchings
    paths = build([f"v{i}" for i in range(26)],
                  [(3 * k + a, 3 * k + a + 1) for k in range(8) for a in (0, 1)] + [(24, 25)])
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        bouquet_invariants(paths)
    assert time.perf_counter() - start < 1.0
    monkeypatch.setattr(limits, "FAMILY_BUDGET", 2)
    with pytest.raises(BudgetExceeded):
        survey(p4)
    monkeypatch.setattr(limits, "FAMILY_BUDGET", 3)
    assert survey(p4).maxima["m"].value == 2


def test_survey_types_match_classify(p4, c4, triple_overlap):
    kinds = ("self_disjoint", "self_semi_disjoint")
    for h in (p4, c4, triple_overlap):
        sv = survey(h)
        seen: dict[str, set[tuple[int, int]]] = {k: {(0, 0)} for k in kinds}
        for r in range(1, h.m + 1):
            for fam in itertools.combinations(range(h.m), r):
                cls = classify(h, fam)
                for k in kinds:
                    if getattr(cls, k):
                        seen[k].add((cls.i, cls.j))
        for k in kinds:
            assert sv.types[k] == seen[k], (k, h.edges)


@settings(max_examples=60, deadline=None)
@given(sized_hypergraphs(), st.randoms(use_true_random=False))
def test_classify_matches_family_oracle(h, rnd):
    """Attributes are read in a shuffled order, so each class computed on
    first read is checked whichever attribute triggers it."""
    edges = oracle.edge_sets(h)
    for r in range(h.m + 1):
        for fam in itertools.combinations(range(h.m), r):
            order = list(fam)
            rnd.shuffle(order)
            expected = {name: holds(edges, fam) for name, holds in oracle.UNORDERED_CLASSES.items()}
            expected.update(
                family=tuple(order), i=len(fam), j=len(oracle.union(edges, fam)),
                self_ordered=oracle.self_ordered_in(edges, order),
                self_disjoint_witness=oracle.first_disjoint_witness(edges, order, True),
                self_semi_disjoint_witness=oracle.first_disjoint_witness(edges, order, False))
            names = list(expected)
            rnd.shuffle(names)
            cls = classify(h, order)
            for name in names:
                assert getattr(cls, name) == expected[name], (name, order, edges)
            private = [edges[k] - oracle.union(edges, [t for t in fam if t != k]) for k in fam]
            for kernel in (families._Kernel(h.edges), families._sweep_kernel(h)):
                parts = kernel.private_parts(mask_of(fam))
                assert [set(bits_of(part)) for part in parts] == private, (fam, edges)
            for witness, matching in ((cls.self_disjoint_witness, True),
                                      (cls.self_semi_disjoint_witness, False)):
                if witness is not None:
                    assert oracle.is_disjoint_witness(edges, fam, witness, matching)


def _oracle_classification(edges, order) -> dict:
    """Every attribute of the classification of ``order``, by the oracle."""
    expected = {name: holds(edges, order) for name, holds in oracle.UNORDERED_CLASSES.items()}
    expected.update(
        family=order, i=len(order), j=len(oracle.union(edges, order)),
        self_ordered=oracle.self_ordered_in(edges, order),
        self_disjoint_witness=oracle.first_disjoint_witness(edges, order, True),
        self_semi_disjoint_witness=oracle.first_disjoint_witness(edges, order, False))
    return expected


def test_the_classify_kernel_follows_the_hypergraph():
    # classify keeps the kernel of the last hypergraph it saw, so each
    # call below must read its own hypergraph's edges: the path and the
    # star have equal n and m and other edges, the pair of triangles equal
    # n and other m, the wide matching equal m and other n, and the
    # relabelled path the path's edges under other labels.
    names = [f"v{i}" for i in range(5)]
    path = build(names, [(0, 1), (1, 2), (2, 3)])
    star = build(names, [(0, 1), (0, 2), (0, 3)])
    pair = build(names, [(0, 1, 2), (2, 3, 4)])
    wide = build(names + ["v5"], [(0, 1), (2, 3), (4, 5)])
    relabelled = build([f"w{i}" for i in range(5)], [(0, 1), (1, 2), (2, 3)])
    for h in (path, star, path, pair, star, wide, path, relabelled, star, pair, wide):
        edges = oracle.edge_sets(h)
        for r in range(h.m + 1):
            for fam in itertools.combinations(range(h.m), r):
                order = fam[::-1]
                cls = classify(h, order)
                for name, value in _oracle_classification(edges, order).items():
                    assert getattr(cls, name) == value, (name, order, h)
                assert self_ordered_witness(h, order) == oracle.first_self_ordering(edges, fam)


def _clutters(n: int):
    """Every clutter on the vertices 0..n-1 with edges of two or more
    vertices, the edgeless one included, edges in lexicographic order."""
    candidates = [edge for r in range(2, n + 1) for edge in itertools.combinations(range(n), r)]
    for k in range(len(candidates) + 1):
        for chosen in itertools.combinations(candidates, k):
            if not any(set(a) <= set(b) for a, b in itertools.permutations(chosen, 2)):
                yield build([f"v{i}" for i in range(n)], chosen)


def test_eager_classes_match_family_oracle_on_every_small_clutter():
    """Through an on-demand and a sweep kernel, every family, the empty
    one included, each given in decreasing index order."""
    seen = 0
    for n in range(5):
        for h in _clutters(n):
            edges = oracle.edge_sets(h)
            for kernel in (families._kernel_of(h.edges), families._sweep_kernel(h)):
                for r in range(h.m + 1):
                    for fam in itertools.combinations(range(h.m), r):
                        order = fam[::-1]
                        cls = families.FamilyClassification(kernel, order)
                        expected = _oracle_classification(edges, order)
                        for name in _EAGER:
                            assert getattr(cls, name) == expected[name], (name, order, edges)
                        seen += 1
    # 1, 1, 2, 9 and 114 clutters on 0-4 vertices, with 1101 families
    assert seen == 2 * 1101


@settings(max_examples=40, deadline=None)
@given(sized_hypergraphs())
# Type (2, 5) here: the first self semi-disjoint family, (1, 2), is not
# self disjoint and the next, (1, 3), is, so the self disjoint class must
# not be skipped on a type the semi-disjoint class already has.
@example(h=build([f"v{i}" for i in range(7)],
                 [(1, 2, 3, 4, 5, 6), (0, 2, 6), (0, 1, 5), (0, 1, 2, 4)]))
# Every edge has a private vertex here, so every family is reduced, which
# the drawn instances almost never are.
@example(h=random_free_vertex(5, 1))
@example(h=random_free_vertex(6, 2))
def test_survey_matches_family_oracle(h):
    _assert_survey_matches_oracle(h)
    _assert_taylor_hypotheses_match_oracle(h)


def _assert_survey_matches_oracle(h):
    types, counts_ssi, counts_scsi, _, _ = oracle.survey_facts(oracle.edge_sets(h))
    sv = survey(h)
    assert sv.types == {k: types[k] for k in ("self_disjoint", "self_semi_disjoint")}
    assert sv.counts_ssi == counts_ssi
    assert sv.counts_scsi == counts_scsi
    maxima, a_t = oracle.survey_maxima(oracle.edge_sets(h))
    # the survey lists the ordered class's witnesses in their least self-ordering
    for name in ("c", "c_prime"):
        value, witness = maxima[name]
        if witness:
            maxima[name] = value, oracle.first_self_ordering(oracle.edge_sets(h), witness)
    assert {name: (mx.value, mx.witness) for name, mx in sv.maxima.items()} == maxima
    assert {t: (mx.value, mx.witness) for t, mx in sv.maxima_a_t.items()} == a_t


def _assert_taylor_hypotheses_match_oracle(h):
    """Both basis hypotheses of ``analyze_taylor`` at every type (i, j)
    with i up to m + 1, against the oracle's violations."""
    *_, hyp1, hyp2 = oracle.survey_facts(oracle.edge_sets(h))
    an = analyze_taylor(h)
    for i in range(h.m + 2):
        for j in range(h.n + 1):
            assert an.families_all_reduced(i, j) == ((i, j) not in hyp1), (i, j, h.edges)
            assert an.absorbing_families_stay_reduced(i, j) == ((i, j) not in hyp2), (i, j, h.edges)


# (class, vertices, edges): 8 to 10 edges, above the 3 to 6 that
# sized_hypergraphs draws, where families overlap in more ways and the
# hypothesis sets have room to differ; all fit FAMILY_BUDGET. special:3 needs
# about 1.6 vertices per edge to reach its edge count, and its families
# are mostly reduced, so the oracle tries every order of each: 1 s per
# instance at 8 edges, 10 s at 9.
_LARGER = [("general", 9, 8), ("general", 9, 10), ("uniform:3", 8, 9), ("uniform:3", 9, 10),
           ("chordal", 9, 9), ("chordal", 10, 10), ("special:3", 14, 8)]


@pytest.mark.parametrize("spec,n,m", _LARGER)
def test_survey_matches_family_oracle_on_larger_instances(spec, n, m):
    for h in make_batch(spec, n, m, 2, 19):
        assert h.m == m
        _assert_survey_matches_oracle(h)
        _assert_taylor_hypotheses_match_oracle(h)


def test_survey_visits_each_reduced_family_once(monkeypatch):
    """``self_contained`` runs once on every family the walk visits, so
    its calls list the visited families; the searches see reduced
    families only, each at most once."""
    calls = _count_costly_calls(monkeypatch, ("self_contained", "disjoint_witnesses",
                                              "least_ordering"))
    for h in make_batch("general", 9, 10, 2, 3) + make_batch("chordal", 9, 9, 2, 3):
        for seen in calls.values():
            seen.clear()
        survey(h)
        edges = oracle.edge_sets(h)
        reduced = [fam for r in range(1, h.m + 1)
                   for fam in itertools.combinations(range(h.m), r) if oracle.reduced(edges, fam)]
        assert [tuple(bits_of(bits)) for bits in calls["self_contained"]] == sorted(reduced)
        searched = calls["disjoint_witnesses"] + [tuple(bits_of(bits))
                                                  for bits in calls["least_ordering"]]
        assert searched and all(oracle.reduced(edges, fam) for fam in searched)
        assert len(set(calls["disjoint_witnesses"])) == len(calls["disjoint_witnesses"])
        assert len(set(calls["least_ordering"])) == len(calls["least_ordering"])


def test_survey_searches_orders_only_where_c_or_c_prime_can_rise(monkeypatch):
    """``least_ordering`` runs only on a family whose size i or spread
    j - i exceeds the c or c' of the self-ordered families the walk
    offered before it, and on fewer families than the reduced ones of
    two or more members; c and c' and their witnesses are the oracle's.
    The oracle decides the ordered class only where a family could raise
    its running maxima, since no other family can change them."""
    calls = _count_costly_calls(monkeypatch, ("least_ordering",))["least_ordering"]
    for h in (make_batch("general", 10, 12, 2, 5) + make_batch("uniform:3", 9, 13, 2, 5)
              + make_batch("chordal", 10, 10, 2, 5)):
        calls.clear()
        sv = survey(h)
        edges = oracle.edge_sets(h)
        walk = sorted(fam for r in range(1, h.m + 1)
                      for fam in itertools.combinations(range(h.m), r))
        c, c_prime = (0, ()), (0, ())
        for fam in walk:
            size, spread = len(fam), len(oracle.union(edges, fam)) - len(fam)
            if size > c[0] or spread > c_prime[0]:
                order = oracle.first_self_ordering(edges, fam)
                if order is not None and size > c[0]:
                    c = size, order
                if order is not None and spread > c_prime[0]:
                    c_prime = spread, order
            elif len(fam) > 1:
                assert mask_of(fam) not in calls, (fam, edges)
        assert (sv.maxima["c"].value, sv.maxima["c"].witness) == c, edges
        assert (sv.maxima["c_prime"].value, sv.maxima["c_prime"].witness) == c_prime, edges
        assert calls == sorted(set(calls), key=lambda bits: tuple(bits_of(bits)))
        reduced = sum(len(fam) > 1 and oracle.reduced(edges, fam) for fam in walk)
        assert 0 < len(calls) < reduced


@settings(max_examples=60, deadline=None)
@given(sized_hypergraphs(), st.randoms(use_true_random=False))
# Ordering (0, 2, 3, 4) here: the prefixes (0, 2) and (2, 0) leave the
# same members {3, 4} to place, but only (2, 0) has witnessed outside
# edge 6, so a search whose states forgot the unwitnessed edges would
# return (2, 3, 0, 4) instead of (2, 0, 3, 4).
@example(h=build([f"v{i}" for i in range(6)],
                 [(0, 2), (1, 5), (0, 4), (1, 3), (3, 5), (0, 1), (4, 5)]),
         rnd=random.Random(0))
def test_self_ordered_witness_matches_family_oracle(h, rnd):
    """Every family, sorted and shuffled: absorbed ones, the empty family
    and singletons included."""
    edges = oracle.edge_sets(h)
    for r in range(h.m + 1):
        for fam in itertools.combinations(range(h.m), r):
            expected = oracle.first_self_ordering(edges, fam)
            order = list(fam)
            rnd.shuffle(order)
            assert self_ordered_witness(h, fam) == expected, (fam, edges)
            assert self_ordered_witness(h, order) == expected, (order, edges)


# Kernel predicates behind the classes computed on first read.
_COSTLY = ("disjoint_witnesses", "self_contained", "ordered_in")


def _count_costly_calls(monkeypatch, names=_COSTLY) -> dict[str, list]:
    """Record the family argument of each call to the kernel methods
    ``names``, the first argument; the facts that follow it pass through."""
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(families._Kernel, name)

        def counted(kernel, arg, *rest, real=real, seen=calls[name]):
            seen.append(arg)
            return real(kernel, arg, *rest)

        monkeypatch.setattr(families._Kernel, name, counted)
    return calls


_EAGER = ("family", "i", "j", "matching", "semi_induced", "reduced", "self_semi_induced",
          "induced")


def test_eager_classes_call_no_costly_predicate(monkeypatch):
    calls = _count_costly_calls(monkeypatch)
    classes = [classify(h, fam) for h in make_batch("general", 7, 8, 3, 1)
               for r in range(h.m + 1) for fam in itertools.combinations(range(h.m), r)]
    for cls in classes:
        for name in _EAGER:
            getattr(cls, name)
    assert calls == {name: [] for name in _COSTLY}
    # the four witness attributes share one search, made on reduced families only
    for cls in classes:
        for name in ("self_semi_disjoint_witness", "self_disjoint", "self_semi_disjoint",
                     "self_disjoint_witness"):
            getattr(cls, name)
    assert calls["disjoint_witnesses"] == [cls.family for cls in classes if cls.reduced]
    assert calls["self_contained"] == calls["ordered_in"] == []


def test_implication_chain_computes_costly_classes_only_under_a_premise(monkeypatch):
    calls = _count_costly_calls(monkeypatch)
    for h in make_batch("general", 8, 8, 2, 3) + make_batch("chordal", 8, 8, 2, 3):
        ctx = checks._Ctx(h, QQ, 0)
        assert ctx.sv is not None  # the survey, built first, calls the same predicates
        for seen in calls.values():
            seen.clear()
        assert checks._check_implication_chain(ctx).status == "pass"
        edges = oracle.edge_sets(h)
        searched = calls["disjoint_witnesses"]
        assert len(searched) == len(set(searched))
        assert all(oracle.reduced(edges, fam) for fam in searched)
        assert all(len(order) <= 1 or oracle.reduced(edges, order)
                   for order in calls["ordered_in"])
        for bits in calls["self_contained"]:
            fam = tuple(bits_of(bits))
            assert oracle.self_semi_induced(edges, fam) or oracle.self_ordered_in(edges, fam)
        # most reduced families are neither, and skip the scan
        assert len(calls["self_contained"]) < len(searched)


# ---------------------------------------------------------------------------
# implications and inequalities, property-tested


def _assert_premises_imply_reduced(h):
    """On a nonempty family, every premise of ``checks._IMPLICATIONS``
    holds only if the family oracle finds it reduced: what lets
    ``implication-chain`` walk only the reduced families."""
    edges = oracle.edge_sets(h)
    for r in range(1, h.m + 1):
        for fam in itertools.combinations(range(h.m), r):
            cls = classify(h, fam)
            for premise, _ in checks._IMPLICATIONS:
                assert not getattr(cls, premise) or oracle.reduced(edges, fam), (premise, fam)


@settings(max_examples=60, deadline=None)
@given(sized_hypergraphs())
def test_class_implications(h):
    for r in range(h.m + 1):
        for fam in itertools.combinations(range(h.m), r):
            cls = classify(h, fam)
            if cls.induced:
                assert cls.matching and cls.self_semi_induced and cls.self_disjoint
            if cls.self_semi_induced:
                assert cls.semi_induced and cls.reduced
                assert cls.self_contained and cls.self_semi_disjoint
            if cls.self_disjoint:
                assert cls.self_semi_disjoint
            if cls.self_ordered:
                assert cls.self_contained or not cls.reduced or cls.i <= 1
            if cls.matching and cls.semi_induced:
                assert cls.induced
    _assert_premises_imply_reduced(h)


def test_premises_imply_reduced_catches_a_premise_on_an_absorbed_family(c3, monkeypatch):
    # the triangle's three edges are semi-induced and absorbed, so reading
    # self semi-induced as semi-induced alone makes a premise hold there
    real = families.FamilyClassification

    def ssi_as_semi_induced(kernel, fam):
        cls = real(kernel, fam)
        cls.self_semi_induced = cls.semi_induced
        return cls

    monkeypatch.setattr(families, "FamilyClassification", ssi_as_semi_induced)
    with pytest.raises(AssertionError, match=r"'self_semi_induced', \(0, 1, 2\)"):
        _assert_premises_imply_reduced(c3)


@settings(max_examples=60, deadline=None)
@given(sized_hypergraphs())
def test_invariant_inequalities(h):
    d = compute_invariants(h).as_dict()
    assert d["a"] <= d["m"]
    assert d["a"] <= d["b"] <= min(d["d2"], d["e"])
    assert d["a"] <= d["d1"] <= d["d2"]
    assert d["c"] <= d["e"]
    assert d["b_prime"] <= d["d2_prime"]
    assert d["d1_prime"] <= d["d2_prime"]


@settings(max_examples=40, deadline=None)
@given(graphs())
def test_graph_bouquet_identities(h):
    d = compute_invariants(h).as_dict()
    assert d["d_g"] == d["d1"] == d["d2"]
    assert d["d_g_prime"] == d["d1_prime"] == d["d2_prime"] == d["a"]


def test_ordered_family_stays_ordered_under_any_prefix(p6):
    # the ordered condition only ever consults suffix unions, so any
    # prefix of an ordered family is ordered in the induced order
    inv = compute_invariants(p6)
    order = inv.witnesses["c"]
    assert classify(p6, order).self_ordered
    for k in range(1, len(order)):
        assert classify(p6, order[:k]).self_ordered or p6.m > 0


# ---------------------------------------------------------------------------
# bouquets


def test_single_edge_bouquet():
    h = from_edge_labels([["a", "b"]])
    rep = bouquet_invariants(h)
    assert rep.total_flowers == 1 and rep.bouquet_count == 1


def test_star_bouquet():
    h = build(["r", "a", "b", "c"], [(0, 1), (0, 2), (0, 3)])
    rep = bouquet_invariants(h)
    assert rep.total_flowers == 3 and rep.bouquet_count == 1
    assert len(rep.witness_flowers) == 1
    assert rep.witness_flowers[0].root == 0


def test_two_disjoint_stars():
    edges = [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7)]
    h = build([f"v{i}" for i in range(8)], edges)
    rep = bouquet_invariants(h)
    assert rep.total_flowers == 6 and rep.bouquet_count == 2


def test_bouquets_require_graph(triple_overlap):
    with pytest.raises(NotAGraph):
        bouquet_invariants(triple_overlap)


def test_longer_path_stem_families_match_invariants():
    h = path_graph(8)
    inv = compute_invariants(h)
    assert inv.values["d_g"] == len(inv.witnesses["d_g"])
    cls = classify(h, inv.witnesses["d_g"])
    assert cls.self_disjoint


def _bouquets_every_orientation(h):
    """``bouquet_invariants`` as it was before free stems kept orientation
    0: every orientation of every induced matching, the reference for the
    whole report, witnesses included."""
    adj = [0] * h.n
    for mask in h.edges:
        a, b = tuple(bits_of(mask))
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    best_total = best_count = 0
    witness_total = witness_count = ()
    for matching in families._induced_matchings(h):
        size = len(matching)
        covered = 0
        for s in matching:
            covered |= h.edges[s]
        if size > best_count:
            best_count = size
            witness_count = tuple(
                families.Bouquet(min(h.edge_vertices(s)), (max(h.edge_vertices(s)),))
                for s in matching)
        endpoints = [h.edge_vertices(s) for s in matching]
        for orient in range(1 << size):
            roots = [endpoints[k][orient >> k & 1] for k in range(size)]
            flowers = {k: [endpoints[k][1 - (orient >> k & 1)]] for k in range(size)}
            total = size
            for v in range(h.n):
                if covered >> v & 1:
                    continue
                homes = [k for k, r in enumerate(roots) if adj[r] >> v & 1]
                if homes:
                    flowers[homes[0]].append(v)
                    total += 1
            if total > best_total:
                best_total = total
                witness_total = tuple(families.Bouquet(roots[k], tuple(sorted(flowers[k])))
                                      for k in range(size))
    return families.BouquetReport(best_total, best_count, witness_total, witness_count)


def _matching_with_pendants(stems: int, pendants: tuple[int, ...]):
    """``stems`` disjoint edges (2k, 2k+1), and one pendant edge at vertex
    2k+1 for each k in ``pendants``: only those stems have a neighbour
    outside a cover that leaves their pendant out."""
    edges = [(2 * k, 2 * k + 1) for k in range(stems)]
    edges += [(2 * k + 1, 2 * stems + t) for t, k in enumerate(pendants)]
    return build([f"v{i}" for i in range(2 * stems + len(pendants))], edges)


@pytest.mark.parametrize("h", [
    *make_batch("uniform:2", 9, 8, 3, 5), *make_batch("uniform:2", 12, 11, 3, 5),
    *make_batch("uniform:2", 14, 14, 3, 5), *make_batch("chordal", 10, 10, 3, 5),
    *make_batch("chordal", 14, 14, 3, 5),
    _matching_with_pendants(6, ()), _matching_with_pendants(6, (0, 3)),
    _matching_with_pendants(5, (1, 2, 4)), _matching_with_pendants(4, (0, 1, 2, 3)),
])
def test_bouquets_match_every_orientation(h):
    assert bouquet_invariants(h) == _bouquets_every_orientation(h)
