"""Family classification, matching invariants, and bouquet translation."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hyperbetti import limits
from hyperbetti.errors import (
    BudgetExceeded,
    IndexOutOfRange,
    NotAGraph,
    NotSelfDisjoint,
    NotStronglyDisjoint,
    ValidationError,
)
from hyperbetti.families import (
    Bouquet,
    bouquet_invariants,
    bouquets_to_family,
    classify,
    compute_invariants,
    family_to_bouquets,
    is_self_ordered,
    self_ordered_witness,
    survey,
)
from hyperbetti.hypergraph import build, from_edge_labels

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


def test_classify_rejects_bad_indices(p3):
    with pytest.raises(IndexOutOfRange):
        classify(p3, (0, 5))
    with pytest.raises(ValidationError):
        classify(p3, (1, 1))


# ---------------------------------------------------------------------------
# the ordered class depends on the order


def test_self_ordered_depends_on_order(p4):
    assert not is_self_ordered(p4, (0, 1))
    assert is_self_ordered(p4, (1, 0))
    assert self_ordered_witness(p4, (0, 1)) == (1, 0)


def test_four_cycle_has_no_ordered_pair(c4):
    for pair in itertools.permutations(range(4), 2):
        assert not is_self_ordered(c4, pair)
    assert compute_invariants(c4).as_dict()["c"] == 1


def test_singleton_always_ordered(c4):
    assert is_self_ordered(c4, (2,))


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
        assert is_self_ordered(h, w["c"])
        assert len(w["a"]) == inv.values["a"]
        assert len(w["d2"]) == inv.values["d2"]


def test_survey_budget(p4, monkeypatch):
    star = build([f"v{i}" for i in range(18)], [(0, i) for i in range(1, 18)])
    with pytest.raises(BudgetExceeded):
        survey(star)
    monkeypatch.setattr(limits, "FAMILY_BUDGET", 2)
    with pytest.raises(BudgetExceeded):
        survey(p4)
    monkeypatch.setattr(limits, "FAMILY_BUDGET", 3)
    assert survey(p4).maxima["m"].value == 2


def test_survey_hypothesis_flags(c3, p4):
    sv = survey(c3)
    assert not sv.families_all_reduced(3, 3)
    assert not sv.absorbing_families_stay_reduced(2, 3)
    assert sv.families_all_reduced(2, 3)
    sv4 = survey(p4)
    assert sv4.families_all_reduced(2, 4)
    assert sv4.absorbing_families_stay_reduced(2, 4)


def test_survey_types_match_classify(p4, c4, triple_overlap):
    kinds = (
        "matching",
        "semi_induced",
        "induced",
        "self_semi_induced",
        "self_contained",
        "self_disjoint",
        "self_semi_disjoint",
    )
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
    edges = oracle.edge_sets(h)
    for r in range(h.m + 1):
        for fam in itertools.combinations(range(h.m), r):
            order = list(fam)
            rnd.shuffle(order)
            cls = classify(h, order)
            assert cls.family == tuple(order)
            assert (cls.i, cls.j) == (len(fam), len(oracle.union(edges, fam)))
            for name, holds in oracle.UNORDERED_CLASSES.items():
                assert getattr(cls, name) == holds(edges, fam), (name, order, edges)
            assert cls.self_ordered == oracle.self_ordered_in(edges, order)
            for witness, matching in ((cls.self_disjoint_witness, True),
                                      (cls.self_semi_disjoint_witness, False)):
                assert witness == oracle.first_disjoint_witness(edges, order, matching)
                if witness is not None:
                    assert oracle.is_disjoint_witness(edges, fam, witness, matching)


@settings(max_examples=40, deadline=None)
@given(sized_hypergraphs())
# Type (2, 5) here: the first self semi-disjoint family, (1, 2), is not
# self disjoint and the next, (1, 3), is, so the self disjoint class must
# not be skipped on a type the semi-disjoint class already has.
@example(h=build([f"v{i}" for i in range(7)],
                 [(1, 2, 3, 4, 5, 6), (0, 2, 6), (0, 1, 5), (0, 1, 2, 4)]))
def test_survey_matches_family_oracle(h):
    types, counts_ssi, counts_scsi, hyp1, hyp2 = oracle.survey_facts(oracle.edge_sets(h))
    sv = survey(h)
    assert sv.types == types
    assert sv.counts_ssi == counts_ssi
    assert sv.counts_scsi == counts_scsi
    assert sv.hyp1_violations == hyp1
    assert sv.hyp2_violations == hyp2
    maxima, a_t = oracle.survey_maxima(oracle.edge_sets(h))
    assert {name: (mx.value, mx.witness) for name, mx in sv.maxima.items()} == maxima
    assert {t: (mx.value, mx.witness) for t, mx in sv.maxima_a_t.items()} == a_t


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


# ---------------------------------------------------------------------------
# implications and inequalities, property-tested


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
    assert is_self_ordered(p6, order)
    for k in range(1, len(order)):
        assert is_self_ordered(p6, order[:k]) or p6.m > 0


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


def test_family_bouquet_round_trip(p6):
    fam = (0, 1, 3, 4)
    bqs = family_to_bouquets(p6, fam)
    assert [b.root for b in bqs] == [1, 4]
    assert [b.flowers for b in bqs] == [(0, 2), (3, 5)]
    assert bouquets_to_family(p6, bqs) == fam


def test_family_to_bouquets_rejects_non_disjoint(p6):
    with pytest.raises(NotSelfDisjoint):
        family_to_bouquets(p6, (0, 2))


def test_bouquets_to_family_rejects_adjacent_stems(c4):
    bqs = (Bouquet(0, (1,)), Bouquet(2, (3,)))
    with pytest.raises(NotStronglyDisjoint):
        bouquets_to_family(c4, bqs)


def test_bouquets_to_family_rejects_missing_stem(p4):
    with pytest.raises(NotStronglyDisjoint):
        bouquets_to_family(p4, (Bouquet(0, (3,)),))


def test_bouquets_to_family_rejects_shared_vertex(p4):
    bqs = (Bouquet(1, (0,)), Bouquet(2, (1,)))
    with pytest.raises(NotStronglyDisjoint):
        bouquets_to_family(p4, bqs)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=6, max_m=6))
def test_self_disjoint_families_translate_to_bouquets(h):
    sv = survey(h)
    fam = sv.maxima["d1"].witness
    if not fam:
        return
    bqs = family_to_bouquets(h, fam)
    assert bouquets_to_family(h, bqs) == tuple(sorted(fam))
    assert sum(len(b.flowers) for b in bqs) == len(fam)


def test_longer_path_stem_families_match_invariants():
    h = path_graph(8)
    inv = compute_invariants(h)
    assert inv.values["d_g"] == len(inv.witnesses["d_g"])
    cls = classify(h, inv.witnesses["d_g"])
    assert cls.self_disjoint
